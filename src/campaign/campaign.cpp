#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "base/error.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "crypto/des.h"
#include "leakage/assess.h"
#include "lef/lef_io.h"
#include "liberty/builtin_lib.h"
#include "netlist/verilog_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pnr/def.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void add_digest(std::vector<std::pair<std::string, std::string>>& out,
                const char* name, const std::string& text) {
  out.emplace_back(name, hash_hex(fnv1a(text)));
}

bool reached(const FlowArtifacts& r, FlowStage s) {
  return static_cast<int>(r.completed_through) >= static_cast<int>(s);
}

AigCircuit elaborate(const CircuitSource& src) {
  switch (src.kind) {
    case CircuitSourceKind::kBuiltinDesDpa: return make_des_dpa_circuit();
    case CircuitSourceKind::kHdlText: return parse_hdl(src.text);
    case CircuitSourceKind::kHdlFile: return parse_hdl_file(src.text);
  }
  throw Error("campaign: unknown circuit source kind");
}

/// Everything the scheduler precomputes about one job before launch.
struct PreparedJob {
  const CampaignJob* job = nullptr;
  FlowOptions options;                 ///< spec overrides + engine cache_dir
  std::optional<AigCircuit> circuit;   ///< nullopt when elaboration failed
  std::string prepare_error;
  std::array<std::uint64_t, kNumFlowStages> keys{};  ///< 0 = stage not run
};

PreparedJob prepare_job(const CampaignJob& job, const CampaignSpec& spec,
                        const CellLibrary& library) {
  PreparedJob p;
  p.job = &job;
  p.options = job.options;
  p.options.cache_dir = spec.cache_dir;
  try {
    p.circuit = elaborate(job.circuit);
    p.keys = compute_stage_keys(job.flow, *p.circuit, library, p.options);
    // Stages past stop_after never run, so they neither produce nor
    // consume checkpoints — drop them from the dependency analysis.
    if (p.options.stop_after) {
      for (int i = static_cast<int>(*p.options.stop_after) + 1;
           i < kNumFlowStages; ++i) {
        p.keys[static_cast<std::size_t>(i)] = 0;
      }
    }
  } catch (const std::exception& e) {
    p.prepare_error = e.what();
  }
  return p;
}

void run_dpa(const CampaignJob& job, const Netlist& nl, const CapTable& caps,
             FlowReport& report) {
  DesDpaSetup setup;
  setup.key = job.dpa.key;
  setup.select_bit = job.dpa.select_bit;
  setup.sbox = job.dpa.sbox;
  setup.n_measurements = job.dpa.n_measurements;
  setup.noise_ma = job.dpa.noise_ma;
  setup.seed = job.seed;
  attach_dpa(report,
             run_des_dpa_campaign(
                 nl, caps, setup,
                 /*differential=*/job.flow == FlowKind::kSecure));
}

/// One job, start to finish, with every failure folded into the outcome.
JobOutcome execute_job(const PreparedJob& p,
                       std::shared_ptr<const CellLibrary> library) {
  const CampaignJob& job = *p.job;
  JobOutcome out;
  out.name = job.name;
  Span span("campaign.job", "campaign");
  span.arg("job", job.name);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    SECFLOW_CHECK(p.prepare_error.empty(), p.prepare_error);
    if (job.flow == FlowKind::kRegular) {
      const RegularFlowResult r =
          run_regular_flow(*p.circuit, library, p.options);
      out.report = build_flow_report(r);
      out.artifacts = artifact_digests(r);
      if (job.has_dpa) run_dpa(job, r.rtl, r.caps, out.report);
    } else {
      const SecureFlowResult r =
          run_secure_flow(*p.circuit, library, p.options);
      out.report = build_flow_report(r);
      out.artifacts = artifact_digests(r);
      if (job.has_dpa) run_dpa(job, r.diff, r.caps, out.report);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.report = FlowReport{};
    out.artifacts.clear();
  }
  out.wall_ms = wall_ms_since(t0);
  span.arg("status", out.ok ? "ok" : "error");
  SECFLOW_LOG_INFO("campaign", "job done", LogField("job", job.name),
                   LogField("status", out.ok ? "ok" : "error"),
                   LogField("ms", out.wall_ms));
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> artifact_digests(
    const RegularFlowResult& r) {
  std::vector<std::pair<std::string, std::string>> v;
  add_digest(v, "rtl.v", write_verilog(r.rtl));
  if (reached(r, FlowStage::kPlacement)) {
    add_digest(v, "lib.lef", write_lef(r.lef));
    add_digest(v, "design.def", write_def(r.def));
  }
  if (reached(r, FlowStage::kRouting)) {
    add_digest(v, "route_stats", write_route_stats(r.route_stats));
  }
  if (reached(r, FlowStage::kExtraction)) {
    add_digest(v, "extraction", write_extraction(r.extraction));
    add_digest(v, "caps", write_cap_table(r.caps));
    add_digest(v, "timing", write_timing_report(r.timing));
  }
  return v;
}

std::vector<std::pair<std::string, std::string>> artifact_digests(
    const SecureFlowResult& r) {
  std::vector<std::pair<std::string, std::string>> v;
  add_digest(v, "rtl.v", write_verilog(r.rtl));
  if (reached(r, FlowStage::kSubstitution)) {
    add_digest(v, "fat.v", write_verilog(r.fat));
    add_digest(v, "diff.v", write_verilog(r.diff));
  }
  if (reached(r, FlowStage::kPlacement)) {
    add_digest(v, "fat_lib.lef", write_lef(r.fat_lef));
    add_digest(v, "fat.def", write_def(r.fat_def));
  }
  if (reached(r, FlowStage::kRouting)) {
    add_digest(v, "route_stats", write_route_stats(r.route_stats));
  }
  if (reached(r, FlowStage::kDecomposition)) {
    add_digest(v, "diff_lib.lef", write_lef(r.lef));
    add_digest(v, "diff.def", write_def(r.def));
  }
  if (reached(r, FlowStage::kExtraction)) {
    add_digest(v, "extraction", write_extraction(r.extraction));
    add_digest(v, "caps", write_cap_table(r.caps));
    add_digest(v, "timing", write_timing_report(r.timing));
  }
  return v;
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            std::shared_ptr<const CellLibrary> library) {
  spec.validate();
  if (!library) library = builtin_stdcell018();
  const std::size_t n = spec.jobs.size();
  const int max_concurrent = std::min(
      static_cast<int>(n), Parallelism{spec.threads}.resolved_threads());

  Span campaign_span("campaign.run", "campaign");
  campaign_span.arg("campaign", spec.name);
  SECFLOW_LOG_INFO("campaign", "campaign start",
                   LogField("campaign", spec.name),
                   LogField("jobs", static_cast<std::int64_t>(n)),
                   LogField("concurrency", max_concurrent));
  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1: elaborate circuits and compute every job's key chain.
  std::vector<PreparedJob> prepared;
  prepared.reserve(n);
  for (const CampaignJob& job : spec.jobs) {
    prepared.push_back(prepare_job(job, spec, *library));
  }

  // Phase 2: dependency edges.  The first job holding a stage key is its
  // producer; later holders wait for it, then hit the checkpoint store.
  // Without a cache directory there is nothing to share, so every job is
  // independent.  Producer indices always precede dependents (spec
  // order), so the graph is acyclic by construction.
  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<int> blockers(n, 0);
  if (!spec.cache_dir.empty()) {
    std::unordered_map<std::uint64_t, std::size_t> producer_of;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::size_t> waits;
      for (const std::uint64_t key : prepared[i].keys) {
        if (key == 0) continue;
        const auto [it, inserted] = producer_of.try_emplace(key, i);
        if (!inserted && it->second != i) waits.push_back(it->second);
      }
      std::sort(waits.begin(), waits.end());
      waits.erase(std::unique(waits.begin(), waits.end()), waits.end());
      for (const std::size_t producer : waits) {
        dependents[producer].push_back(i);
        ++blockers[i];
      }
    }
  }

  // Phase 3: execute.  Ready jobs are dispatched to the pool up to the
  // concurrency cap; each completion unblocks its dependents.  Workers
  // never wait on other jobs (the DAG is tracked with counters), so the
  // pool stays deadlock-free.
  CampaignResult result;
  result.campaign = spec.name;
  result.jobs.resize(n);

  struct Sched {
    std::mutex mu;
    std::condition_variable done_cv;
    std::vector<std::size_t> ready;
    int active = 0;
    std::size_t completed = 0;
  } sched;

  for (std::size_t i = 0; i < n; ++i) {
    if (blockers[i] == 0) sched.ready.push_back(i);
  }

  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(max_concurrent);

  // Launch as many ready jobs as the cap allows.  Caller holds sched.mu;
  // pool.submit takes only the pool's own lock, so the order is acyclic.
  std::function<void()> launch_ready = [&] {
    while (sched.active < max_concurrent && !sched.ready.empty()) {
      const std::size_t i = sched.ready.front();
      sched.ready.erase(sched.ready.begin());
      ++sched.active;
      pool.submit([&, i] {
        JobOutcome out = execute_job(prepared[i], library);
        std::lock_guard<std::mutex> inner(sched.mu);
        result.jobs[i] = std::move(out);
        --sched.active;
        ++sched.completed;
        for (const std::size_t dep : dependents[i]) {
          if (--blockers[dep] == 0) sched.ready.push_back(dep);
        }
        launch_ready();
        sched.done_cv.notify_all();
      });
    }
  };

  {
    std::unique_lock<std::mutex> lock(sched.mu);
    launch_ready();
    sched.done_cv.wait(lock, [&] { return sched.completed == n; });
  }

  // Record who each job waited on (stable, spec-ordered names).
  for (std::size_t producer = 0; producer < n; ++producer) {
    for (const std::size_t dep : dependents[producer]) {
      result.jobs[dep].waited_on.push_back(spec.jobs[producer].name);
    }
  }

  for (const JobOutcome& out : result.jobs) {
    if (out.ok) {
      ++result.n_ok;
    } else {
      ++result.n_failed;
    }
  }
  result.wall_ms = wall_ms_since(t0);
  Metrics::global().add("campaign.jobs.ok",
                        static_cast<std::uint64_t>(result.n_ok));
  Metrics::global().add("campaign.jobs.failed",
                        static_cast<std::uint64_t>(result.n_failed));
  SECFLOW_LOG_INFO("campaign", "campaign done",
                   LogField("campaign", spec.name),
                   LogField("ok", result.n_ok),
                   LogField("failed", result.n_failed),
                   LogField("ms", result.wall_ms));
  return result;
}

}  // namespace secflow
