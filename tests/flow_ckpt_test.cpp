// Flow-level checkpoint tests: cache hit/miss accounting, warm-run speedup,
// selective invalidation (the content-address chain re-runs exactly the
// stages downstream of a changed input), checkpoint/resume, and bit-equality
// of cached and computed artifacts.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <vector>

#include "base/error.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"
#include "liberty/builtin_lib.h"
#include "netlist/verilog_writer.h"
#include "synth/hdl.h"

#include "flow_designs.h"

namespace secflow {
namespace {

namespace fs = std::filesystem;

/// Mid-size registered design: big enough that a cold secure flow spends
/// real time in routing (so the warm-run speedup assertion has margin),
/// small enough to keep the suite fast.
constexpr const char* kMidDesign = R"(
  module mid (input clk, input [7:0] a, input [7:0] b, output [7:0] y);
    reg [7:0] r1;
    reg [7:0] r2;
    wire [7:0] m;
    wire [7:0] s;
    assign m = (a & r2) ^ (b | r1);
    assign s = r1[0] ? (m ^ b) : (m & a);
    always @(posedge clk) begin
      r1 <= m ^ a;
      r2 <= s | b;
    end
    assign y = r2 ^ r1;
  endmodule)";

double wall_ms(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void expect_outcomes(const StageTimings& t,
                     const std::array<CacheOutcome, kNumFlowStages>& want,
                     const char* ctx) {
  for (int i = 0; i < kNumFlowStages; ++i) {
    EXPECT_EQ(t.stages[i].cache, want[i])
        << ctx << ": stage " << flow_stage_name(static_cast<FlowStage>(i));
  }
}

constexpr CacheOutcome H = CacheOutcome::kHit;
constexpr CacheOutcome M = CacheOutcome::kMiss;
constexpr CacheOutcome N = CacheOutcome::kNotRun;

/// Shared fixture: one cold cached secure run of the mid design per test
/// binary; warm-run tests reuse its cache directory read-only.
class FlowCkpt : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    circuit_ = new AigCircuit(parse_hdl(kMidDesign));
    cache_dir_ = fs::path(::testing::TempDir()) / "flow_ckpt_cache";
    fs::remove_all(cache_dir_);
    FlowOptions opts;
    opts.cache_dir = cache_dir_.string();
    const auto t0 = std::chrono::steady_clock::now();
    cold_ = new SecureFlowResult(run_secure_flow(*circuit_, lib_, opts));
    cold_ms_ = wall_ms(t0);
  }
  static void TearDownTestSuite() {
    delete cold_;
    delete circuit_;
    cold_ = nullptr;
    circuit_ = nullptr;
    lib_.reset();
    fs::remove_all(cache_dir_);
  }

  static FlowOptions cached_opts() {
    FlowOptions o;
    o.cache_dir = cache_dir_.string();
    return o;
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static AigCircuit* circuit_;
  static fs::path cache_dir_;
  static SecureFlowResult* cold_;
  static double cold_ms_;
};

std::shared_ptr<const CellLibrary> FlowCkpt::lib_;
AigCircuit* FlowCkpt::circuit_ = nullptr;
fs::path FlowCkpt::cache_dir_;
SecureFlowResult* FlowCkpt::cold_ = nullptr;
double FlowCkpt::cold_ms_ = 0.0;

TEST_F(FlowCkpt, ColdRunMissesAndCheckpointsEveryStage) {
  expect_outcomes(cold_->timings, {M, M, M, M, M, M}, "cold");
  EXPECT_EQ(cold_->timings.cache_hits(), 0);
  EXPECT_EQ(cold_->timings.cache_misses(), kNumFlowStages);
  const ArtifactStore store(cache_dir_.string());
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kNumFlowStages));
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    EXPECT_NE(cold_->timings.key(s), 0u);
    EXPECT_TRUE(store.contains(flow_stage_name(s), cold_->timings.key(s)))
        << flow_stage_name(s);
  }
}

TEST_F(FlowCkpt, WarmRunHitsEveryStage) {
  const SecureFlowResult warm =
      run_secure_flow(*circuit_, lib_, cached_opts());

  expect_outcomes(warm.timings, {H, H, H, H, H, H}, "warm");
  EXPECT_EQ(warm.timings.cache_hits(), kNumFlowStages);
  // No wall-clock bar here: on a design this small a cold run now
  // finishes in tens of milliseconds (the windowed incremental router),
  // so deserializing six artifacts is not reliably faster than simply
  // recomputing them.  What the cache must guarantee is the hits above
  // and the bit-identical artifacts checked below.
  // Same keys as the run that wrote the entries.
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    EXPECT_EQ(warm.timings.key(s), cold_->timings.key(s));
  }
}

TEST_F(FlowCkpt, CachedArtifactsAreBitIdenticalToComputedOnes) {
  const SecureFlowResult warm =
      run_secure_flow(*circuit_, lib_, cached_opts());
  EXPECT_EQ(write_verilog(warm.rtl), write_verilog(cold_->rtl));
  EXPECT_EQ(write_verilog(warm.fat), write_verilog(cold_->fat));
  EXPECT_EQ(write_verilog(warm.diff), write_verilog(cold_->diff));
  EXPECT_EQ(write_def(warm.fat_def), write_def(cold_->fat_def));
  EXPECT_EQ(write_def(warm.def), write_def(cold_->def));
  EXPECT_EQ(write_extraction(warm.extraction),
            write_extraction(cold_->extraction));
  EXPECT_EQ(write_cap_table(warm.caps), write_cap_table(cold_->caps));
  EXPECT_EQ(write_timing_report(warm.timing),
            write_timing_report(cold_->timing));
  EXPECT_EQ(write_route_stats(warm.route_stats),
            write_route_stats(cold_->route_stats));
  EXPECT_EQ(write_lec_result(warm.lec), write_lec_result(cold_->lec));
  EXPECT_EQ(write_check_result(warm.stream_out_check),
            write_check_result(cold_->stream_out_check));
  EXPECT_EQ(write_substitution_stats(warm.sub_stats),
            write_substitution_stats(cold_->sub_stats));
  // On a substitution hit the live compound inventory is not rebuilt; the
  // fat netlist carries the deserialized fat library instead.
  EXPECT_EQ(warm.wlib, nullptr);
  EXPECT_EQ(warm.fat.library().size(), cold_->fat.library().size());
}

TEST_F(FlowCkpt, RoutingOptionChangeRerunsRoutingOnwardOnly) {
  // The issue's acceptance criterion: change a routing-stage option and
  // synthesis/substitution/placement still hit while routing and every
  // stage downstream of it re-run.
  FlowOptions opts = cached_opts();
  opts.route.via_cost += 2;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, M, M, M}, "route change");
  // Upstream keys unchanged, routing key (and the chain after it) re-keyed.
  EXPECT_EQ(r.timings.key(FlowStage::kPlacement),
            cold_->timings.key(FlowStage::kPlacement));
  EXPECT_NE(r.timings.key(FlowStage::kRouting),
            cold_->timings.key(FlowStage::kRouting));
  EXPECT_NE(r.timings.key(FlowStage::kExtraction),
            cold_->timings.key(FlowStage::kExtraction));
}

TEST_F(FlowCkpt, ExtractionOptionChangeRerunsOnlyExtraction) {
  FlowOptions opts = cached_opts();
  opts.extract.coupling_max_sep_um += 0.3;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, H, H, M}, "extract change");
}

TEST_F(FlowCkpt, SynthesisInputChangeInvalidatesTheWholeChain) {
  const AigCircuit other = parse_hdl(R"(
    module mid (input clk, input [7:0] a, input [7:0] b, output [7:0] y);
      reg [7:0] r1;
      always @(posedge clk) r1 <= a ^ b;
      assign y = r1;
    endmodule)");
  const SecureFlowResult r = run_secure_flow(other, lib_, cached_opts());
  expect_outcomes(r.timings, {M, M, M, M, M, M}, "new circuit");
  EXPECT_NE(r.timings.key(FlowStage::kSynthesis),
            cold_->timings.key(FlowStage::kSynthesis));
}

TEST_F(FlowCkpt, ThreadCountDoesNotAffectCacheKeys) {
  // The flow is bit-identical for any thread count, so parallelism is
  // excluded from the fingerprints: a differently-threaded run still hits.
  FlowOptions opts = cached_opts();
  opts.parallelism.n_threads = 2;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, H, H, H}, "2 threads");
}

TEST_F(FlowCkpt, StopAfterThenResumeReproducesTheFullRun) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_resume_cache";
  fs::remove_all(dir);

  // First half: run through placement and stop.
  FlowOptions first;
  first.cache_dir = dir.string();
  first.stop_after = FlowStage::kPlacement;
  const SecureFlowResult head = run_secure_flow(*circuit_, lib_, first);
  expect_outcomes(head.timings, {M, M, M, N, N, N}, "stop_after");
  EXPECT_EQ(head.completed_through, FlowStage::kPlacement);
  EXPECT_EQ(ArtifactStore(dir.string()).size(), 3u);
  // Later-stage artifacts are placeholders.
  EXPECT_TRUE(head.def.nets.empty());
  EXPECT_EQ(head.timings.stage_ms(FlowStage::kRouting), 0.0);
  EXPECT_EQ(head.timings.key(FlowStage::kRouting), 0u);
  // The checkpointed prefix matches the full run's: same placement key,
  // and byte-identical placed.def (cold_->fat_def itself was later mutated
  // in place by routing, so compare against the placement checkpoint).
  EXPECT_EQ(head.timings.key(FlowStage::kPlacement),
            cold_->timings.key(FlowStage::kPlacement));
  const auto placed = ArtifactStore(cache_dir_.string())
                          .load("placement",
                                cold_->timings.key(FlowStage::kPlacement));
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(write_def(head.fat_def), placed->section("placed.def"));

  // Second half: resume from routing; the prefix must load, not recompute.
  FlowOptions second;
  second.cache_dir = dir.string();
  second.resume_from = FlowStage::kRouting;
  const SecureFlowResult tail = run_secure_flow(*circuit_, lib_, second);
  expect_outcomes(tail.timings, {H, H, H, M, M, M}, "resume_from");
  EXPECT_EQ(tail.completed_through, FlowStage::kExtraction);
  // The stitched run equals the one-shot cold run: layout and caps bit for
  // bit; timing up to net enumeration order (net_arrival_ps is NetId-
  // indexed, and a netlist reparsed from cache may number nets differently
  // than the one built in memory).
  EXPECT_EQ(write_def(tail.def), write_def(cold_->def));
  EXPECT_EQ(write_cap_table(tail.caps), write_cap_table(cold_->caps));
  EXPECT_EQ(tail.timing.critical_delay_ps, cold_->timing.critical_delay_ps);
  EXPECT_EQ(tail.timing.min_period_ps, cold_->timing.min_period_ps);
  EXPECT_EQ(tail.timing.endpoint, cold_->timing.endpoint);
  std::vector<double> ta = tail.timing.net_arrival_ps;
  std::vector<double> ca = cold_->timing.net_arrival_ps;
  std::sort(ta.begin(), ta.end());
  std::sort(ca.begin(), ca.end());
  EXPECT_EQ(ta, ca);

  fs::remove_all(dir);
}

TEST_F(FlowCkpt, ResumeAgainstAnEmptyCacheThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_empty_cache";
  fs::remove_all(dir);
  FlowOptions opts;
  opts.cache_dir = dir.string();
  opts.resume_from = FlowStage::kRouting;
  EXPECT_THROW(run_secure_flow(*circuit_, lib_, opts), Error);
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, RegularFlowCachesItsFourStages) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_regular_cache";
  fs::remove_all(dir);
  FlowOptions opts;
  opts.cache_dir = dir.string();
  const RegularFlowResult cold = run_regular_flow(*circuit_, lib_, opts);
  expect_outcomes(cold.timings, {M, N, M, M, N, M}, "regular cold");
  const RegularFlowResult warm = run_regular_flow(*circuit_, lib_, opts);
  expect_outcomes(warm.timings, {H, N, H, H, N, H}, "regular warm");
  EXPECT_EQ(write_def(warm.def), write_def(cold.def));
  EXPECT_EQ(write_cap_table(warm.caps), write_cap_table(cold.caps));
  // Regular and secure runs of the same circuit never share cache entries.
  EXPECT_NE(warm.timings.key(FlowStage::kSynthesis),
            cold_->timings.key(FlowStage::kSynthesis));
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, RegularFlowRejectsSecureOnlyStages) {
  FlowOptions opts = cached_opts();
  opts.stop_after = FlowStage::kSubstitution;
  EXPECT_THROW(run_regular_flow(*circuit_, lib_, opts), Error);
  opts.stop_after.reset();
  opts.resume_from = FlowStage::kDecomposition;
  EXPECT_THROW(run_regular_flow(*circuit_, lib_, opts), Error);
}

TEST_F(FlowCkpt, RunsRecordTheKeysComputeStageKeysPredicts) {
  // compute_stage_keys is the single source of the key chain: the campaign
  // scheduler plans shared checkpoints with it, and readers outside the
  // flow look checkpoints up by it.  A run must record exactly those keys,
  // and 0 for every stage it does not run.
  const FlowOptions full;
  FlowOptions head;
  head.stop_after = FlowStage::kPlacement;
  for (const char* hdl : {kSmallDesign, kSeqRstDesign}) {
    const AigCircuit c = parse_hdl(hdl);
    for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
      const auto run = [&](const FlowOptions& o) {
        return kind == FlowKind::kSecure ? run_secure_flow(c, lib_, o).timings
                                         : run_regular_flow(c, lib_, o).timings;
      };
      const auto want = compute_stage_keys(kind, c, *lib_, full);
      const StageTimings t = run(full);
      const StageTimings h = run(head);
      for (int i = 0; i < kNumFlowStages; ++i) {
        const FlowStage s = static_cast<FlowStage>(i);
        const std::string ctx = c.name + "." + flow_kind_name(kind) + "." +
                                flow_stage_name(s);
        const bool secure_only = s == FlowStage::kSubstitution ||
                                 s == FlowStage::kDecomposition;
        if (kind == FlowKind::kRegular && secure_only) {
          EXPECT_EQ(want[i], 0u) << ctx;
        } else {
          EXPECT_NE(want[i], 0u) << ctx;
        }
        EXPECT_EQ(t.key(s), want[i]) << ctx;
        EXPECT_EQ(h.key(s), s <= FlowStage::kPlacement ? want[i] : 0u) << ctx;
      }
    }
  }
}

TEST_F(FlowCkpt, UncachedRunsReportDisabled) {
  const AigCircuit tiny = parse_hdl(
      "module t (input a, input b, output y); assign y = a & b; endmodule");
  const RegularFlowResult r = run_regular_flow(tiny, lib_);
  expect_outcomes(
      r.timings,
      {CacheOutcome::kDisabled, N, CacheOutcome::kDisabled,
       CacheOutcome::kDisabled, N, CacheOutcome::kDisabled},
      "no cache_dir");
  EXPECT_EQ(r.timings.cache_hits(), 0);
  EXPECT_EQ(r.timings.cache_misses(), 0);
}

}  // namespace
}  // namespace secflow
