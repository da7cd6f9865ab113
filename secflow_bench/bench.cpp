// secflow benchmark binary: runs one workload in this process as a single
// closed-loop caller (the next operation starts when the previous one
// returns), checks every operation's output, and prints one JSON object of
// raw samples as the last line of stdout.  run.py builds this binary and
// turns the samples into the metrics named in BENCHMARK.json.
//
//   secflow_bench --workload des-flow --seed 7 --seconds 15 --trace 0
//                 --work <scratch dir inside the checkout>
//                 [--spans <path>]
//
// --trace 0 times the program's own entry points (run_*_flow,
// assess_des_leakage).  --trace 1 first times the same untraced operation
// for half the run, then makes the same work as separate public calls in
// the stage order flow.cpp uses, with a benchmark-side span around each
// call, and finally repeats one traced operation at one thread.  Every
// operation's artifacts (DEF, cap table, timing/leakage report) are
// hashed; the hashes must agree across operations, between the traced and
// untraced paths, and at one thread.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"
#include "secflow.h"

using namespace secflow;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- benchmark-side tracing -----------------------------------------------

/// Spans kept in memory and written out at exit.  Each closed span adds its
/// self time (duration minus its children) to the current operation's
/// per-layer totals.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start_ms = 0.0, end_ms = 0.0;
    int id = 0, parent = -1, op = 0;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void begin_op(int op) {
    op_ = op;
    layers_.emplace_back();
  }
  std::map<std::string, double>& layers() { return layers_.back(); }
  const std::vector<std::map<std::string, double>>& all_layers() const {
    return layers_;
  }
  /// Adds `v` to a per-operation counter.
  void count(const std::string& name, double v) { layers()[name] += v; }

  void open(const char* name) {
    Record r;
    r.name = name;
    r.start_ms = ms_between(epoch_, Clock::now());
    r.id = static_cast<int>(records_.size());
    r.parent = stack_.empty() ? -1 : stack_.back().first;
    r.op = op_;
    records_.push_back(std::move(r));
    stack_.emplace_back(records_.back().id, 0.0);
  }
  void close() {
    const auto [id, child_ms] = stack_.back();
    stack_.pop_back();
    Record& r = records_[static_cast<std::size_t>(id)];
    r.end_ms = ms_between(epoch_, Clock::now());
    const double dur = r.end_ms - r.start_ms;
    if (stack_.empty()) {
      layers()["spans.ms"] += dur;
    } else {
      stack_.back().second += dur;
    }
    layers()[r.name + ".ms"] += dur - child_ms;
  }

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"start_ms\":%.4f,\"end_ms\":%.4f,"
                    "\"id\":%d,\"parent\":%d,\"op\":%d}%s\n",
                    r.name.c_str(), r.start_ms, r.end_ms, r.id, r.parent, r.op,
                    i + 1 < records_.size() ? "," : "");
      out << buf;
    }
    out << "]\n";
  }

 private:
  Clock::time_point epoch_;
  int op_ = 0;
  std::vector<Record> records_;
  std::vector<std::pair<int, double>> stack_;  // (record id, child ms)
  std::vector<std::map<std::string, double>> layers_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, const char* name) : t_(t) {
    if (t_) t_->open(name);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

void count(Tracer* t, const std::string& name, double v) {
  if (t) t->count(name, v);
}

// --- inputs and options ---------------------------------------------------

/// Half-cycle evaluate budget of WDDL designs (flow.cpp's check).
double half_cycle_ps() { return SamplingSpec{}.cycle_s() * 1e12 / 2; }

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

FlowOptions flow_options(std::uint64_t seed, int threads) {
  FlowOptions o;
  o.place.seed = seed;
  o.parallelism.n_threads = threads;
  o.place.parallelism.n_threads = threads;
  o.route.parallelism.n_threads = threads;
  o.extract.parallelism.n_threads = threads;
  return o;
}

LeakageSetup leakage_setup(std::uint64_t seed, int threads) {
  LeakageSetup s;
  s.seed = seed;
  s.design = "des_dpa";
  s.model = PowerModel::kHammingWeight;
  s.noise_ma = 0.6;
  s.tvla_traces = 2000;
  s.cpa_traces = 2000;
  s.mtd.max_traces = 2000;
  s.mtd.step = 200;
  s.parallelism.n_threads = threads;
  return s;
}

/// TVLA + CPA traces per operation (both implementations).
constexpr int kTracesPerAssessOp = 2 * (2000 + 2000);

// --- artifact hashing -----------------------------------------------------

struct FlowView {
  const DefDesign* def = nullptr;
  const CapTable* caps = nullptr;
  const TimingReport* timing = nullptr;
  const RouteStats* route = nullptr;
};

void hash_flow(Hasher& h, const FlowView& v) {
  h.add(write_def(*v.def))
      .add(write_cap_table(*v.caps))
      .add(write_timing_report(*v.timing))
      .add(write_route_stats(*v.route));
}

FlowView view(const FlowArtifacts& r) {
  return {&r.def, &r.caps, &r.timing, &r.route_stats};
}

/// The leakage report minus the fields that describe how it was produced
/// (thread count, trace-cache verdicts) rather than what it found.
void hash_leakage(Hasher& h, LeakageReport r) {
  r.n_threads = 0;
  r.trace_cache_hits = 0;
  r.trace_cache_misses = 0;
  h.add(leakage_report_json(r));
}

// --- per-operation result -------------------------------------------------

struct Quality {
  double wirelength_um = 0.0;
  double critical_delay_ps = 0.0;
  double rail_mismatch_max_ff = 0.0;
};

Quality quality_of(const DefDesign& def, const TimingReport& timing,
                   const Extraction& ex) {
  Quality q;
  q.wirelength_um = dbu_to_um(def.total_wirelength());
  q.critical_delay_ps = timing.critical_delay_ps;
  for (const auto& [net, ff] : rail_mismatch_ff(ex)) {
    q.rail_mismatch_max_ff = std::max(q.rail_mismatch_max_ff, ff);
  }
  return q;
}

struct OpResult {
  std::uint64_t hash = 0;
  std::vector<std::string> failures;
  Quality quality;
  std::map<std::string, double> info;  // printed, not gated

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

// --- traced flow decomposition --------------------------------------------

/// The checkpoint traffic of one traced operation, mirroring flow.cpp's
/// stage cache: a lookup per stage, a save per computed stage.
struct StageStore {
  std::optional<ArtifactStore> store;
  Tracer* tr = nullptr;

  std::optional<Artifact> lookup(FlowStage s, std::uint64_t key) {
    if (!store) return std::nullopt;
    Scope span(tr, "ckpt.load");
    std::optional<Artifact> a = store->load(flow_stage_name(s), key);
    count(tr, "ckpt.lookups", 1);
    if (a) {
      count(tr, "ckpt.hits", 1);
      count(tr, "ckpt.bytes", static_cast<double>(artifact_bytes(*a)));
    }
    return a;
  }
  void save(FlowStage s, std::uint64_t key, Artifact a) {
    a.kind = flow_stage_name(s);
    a.key = key;
    count(tr, "ckpt.bytes", static_cast<double>(artifact_bytes(a)));
    store->save(a);
  }
  static std::size_t artifact_bytes(const Artifact& a) {
    std::size_t n = 0;
    for (const auto& sec : a.sections) n += sec.second.size();
    return n;
  }
};

std::size_t idx(FlowStage s) { return static_cast<std::size_t>(s); }

struct TracedFlow {
  explicit TracedFlow(Netlist n) : rtl(std::move(n)) {}

  Netlist rtl;
  std::optional<Netlist> fat, diff;
  LefLibrary fat_lef;
  DefDesign fat_def, def;
  RouteStats rs;
  Extraction ex;
  CapTable caps;
  TimingReport timing;
  LecResult lec;
  CheckResult stream_check;
  int hits = 0;
  std::uint64_t extraction_key = 0;  ///< base key of the trace cache
};

void route_counters(Tracer* tr, const RouteStats& rs) {
  count(tr, "pnr.route.iterations", rs.iterations);
  count(tr, "pnr.route.expanded_nodes", static_cast<double>(rs.expanded_nodes));
  count(tr, "pnr.route.nets_ripped", static_cast<double>(rs.nets_ripped));
  count(tr, "pnr.route.full_grid_searches", rs.full_grid_searches);
}

RouteStats traced_route(Tracer* tr, const Netlist& nl, const LefLibrary& lef,
                        DefDesign& def, const FlowOptions& o) {
  RouteStats rs;
  {
    Scope span(tr, "pnr.route");
    rs = o.route_mode == RouteMode::kQuickLShaped
             ? route_design_quick(nl, lef, def)
             : route_design(nl, lef, def, o.route);
  }
  route_counters(tr, rs);
  return rs;
}

DefDesign traced_place(Tracer* tr, const Netlist& nl, const LefLibrary& lef,
                       const PlaceOptions& o) {
  DefDesign d;
  {
    Scope span(tr, "pnr.place");
    d = place_design(nl, lef, o);
  }
  if (tr) count(tr, "pnr.place.hpwl_um", dbu_to_um(placement_hpwl(nl, lef, d)));
  return d;
}

/// Synthesis stage shared by both flows.
Netlist traced_synthesis(StageStore& st, const AigCircuit& circuit,
                         const std::shared_ptr<const CellLibrary>& lib,
                         const SynthConstraints& synth, std::uint64_t key,
                         int& hits) {
  if (const auto a = st.lookup(FlowStage::kSynthesis, key)) {
    Scope span(st.tr, "ckpt.load");
    ++hits;
    return parse_verilog(a->section("rtl.v"), lib);
  }
  std::optional<Netlist> rtl;
  {
    Scope span(st.tr, "synth");
    rtl = technology_map(circuit, lib, synth);
    rtl->validate();
  }
  if (st.store) {
    Scope span(st.tr, "ckpt.save");
    Artifact out;
    out.add("rtl.v", write_verilog(*rtl));
    st.save(FlowStage::kSynthesis, key, std::move(out));
  }
  return std::move(*rtl);
}

/// Routing stage shared by both flows (fat layout for the secure one).
void traced_routing(StageStore& st, const Netlist& nl, const LefLibrary& lef,
                    DefDesign& def, RouteStats& rs, const FlowOptions& o,
                    std::uint64_t key, int& hits) {
  if (const auto a = st.lookup(FlowStage::kRouting, key)) {
    Scope span(st.tr, "ckpt.load");
    ++hits;
    def = parse_def(a->section("routed.def"));
    rs = parse_route_stats(a->section("route_stats"));
    return;
  }
  rs = traced_route(st.tr, nl, lef, def, o);
  if (st.store) {
    Scope span(st.tr, "ckpt.save");
    Artifact out;
    out.add("routed.def", write_def(def));
    out.add("route_stats", write_route_stats(rs));
    st.save(FlowStage::kRouting, key, std::move(out));
  }
}

/// Extraction stage (extraction + cap table + STA) shared by both flows.
void traced_extraction(StageStore& st, const DefDesign& def, const Netlist& nl,
                       TracedFlow& r, const FlowOptions& o, std::uint64_t key) {
  if (const auto a = st.lookup(FlowStage::kExtraction, key)) {
    Scope span(st.tr, "ckpt.load");
    ++r.hits;
    r.ex = parse_extraction(a->section("extraction"));
    r.caps = parse_cap_table(a->section("caps"));
    r.timing = parse_timing_report(a->section("timing"));
    return;
  }
  {
    Scope span(st.tr, "extract");
    r.ex = extract_parasitics(def, nl, o.extract);
    r.caps = build_cap_table(nl, r.ex);
  }
  {
    Scope span(st.tr, "sta");
    r.timing = analyze_timing(nl, r.caps);
  }
  if (st.store) {
    Scope span(st.tr, "ckpt.save");
    Artifact out;
    out.add("extraction", write_extraction(r.ex));
    out.add("caps", write_cap_table(r.caps));
    out.add("timing", write_timing_report(r.timing));
    st.save(FlowStage::kExtraction, key, std::move(out));
  }
}

TracedFlow traced_regular_flow(Tracer* tr, const AigCircuit& circuit,
                               const std::shared_ptr<const CellLibrary>& lib,
                               const FlowOptions& o) {
  StageStore st;
  st.tr = tr;
  if (!o.cache_dir.empty()) st.store.emplace(o.cache_dir);
  const auto keys = compute_stage_keys(FlowKind::kRegular, circuit, *lib, o);
  int hits = 0;
  TracedFlow r(traced_synthesis(st, circuit, lib, o.synth,
                                keys[idx(FlowStage::kSynthesis)], hits));
  r.hits = hits;
  r.extraction_key = keys[idx(FlowStage::kExtraction)];
  const LefLibrary lef = generate_lef(*lib, LefGenOptions{o.extract.process});
  if (const auto a =
          st.lookup(FlowStage::kPlacement, keys[idx(FlowStage::kPlacement)])) {
    Scope span(tr, "ckpt.load");
    ++r.hits;
    r.def = parse_def(a->section("placed.def"));
  } else {
    r.def = traced_place(tr, r.rtl, lef, o.place);
    if (st.store) {
      Scope span(tr, "ckpt.save");
      Artifact out;
      out.add("placed.def", write_def(r.def));
      st.save(FlowStage::kPlacement, keys[idx(FlowStage::kPlacement)],
              std::move(out));
    }
  }
  traced_routing(st, r.rtl, lef, r.def, r.rs, o, keys[idx(FlowStage::kRouting)],
                 r.hits);
  traced_extraction(st, r.def, r.rtl, r, o, keys[idx(FlowStage::kExtraction)]);
  return r;
}

/// The secure flow as separate calls; runs the extraction stage only when
/// `through` is kExtraction (aes4-scale stops after decomposition).
TracedFlow traced_secure_flow(Tracer* tr, const AigCircuit& circuit,
                              const std::shared_ptr<const CellLibrary>& lib,
                              FlowOptions o, FlowStage through) {
  if (o.synth.allowed_cells.empty()) o.synth = wddl_synth_constraints();
  StageStore st;
  st.tr = tr;
  if (!o.cache_dir.empty()) st.store.emplace(o.cache_dir);
  const auto keys = compute_stage_keys(FlowKind::kSecure, circuit, *lib, o);
  int hits = 0;
  TracedFlow r(traced_synthesis(st, circuit, lib, o.synth,
                                keys[idx(FlowStage::kSynthesis)], hits));
  r.hits = hits;
  r.extraction_key = keys[idx(FlowStage::kExtraction)];

  const std::uint64_t sub_key = keys[idx(FlowStage::kSubstitution)];
  if (const auto a = st.lookup(FlowStage::kSubstitution, sub_key)) {
    Scope span(tr, "ckpt.load");
    ++r.hits;
    std::shared_ptr<const CellLibrary> fat_lib = std::make_shared<CellLibrary>(
        parse_cell_library(a->section("fat_lib")));
    r.fat = parse_verilog(a->section("fat.v"), fat_lib);
    r.diff = parse_verilog(a->section("diff.v"), lib);
    r.lec = parse_lec_result(a->section("lec"));
  } else {
    SubstitutionStats stats;
    {
      Scope span(tr, "wddl");
      WddlLibrary wlib(lib);
      SubstitutionResult sub = substitute_cells(r.rtl, wlib);
      r.fat = std::move(sub.fat);
      stats = sub.stats;
      r.diff = expand_differential(*r.fat, wlib);
    }
    {
      Scope span(tr, "lec");
      r.lec = check_equivalence(r.rtl, *r.fat);
    }
    SECFLOW_CHECK(r.lec.equivalent, "secure flow LEC failed");
    if (st.store) {
      Scope span(tr, "ckpt.save");
      Artifact out;
      out.add("fat_lib", write_cell_library(r.fat->library()));
      out.add("fat.v", write_verilog(*r.fat));
      out.add("diff.v", write_verilog(*r.diff));
      out.add("stats", write_substitution_stats(stats));
      out.add("lec", write_lec_result(r.lec));
      st.save(FlowStage::kSubstitution, sub_key, std::move(out));
    }
  }

  LefGenOptions fat_gen{o.extract.process};
  fat_gen.wire_scale = o.shielded_pairs ? 3.0 : 2.0;
  r.fat_lef = generate_lef(r.fat->library(), fat_gen);
  if (const auto a =
          st.lookup(FlowStage::kPlacement, keys[idx(FlowStage::kPlacement)])) {
    Scope span(tr, "ckpt.load");
    ++r.hits;
    r.fat_def = parse_def(a->section("placed.def"));
  } else {
    r.fat_def = traced_place(tr, *r.fat, r.fat_lef, o.place);
    if (st.store) {
      Scope span(tr, "ckpt.save");
      Artifact out;
      out.add("placed.def", write_def(r.fat_def));
      st.save(FlowStage::kPlacement, keys[idx(FlowStage::kPlacement)],
              std::move(out));
    }
  }
  traced_routing(st, *r.fat, r.fat_lef, r.fat_def, r.rs, o,
                 keys[idx(FlowStage::kRouting)], r.hits);

  const Process018& pr = o.extract.process;
  const std::uint64_t dec_key = keys[idx(FlowStage::kDecomposition)];
  if (const auto a = st.lookup(FlowStage::kDecomposition, dec_key)) {
    Scope span(tr, "ckpt.load");
    ++r.hits;
    r.def = parse_def(a->section("diff.def"));
    r.stream_check = parse_check_result(a->section("stream_check"));
  } else {
    {
      Scope span(tr, "pnr.decompose");
      const LefLibrary diff_lef =
          make_diff_lef(r.fat_lef, pr.wire_pitch_um, pr.wire_width_um);
      DecomposeOptions dopts;
      dopts.add_shields = o.shielded_pairs;
      // The clock stays single-ended, as in the flow.
      for (InstId iid : r.fat->instance_ids()) {
        const CellType& type = r.fat->cell_of(iid);
        if (type.kind != CellKind::kFlop) continue;
        const NetId ck = r.fat->instance(iid)
                             .conns[static_cast<std::size_t>(type.ck_pin())];
        if (ck.valid()) {
          dopts.single_ended_nets.push_back(r.fat->net(ck).name);
          break;
        }
      }
      r.def = decompose_interconnect(r.fat_def, um_to_dbu(pr.wire_pitch_um),
                                     um_to_dbu(pr.wire_width_um), dopts);
      r.stream_check =
          check_differential_symmetry(r.def, um_to_dbu(pr.wire_pitch_um));
      const CheckResult rail = check_stream_out(
          *r.fat, diff_lef, r.def, 5 * r.fat_lef.track_pitch_dbu());
      SECFLOW_CHECK(r.stream_check.ok && rail.ok,
                    "decomposition symmetry / stream-out check failed");
      r.stream_check.nets_checked += rail.nets_checked;
      r.stream_check.pins_checked += rail.pins_checked;
    }
    if (st.store) {
      Scope span(tr, "ckpt.save");
      Artifact out;
      out.add("diff.def", write_def(r.def));
      out.add("stream_check", write_check_result(r.stream_check));
      st.save(FlowStage::kDecomposition, dec_key, std::move(out));
    }
  }
  if (through == FlowStage::kExtraction) {
    traced_extraction(st, r.def, *r.diff, r, o,
                      keys[idx(FlowStage::kExtraction)]);
    SECFLOW_CHECK(r.timing.critical_delay_ps < half_cycle_ps(),
                  "WDDL evaluation does not fit the evaluate half-cycle");
  }
  return r;
}

FlowView view(const TracedFlow& r) {
  return {&r.def, &r.caps, &r.timing, &r.rs};
}

// --- traced leakage decomposition -----------------------------------------
//
// The same trace streams, blocks and statistics as leakage/assess.cpp: the
// campaign tasks, the block content-address and the block layout below
// must match it, or the traced and untraced hashes differ (cold) or the
// warm replay misses (des-warm) — both fail the run.

constexpr const char* kTraceKind = "leakage-traces";
constexpr std::uint32_t kFixedPl = 0x5;
constexpr std::uint32_t kFixedPr = 0x2A;
constexpr std::uint64_t kTvlaStreamBase = 1ull << 40;

using AbsTraceTask =
    std::function<SimTrace(PowerSimulator& sim, Rng& rng, int abs_index)>;

void add_noise(SimTrace& t, Rng& rng, double noise_ma) {
  if (noise_ma <= 0.0) return;
  for (double& v : t.cycle.current_ma) v += noise_ma * rng.next_gaussian();
}

SimTrace des_cpa_trace(PowerSimulator& sim, Rng& rng, const DesPortMap& ports,
                       const LeakageSetup& s) {
  const auto prev_pl = static_cast<std::uint32_t>(rng.next_below(16));
  const auto prev_pr = static_cast<std::uint32_t>(rng.next_below(64));
  const auto pl = static_cast<std::uint32_t>(rng.next_below(16));
  const auto pr = static_cast<std::uint32_t>(rng.next_below(64));
  ports.drive(sim, ports.k, s.key);
  ports.drive(sim, ports.pl, prev_pl);
  ports.drive(sim, ports.pr, prev_pr);
  sim.settle();
  sim.run_cycle();
  ports.drive(sim, ports.pl, pl);
  ports.drive(sim, ports.pr, pr);
  sim.run_cycle();
  SimTrace out;
  out.cycle = sim.run_cycle();
  const std::uint32_t prev_ct =
      ports.read(sim, ports.cl) | (ports.read(sim, ports.cr) << 4);
  sim.run_cycle();
  const std::uint32_t ct =
      ports.read(sim, ports.cl) | (ports.read(sim, ports.cr) << 4);
  out.observable = ct | (prev_ct << 10);
  add_noise(out, rng, s.noise_ma);
  return out;
}

SimTrace des_tvla_trace(PowerSimulator& sim, Rng& rng, const DesPortMap& ports,
                        const LeakageSetup& s, bool fixed) {
  const auto prev_pl = static_cast<std::uint32_t>(rng.next_below(16));
  const auto prev_pr = static_cast<std::uint32_t>(rng.next_below(64));
  const auto rnd_pl = static_cast<std::uint32_t>(rng.next_below(16));
  const auto rnd_pr = static_cast<std::uint32_t>(rng.next_below(64));
  ports.drive(sim, ports.k, s.key);
  ports.drive(sim, ports.pl, prev_pl);
  ports.drive(sim, ports.pr, prev_pr);
  sim.settle();
  sim.run_cycle();
  ports.drive(sim, ports.pl, fixed ? kFixedPl : rnd_pl);
  ports.drive(sim, ports.pr, fixed ? kFixedPr : rnd_pr);
  sim.run_cycle();
  SimTrace out;
  out.cycle = sim.run_cycle();
  add_noise(out, rng, s.noise_ma);
  return out;
}

/// Trace source of one traced assessment: the checkpoint store when
/// LeakageSetup::cache_dir is set, the simulator on a miss.
struct TraceSource {
  const CompiledSimModel& model;
  const LeakageSetup& s;
  bool differential = false;
  std::optional<ArtifactStore> store;
  Tracer* tr = nullptr;
  int hits = 0, misses = 0;

  std::uint64_t key(const char* purpose, std::uint64_t stream_base, int begin,
                    int end) const {
    Hasher h;
    h.add(s.base_key).add(purpose).add(s.seed).add(stream_base);
    h.add(begin).add(end);
    h.add(s.noise_ma).add(differential);
    h.add(static_cast<std::int64_t>(s.key)).add(s.sbox);
    return h.digest();
  }

  static bool unpack(const Artifact& a, int expect_n,
                     std::vector<CpaMeasurement>* out) {
    const std::string* meta = a.find_section("meta");
    const std::string* samples = a.find_section("samples");
    const std::string* obs = a.find_section("obs");
    if (!meta || !samples || !obs) return false;
    std::istringstream ms(*meta);
    std::size_t n = 0, w = 0;
    if (!(ms >> n >> w) || w == 0 || n != static_cast<std::size_t>(expect_n)) {
      return false;
    }
    if (samples->size() != n * w * sizeof(double)) return false;
    if (obs->size() != n * 2 * sizeof(std::uint32_t)) return false;
    out->resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      CpaMeasurement& m = (*out)[i];
      m.samples.resize(w);
      std::memcpy(m.samples.data(), samples->data() + i * w * sizeof(double),
                  w * sizeof(double));
      std::memcpy(&m.ct, obs->data() + 2 * i * sizeof(std::uint32_t),
                  sizeof(std::uint32_t));
      std::memcpy(&m.prev_ct, obs->data() + (2 * i + 1) * sizeof(std::uint32_t),
                  sizeof(std::uint32_t));
    }
    return true;
  }

  std::vector<CpaMeasurement> block(const char* purpose,
                                    std::uint64_t stream_base, int begin,
                                    int end, const AbsTraceTask& task) {
    const std::uint64_t k = key(purpose, stream_base, begin, end);
    if (store) {
      Scope span(tr, "ckpt.load");
      count(tr, "ckpt.lookups", 1);
      if (std::optional<Artifact> a = store->load(kTraceKind, k)) {
        std::vector<CpaMeasurement> out;
        if (unpack(*a, end - begin, &out)) {
          ++hits;
          count(tr, "ckpt.hits", 1);
          count(tr, "ckpt.bytes",
                static_cast<double>(StageStore::artifact_bytes(*a)));
          return out;
        }
      }
    }
    std::vector<SimTrace> sims;
    {
      Scope span(tr, "sim");
      sims = simulate_traces(
          model, end - begin, s.seed,
          [&](PowerSimulator& sim, Rng&, int i) {
            Rng rng = Rng::stream(
                s.seed, stream_base + static_cast<std::uint64_t>(begin + i));
            return task(sim, rng, begin + i);
          },
          s.parallelism);
    }
    count(tr, "sim.traces", end - begin);
    ++misses;
    std::vector<CpaMeasurement> out(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
      out[i].samples = std::move(sims[i].cycle.current_ma);
      out[i].ct = sims[i].observable & 0x3FF;
      out[i].prev_ct = (sims[i].observable >> 10) & 0x3FF;
    }
    SECFLOW_CHECK(!store, "traced assessment: trace block missed the cache");
    return out;
  }

  std::vector<CpaMeasurement> range(const char* purpose,
                                    std::uint64_t stream_base, int begin,
                                    int end, const AbsTraceTask& task) {
    const int step = std::max(s.mtd.step, 1);
    std::vector<CpaMeasurement> all;
    all.reserve(static_cast<std::size_t>(end - begin));
    for (int b = begin; b < end; b += step) {
      for (CpaMeasurement& m :
           block(purpose, stream_base, b, std::min(b + step, end), task)) {
        all.push_back(std::move(m));
      }
    }
    return all;
  }
};

LeakageReport traced_assessment(Tracer* tr, const CompiledSimModel& model,
                                bool differential, const LeakageSetup& s) {
  TraceSource src{model, s, differential, std::nullopt, tr};
  if (!s.cache_dir.empty()) src.store.emplace(s.cache_dir);
  LeakageReport r;
  r.flow = differential ? "secure" : "regular";
  r.design = s.design;
  r.seed = static_cast<std::int64_t>(s.seed);
  r.n_threads = s.parallelism.resolved_threads();
  r.noise_ma = s.noise_ma;
  const DesPortMap ports = DesPortMap::resolve(model.netlist(), differential);
  CpaOptions copts;
  copts.n_guesses = kDesKeyGuesses;
  copts.margin = s.margin;
  copts.parallelism = s.parallelism;

  {
    Scope span(tr, "leakage.tvla");
    std::vector<CpaMeasurement> raw = src.range(
        "tvla", kTvlaStreamBase, 0, s.tvla_traces,
        [&](PowerSimulator& sim, Rng& rng, int i) {
          return des_tvla_trace(sim, rng, ports, s, (i % 2) == 0);
        });
    std::vector<TvlaTrace> traces(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      traces[i].samples = std::move(raw[i].samples);
      traces[i].fixed = (i % 2) == 0;
    }
    TvlaOptions topts;
    topts.threshold = s.tvla_threshold;
    topts.parallelism = s.parallelism;
    const WelchAccumulator acc = accumulate_tvla(traces, topts);
    TvlaSummary& t = r.tvla;
    t.present = true;
    t.n_fixed = static_cast<std::int64_t>(acc.n(true));
    t.n_random = static_cast<std::int64_t>(acc.n(false));
    t.n_samples = static_cast<std::int64_t>(acc.n_samples());
    t.threshold = s.tvla_threshold;
    t.max_abs_t = tvla_max_abs_t(acc);
    t.leaky_samples = static_cast<std::int64_t>(
        tvla_leaky_samples(acc, s.tvla_threshold).size());
    t.leaks = t.max_abs_t > s.tvla_threshold;
  }

  const HypothesisFn hyp = des_hypothesis(s.model, s.sbox);
  const AbsTraceTask cpa_task = [&](PowerSimulator& sim, Rng& rng, int) {
    return des_cpa_trace(sim, rng, ports, s);
  };
  {
    Scope span(tr, "leakage.cpa");
    const std::vector<CpaMeasurement> traces =
        src.range("cpa", 0, 0, s.cpa_traces, cpa_task);
    const CpaRanking ranking = cpa_ranking(accumulate_cpa(traces, hyp, copts));
    CpaSummary& c = r.cpa;
    c.present = true;
    c.model = power_model_name(s.model);
    c.n_traces = static_cast<std::int64_t>(traces.size());
    c.best_guess = ranking.best_guess;
    c.best_score = ranking.best_score;
    c.runner_up_score = ranking.runner_up_score;
    c.correct_key = static_cast<std::int64_t>(s.key);
    c.correct_rank = ranking.rank_of(static_cast<int>(s.key));
    c.disclosed = ranking.disclosed(s.key, s.margin);
  }
  {
    Scope span(tr, "leakage.mtd");
    const TraceFeeder feeder = [&](int begin, int end) {
      return src.range("cpa", 0, begin, end, cpa_task);
    };
    const MtdResult m = estimate_mtd(feeder, hyp, s.key, s.mtd, copts);
    MtdSummary& out = r.mtd;
    out.present = true;
    out.mtd = m.mtd;
    out.max_traces = s.mtd.max_traces;
    out.step = s.mtd.step;
    out.persist = s.mtd.persist;
    out.traces_fed = m.traces_fed;
    out.disclosed = m.disclosed;
    for (int c : m.checkpoints) out.checkpoints.push_back(c);
    for (int k : m.ranks) out.ranks.push_back(k);
  }
  r.trace_cache_hits = src.hits;
  r.trace_cache_misses = src.misses;
  return r;
}

// --- workloads ------------------------------------------------------------

/// One workload: set-up state plus an operation that runs untraced
/// (tracer == null: the program's own entry points) or traced (separate
/// calls, one span per layer).
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds all inputs from `seed`; called several times to time set-up.
  /// The last call is on the run seed, and its state is used.
  virtual void setup(std::uint64_t seed) = 0;
  /// One operation on the inputs of `seed`, a sub-seed of the run seed.
  virtual OpResult op(Tracer* tr, int threads, std::uint64_t seed) = 0;
  /// Sub-seeds the loop rotates through, so that one run averages over
  /// several generated inputs (1 = the run seed only).
  virtual int rotation() const { return 1; }
  /// Sub-seeds the timed set-up repetitions rotate through (1 = the run
  /// seed only), for set-ups whose work depends on the generated inputs.
  virtual int setup_rotation() const { return 1; }
  double last_op_ms() const { return op_ms_; }

 protected:
  double op_ms_ = 0.0;
};

/// Sub-seed `k` of a run seed; sub-seed 0 is the run seed itself.
std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return seed + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
}

struct Common {
  int threads = 1;
  fs::path work;
  int dirs = 0;

  /// A fresh, empty checkpoint directory inside the work dir.
  std::string fresh_dir(const char* tag) {
    const fs::path p = work / (std::string(tag) + "-" + std::to_string(dirs++));
    fs::remove_all(p);
    return p.string();
  }
};

bool all_hit(const StageTimings& t, int stages) {
  return t.cache_hits() == stages && t.cache_misses() == 0;
}

/// des-flow: both flows on the reduced DES, maze routing, checkpoints
/// written into a fresh cache each operation.
class DesFlow : public Workload {
 public:
  explicit DesFlow(Common& c) : c_(c) {}

  void setup(std::uint64_t) override {
    lib_ = builtin_stdcell018();
    circuit_ = make_des_dpa_circuit();
  }

  // Placement seeds: routing effort differs by up to 1.5x from placement
  // to placement, so one run averages over 16 of them.
  int rotation() const override { return 16; }

  OpResult op(Tracer* tr, int threads, std::uint64_t seed) override {
    // The previous operation's cache is removed outside the timed region.
    if (!last_dir_.empty()) fs::remove_all(last_dir_);
    FlowOptions o = flow_options(seed, threads);
    o.cache_dir = last_dir_ = c_.fresh_dir("des-flow");
    OpResult res;
    Hasher h;
    if (!tr) {
      const auto t0 = Clock::now();
      const RegularFlowResult reg = run_regular_flow(circuit_, lib_, o);
      const SecureFlowResult sec = run_secure_flow(circuit_, lib_, o);
      op_ms_ = ms_between(t0, Clock::now());
      hash_flow(h, view(reg));
      hash_flow(h, view(sec));
      res.check(sec.lec.equivalent, "LEC");
      res.check(sec.stream_out_check.ok, "stream-out/symmetry check");
      res.check(check_shorts(sec.fat_def, sec.fat_lef.track_pitch_dbu()).ok,
                "check_shorts on the fat layout");
      res.check(reg.timings.cache_misses() == 4 && sec.timings.cache_misses() == 6,
                "every stage writes a checkpoint");
      res.quality = quality_of(sec.def, sec.timing, sec.extraction);
    } else {
      const auto t0 = Clock::now();
      const TracedFlow reg = traced_regular_flow(tr, circuit_, lib_, o);
      const TracedFlow sec =
          traced_secure_flow(tr, circuit_, lib_, o, FlowStage::kExtraction);
      op_ms_ = ms_between(t0, Clock::now());
      hash_flow(h, view(reg));
      hash_flow(h, view(sec));
      res.check(sec.lec.equivalent, "LEC");
      res.check(sec.stream_check.ok, "stream-out/symmetry check");
      res.check(check_shorts(sec.fat_def, sec.fat_lef.track_pitch_dbu()).ok,
                "check_shorts on the fat layout");
      res.quality = quality_of(sec.def, sec.timing, sec.ex);
    }
    res.hash = h.digest();
    return res;
  }

 private:
  Common& c_;
  std::shared_ptr<const CellLibrary> lib_;
  AigCircuit circuit_;
  std::string last_dir_;
};

/// aes4-scale: four AES S-boxes through the secure flow with quick
/// L-routing, stopped after decomposition, then extraction and STA.
class Aes4Scale : public Workload {
 public:
  explicit Aes4Scale(Common& c) : c_(c) {}

  void setup(std::uint64_t) override {
    lib_ = builtin_stdcell018();
    circuit_ = make_aes_sbox_array(4);
  }

  // Placement seeds: the critical path differs by about 10% from placement
  // to placement.
  int rotation() const override { return 6; }

  OpResult op(Tracer* tr, int threads, std::uint64_t seed) override {
    FlowOptions o = flow_options(seed, threads);
    o.route_mode = RouteMode::kQuickLShaped;
    o.stop_after = FlowStage::kDecomposition;
    OpResult res;
    Hasher h;
    Extraction ex;
    CapTable caps;
    TimingReport timing;
    const auto t0 = Clock::now();
    if (!tr) {
      const SecureFlowResult sec = run_secure_flow(circuit_, lib_, o);
      ex = extract_parasitics(sec.def, sec.diff, o.extract);
      caps = build_cap_table(sec.diff, ex);
      timing = analyze_timing(sec.diff, caps);
      op_ms_ = ms_between(t0, Clock::now());
      res.check(sec.lec.equivalent, "LEC");
      res.check(sec.stream_out_check.ok, "stream-out/symmetry check");
      hash_flow(h, {&sec.def, &caps, &timing, &sec.route_stats});
      res.quality = quality_of(sec.def, timing, ex);
    } else {
      TracedFlow sec =
          traced_secure_flow(tr, circuit_, lib_, o, FlowStage::kDecomposition);
      {
        Scope span(tr, "extract");
        ex = extract_parasitics(sec.def, *sec.diff, o.extract);
        caps = build_cap_table(*sec.diff, ex);
      }
      {
        Scope span(tr, "sta");
        timing = analyze_timing(*sec.diff, caps);
      }
      op_ms_ = ms_between(t0, Clock::now());
      res.check(sec.lec.equivalent, "LEC");
      res.check(sec.stream_check.ok, "stream-out/symmetry check");
      hash_flow(h, {&sec.def, &caps, &timing, &sec.rs});
      res.quality = quality_of(sec.def, timing, ex);
    }
    // Known gap: the secure flow's half-cycle check rejects every AES
    // design.  Reported, never hidden and never counted as a failure.
    res.info["aes_half_cycle_fits"] =
        timing.critical_delay_ps < half_cycle_ps() ? 1.0 : 0.0;
    res.info["half_cycle_budget_ps"] = half_cycle_ps();
    res.hash = h.digest();
    return res;
  }

 private:
  Common& c_;
  std::shared_ptr<const CellLibrary> lib_;
  AigCircuit circuit_;
};

std::string mtd_text(const LeakageReport& r) {
  return r.mtd.mtd < 0 ? "hidden at " + std::to_string(r.mtd.max_traces)
                       : std::to_string(r.mtd.mtd);
}

/// Security checks on one pair of assessments: the paper's claim that the
/// secure design needs more traces to disclose the key than the regular one.
void check_assessments(OpResult& res, const LeakageReport& reg,
                       const LeakageReport& sec) {
  res.check(reg.cpa.correct_rank == 1,
            "regular CPA rank is " + std::to_string(reg.cpa.correct_rank) +
                ", not 1");
  res.check(mtd_exceeds(static_cast<int>(sec.mtd.mtd),
                        static_cast<int>(sec.mtd.max_traces),
                        static_cast<int>(reg.mtd.mtd)),
            "MTD(secure) " + mtd_text(sec) + " does not exceed MTD(regular) " +
                mtd_text(reg));
  res.info["secure_tvla_max_t"] = sec.tvla.max_abs_t;
  res.info["secure_cpa_rank"] = static_cast<double>(sec.cpa.correct_rank);
  res.info["regular_cpa_rank"] = static_cast<double>(reg.cpa.correct_rank);
  res.info["regular_mtd"] = static_cast<double>(reg.mtd.mtd);
  res.info["secure_mtd"] = static_cast<double>(sec.mtd.mtd);
}

/// des-assess: the leakage assessment of both DES implementations, no
/// trace cache; the flows and power models are set-up.
class DesAssess : public Workload {
 public:
  DesAssess(Common& c, Tracer* setup_tracer) : c_(c), setup_tr_(setup_tracer) {}

  void setup(std::uint64_t seed) override {
    models_.reset();
    lib_ = builtin_stdcell018();
    const AigCircuit circuit = make_des_dpa_circuit();
    const FlowOptions o = flow_options(seed, c_.threads);
    reg_ = std::make_unique<RegularFlowResult>(run_regular_flow(circuit, lib_, o));
    sec_ = std::make_unique<SecureFlowResult>(run_secure_flow(circuit, lib_, o));
    Scope span(setup_tr_, "sim.compile");
    models_ = std::make_unique<Models>(compile_power_model(*reg_),
                                       compile_power_model(*sec_));
  }

  // Trace seeds: the regular design's MTD early stop differs per seed.
  int rotation() const override { return 4; }
  // Placement seeds: the set-up flows' routing effort differs by up to 1.5x.
  int setup_rotation() const override { return 5; }

  OpResult op(Tracer* tr, int threads, std::uint64_t seed) override {
    const LeakageSetup s = leakage_setup(seed, threads);
    OpResult res;
    LeakageReport reg, sec;
    const auto t0 = Clock::now();
    if (!tr) {
      reg = assess_des_leakage(models_->reg, false, s);
      sec = assess_des_leakage(models_->sec, true, s);
    } else {
      reg = traced_assessment(tr, models_->reg, false, s);
      sec = traced_assessment(tr, models_->sec, true, s);
    }
    op_ms_ = ms_between(t0, Clock::now());
    check_assessments(res, reg, sec);
    Hasher h;
    hash_flow(h, view(*reg_));
    hash_flow(h, view(*sec_));
    hash_leakage(h, reg);
    hash_leakage(h, sec);
    res.hash = h.digest();
    res.quality = quality_of(sec_->def, sec_->timing, sec_->extraction);
    res.info["traces_per_s"] = kTracesPerAssessOp / (op_ms_ / 1e3);
    return res;
  }

 private:
  struct Models {
    CompiledSimModel reg, sec;
  };
  Common& c_;
  Tracer* setup_tr_;
  std::shared_ptr<const CellLibrary> lib_;
  std::unique_ptr<RegularFlowResult> reg_;
  std::unique_ptr<SecureFlowResult> sec_;
  std::unique_ptr<Models> models_;  // borrow reg_/sec_ netlists
};

/// des-warm: des-flow and des-assess again against a cache filled in
/// set-up; every stage must hit and every trace block replay.
class DesWarm : public Workload {
 public:
  explicit DesWarm(Common& c) : c_(c) {}

  void setup(std::uint64_t seed) override {
    if (!cache_.empty()) fs::remove_all(cache_);
    cache_ = c_.fresh_dir("des-warm");
    lib_ = builtin_stdcell018();
    circuit_ = make_des_dpa_circuit();
    FlowOptions o = flow_options(seed, c_.threads);
    o.cache_dir = cache_;
    const RegularFlowResult reg = run_regular_flow(circuit_, lib_, o);
    const SecureFlowResult sec = run_secure_flow(circuit_, lib_, o);
    LeakageSetup s = leakage_setup(seed, c_.threads);
    s.cache_dir = cache_;
    Hasher h;
    hash_flow(h, view(reg));
    hash_flow(h, view(sec));
    s.base_key = reg.timings.key(FlowStage::kExtraction);
    hash_leakage(h, assess_des_leakage(compile_power_model(reg), false, s));
    s.base_key = sec.timings.key(FlowStage::kExtraction);
    hash_leakage(h, assess_des_leakage(compile_power_model(sec), true, s));
    cold_hash_ = h.digest();
  }

  // Placement and trace seeds: the cold flows and assessment differ in
  // effort from seed to seed.
  int setup_rotation() const override { return 5; }

  OpResult op(Tracer* tr, int threads, std::uint64_t seed) override {
    FlowOptions o = flow_options(seed, threads);
    o.cache_dir = cache_;
    LeakageSetup s = leakage_setup(seed, threads);
    s.cache_dir = cache_;
    OpResult res;
    Hasher h;
    LeakageReport lreg, lsec;
    const auto t0 = Clock::now();
    if (!tr) {
      const RegularFlowResult reg = run_regular_flow(circuit_, lib_, o);
      const SecureFlowResult sec = run_secure_flow(circuit_, lib_, o);
      s.base_key = reg.timings.key(FlowStage::kExtraction);
      lreg = assess_des_leakage(compile_power_model(reg), false, s);
      s.base_key = sec.timings.key(FlowStage::kExtraction);
      lsec = assess_des_leakage(compile_power_model(sec), true, s);
      op_ms_ = ms_between(t0, Clock::now());
      res.check(all_hit(reg.timings, 4) && all_hit(sec.timings, 6),
                "every flow stage hits the cache");
      res.check(sec.lec.equivalent && sec.stream_out_check.ok,
                "cached LEC and stream-out verdicts pass");
      hash_flow(h, view(reg));
      hash_flow(h, view(sec));
      res.quality = quality_of(sec.def, sec.timing, sec.extraction);
    } else {
      const TracedFlow reg = traced_regular_flow(tr, circuit_, lib_, o);
      const TracedFlow sec =
          traced_secure_flow(tr, circuit_, lib_, o, FlowStage::kExtraction);
      CompiledSimModel mreg = [&] {
        Scope span(tr, "sim.compile");
        return CompiledSimModel(reg.rtl, reg.caps, PowerSimOptions{});
      }();
      CompiledSimModel msec = [&] {
        Scope span(tr, "sim.compile");
        PowerSimOptions po;
        po.precharge_inputs = true;
        return CompiledSimModel(*sec.diff, sec.caps, po);
      }();
      s.base_key = reg.extraction_key;
      lreg = traced_assessment(tr, mreg, false, s);
      s.base_key = sec.extraction_key;
      lsec = traced_assessment(tr, msec, true, s);
      op_ms_ = ms_between(t0, Clock::now());
      res.check(reg.hits == 4 && sec.hits == 6, "every flow stage hits the cache");
      res.check(sec.lec.equivalent && sec.stream_check.ok,
                "cached LEC and stream-out verdicts pass");
      hash_flow(h, view(reg));
      hash_flow(h, view(sec));
      res.quality = quality_of(sec.def, sec.timing, sec.ex);
    }
    res.check(lreg.trace_cache_misses == 0 && lsec.trace_cache_misses == 0 &&
                  lreg.trace_cache_hits > 0 && lsec.trace_cache_hits > 0,
              "every trace block replays from the cache");
    check_assessments(res, lreg, lsec);
    hash_leakage(h, lreg);
    hash_leakage(h, lsec);
    res.hash = h.digest();
    res.check(res.hash == cold_hash_, "warm artifacts equal the cold run's");
    res.info["traces_per_s"] = kTracesPerAssessOp / (op_ms_ / 1e3);
    return res;
  }

 private:
  Common& c_;
  std::string cache_;
  std::shared_ptr<const CellLibrary> lib_;
  AigCircuit circuit_;
  std::uint64_t cold_hash_ = 0;
};

// --- main loop ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work") a.work = v;
    else if (k == "--spans") a.spans = v;
    else throw Error("unknown argument " + k);
  }
  SECFLOW_CHECK(!a.workload.empty() && !a.work.empty(),
                "usage: secflow_bench --workload W --seed N --seconds S "
                "--trace 0|1 --work DIR [--spans PATH]");
  return a;
}

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_map(const std::map<std::string, double>& m) {
  std::string s = "{";
  char buf[64];
  bool first = true;
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (first ? "\"" : ",\"") + k + "\":" + buf;
    first = false;
  }
  return s + "}";
}

std::string json_string(const std::string& in) {
  std::string s = "\"";
  for (char ch : in) {
    if (ch == '"' || ch == '\\') s += '\\';
    s += (ch == '\n') ? ' ' : ch;
  }
  return s + "\"";
}

/// Timed loop state shared by the untraced and traced passes.
struct Run {
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  /// First passing result per sub-seed: its hash is the reference every
  /// later operation on that sub-seed must reproduce.
  std::map<int, OpResult> first;
  /// Printed findings of the first operation, whether it passed or not.
  std::optional<std::map<std::string, double>> info;

  /// Runs one operation on sub-seed `k`; a thrown error or a failed check
  /// counts it as failed.  Returns false on failure.
  bool record(int k, const std::function<OpResult()>& fn) {
    ++attempted;
    OpResult r;
    try {
      r = fn();
    } catch (const std::exception& e) {
      r.failures.push_back(std::string("error: ") + e.what());
    }
    if (!info) info = r.info;
    if (r.failures.empty()) {
      const auto it = first.find(k);
      if (it == first.end()) {
        first.emplace(k, r);
      } else if (r.hash != it->second.hash) {
        r.failures.push_back("artifact hash differs from the first operation "
                             "on the same inputs");
      }
    }
    if (r.failures.empty()) return true;
    ++failed;
    if (failures.size() < 8) {
      for (const std::string& f : r.failures) {
        failures.push_back("sub-seed " + std::to_string(k) + ": " + f);
      }
    }
    return false;
  }
};

int run(const Args& a) {
  Common c;
  c.threads = std::min(affinity_cpus(), 4);
  c.work = a.work;
  fs::create_directories(c.work);
  const auto epoch = Clock::now();
  Tracer setup_tracer(epoch);
  setup_tracer.begin_op(-1);

  std::unique_ptr<Workload> w;
  if (a.workload == "des-flow") {
    w = std::make_unique<DesFlow>(c);
  } else if (a.workload == "aes4-scale") {
    w = std::make_unique<Aes4Scale>(c);
  } else if (a.workload == "des-assess") {
    w = std::make_unique<DesAssess>(c, a.trace ? &setup_tracer : nullptr);
  } else if (a.workload == "des-warm") {
    w = std::make_unique<DesWarm>(c);
  } else {
    throw Error("unknown workload " + a.workload);
  }

  // Set-up: repeated at least 3 times and for at least 1 s (sub-ms set-ups
  // are otherwise dominated by timer and cache noise), and its median
  // reported.  The repetitions rotate through the workload's set-up
  // sub-seeds and end on sub-seed 0, the run seed, whose state is used.
  // Set-up time is an untraced metric, so --trace 1 sets up once.
  const int setup_rotation = a.trace ? 1 : w->setup_rotation();
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (int i = 0;; ++i) {
    const int k = setup_rotation - 1 - i % setup_rotation;
    const auto t0 = Clock::now();
    w->setup(sub_seed(a.seed, k));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_total += setup_s.back();
    const bool enough = a.trace || (setup_s.size() >= 3 &&
                                    (setup_total >= 1.0 || setup_s.size() >= 5000));
    if (k == 0 && enough) break;
  }

  // Operation i runs on sub-seed i % rotation.  Operation 0 is a warm-up
  // that fills lazy state (thread pool, allocator); it is checked but not
  // timed.  The untraced loop of --trace 0 visits every sub-seed.
  const int rotation = w->rotation();
  const std::size_t min_ops =
      static_cast<std::size_t>(a.trace ? 3 : std::max(3, rotation));
  const auto run_op = [&](Run& r, Tracer* tr, int i, int threads) {
    const int k = i % rotation;
    return r.record(k, [&] { return w->op(tr, threads, sub_seed(a.seed, k)); });
  };
  Run untraced;
  int op_index = 0;
  run_op(untraced, nullptr, op_index++, c.threads);
  std::vector<double> op_ms;
  const double budget_ms = a.seconds * 1e3 * (a.trace ? 0.5 : 1.0);
  const auto loop0 = Clock::now();
  while (ms_between(loop0, Clock::now()) < budget_ms || op_ms.size() < min_ops) {
    if (run_op(untraced, nullptr, op_index++, c.threads)) {
      op_ms.push_back(w->last_op_ms());
    }
  }

  // Design quality: the median over the sub-seeds' layouts.
  const auto quality = [&](double Quality::*field) {
    std::vector<double> v;
    for (const auto& [k, r] : untraced.first) v.push_back(r.quality.*field);
    std::sort(v.begin(), v.end());
    if (v.empty()) return 0.0;
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  };
  std::string out = "{\"workload\":" + json_string(a.workload);
  out += ",\"seed\":" + std::to_string(a.seed);
  out += ",\"threads\":" + std::to_string(c.threads);
  out += ",\"rotation\":" + std::to_string(rotation);
  out += ",\"setup_s\":" + json_list(setup_s);
  out += ",\"op_ms\":" + json_list(op_ms);

  out += ",\"quality\":" +
         json_map({{"secure_wirelength_um", quality(&Quality::wirelength_um)},
                   {"secure_critical_delay_ps",
                    quality(&Quality::critical_delay_ps)},
                   {"rail_cap_mismatch_max_ff",
                    quality(&Quality::rail_mismatch_max_ff)}});
  out += ",\"info\":" + json_map(untraced.info.value_or(
                                       std::map<std::string, double>{}));

  Run traced = untraced;
  bool hashes_match = true;
  if (a.trace) {
    Tracer tracer(epoch);
    int op_id = 0;
    const auto traced0 = Clock::now();
    std::vector<double> traced_ms;
    while (ms_between(traced0, Clock::now()) < budget_ms ||
           traced_ms.size() < 3) {
      tracer.begin_op(op_id);
      if (run_op(traced, &tracer, op_id++, c.threads)) {
        traced_ms.push_back(w->last_op_ms());
      }
    }
    // Sub-seed 0 again at one thread: thread scaling and determinism.
    tracer.begin_op(op_id);
    const bool ok_1t = run_op(traced, &tracer, 0, 1);
    hashes_match = traced.failed == untraced.failed && ok_1t;
    const auto& per_op = tracer.all_layers();
    // Per-layer samples: every traced op but the one-thread pass.
    std::map<std::string, std::vector<double>> layers;
    for (std::size_t i = 0; i + 1 < per_op.size(); ++i) {
      for (const auto& [k, v] : per_op[i]) layers[k].push_back(v);
    }
    out += ",\"traced_op_ms\":" + json_list(traced_ms);
    // Spans made during set-up (des-assess compiles its power models there).
    out += ",\"setup_layers\":" + json_map(setup_tracer.all_layers().front());
    out += ",\"layers\":{";
    bool first = true;
    for (const auto& [k, v] : layers) {
      out += (first ? "\"" : ",\"") + k + "\":" + json_list(v);
      first = false;
    }
    out += "}";
    out += ",\"one_thread\":" + json_map(per_op.back());
    if (!a.spans.empty()) tracer.write(a.spans);
  }
  out += ",\"hashes_match\":" + std::string(hashes_match ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(traced.attempted);
  out += ",\"failed\":" + std::to_string(traced.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < traced.failures.size(); ++i) {
    out += (i ? "," : "") + json_string(traced.failures[i]);
  }
  char rss[64];
  std::snprintf(rss, sizeof rss, "%.17g", peak_rss_mb());
  out += "],\"peak_rss_mb\":" + std::string(rss) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);

  w.reset();
  fs::remove_all(c.work);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "secflow_bench: %s\n", e.what());
    return 1;
  }
}
