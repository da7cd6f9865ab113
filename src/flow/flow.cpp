#include "flow/flow.h"

#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "base/error.h"
#include "ckpt/fingerprint.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"
#include "netlist/netlist_ops.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "obs/trace.h"

namespace secflow {
namespace {

/// The clock net name of a mapped netlist (net driving flop CK pins), or
/// empty for combinational designs.
std::string clock_net_name(const Netlist& nl) {
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kFlop) continue;
    const NetId ck =
        nl.instance(iid).conns[static_cast<std::size_t>(type.ck_pin())];
    if (ck.valid()) return nl.net(ck).name;
  }
  return {};
}

constexpr std::size_t stage_idx(FlowStage s) {
  return static_cast<std::size_t>(s);
}

/// The options a run of `kind` actually uses.  Stage option structs whose
/// thread count is on auto (0) inherit the flow-level Parallelism, so one
/// knob controls the whole flow while an explicit per-stage setting still
/// wins; the secure flow's synthesis is restricted to WDDL-supported gates
/// unless the caller chose the cells.
FlowOptions resolve_options(FlowKind kind, const FlowOptions& opts) {
  FlowOptions o = opts;
  if (o.place.parallelism.n_threads == 0) o.place.parallelism = o.parallelism;
  if (o.route.parallelism.n_threads == 0) o.route.parallelism = o.parallelism;
  if (o.extract.parallelism.n_threads == 0)
    o.extract.parallelism = o.parallelism;
  if (kind == FlowKind::kSecure && o.synth.allowed_cells.empty()) {
    o.synth = wddl_synth_constraints();
  }
  return o;
}

/// Everything one run threads through its stages.  Each stage reads what
/// earlier stages left here and fills its own members; the entry points
/// pack the state into their result types.
struct FlowState {
  FlowState(FlowKind k, const AigCircuit& c,
            std::shared_ptr<const CellLibrary> lib, FlowOptions opts)
      : kind(k), circuit(c), library(std::move(lib)), o(std::move(opts)) {}

  FlowKind kind;
  const AigCircuit& circuit;
  std::shared_ptr<const CellLibrary> library;
  FlowOptions o;  ///< resolve_options() of the caller's options

  std::optional<Netlist> rtl;
  std::shared_ptr<WddlLibrary> wlib;
  std::optional<Netlist> fat;   ///< secure only
  std::optional<Netlist> diff;  ///< secure only
  SubstitutionStats sub_stats;
  LecResult lec;
  LefLibrary lef;  ///< the placed library (fat_lib.lef when secure)
  std::optional<DefDesign> layout;  ///< placed, then routed (fat.def)
  RouteStats rs;
  LefLibrary diff_lef;
  std::optional<DefDesign> diff_def;
  CheckResult stream_check;
  Extraction ex;
  CapTable caps;
  TimingReport timing;
  StageTimings t;

  bool secure() const { return kind == FlowKind::kSecure; }
  /// The netlist placement and routing see: fat.v (secure) or rtl.v.
  const Netlist& placed() const { return secure() ? *fat : *rtl; }
  /// The netlist extraction and the power model see.
  const Netlist& final_netlist() const { return secure() ? *diff : *rtl; }
  const DefDesign& final_def() const {
    return secure() ? *diff_def : *layout;
  }
};

/// One stage of Fig 1.  The table below is the single definition of stage
/// order, of which stages each flow kind runs, of each stage's key link and
/// of each stage's checkpoint sections.
struct StageDef {
  FlowStage stage;
  const char* name;  ///< flow_stage_name(): checkpoint kind and key-link tag
  const char* span;  ///< trace span (a literal: Span keeps the pointer)
  bool secure_only = false;
  /// Folds the options that shape this stage's artifact into the key chain.
  void (*link)(Hasher&, FlowKind, const FlowOptions&);
  /// Rebuilds, on a hit as on a miss, inputs that are cheap to regenerate
  /// and therefore never stored (LEF libraries); null when there are none.
  void (*derive)(FlowState&) = nullptr;
  void (*compute)(FlowState&);
  Artifact (*save)(const FlowState&);
  void (*load)(FlowState&, const Artifact&);

  bool runs(FlowKind k) const { return !secure_only || k == FlowKind::kSecure; }
};

constexpr StageDef kStages[kNumFlowStages] = {
    {.stage = FlowStage::kSynthesis,
     .name = "synthesis",
     .span = "flow.synthesis",
     .link = [](Hasher& h, FlowKind, const FlowOptions& o) {
       h.add(fingerprint(o.synth));
     },
     .compute = [](FlowState& f) {
       f.rtl = technology_map(f.circuit, f.library, f.o.synth);
       f.rtl->validate();
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("rtl.v", write_verilog(*f.rtl));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       f.rtl = parse_verilog(a.section("rtl.v"), f.library);
     }},

    // Cell substitution: rtl.v -> fat.v + differential netlist, verified
    // equivalent (LEC) before anything downstream consumes it.  The
    // artifact carries the fat cell library too, so a hit can reparse fat.v
    // without regenerating the compound inventory.
    {.stage = FlowStage::kSubstitution,
     .name = "substitution",
     .span = "flow.substitution",
     .secure_only = true,
     .link = [](Hasher&, FlowKind, const FlowOptions&) {},
     .compute = [](FlowState& f) {
       f.wlib = std::make_shared<WddlLibrary>(f.library);
       SubstitutionResult sub = substitute_cells(*f.rtl, *f.wlib);
       f.fat = std::move(sub.fat);
       f.sub_stats = sub.stats;
       f.diff = expand_differential(*f.fat, *f.wlib);
       f.lec = check_equivalence(*f.rtl, *f.fat);
       SECFLOW_CHECK(f.lec.equivalent,
                     "secure flow LEC failed: " +
                         (f.lec.mismatches.empty()
                              ? std::string("?")
                              : f.lec.mismatches[0].what));
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("fat_lib", write_cell_library(f.fat->library()));
       a.add("fat.v", write_verilog(*f.fat));
       a.add("diff.v", write_verilog(*f.diff));
       a.add("stats", write_substitution_stats(f.sub_stats));
       a.add("lec", write_lec_result(f.lec));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       std::shared_ptr<const CellLibrary> fat_lib =
           std::make_shared<CellLibrary>(
               parse_cell_library(a.section("fat_lib")));
       f.fat = parse_verilog(a.section("fat.v"), fat_lib);
       f.diff = parse_verilog(a.section("diff.v"), f.library);
       f.sub_stats = parse_substitution_stats(a.section("stats"));
       f.lec = parse_lec_result(a.section("lec"));
     }},

    {.stage = FlowStage::kPlacement,
     .name = "placement",
     .span = "flow.placement",
     .link = [](Hasher& h, FlowKind k, const FlowOptions& o) {
       h.add(fingerprint(o.place)).add(fingerprint(o.extract.process));
       if (k == FlowKind::kSecure) h.add(o.shielded_pairs);
     },
     .derive = [](FlowState& f) {
       // Fat wires: doubled pitch and width — tripled with shielded pairs,
       // reserving a third track for the shield wire.
       LefGenOptions gen{f.o.extract.process};
       if (f.secure()) gen.wire_scale = f.o.shielded_pairs ? 3.0 : 2.0;
       f.lef = generate_lef(f.placed().library(), gen);
     },
     .compute = [](FlowState& f) {
       f.layout = place_design(f.placed(), f.lef, f.o.place);
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("placed.def", write_def(*f.layout));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       f.layout = parse_def(a.section("placed.def"));
     }},

    {.stage = FlowStage::kRouting,
     .name = "routing",
     .span = "flow.routing",
     .link = [](Hasher& h, FlowKind, const FlowOptions& o) {
       h.add(fingerprint(o.route)).add(static_cast<int>(o.route_mode));
     },
     .compute = [](FlowState& f) {
       f.rs = f.o.route_mode == RouteMode::kQuickLShaped
                  ? route_design_quick(f.placed(), f.lef, *f.layout)
                  : route_design(f.placed(), f.lef, *f.layout, f.o.route);
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("routed.def", write_def(*f.layout));
       a.add("route_stats", write_route_stats(f.rs));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       f.layout = parse_def(a.section("routed.def"));
       f.rs = parse_route_stats(a.section("route_stats"));
     }},

    // Interconnect decomposition + stream-out verification with the
    // differential library (the verdict rides in the checkpoint).
    {.stage = FlowStage::kDecomposition,
     .name = "decomposition",
     .span = "flow.decomposition",
     .secure_only = true,
     .link = [](Hasher& h, FlowKind, const FlowOptions& o) {
       const Process018& pr = o.extract.process;
       h.add(pr.wire_pitch_um).add(pr.wire_width_um).add(o.shielded_pairs);
     },
     .derive = [](FlowState& f) {
       const Process018& pr = f.o.extract.process;
       f.diff_lef = make_diff_lef(f.lef, pr.wire_pitch_um, pr.wire_width_um);
     },
     .compute = [](FlowState& f) {
       const Process018& pr = f.o.extract.process;
       DecomposeOptions dopts;
       dopts.add_shields = f.o.shielded_pairs;
       const std::string clk = clock_net_name(*f.fat);
       if (!clk.empty()) dopts.single_ended_nets.push_back(clk);
       f.diff_def = decompose_interconnect(*f.layout,
                                           um_to_dbu(pr.wire_pitch_um),
                                           um_to_dbu(pr.wire_width_um), dopts);

       // Stream-out verification (the paper's "importing the differential
       // gate level netlist" check): rail symmetry plus per-rail pin
       // connectivity against the differential LEF.
       f.stream_check = check_differential_symmetry(
           *f.diff_def, um_to_dbu(pr.wire_pitch_um));
       SECFLOW_CHECK(f.stream_check.ok, "decomposition symmetry check failed");
       const CheckResult rail_check = check_stream_out(
           *f.fat, f.diff_lef, *f.diff_def, 5 * f.lef.track_pitch_dbu());
       SECFLOW_CHECK(rail_check.ok,
                     "stream-out rail connectivity check failed: " +
                         (rail_check.issues.empty()
                              ? std::string("?")
                              : rail_check.issues[0].net + " " +
                                    rail_check.issues[0].what));
       f.stream_check.nets_checked += rail_check.nets_checked;
       f.stream_check.pins_checked += rail_check.pins_checked;
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("diff.def", write_def(*f.diff_def));
       a.add("stream_check", write_check_result(f.stream_check));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       f.diff_def = parse_def(a.section("diff.def"));
       f.stream_check = parse_check_result(a.section("stream_check"));
     }},

    // Extraction + switched-cap table + STA on the final layout.
    {.stage = FlowStage::kExtraction,
     .name = "extraction",
     .span = "flow.extraction",
     .link = [](Hasher& h, FlowKind, const FlowOptions& o) {
       h.add(fingerprint(o.extract));
     },
     .compute = [](FlowState& f) {
       f.ex = extract_parasitics(f.final_def(), f.final_netlist(), f.o.extract);
       f.caps = build_cap_table(f.final_netlist(), f.ex);
       f.timing = analyze_timing(f.final_netlist(), f.caps);
     },
     .save = [](const FlowState& f) {
       Artifact a;
       a.add("extraction", write_extraction(f.ex));
       a.add("caps", write_cap_table(f.caps));
       a.add("timing", write_timing_report(f.timing));
       return a;
     },
     .load = [](FlowState& f, const Artifact& a) {
       f.ex = parse_extraction(a.section("extraction"));
       f.caps = parse_cap_table(a.section("caps"));
       f.timing = parse_timing_report(a.section("timing"));
     }},
};

static_assert(
    [] {
      for (int i = 0; i < kNumFlowStages; ++i) {
        if (stage_idx(kStages[i].stage) != static_cast<std::size_t>(i)) {
          return false;
        }
      }
      return true;
    }(),
    "kStages must be indexed by FlowStage");

/// Runs the stage table for one flow kind.  Per stage: one span, one cache
/// lookup, then load on a hit, or compute (and checkpoint, when caching) on
/// a miss; stops after FlowOptions::stop_after.  A stage before resume_from
/// must hit — recomputing it would defeat the point of resuming.
FlowState run_flow(FlowKind kind, const AigCircuit& circuit,
                   std::shared_ptr<const CellLibrary> library,
                   const FlowOptions& opts) {
  opts.validate();
  for (const auto& [s, which] : {std::pair{opts.resume_from, "resume_from"},
                                 std::pair{opts.stop_after, "stop_after"}}) {
    if (!s) continue;
    SECFLOW_CHECK(kStages[stage_idx(*s)].runs(kind),
                  std::string("FlowOptions: ") + which + " = " +
                      flow_stage_name(*s) + " names a secure-only stage; the " +
                      flow_kind_name(kind) + " flow does not run it");
  }
  FlowState f{kind, circuit, std::move(library), resolve_options(kind, opts)};
  const FlowOptions& o = f.o;
  if (o.log_level) Logger::global().set_level(*o.log_level);
  f.t.n_threads = o.parallelism.resolved_threads();
  Span flow_span(f.secure() ? "flow.secure" : "flow.regular", "flow");
  flow_span.arg("design", circuit.name);
  SECFLOW_LOG_INFO("flow",
                   f.secure() ? "secure flow start" : "regular flow start",
                   LogField("design", circuit.name),
                   LogField("threads", f.t.n_threads));

  // Cache-key chain: every stage key hashes the full upstream chain, so a
  // changed early input re-keys (and re-runs) everything downstream while
  // an unchanged prefix keeps hitting.
  const auto keys = compute_stage_keys(kind, circuit, *f.library, o);
  std::optional<ArtifactStore> store;
  if (!o.cache_dir.empty()) store.emplace(o.cache_dir);
  for (const StageDef& d : kStages) {
    if (!d.runs(kind)) continue;
    StageRecord& rec = f.t.stages[stage_idx(d.stage)];
    rec.key = keys[stage_idx(d.stage)];
    Span span(d.span, "flow");
    const auto t0 = std::chrono::steady_clock::now();
    if (d.derive) d.derive(f);
    const std::optional<Artifact> hit =
        store ? store->load(d.name, rec.key) : std::nullopt;
    if (hit) {
      rec.cache = CacheOutcome::kHit;
      d.load(f, *hit);
    } else {
      SECFLOW_CHECK(!o.resume_from || d.stage >= *o.resume_from,
                    std::string("FlowOptions::resume_from: no cached ") +
                        d.name + " artifact in " + o.cache_dir + " for key " +
                        hash_hex(rec.key) +
                        " — run the upstream stages without resume_from "
                        "first");
      rec.cache = store ? CacheOutcome::kMiss : CacheOutcome::kDisabled;
      d.compute(f);
      if (store) {
        Artifact a = d.save(f);
        a.kind = d.name;
        a.key = rec.key;
        store->save(a);
      }
    }
    rec.ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
    const char* outcome = cache_outcome_name(rec.cache);
    span.arg("cache", outcome);
    span.arg("key", hash_hex(rec.key));
    SECFLOW_LOG_INFO("flow", "stage done", LogField("stage", d.name),
                     LogField("ms", rec.ms), LogField("cache", outcome));
    if (o.stop_after == d.stage) break;
  }
  return f;
}

/// The evaluate half-cycle every WDDL evaluation wave must settle within:
/// the masters capture at the falling edge of the nominal clock.
double evaluate_half_cycle_ps() { return SamplingSpec{}.cycle_s() * 1e12 / 2; }

FlowStage completed_through(const FlowOptions& o) {
  return o.stop_after.value_or(FlowStage::kExtraction);
}

Netlist take_netlist(std::optional<Netlist>&& n,
                     const std::shared_ptr<const CellLibrary>& lib) {
  return n ? std::move(*n) : Netlist("(not run)", lib);
}

DefDesign take_def(std::optional<DefDesign>&& d) {
  return d ? std::move(*d) : DefDesign{};
}

void append_common(std::ostringstream& os, const FlowArtifacts& r) {
  os << "  die:         " << r.die_area_um2() << " um^2\n";
  os << "  wirelength:  " << dbu_to_um(r.def.total_wirelength()) << " um, "
     << r.def.total_vias() << " vias\n";
  os << "  runtime:     " << r.timings.total_ms() << " ms ("
     << r.timings.n_threads
     << (r.timings.n_threads == 1 ? " thread)\n" : " threads)\n");
  if (r.timings.cache_hits() > 0) {
    os << "  checkpoints: " << r.timings.cache_hits() << " stage(s) loaded, "
       << r.timings.cache_misses() << " computed\n";
  }
}

}  // namespace

const char* flow_kind_name(FlowKind k) {
  switch (k) {
    case FlowKind::kRegular: return "regular";
    case FlowKind::kSecure: return "secure";
  }
  return "?";
}

const char* flow_stage_name(FlowStage s) {
  return stage_idx(s) < std::size(kStages) ? kStages[stage_idx(s)].name : "?";
}

const char* cache_outcome_name(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kNotRun: return "not-run";
    case CacheOutcome::kDisabled: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
  }
  return "?";
}

double StageTimings::total_ms() const {
  double ms = 0.0;
  for (const StageRecord& r : stages) ms += r.ms;
  return ms;
}

int StageTimings::cache_hits() const {
  int n = 0;
  for (const StageRecord& r : stages) n += r.cache == CacheOutcome::kHit;
  return n;
}

int StageTimings::cache_misses() const {
  int n = 0;
  for (const StageRecord& r : stages) n += r.cache == CacheOutcome::kMiss;
  return n;
}

void FlowOptions::validate() const {
  // Every rule is checked and every failure collected, so a caller (a
  // campaign spec with several bad overrides, say) sees the complete list
  // in one Error instead of fixing violations one round trip at a time.
  std::vector<std::string> violations;
  const auto require = [&violations](bool ok, const char* msg) {
    if (!ok) violations.emplace_back(msg);
  };
  require(!(shielded_pairs && route_mode == RouteMode::kQuickLShaped),
          "FlowOptions: shielded_pairs requires RouteMode::kDetailed — quick "
          "L-shaped routing produces no conflict-checked geometry to shield");
  require(place.aspect_ratio > 0.0,
          "FlowOptions: place.aspect_ratio must be > 0");
  require(place.fill_factor > 0.0 && place.fill_factor <= 1.0,
          "FlowOptions: place.fill_factor must be in (0, 1]");
  require(place.sa_moves_per_instance >= 0,
          "FlowOptions: place.sa_moves_per_instance must be >= 0");
  require(place.sa_batch >= 1, "FlowOptions: place.sa_batch must be >= 1");
  require(extract.coupling_max_sep_um >= 0.0,
          "FlowOptions: extract.coupling_max_sep_um must be >= 0");
  require(extract.variation_sigma >= 0.0,
          "FlowOptions: extract.variation_sigma must be >= 0");
  require(route.max_iterations >= 1,
          "FlowOptions: route.max_iterations must be >= 1");
  require(route.window_margin >= 0,
          "FlowOptions: route.window_margin must be >= 0");
  require(route.window_escalation >= 2,
          "FlowOptions: route.window_escalation must be >= 2 — the search "
          "window must grow on escalation or congested nets never reach "
          "full-grid search");
  require(parallelism.n_threads >= 0 && place.parallelism.n_threads >= 0 &&
              route.parallelism.n_threads >= 0 &&
              extract.parallelism.n_threads >= 0,
          "FlowOptions: thread counts must be >= 0 (0 = auto)");
  require(!(resume_from && cache_dir.empty()),
          "FlowOptions: resume_from requires cache_dir — the skipped "
          "stages' artifacts must come from the checkpoint store");
  require(!resume_from || *resume_from != FlowStage::kSynthesis,
          "FlowOptions: resume_from = synthesis is just a full run; "
          "leave it unset");
  require(!(resume_from && stop_after &&
            static_cast<int>(*stop_after) < static_cast<int>(*resume_from)),
          "FlowOptions: stop_after precedes resume_from — no stage "
          "would run");

  if (violations.empty()) return;
  if (violations.size() == 1) throw Error(violations[0]);
  std::string msg = "FlowOptions: " + std::to_string(violations.size()) +
                    " violations:";
  for (const std::string& v : violations) msg += "\n  - " + v;
  throw Error(msg);
}

std::array<std::uint64_t, kNumFlowStages> compute_stage_keys(
    FlowKind kind, const AigCircuit& circuit, const CellLibrary& library,
    const FlowOptions& opts) {
  const FlowOptions o = resolve_options(kind, opts);
  std::array<std::uint64_t, kNumFlowStages> keys{};
  std::uint64_t chain = Hasher()
                            .add(kCkptFormatVersion)
                            .add(flow_kind_name(kind))
                            .add(fingerprint(circuit))
                            .add(fingerprint(library))
                            .digest();
  for (const StageDef& d : kStages) {
    if (!d.runs(kind)) continue;
    Hasher h;
    h.add(chain).add(d.name);
    d.link(h, kind, o);
    chain = keys[stage_idx(d.stage)] = h.digest();
  }
  return keys;
}

SynthConstraints wddl_synth_constraints() {
  SynthConstraints c;
  c.allowed_cells = {"NAND2", "NAND3", "NOR2", "NOR3", "AND2", "AND3",
                     "OR2",   "OR3",   "XOR2", "XNOR2", "AOI21", "AOI22",
                     "AOI32", "OAI21", "OAI22", "MUX2"};
  return c;
}

CompiledSimModel compile_power_model(const RegularFlowResult& result,
                                     PowerSimOptions opts) {
  return CompiledSimModel(result.rtl, result.caps, opts);
}

CompiledSimModel compile_power_model(const SecureFlowResult& result,
                                     PowerSimOptions opts) {
  opts.precharge_inputs = true;  // WDDL: inputs precharge to (0,0)
  return CompiledSimModel(result.diff, result.caps, opts);
}

RegularFlowResult run_regular_flow(const AigCircuit& circuit,
                                   std::shared_ptr<const CellLibrary> library,
                                   const FlowOptions& opts) {
  FlowState f = run_flow(FlowKind::kRegular, circuit, std::move(library), opts);
  return RegularFlowResult{{std::move(*f.rtl), std::move(f.lef),
                            take_def(std::move(f.layout)), f.rs,
                            std::move(f.ex), std::move(f.caps), f.t,
                            std::move(f.timing), completed_through(f.o)}};
}

SecureFlowResult run_secure_flow(const AigCircuit& circuit,
                                 std::shared_ptr<const CellLibrary> library,
                                 const FlowOptions& opts) {
  FlowState f = run_flow(FlowKind::kSecure, circuit, std::move(library), opts);
  // The evaluate wave must settle within the first half cycle so the WDDL
  // masters capture valid differential data at the falling edge.  Cheap,
  // so re-checked even when the timing came from the cache.
  if (f.t.outcome(FlowStage::kExtraction) != CacheOutcome::kNotRun) {
    SECFLOW_CHECK(f.timing.critical_delay_ps < evaluate_half_cycle_ps(),
                  "WDDL evaluation (" +
                      std::to_string(f.timing.critical_delay_ps) +
                      " ps) does not fit the evaluate half-cycle");
  }
  return SecureFlowResult{
      {std::move(*f.rtl), std::move(f.diff_lef),
       take_def(std::move(f.diff_def)), f.rs, std::move(f.ex),
       std::move(f.caps), f.t, std::move(f.timing), completed_through(f.o)},
      f.wlib,
      take_netlist(std::move(f.fat), f.library),
      take_netlist(std::move(f.diff), f.library),
      std::move(f.lef),
      take_def(std::move(f.layout)),
      f.sub_stats,
      f.lec,
      f.stream_check};
}

namespace {

/// Common FlowReport fields shared by both flow kinds.  Stages that never
/// ran stay as "not-run" rows with 0 ms and no key, so every report lists
/// all six pipeline stages in order.
FlowReport base_flow_report(const FlowArtifacts& r, const char* flow_kind,
                            const Netlist& final_netlist) {
  FlowReport rep;
  rep.flow = flow_kind;
  rep.design = r.rtl.name();
  rep.completed_through = flow_stage_name(r.completed_through);
  rep.n_threads = r.timings.n_threads;
  rep.cells = final_netlist.n_instances();
  rep.cell_area_um2 = final_netlist.total_area_um2();
  rep.die_area_um2 = r.die_area_um2();
  rep.wirelength_um = dbu_to_um(r.def.total_wirelength());
  rep.vias = r.def.total_vias();
  rep.route_nets = r.route_stats.nets_routed;
  rep.route_iterations = r.route_stats.iterations;
  rep.critical_delay_ps = r.timing.critical_delay_ps;
  rep.total_ms = r.timings.total_ms();
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    StageEntry e;
    e.name = flow_stage_name(s);
    e.ms = r.timings.stage_ms(s);
    e.cache = cache_outcome_name(r.timings.outcome(s));
    e.cache_key = r.timings.key(s) != 0 ? hash_hex(r.timings.key(s)) : "";
    rep.stages.push_back(std::move(e));
  }
  return rep;
}

}  // namespace

FlowReport build_flow_report(const RegularFlowResult& r) {
  return base_flow_report(r, "regular", r.rtl);
}

FlowReport build_flow_report(const SecureFlowResult& r) {
  FlowReport rep = base_flow_report(r, "secure", r.diff);
  rep.secure.present = true;
  rep.secure.fat_cells = r.fat.n_instances();
  rep.secure.diff_cells = r.diff.n_instances();
  rep.secure.inverters_removed = r.sub_stats.inverters_removed;
  rep.secure.lec_equivalent = r.lec.equivalent;
  rep.secure.lec_points = r.lec.compared_points;
  rep.secure.stream_check_ok = r.stream_out_check.ok;
  return rep;
}

std::string flow_report(const FlowArtifacts& r) {
  std::ostringstream os;
  os << "flow: " << r.rtl.name() << "\n";
  os << "  cells:       " << r.rtl.n_instances() << " (area "
     << r.rtl.total_area_um2() << " um^2)\n";
  append_common(os, r);
  return os.str();
}

std::string flow_report(const SecureFlowResult& r) {
  std::ostringstream os;
  os << "secure flow: " << r.rtl.name() << "\n";
  os << "  rtl cells:   " << r.rtl.n_instances() << "\n";
  os << "  fat cells:   " << r.fat.n_instances() << " ("
     << r.sub_stats.inverters_removed << " inverters removed)\n";
  os << "  diff cells:  " << r.diff.n_instances() << " (area "
     << r.diff.total_area_um2() << " um^2)\n";
  append_common(os, r);
  os << "  LEC:         " << (r.lec.equivalent ? "pass" : "FAIL") << " ("
     << r.lec.compared_points << " points)\n";
  os << "  eval timing: " << r.timing.critical_delay_ps
     << " ps critical (half-cycle budget " << evaluate_half_cycle_ps()
     << " ps)\n";
  return os.str();
}

}  // namespace secflow
