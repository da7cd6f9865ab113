// Leakage-assessment campaigns: the bridge between the simulation engine
// and the statistical machinery.
//
// run_des_dpa_campaign mounts the paper's difference-of-means DPA (Fig 6)
// on the same engine: the same DES trace task and per-trace RNG streams as
// the CPA phase, a 0/1 selection hypothesis, the dpa_scores distinguisher
// and estimate_mtd for the measurements to disclosure.
//
// assess_des_leakage mounts the full battery on a reduced-DES
// implementation (regular or WDDL): fixed-vs-random TVLA, CPA key
// recovery under a Hamming-weight or Hamming-distance model, success-rate
// / guessing-entropy curves over repeated independent sub-campaigns
// (disjoint Rng::stream bases), and MTD estimation with early stop.
// assess_tvla_leakage runs the model-free TVLA alone on any design by
// driving every non-clock input lane, so the detection test needs no
// knowledge of the circuit.
//
// Traces are synthesized through the compile-once / simulate-many path
// (sim/trace_sim.h) in fixed blocks; when LeakageSetup::cache_dir is set,
// each block is checkpointed in the ArtifactStore under a content-address
// chained from the flow's extraction-stage key (LeakageSetup::base_key),
// so a re-assessment of an unchanged design replays traces from disk
// instead of re-simulating.  Within one assessment each trace is
// synthesized once: the MTD phase reads the CPA phase's traces from memory
// and fetches only the ranges past them.  Per-phase obs spans and metrics
// are emitted throughout.
#pragma once

#include <cstdint>
#include <string>

#include "base/parallel.h"
#include "leakage/cpa.h"
#include "leakage/report.h"
#include "leakage/tvla.h"
#include "netlist/netlist.h"
#include "obs/report.h"
#include "sca/selection.h"
#include "sim/power_sim.h"

namespace secflow {

/// Pre-resolved port ids for one bit of the Fig 4 interface.  For a
/// differential netlist each bit has a true and a false rail;
/// single-ended designs leave `f` invalid.
struct DesBitPorts {
  PortId t;
  PortId f;
};

/// The Fig 4 interface (pl/pr/k inputs, cl/cr outputs, rails suffixed
/// _t/_f on differential netlists), resolved to PortIds once per campaign
/// so per-trace tasks never hash a port name.
struct DesPortMap {
  std::vector<DesBitPorts> k, pl, pr, cl, cr;
  bool differential = false;

  /// Resolve from port names; throws Error on a missing port/rail.
  static DesPortMap resolve(const Netlist& nl, bool differential);

  /// Drive a multi-bit input (both rails on differential designs).
  void drive(PowerSimulator& sim, const std::vector<DesBitPorts>& ports,
             std::uint32_t value) const;

  /// Read a multi-bit observable.  A WDDL design is observable only
  /// during the evaluate phase (rails precharge to 0 afterwards); a
  /// regular design reads the settled end-of-cycle value.
  std::uint32_t read(const PowerSimulator& sim,
                     const std::vector<DesBitPorts>& ports) const;
};

struct LeakageSetup {
  std::uint64_t seed = 2025;
  std::string design;  ///< report label

  // TVLA (fixed-vs-random Welch-t).
  bool with_tvla = true;
  int tvla_traces = 600;  ///< total, interleaved fixed/random by parity
  double tvla_threshold = 4.5;

  // CPA key recovery (DES interface only).
  bool with_cpa = true;
  int cpa_traces = 800;
  std::uint32_t key = 46;  ///< the paper's secret key
  int sbox = 1;
  PowerModel model = PowerModel::kHammingDistance;
  double margin = kDisclosureMargin;

  // Success-rate / guessing-entropy curves; 0 campaigns disables.
  int ge_campaigns = 0;

  // MTD estimation (requires with_cpa).
  bool with_mtd = true;
  MtdOptions mtd;

  /// Gaussian measurement noise per sample [mA].  TVLA needs a nonzero
  /// value: a noiseless fixed-plaintext class has zero variance and the
  /// Welch denominator collapses.
  double noise_ma = 0.05;

  /// Trace checkpoint cache; "" disables caching.
  std::string cache_dir;
  /// Content-address of the upstream flow state (normally the
  /// extraction-stage key from compute_stage_keys); chains the trace
  /// cache to the design so a changed netlist misses cleanly.
  std::uint64_t base_key = 0;

  Parallelism parallelism;
};

/// Full assessment of a reduced-DES implementation.  The model must be
/// compiled with precharge_inputs == differential.
LeakageReport assess_des_leakage(const CompiledSimModel& model,
                                 bool differential,
                                 const LeakageSetup& setup);

/// Convenience: compile the model, then assess.
LeakageReport assess_des_leakage(const Netlist& nl, const CapTable& caps,
                                 bool differential,
                                 const LeakageSetup& setup);

/// Model-free TVLA on an arbitrary design: drives every non-clock input
/// lane (rail pairs fold into one lane on differential netlists) with
/// fixed or fresh random values and runs the Welch-t detection test.
/// The returned report carries only the tvla section.
LeakageReport assess_tvla_leakage(const CompiledSimModel& model,
                                  bool differential,
                                  const LeakageSetup& setup);

LeakageReport assess_tvla_leakage(const Netlist& nl, const CapTable& caps,
                                  bool differential,
                                  const LeakageSetup& setup);

/// The paper's DPA experiment (section 3, Fig 6) on a reduced-DES
/// implementation, regular or WDDL.
struct DesDpaSetup {
  std::uint32_t key = 46;      ///< the paper's secret key
  int select_bit = 2;          ///< "3rd bit of PL"
  int sbox = 1;
  int n_measurements = 2000;   ///< the paper's trace count
  std::uint64_t seed = 2025;
  /// Gaussian measurement noise added per sample [mA] (the paper's traces
  /// include measurement noise; 0 disables).
  double noise_ma = 0.0;
  /// Trace-synthesis and accumulation parallelism.
  Parallelism parallelism;
};

/// Traces [begin, end) of the DES CPA/DPA stream, uncached: trace i
/// replays the four-cycle campaign with setup.key on
/// Rng::stream(setup.seed, i).  Appends each trace's cycle energy to
/// `energies_pj` when it is given.
std::vector<CpaMeasurement> des_dpa_traces(const CompiledSimModel& model,
                                           bool differential,
                                           const DesDpaSetup& setup,
                                           int begin, int end,
                                           std::vector<double>* energies_pj =
                                               nullptr);

struct DesDpaCampaign {
  /// DPA ranking every 100 traces (the Fig 6 grid) up to n_measurements;
  /// mtd.rankings.back() covers every trace.  The MTD is the start of the
  /// disclosure run that holds to the last checkpoint, -1 if none does.
  MtdResult mtd;
  std::vector<double> cycle_energies_pj;  ///< per trace (NED/NSD table)

  const CpaRanking& ranking() const { return mtd.rankings.back(); }
};

/// Stream n_measurements traces through one accumulator under the
/// des_selection hypothesis, ranking by dpa_scores.  The model must be
/// compiled with precharge_inputs == differential.
DesDpaCampaign run_des_dpa_campaign(const CompiledSimModel& model,
                                    const DesDpaSetup& setup,
                                    bool differential);

/// Convenience: compile the model, then run the campaign.
DesDpaCampaign run_des_dpa_campaign(const Netlist& nl, const CapTable& caps,
                                    const DesDpaSetup& setup,
                                    bool differential);

/// Fill FlowReport::dpa from a campaign: measurement count, ranked guess,
/// disclosure verdict, best/runner-up peaks, and the mean per-cycle
/// energy.
void attach_dpa(FlowReport& report, const DesDpaCampaign& campaign);

}  // namespace secflow
