// End-to-end determinism of the parallel execution layer: trace
// synthesis and the DPA campaign must be bit-identical for any thread
// count (1 == serial, 2, 8 — more threads than this box has cores).
// This is the contract that makes SECFLOW_THREADS a pure performance
// knob: no experiment result may depend on it.
//
// Also the target of the TSan certification build:
//   cmake -B build-tsan -DSECFLOW_SANITIZE=thread && ctest -R Parallel
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "crypto/des.h"
#include "leakage/assess.h"
#include "liberty/builtin_lib.h"
#include "sim/trace_sim.h"
#include "synth/techmap.h"

namespace secflow {
namespace {

class ParallelDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    rtl_ = new Netlist(technology_map(make_des_dpa_circuit(), lib_));
  }
  static void TearDownTestSuite() {
    delete rtl_;
    rtl_ = nullptr;
    lib_.reset();
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static Netlist* rtl_;
};

std::shared_ptr<const CellLibrary> ParallelDeterminism::lib_;
Netlist* ParallelDeterminism::rtl_ = nullptr;

/// Simulate n random encryptions of the reduced-DES module with the given
/// thread count; every stochastic choice comes from the per-trace stream.
std::vector<SimTrace> encrypt_traces(const Netlist& nl, int n, int threads) {
  const TraceTask task = [](PowerSimulator& sim, Rng& rng, int) {
    auto drive = [&sim](const std::string& base, int width, std::uint32_t v) {
      for (int i = 0; i < width; ++i) {
        sim.set_input(base + "_" + std::to_string(i), (v >> i) & 1);
      }
    };
    drive("k", 6, 46);
    drive("pl", 4, static_cast<std::uint32_t>(rng.next_below(16)));
    drive("pr", 6, static_cast<std::uint32_t>(rng.next_below(64)));
    sim.settle();
    sim.advance_cycle();
    drive("pl", 4, static_cast<std::uint32_t>(rng.next_below(16)));
    drive("pr", 6, static_cast<std::uint32_t>(rng.next_below(64)));
    sim.advance_cycle();
    SimTrace out;
    out.cycle = sim.run_cycle();
    sim.advance_cycle();
    for (int i = 0; i < 4; ++i) {
      if (sim.output("cl_" + std::to_string(i))) out.observable |= 1u << i;
    }
    return out;
  };
  Parallelism par;
  par.n_threads = threads;
  return simulate_traces(nl, {}, PowerSimOptions{}, n, 77, task, par);
}

TEST_F(ParallelDeterminism, SimulateTracesBitIdenticalAcrossThreadCounts) {
  const std::vector<SimTrace> serial = encrypt_traces(*rtl_, 24, 1);
  ASSERT_EQ(serial.size(), 24u);
  for (int threads : {2, 8}) {
    const std::vector<SimTrace> par = encrypt_traces(*rtl_, 24, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].observable, serial[i].observable) << "trace " << i;
      EXPECT_EQ(par[i].cycle.energy_pj, serial[i].cycle.energy_pj);
      ASSERT_EQ(par[i].cycle.current_ma, serial[i].cycle.current_ma)
          << "trace " << i << " @ " << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminism, DpaCampaignBitIdenticalAcrossThreadCounts) {
  DesDpaSetup setup;
  setup.n_measurements = 30;
  setup.noise_ma = 0.05;  // exercises the per-trace noise stream too
  auto campaign = [&](int threads) {
    DesDpaSetup s = setup;
    s.parallelism.n_threads = threads;
    return run_des_dpa_campaign(*rtl_, {}, s, /*differential=*/false);
  };
  const DesDpaCampaign serial = campaign(1);
  const CpaRanking& serial_r = serial.ranking();
  for (int threads : {2, 8}) {
    const DesDpaCampaign par = campaign(threads);
    ASSERT_EQ(par.cycle_energies_pj, serial.cycle_energies_pj)
        << "@ " << threads << " threads";
    const CpaRanking& r = par.ranking();
    EXPECT_EQ(r.best_guess, serial_r.best_guess);
    EXPECT_EQ(par.mtd.disclosed, serial.mtd.disclosed);
    ASSERT_EQ(r.scores, serial_r.scores) << "@ " << threads << " threads";
  }
}

TEST_F(ParallelDeterminism, GuessSweepBitIdenticalAcrossThreadCounts) {
  // Synthetic traces; only the accumulation under the DPA selection
  // hypothesis is parallel.
  std::vector<CpaMeasurement> traces;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    CpaMeasurement m;
    m.ct = static_cast<std::uint32_t>(rng.next_below(1024));
    m.samples.assign(16, 0.0);
    for (double& s : m.samples) s = rng.next_gaussian();
    traces.push_back(std::move(m));
  }
  auto analysis = [&](int threads) {
    CpaOptions opts;
    opts.parallelism.n_threads = threads;
    return cpa_ranking(accumulate_cpa(traces, des_selection(2), opts),
                       dpa_scores);
  };
  const CpaRanking serial = analysis(1);
  for (int threads : {2, 8}) {
    const CpaRanking par = analysis(threads);
    EXPECT_EQ(par.best_guess, serial.best_guess);
    ASSERT_EQ(par.scores, serial.scores);
  }
}

}  // namespace
}  // namespace secflow
