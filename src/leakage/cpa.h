// Correlation power analysis (Brier et al.) and the paper's
// difference-of-means DPA (Kocher et al., Fig 6) as one streaming engine.
//
// Each measurement carries the recorded supply-current samples plus the
// two ciphertext observables (target and previous encryption) a
// Hamming-weight or Hamming-distance hypothesis needs; a DPA selection
// bit is a 0/1 hypothesis on the same observables.  accumulate_cpa
// shards the measurements into fixed-width index ranges, folds each shard
// serially into its own CpaAccumulator on the shared thread pool, and
// merges the shards in ascending order — bit-identical statistics at any
// SECFLOW_THREADS (see leakage/accumulators.h for the contract).
//
// cpa_ranking turns the accumulated co-moments into per-guess scores
// under a distinguisher (cpa_scores: max |rho|; dpa_scores: peak-to-peak
// of the difference of means) and ranks the key; estimate_mtd feeds traces
// incrementally through a private accumulator and stops early once
// disclosure has persisted, giving the measurements-to-disclosure figure
// without simulating the full budget.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/parallel.h"
#include "leakage/accumulators.h"
#include "sca/selection.h"

namespace secflow {

/// One CPA measurement: trace samples plus the attacker's observables.
struct CpaMeasurement {
  std::vector<double> samples;
  std::uint32_t ct = 0;       ///< packed ciphertext of this encryption
  std::uint32_t prev_ct = 0;  ///< packed ciphertext of the previous one
};

/// Disclosure requires the best guess to beat the runner-up score by this
/// relative margin (the default of every disclosure margin).
inline constexpr double kDisclosureMargin = 0.05;

struct CpaOptions {
  int n_guesses = kDesKeyGuesses;
  double margin = kDisclosureMargin;
  /// Shard accumulation parallelism; results are bit-identical for any
  /// thread count.
  Parallelism parallelism;
};

/// Accumulate every measurement under `hypothesis` (sharded, merged in
/// deterministic order).  Throws Error on empty input or ragged traces.
CpaAccumulator accumulate_cpa(const std::vector<CpaMeasurement>& traces,
                              const HypothesisFn& hypothesis,
                              const CpaOptions& opts);

/// max(trace) - min(trace); 0 for empty traces.
double peak_to_peak(const std::vector<double>& trace);

/// A distinguisher: per-guess scores of an accumulated campaign, higher
/// meaning more likely the key.
using Distinguisher = std::vector<double> (*)(const CpaAccumulator& acc);

/// CPA: max over samples of |correlation|.
std::vector<double> cpa_scores(const CpaAccumulator& acc);

/// DPA (Fig 6): peak-to-peak of the difference-of-means trace.  Needs a
/// 0/1 selection hypothesis (des_selection).
std::vector<double> dpa_scores(const CpaAccumulator& acc);

/// The distinguisher verdict of an accumulated campaign.
struct CpaRanking {
  std::vector<double> scores;  ///< per guess, from the distinguisher
  int best_guess = -1;
  double best_score = 0.0;
  double runner_up_score = 0.0;  ///< best score among the other guesses

  /// 1-based rank of `guess`: 1 + the number of strictly better guesses
  /// (+ equal-scored guesses with a smaller index, so ranks are a
  /// deterministic permutation).
  int rank_of(int guess) const;
  double score_of(int guess) const {
    return scores[static_cast<std::size_t>(guess)];
  }
  /// Correct key ranked first, beating the runner-up by the margin.
  bool disclosed(std::uint32_t correct_key, double margin) const;

  bool operator==(const CpaRanking&) const = default;
};

CpaRanking cpa_ranking(const CpaAccumulator& acc,
                       Distinguisher score = cpa_scores);

/// Produces the measurements for trace indices [begin, end) — from the
/// simulator, a checkpoint cache, or disk.  Indices are absolute, so a
/// feeder backed by Rng::stream(seed, i) yields the same trace for index
/// i regardless of the batch boundaries it is called with.
using TraceFeeder =
    std::function<std::vector<CpaMeasurement>(int begin, int end)>;

struct MtdOptions {
  int max_traces = 2000;  ///< give up (key hidden) beyond this budget
  int step = 100;         ///< feed/check granularity
  /// Early stop once disclosure has held for this many consecutive
  /// checkpoints.  Disclosure still reaching the last checkpoint counts;
  /// a run broken before either bound resets.  persist = the number of
  /// checkpoints never stops early: the MTD is then the start of the run
  /// that holds to the end of the budget.
  int persist = 3;
  double margin = kDisclosureMargin;
};

struct MtdResult {
  /// Smallest checked trace count from which disclosure persisted;
  /// -1 when the key is still hidden at max_traces (MTD > max_traces).
  int mtd = -1;
  int traces_fed = 0;  ///< traces consumed before the early stop / budget
  bool disclosed = false;
  std::vector<int> checkpoints;  ///< every checked trace count
  std::vector<int> ranks;        ///< correct-key rank at each checkpoint
  std::vector<CpaRanking> rankings;  ///< the full ranking at each checkpoint

  bool operator==(const MtdResult&) const = default;
};

/// Incremental MTD estimation: feed `step` traces at a time into a
/// streaming accumulator, rank by `score` after each batch, stop early
/// once disclosure persisted `persist` checkpoints.
MtdResult estimate_mtd(const TraceFeeder& feeder,
                       const HypothesisFn& hypothesis,
                       std::uint32_t correct_key, const MtdOptions& mtd,
                       const CpaOptions& opts = {},
                       Distinguisher score = cpa_scores);

/// True when `later` dominates `earlier` as an MTD figure: -1 (hidden at
/// budget `later_budget`) dominates any disclosed count within the
/// budget; otherwise plain >.
bool mtd_exceeds(int later, int later_budget, int earlier);

}  // namespace secflow
