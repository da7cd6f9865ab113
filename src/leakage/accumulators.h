// Numerically stable one-pass statistical accumulators for streaming
// leakage assessment.
//
// Heavy-traffic evaluation streams millions of traces through the
// statistics — nothing here ever holds a trace matrix.  Each accumulator
// keeps O(state) running moments, updated per trace with the Welford
// recurrences (catastrophic-cancellation-free, unlike naive sum /
// sum-of-squares), and supports an exact pairwise merge (Chan et al.) so
// shards accumulated independently combine into the same statistics.
//
// Determinism contract (DESIGN.md §14): callers shard the trace stream
// into fixed-width index ranges (kLeakageShardTraces, independent of the
// thread count), accumulate each shard serially in index order, and merge
// the shard accumulators in ascending shard order.  Both the in-shard
// update order and the merge order are therefore thread-count-invariant,
// which makes every derived statistic bit-identical at any
// SECFLOW_THREADS.
#pragma once

#include <cstdint>
#include <vector>

namespace secflow {

/// Fixed shard width (traces per shard) of the deterministic
/// shard-and-merge scheme.  A constant, never derived from the thread
/// count: thread counts change which worker computes a shard, never the
/// shard boundaries or the merge order.
inline constexpr std::size_t kLeakageShardTraces = 256;

/// Welford running mean / sum of squared deviations of one scalar stream.
struct Moment {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the mean

  void add(double x);
  /// Fold another accumulator in (Chan et al. pairwise combination).
  void merge(const Moment& o);
  /// Unbiased sample variance m2/(n-1); 0 when n < 2.
  double variance() const;

  bool operator==(const Moment&) const = default;
};

/// Per-sample Welch-t state: fixed-class and random-class moments for
/// every sample point of the trace.
class WelchAccumulator {
 public:
  /// Empty shell (0 samples) so accumulators can live in containers;
  /// usable only as an assignment target.
  WelchAccumulator() = default;
  explicit WelchAccumulator(std::size_t n_samples);

  std::size_t n_samples() const { return fixed_.size(); }
  std::uint64_t n(bool fixed_group) const;

  /// Fold in one trace of the given class (`samples` has n_samples()).
  void add(bool fixed_group, const double* samples);
  void merge(const WelchAccumulator& o);

  /// Welch's t statistic per sample:
  ///   t = (mean_f - mean_r) / sqrt(var_f/n_f + var_r/n_r).
  /// 0 where either class has fewer than 2 traces or both variances
  /// vanish (no evidence either way, not infinite evidence).
  std::vector<double> t_statistic() const;

 private:
  std::vector<Moment> fixed_;
  std::vector<Moment> random_;
};

/// Streaming Pearson-correlation state for CPA: per-sample trace moments,
/// per-guess hypothesis moments, and the (guess x sample) co-moment
/// matrix, all maintained with one-pass pairwise-mergeable recurrences.
/// State is O(guesses * samples) regardless of the trace count.
class CpaAccumulator {
 public:
  /// Empty shell (0 guesses / 0 samples) so accumulators can live in
  /// containers; usable only as an assignment target.
  CpaAccumulator() = default;
  CpaAccumulator(int n_guesses, int n_samples);

  int n_guesses() const { return static_cast<int>(mean_h_.size()); }
  int n_samples() const { return static_cast<int>(mean_t_.size()); }
  std::uint64_t n() const { return n_; }

  /// Fold in one trace: `samples` has n_samples() entries, `hypotheses`
  /// the predicted leakage per key guess (n_guesses() entries).
  void add(const double* samples, const double* hypotheses);
  void merge(const CpaAccumulator& o);

  /// Pearson correlation between guess g's hypothesis and sample s
  /// across every trace folded in so far; 0 when either variance
  /// vanishes or fewer than 2 traces were seen.
  double correlation(int guess, int sample) const;

  /// Difference of means of a 0/1 hypothesis (the DPA differential
  /// trace): per sample, mean(t | h=1) - mean(t | h=0) = C[g,s] / m2_h[g],
  /// exact for any two-valued {0, 1} hypothesis.  All zeros when guess g
  /// put every trace in one class (m2_h = 0).
  std::vector<double> difference_of_means(int guess) const;

 private:
  std::uint64_t n_ = 0;
  std::vector<double> mean_t_, m2_t_;  ///< per sample
  std::vector<double> mean_h_, m2_h_;  ///< per guess
  std::vector<double> c_;              ///< co-moments, guess-major [g*S + s]
  std::vector<double> dt_old_;         ///< per-sample scratch for add()
};

}  // namespace secflow
