// Mount the paper's DPA (section 3) against both implementations of the
// reduced-DES module and watch the secret key appear — or not.  The DPA
// runs on the leakage engine: a 0/1 selection hypothesis in the streaming
// CPA accumulator, ranked by the peak-to-peak of the difference of means.
//
//   $ ./dpa_attack [n_traces]     (default 800)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "secflow.h"

using namespace secflow;

namespace {

/// Accumulate the campaign's traces under the DPA selection bit: one
/// streaming accumulator holds every guess's difference of means.
CpaAccumulator attack(const CompiledSimModel& model, bool differential,
                      const DesDpaSetup& setup) {
  return accumulate_cpa(
      des_dpa_traces(model, differential, setup, 0, setup.n_measurements),
      des_selection(setup.select_bit, setup.sbox), CpaOptions{});
}

void report(const char* label, const CpaAccumulator& acc,
            const DesDpaSetup& setup) {
  const CpaRanking r = cpa_ranking(acc, dpa_scores);
  std::vector<std::pair<double, int>> ranked;
  for (int g = 0; g < 64; ++g) ranked.push_back({r.score_of(g), g});
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\n%s (%llu traces):\n", label,
              static_cast<unsigned long long>(acc.n()));
  std::printf("  top guesses: ");
  for (int i = 0; i < 5; ++i) {
    std::printf("%s%d (%.3f)%s", ranked[i].second == (int)setup.key ? "[" : "",
                ranked[i].second, ranked[i].first,
                ranked[i].second == (int)setup.key ? "]" : "");
    std::printf(i < 4 ? ", " : "\n");
  }
  std::printf("  secret key %u: rank %d, %s\n", setup.key,
              r.rank_of(static_cast<int>(setup.key)),
              r.disclosed(setup.key, kDisclosureMargin) ? "DISCLOSED"
                                                        : "still hidden");
}

}  // namespace

int main(int argc, char** argv) {
  DesDpaSetup setup;
  setup.n_measurements = argc > 1 ? std::atoi(argv[1]) : 800;

  std::printf("building the reduced-DES module (paper Fig 4), key = %u...\n",
              setup.key);
  const auto lib = builtin_stdcell018();
  const AigCircuit circuit = make_des_dpa_circuit();
  const RegularFlowResult regular = run_regular_flow(circuit, lib);
  const SecureFlowResult secure = run_secure_flow(circuit, lib);

  std::printf("collecting %d power traces per implementation "
              "(125 MHz, 800 samples/cycle)...\n",
              setup.n_measurements);
  const CpaAccumulator ref =
      attack(compile_power_model(regular), /*differential=*/false, setup);
  const CpaAccumulator sec =
      attack(compile_power_model(secure), /*differential=*/true, setup);

  report("regular CMOS implementation", ref, setup);
  report("WDDL secure implementation", sec, setup);

  std::printf("\ndifferential trace of the correct key (regular flow), "
              "max |sample|:\n  ");
  const auto diff = ref.difference_of_means(static_cast<int>(setup.key));
  const auto peak = std::max_element(
      diff.begin(), diff.end(),
      [](double a, double b) { return std::abs(a) < std::abs(b); });
  std::printf("%.4f mA at sample %ld of %zu\n", *peak,
              std::distance(diff.begin(), peak), diff.size());

  // Export the Fig 6-style series for plotting.
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  for (int g = 0; g < 64; g += 21) {
    names.push_back("guess" + std::to_string(g));
    cols.push_back(ref.difference_of_means(g));
  }
  names.push_back("key46");
  cols.push_back(diff);
  write_series_csv("dpa_differential_traces.csv", names, cols);
  std::printf("differential traces written to dpa_differential_traces.csv\n");
  return 0;
}
