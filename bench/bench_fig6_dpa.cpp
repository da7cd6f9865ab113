// Fig 6: the DPA result.  Top: measurements-to-disclosure (paper: the
// reference design discloses K=46 within ~250 measurements, the secure
// design does not disclose within 2000).  Bottom: the peak-to-peak value
// of the 64 differential traces at 2000 measurements (the secret key
// stands out only for the reference implementation).  Each design runs one
// streaming campaign (leakage/assess.h): its ranking every 100 traces is a
// row of the top table, and the last ranking is the bottom series.
//
// Exits non-zero when the shape check fails or the parallel campaign
// differs from the serial one.
#include <algorithm>
#include <chrono>

#include "base/parallel.h"
#include "bench_util.h"
#include "leakage/assess.h"

using namespace secflow;

namespace {

void print_pp_series(const CpaRanking& r, std::uint32_t key) {
  // Compact 64-entry series, 8 per line, correct key marked.
  for (int g = 0; g < 64; ++g) {
    std::printf("%s%6.3f%s", g == static_cast<int>(key) ? "[" : " ",
                r.score_of(g),
                g == static_cast<int>(key) ? "]" : " ");
    if (g % 8 == 7) std::printf("\n");
  }
}

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("bench_fig6_dpa", argc, argv);
  bench::DesDesigns d = bench::build_des_designs();
  DesDpaSetup setup;
  setup.n_measurements = 2000;
  report.note("design", "des");
  report.metric("measurements", setup.n_measurements);

  // Campaign parallelism: serial baseline vs the full thread budget
  // (SECFLOW_THREADS or hardware).  The per-trace RNG streams make the
  // parallel campaign bit-identical to the serial one — verified below.
  DesDpaSetup serial = setup;
  serial.parallelism.n_threads = 1;
  const int n_par = Parallelism{}.resolved_threads();

  DesDpaCampaign ref, ref_par;
  const double ser_ms = wall_ms([&] {
    ref = run_des_dpa_campaign(d.regular.rtl, d.regular.caps, serial, false);
  });
  const double par_ms = wall_ms([&] {
    ref_par =
        run_des_dpa_campaign(d.regular.rtl, d.regular.caps, setup, false);
  });
  const DesDpaCampaign sec =
      run_des_dpa_campaign(d.secure.diff, d.secure.caps, setup, true);

  bench::header("parallel campaign", "serial vs parallel trace synthesis");
  bench::row("regular campaign, %d traces: %.0f ms @ 1 thread, "
             "%.0f ms @ %d threads (%.2fx)",
             setup.n_measurements, ser_ms, par_ms, n_par, ser_ms / par_ms);
  report.metric("campaign.serial_ms", ser_ms);
  report.metric("campaign.parallel_ms", par_ms);
  report.metric("campaign.threads", n_par);
  report.metric("campaign.speedup", ser_ms / par_ms);
  // Every checkpoint's ranking, the MTD and the energies, bit for bit.
  const bool identical = ref.mtd == ref_par.mtd &&
                         ref.cycle_energies_pj == ref_par.cycle_energies_pj;
  bench::row("parallel == serial DPA result: %s",
             identical ? "bit-identical" : "MISMATCH");

  bench::header("Fig 6 (top)", "measurements to disclosure (MTD)");
  bench::row("%-12s %28s %28s", "traces", "regular: key found?",
             "secure: key found?");
  auto found = [&](const CpaRanking& r) {
    return r.disclosed(setup.key, kDisclosureMargin) ? "DISCLOSED" : "hidden";
  };
  for (std::size_t i = 0; i < ref.mtd.checkpoints.size(); ++i) {
    const CpaRanking& rr = ref.mtd.rankings[i];
    const CpaRanking& sr = sec.mtd.rankings[i];
    bench::row("%-12d %17s (guess %2d) %17s (guess %2d)",
               ref.mtd.checkpoints[i], found(rr), rr.best_guess, found(sr),
               sr.best_guess);
  }
  const int mtd_ref = ref.mtd.mtd;
  const int mtd_sec = sec.mtd.mtd;
  bench::blank();
  bench::row("MTD regular: %d   [paper: ~250]", mtd_ref);
  const std::string mtd_sec_str =
      mtd_sec < 0 ? "> 2000" : std::to_string(mtd_sec);
  bench::row("MTD secure:  %s   [paper: > 2000]", mtd_sec_str.c_str());
  report.metric("mtd.regular", mtd_ref);
  report.metric("mtd.secure", mtd_sec);

  bench::header("Fig 6 (bottom)",
                "peak-to-peak of differential traces @ 2000 measurements");
  const CpaRanking& rr = ref.ranking();
  const CpaRanking& sr = sec.ranking();
  bench::row("regular flow (correct key bracketed; units mA):");
  print_pp_series(rr, setup.key);
  auto stats = [](const CpaRanking& r, std::uint32_t key) {
    double mx = 0.0;
    for (int g = 0; g < 64; ++g) {
      if (g != static_cast<int>(key)) mx = std::max(mx, r.score_of(g));
    }
    return std::pair<double, double>(r.score_of(static_cast<int>(key)), mx);
  };
  auto [rk, rmax] = stats(rr, setup.key);
  bench::row("correct key pp %.3f vs best wrong guess %.3f (%.2fx)", rk, rmax,
             rk / rmax);
  bench::blank();
  bench::row("secure flow:");
  print_pp_series(sr, setup.key);
  auto [sk, smax] = stats(sr, setup.key);
  bench::row("correct key pp %.3f vs best wrong guess %.3f (%.2fx)", sk, smax,
             sk / smax);
  bench::blank();
  const bool shape_ok = rk > 1.3 * rmax && sk < 1.3 * smax;
  bench::row("shape check: regular discloses, secure conforms to the band: %s",
             shape_ok ? "pass" : "FAIL");
  report.metric("pp.regular.correct_key", rk);
  report.metric("pp.regular.best_wrong", rmax);
  report.metric("pp.regular.ratio", rk / rmax);
  report.metric("pp.secure.correct_key", sk);
  report.metric("pp.secure.best_wrong", smax);
  report.metric("pp.secure.ratio", sk / smax);
  return identical && shape_ok ? 0 : 1;
}
