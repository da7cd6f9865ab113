// Leakage hypotheses and key-guess enumeration shared by every power
// attack (leakage/cpa.h).
//
// DPA (difference of means) partitions traces by a single predicted bit;
// CPA (Pearson correlation) correlates against a multi-bit leakage
// hypothesis.  Both derive their prediction from the same intermediate
// value — for the paper's Fig 4 circuit, the PL register nibble
// reconstructed from the observed ciphertext under a key guess.  That
// core lives here, once, so the two attacks cannot drift:
// des_selection() is a bit extraction of des_predict_pl(), and the CPA
// hypotheses are Hamming weight/distance of the same value.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace secflow {

/// Leakage hypothesis: predicted relative power of one trace from its
/// observables under a key guess (the CPA correlation target, or the DPA
/// selection bit as 0.0/1.0).  `prev_ct` is the ciphertext of the
/// preceding encryption — Hamming-distance models predict register
/// flips, which need both.
using HypothesisFn = std::function<double(std::uint32_t ciphertext,
                                          std::uint32_t prev_ct,
                                          std::uint32_t key_guess)>;

/// The Fig 4 subkey is 6 bits: every attack enumerates these guesses.
inline constexpr int kDesKeyGuesses = 64;

/// Number of set bits.
int hamming_weight(std::uint32_t v);

/// The shared attack core: the PL register nibble reconstructed from the
/// packed ciphertext (cl | cr << 4) under a key guess,
/// PL = CL ^ Sbox(CR ^ K).  Exact for the correct guess.
std::uint32_t des_predict_pl(std::uint32_t ciphertext, std::uint32_t guess,
                             int sbox = 1);

/// DPA selection for the Fig 4 packing: bit `bit` of des_predict_pl, as
/// a 0.0/1.0 hypothesis (the difference of means partitions on it).
HypothesisFn des_selection(int bit, int sbox = 1);

/// CPA power models over the predicted intermediate.
enum class PowerModel {
  kHammingWeight,    ///< HW(PL): value-dependent leakage
  kHammingDistance,  ///< HW(PL_prev ^ PL): register-flip leakage
};

/// "hw" | "hd" — the leakage-report vocabulary.
const char* power_model_name(PowerModel m);

/// Inverse of power_model_name; nullopt on unknown text.
std::optional<PowerModel> parse_power_model(const std::string& text);

/// The hypothesis for `model` on the Fig 4 circuit, built on
/// des_predict_pl (the same core the DPA selection uses).
HypothesisFn des_hypothesis(PowerModel model, int sbox = 1);

}  // namespace secflow
