#include "sca/selection.h"

#include "crypto/des.h"

namespace secflow {

int hamming_weight(std::uint32_t v) {
  int n = 0;
  for (; v != 0; v &= v - 1) ++n;
  return n;
}

std::uint32_t des_predict_pl(std::uint32_t ciphertext, std::uint32_t guess,
                             int sbox) {
  const std::uint32_t cl = ciphertext & 0xF;
  const std::uint32_t cr = (ciphertext >> 4) & 0x3F;
  return (cl ^ des_sbox(sbox, cr ^ guess)) & 0xF;
}

HypothesisFn des_selection(int bit, int sbox) {
  return [bit, sbox](std::uint32_t ct, std::uint32_t, std::uint32_t guess) {
    return static_cast<double>((des_predict_pl(ct, guess, sbox) >> bit) & 1);
  };
}

const char* power_model_name(PowerModel m) {
  return m == PowerModel::kHammingWeight ? "hw" : "hd";
}

std::optional<PowerModel> parse_power_model(const std::string& text) {
  if (text == "hw") return PowerModel::kHammingWeight;
  if (text == "hd") return PowerModel::kHammingDistance;
  return std::nullopt;
}

HypothesisFn des_hypothesis(PowerModel model, int sbox) {
  if (model == PowerModel::kHammingWeight) {
    return [sbox](std::uint32_t ct, std::uint32_t, std::uint32_t guess) {
      return static_cast<double>(hamming_weight(des_predict_pl(ct, guess,
                                                               sbox)));
    };
  }
  return [sbox](std::uint32_t ct, std::uint32_t prev_ct, std::uint32_t guess) {
    return static_cast<double>(hamming_weight(
        des_predict_pl(ct, guess, sbox) ^
        des_predict_pl(prev_ct, guess, sbox)));
  };
}

}  // namespace secflow
