#include "mta/conv.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace strq {

ConvAlphabet::ConvAlphabet(int base_size, int arity, int num_letters)
    : base_size_(base_size), arity_(arity), num_letters_(num_letters) {
  pow_.resize(arity_ + 1);
  pow_[0] = 1;
  // Create() guarantees (|Σ|+1)^arity fits the Symbol space, so these never
  // overflow int.
  for (int t = 1; t <= arity_; ++t) pow_[t] = pow_[t - 1] * (base_size_ + 1);
}

Result<ConvAlphabet> ConvAlphabet::Create(int base_size, int arity) {
  if (base_size <= 0) return InvalidArgumentError("base alphabet empty");
  if (arity < 0) return InvalidArgumentError("negative arity");
  long long letters = 1;
  for (int i = 0; i < arity; ++i) {
    letters *= base_size + 1;
    if (letters > std::numeric_limits<Symbol>::max()) {
      return ResourceExhaustedError(
          "convolution alphabet too large: arity " + std::to_string(arity) +
          " over base " + std::to_string(base_size));
    }
  }
  return ConvAlphabet(base_size, arity, static_cast<int>(letters));
}

Symbol ConvAlphabet::Encode(const std::vector<int>& digits) const {
  assert(static_cast<int>(digits.size()) == arity_);
  int letter = 0;
  for (int i = arity_ - 1; i >= 0; --i) {
    assert(digits[i] >= 0 && digits[i] <= base_size_);
    letter = letter * (base_size_ + 1) + digits[i];
  }
  return static_cast<Symbol>(letter);
}

std::vector<int> ConvAlphabet::Decode(Symbol letter) const {
  std::vector<int> digits(arity_);
  int v = letter;
  for (int i = 0; i < arity_; ++i) {
    digits[i] = v % (base_size_ + 1);
    v /= (base_size_ + 1);
  }
  assert(v == 0);
  return digits;
}

bool ConvAlphabet::IsAllPad(Symbol letter) const {
  return letter == static_cast<Symbol>(num_letters_ - 1);
}

std::vector<Symbol> ConvAlphabet::Convolve(
    const std::vector<std::vector<Symbol>>& tuple) const {
  assert(static_cast<int>(tuple.size()) == arity_);
  size_t max_len = 0;
  for (const auto& w : tuple) max_len = std::max(max_len, w.size());
  std::vector<Symbol> word;
  word.reserve(max_len);
  std::vector<int> digits(arity_);
  for (size_t i = 0; i < max_len; ++i) {
    for (int t = 0; t < arity_; ++t) {
      digits[t] = i < tuple[t].size() ? static_cast<int>(tuple[t][i]) : pad();
    }
    word.push_back(Encode(digits));
  }
  return word;
}

Result<std::vector<Symbol>> ConvAlphabet::ConvolveStrings(
    const Alphabet& alphabet, const std::vector<std::string>& tuple) const {
  if (static_cast<int>(tuple.size()) != arity_) {
    return InvalidArgumentError("tuple arity mismatch");
  }
  std::vector<std::vector<Symbol>> encoded;
  encoded.reserve(tuple.size());
  for (const std::string& s : tuple) {
    STRQ_ASSIGN_OR_RETURN(std::vector<Symbol> w, alphabet.Encode(s));
    encoded.push_back(std::move(w));
  }
  return Convolve(encoded);
}

std::vector<std::string> ConvAlphabet::DeconvolveStrings(
    const Alphabet& alphabet, const std::vector<Symbol>& word) const {
  std::vector<std::string> out(arity_);
  for (Symbol letter : word) {
    for (int t = 0; t < arity_; ++t) {
      const int digit = DigitAt(letter, t);
      if (digit != pad()) out[t].push_back(alphabet.CharOf(digit));
    }
  }
  return out;
}

}  // namespace strq
