#ifndef STRQ_MTA_CONV_H_
#define STRQ_MTA_CONV_H_

#include <string>
#include <vector>

#include "base/alphabet.h"
#include "base/status.h"

namespace strq {

// The padded convolution alphabet used by synchronous multi-track automata.
//
// A tuple (w_1, ..., w_k) of strings over Σ is encoded as a single word over
// (Σ ∪ {⊥})^k: column j carries the j-th symbol of every track, with the pad
// digit ⊥ once a track has ended. The canonical convolution has length
// max_i |w_i|, so it never contains an all-pad column, and within each track
// pads form a suffix. This is the classical encoding under which all
// predicates of the paper's structures S, S_left, S_reg, S_len are regular
// ("automatic"), while concatenation is not.
//
// Columns are encoded as base-(|Σ|+1) numbers so they fit the Symbol type of
// the single-track Dfa/Nfa machinery, which is reused unchanged for
// multi-track work.
class ConvAlphabet {
 public:
  // base_size = |Σ|; arity = number of tracks k (0 allowed: the convolution
  // of the empty tuple is the empty word). Fails if (|Σ|+1)^k overflows the
  // Symbol letter space.
  static Result<ConvAlphabet> Create(int base_size, int arity);

  int base_size() const { return base_size_; }
  int arity() const { return arity_; }
  // Total number of column letters, including the (non-canonical) all-pad
  // column; (|Σ|+1)^arity.
  int num_letters() const { return num_letters_; }
  // The pad digit ⊥.
  int pad() const { return base_size_; }

  // Column <-> digit vector conversions. Digits are in {0..|Σ|} with |Σ|=pad.
  Symbol Encode(const std::vector<int>& digits) const;
  std::vector<int> Decode(Symbol letter) const;

  // Digit of track `track` within `letter`. One div + one mod against the
  // precomputed track stride — no loop.
  int DigitAt(Symbol letter, int track) const {
    return (letter / pow_[track]) % (base_size_ + 1);
  }

  // Replaces the digit of `track` in `letter`.
  Symbol WithDigit(Symbol letter, int track, int digit) const {
    return static_cast<Symbol>(letter +
                               (digit - DigitAt(letter, track)) * pow_[track]);
  }

  // (|Σ|+1)^track, the positional weight of `track` in the column encoding.
  // Defined for track in [0, arity] — TrackStride(arity) == num_letters() —
  // so kernel inner loops can split/recompose letters arithmetically, e.g.
  // inserting digit d at position t into a letter r of the next-lower arity:
  //   r % TrackStride(t) + d*TrackStride(t) + (r / TrackStride(t))*TrackStride(t+1).
  int TrackStride(int track) const { return pow_[track]; }

  // True iff every digit is pad (such a column never occurs canonically).
  bool IsAllPad(Symbol letter) const;

  // Canonical convolution of a tuple of symbol strings (one per track).
  // Precondition: tuple.size() == arity().
  std::vector<Symbol> Convolve(
      const std::vector<std::vector<Symbol>>& tuple) const;

  // Convenience over character strings.
  Result<std::vector<Symbol>> ConvolveStrings(
      const Alphabet& alphabet, const std::vector<std::string>& tuple) const;
  // Inverse of ConvolveStrings; precondition: `word` is canonical. Digits
  // are read with DigitAt and appended straight to the k output strings.
  std::vector<std::string> DeconvolveStrings(
      const Alphabet& alphabet, const std::vector<Symbol>& word) const;

 private:
  ConvAlphabet(int base_size, int arity, int num_letters);

  int base_size_;
  int arity_;
  int num_letters_;
  // pow_[t] = (|Σ|+1)^t for t in [0, arity]; the digit-extraction power
  // table behind DigitAt/WithDigit/TrackStride.
  std::vector<int> pow_;
};

}  // namespace strq

#endif  // STRQ_MTA_CONV_H_
