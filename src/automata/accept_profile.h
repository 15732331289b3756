#ifndef STRQ_AUTOMATA_ACCEPT_PROFILE_H_
#define STRQ_AUTOMATA_ACCEPT_PROFILE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "automata/dfa.h"

namespace strq {

// The accept-distance profile of a complete DFA: for every state, the
// shortest and the longest distance to an accepting state, plus whether no
// accepting state is reachable (dead) and whether every reachable state
// accepts (univ). The lengths of the words accepted from q all lie in
// [MinSteps(q), MaxSteps(q)], which is what lets a shortlex enumeration by
// exact length (lazy::LazyProduct::TopK) skip every successor that cannot
// reach acceptance in the remaining number of steps. This is the per-state
// length information behind ranked direct access over automata (Muñoz et
// al.).
//
// Two bytes per state: each distance takes seven bits beside one of the
// flags. Distances saturate at kSaturated, which as a lower bound stays a
// valid bound and as an upper bound reads as unbounded.
class AcceptProfile {
 public:
  static constexpr int kSaturated = 127;
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  // O(n·C) over the C letter classes: one reverse-edge index, a backward BFS
  // from the accepting states (min distance, dead), one from the rejecting
  // states (univ), and a Kahn pass over the live subgraph (max distance).
  // Adds the transitions it touched to the dfa.profile_transitions counter.
  explicit AcceptProfile(const Dfa& d);

  bool dead(int q) const { return entries_[q].min & kFlag; }
  bool univ(int q) const { return entries_[q].max & kFlag; }

  // Lower bound on the length of any word accepted from q; kUnbounded when
  // q is dead.
  int MinSteps(int q) const {
    return dead(q) ? kUnbounded : entries_[q].min;
  }
  // Upper bound on that length; kUnbounded when the words accepted from q
  // are unboundedly long (or at least kSaturated long), -1 when q is dead.
  int MaxSteps(int q) const {
    if (dead(q)) return -1;
    const int max = entries_[q].max & kSaturated;
    return max == kSaturated ? kUnbounded : max;
  }

  // Heap bytes held by the profile.
  int64_t bytes() const {
    return static_cast<int64_t>(entries_.capacity() * sizeof(Entry));
  }

 private:
  // The high bit of `min` is the dead flag, that of `max` the univ flag.
  static constexpr uint8_t kFlag = 0x80;
  struct Entry {
    uint8_t min;
    uint8_t max;
  };
  static_assert(sizeof(Entry) == 2, "profile entries are two bytes");

  std::vector<Entry> entries_;
};

}  // namespace strq

#endif  // STRQ_AUTOMATA_ACCEPT_PROFILE_H_
