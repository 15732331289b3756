#include "automata/accept_profile.h"

#include <algorithm>

#include "obs/trace.h"

namespace strq {

AcceptProfile::AcceptProfile(const Dfa& d) {
  const int n = d.num_states();
  const int classes = d.num_classes();
  int64_t touched = 0;

  // Reverse edges in CSR form, one entry per (state, class) transition.
  std::vector<int> rev_begin(n + 1, 0);
  for (int q = 0; q < n; ++q) {
    for (int c = 0; c < classes; ++c) ++rev_begin[d.NextByClass(q, c) + 1];
  }
  for (int q = 0; q < n; ++q) rev_begin[q + 1] += rev_begin[q];
  std::vector<int> rev(rev_begin[n]);
  {
    std::vector<int> fill(rev_begin.begin(), rev_begin.end() - 1);
    for (int q = 0; q < n; ++q) {
      for (int c = 0; c < classes; ++c) rev[fill[d.NextByClass(q, c)]++] = q;
    }
  }
  touched += 2 * static_cast<int64_t>(n) * classes;

  // Flags start set (dead, univ) and distances saturated; the passes below
  // clear and lower them.
  entries_.assign(n, Entry{kFlag | kSaturated, kFlag | kSaturated});
  std::vector<int> queue;
  queue.reserve(n);

  // Backward BFS from the accepting states: FIFO order visits states in
  // nondecreasing distance, so the saturated distance is the true minimum.
  for (int q = 0; q < n; ++q) {
    if (d.IsAccepting(q)) {
      entries_[q].min = 0;
      queue.push_back(q);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const int q = queue[head];
    const uint8_t next = std::min(entries_[q].min + 1, kSaturated);
    for (int i = rev_begin[q]; i < rev_begin[q + 1]; ++i) {
      ++touched;
      Entry& p = entries_[rev[i]];
      if (p.min & kFlag) {
        p.min = next;
        queue.push_back(rev[i]);
      }
    }
  }

  // Backward BFS from the rejecting states: whatever reaches one is not
  // univ.
  queue.clear();
  for (int q = 0; q < n; ++q) {
    if (!d.IsAccepting(q)) {
      entries_[q].max &= ~kFlag;
      queue.push_back(q);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const int q = queue[head];
    for (int i = rev_begin[q]; i < rev_begin[q + 1]; ++i) {
      ++touched;
      Entry& p = entries_[rev[i]];
      if (p.max & kFlag) {
        p.max &= ~kFlag;
        queue.push_back(rev[i]);
      }
    }
  }

  // Longest distance by Kahn's algorithm over the live subgraph: a live
  // state is settled once all its live successors are, so a state never
  // settled reaches a live cycle and accepts unboundedly long words. Its
  // distance stays kSaturated, which reads as unbounded.
  auto dist = [this](int q) { return entries_[q].max & kSaturated; };
  auto set_dist = [this](int q, int v) {
    entries_[q].max = static_cast<uint8_t>((entries_[q].max & kFlag) | v);
  };
  std::vector<int> pending(n, 0);
  queue.clear();
  for (int q = 0; q < n; ++q) {
    if (dead(q)) continue;
    for (int c = 0; c < classes; ++c) {
      if (!dead(d.NextByClass(q, c))) ++pending[q];
    }
    set_dist(q, 0);  // a longest-path accumulator until settled
    if (pending[q] == 0) queue.push_back(q);
  }
  touched += static_cast<int64_t>(n) * classes;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int q = queue[head];
    const int next = std::min(dist(q) + 1, kSaturated);
    for (int i = rev_begin[q]; i < rev_begin[q + 1]; ++i) {
      ++touched;
      const int p = rev[i];
      if (dead(p)) continue;
      set_dist(p, std::max(dist(p), next));
      if (--pending[p] == 0) queue.push_back(p);
    }
  }
  for (int q = 0; q < n; ++q) {
    if (pending[q] > 0) set_dist(q, kSaturated);
  }
  obs::Count(obs::kDfaProfileTransitions, touched);
}

}  // namespace strq
