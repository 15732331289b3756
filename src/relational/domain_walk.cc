#include "relational/domain_walk.h"

#include <algorithm>
#include <array>

#include "automata/accept_profile.h"

namespace strq {

namespace {

size_t Lcp(const std::string& a, const std::string& b) {
  return static_cast<size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first -
      a.begin());
}

}  // namespace

std::vector<std::string> WalkDomain(const Alphabet& alphabet,
                                    const std::vector<std::string>& sorted,
                                    const std::vector<DfaRef>& guards,
                                    bool prefixes, int64_t* candidates) {
  if (candidates != nullptr) {
    // Each string adds the prefixes longer than its lcp with the one
    // before it; ε comes with the first.
    int64_t n = static_cast<int64_t>(sorted.size());
    if (prefixes && !sorted.empty()) {
      n = 1;
      for (size_t i = 0; i < sorted.size(); ++i) {
        n += static_cast<int64_t>(sorted[i].size() -
                                  (i == 0 ? 0 : Lcp(sorted[i - 1], sorted[i])));
      }
    }
    *candidates = n;
  }
  std::vector<std::string> out;
  const size_t g = guards.size();
  std::vector<const AcceptProfile*> profiles;
  // rows[d * g + j]: guard j's state after the first d characters of `path`.
  std::vector<int> rows;
  for (const DfaRef& guard : guards) {
    profiles.push_back(&guard.Profile());
    rows.push_back(guard->start());
    if (profiles.back()->dead(rows.back())) return out;
  }
  std::array<int, 256> symbol;
  symbol.fill(-1);
  for (int a = 0; a < alphabet.size(); ++a) {
    const char c = alphabet.CharOf(static_cast<Symbol>(a));
    symbol[static_cast<unsigned char>(c)] = a;
  }
  auto accepted = [&](size_t depth) {
    for (size_t j = 0; j < g; ++j) {
      if (!guards[j]->IsAccepting(rows[depth * g + j])) return false;
    }
    return true;
  };

  const std::string* path = nullptr;
  size_t i = 0;
  while (i < sorted.size()) {
    const std::string& s = sorted[i];
    // Prefixes up to the lcp were decided with an earlier string; a longer
    // one sorts after everything emitted so far, so output stays sorted.
    size_t depth = 0;
    if (path != nullptr) {
      depth = Lcp(*path, s);
    } else if (prefixes && accepted(0)) {
      out.emplace_back();
    }
    path = &s;
    rows.resize(std::max(rows.size(), (s.size() + 1) * g));
    bool dead = false;
    for (; depth < s.size() && !dead; ++depth) {
      const int sym = symbol[static_cast<unsigned char>(s[depth])];
      dead = g > 0 && sym < 0;
      for (size_t j = 0; j < g && !dead; ++j) {
        const int q =
            guards[j]->Next(rows[depth * g + j], static_cast<Symbol>(sym));
        rows[(depth + 1) * g + j] = q;
        dead = profiles[j]->dead(q);
      }
      if (!dead && prefixes && accepted(depth + 1)) {
        out.push_back(s.substr(0, depth + 1));
      }
    }
    if (!dead) {
      if (!prefixes && accepted(s.size())) out.push_back(s);
      ++i;
      continue;
    }
    // s[0, depth) is dead in some guard: so is every string that starts
    // with it, and they follow s contiguously. The next string's lcp with
    // s is shorter than depth, so it reads only complete rows.
    i = static_cast<size_t>(
        std::partition_point(sorted.begin() + static_cast<ptrdiff_t>(i) + 1,
                             sorted.end(),
                             [&](const std::string& t) {
                               return t.compare(0, depth, s, 0, depth) == 0;
                             }) -
        sorted.begin());
  }
  return out;
}

}  // namespace strq
