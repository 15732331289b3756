// Brute-force answer oracle for the serving benchmark.
//
// Every answer the benchmark times is checked against this file, which
// evaluates the benchmark's query shapes directly on std::string sets. It
// includes nothing from strq: the relations it reads are the benchmark's
// own mirror of what was loaded into the server, and each query shape is
// described by a Spec (filled in by the generator next to the query text)
// rather than by parsing the text, so a parser, planner or automaton bug
// cannot hide by being shared with the checker.
#ifndef STRQ_PERFBENCH_ORACLE_H_
#define STRQ_PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// A sorted, duplicate-free string set.
using StrSet = std::vector<std::string>;

// The open unary query shapes the generators emit; sentences and the
// early-exit modes are derived from the open answer of their body.
struct Spec {
  enum class Kind {
    kPrefix,          // R(x) & 'c' <= x
    kEquals,          // R(x) & x = 'c'
    kLike,            // R(x) & like(x, '%c%')
    kNotLike,         // R(x) & !like(x, '%c%')
    kUnionLike,       // (R(x) | Q(x)) & like(x, '%c%')
    kUnion,           // R(x) | Q(x)
    kDiffPrefix,      // R(x) & !Q(x) & 'c' <= x
    kClosurePrefix,   // exists y. R(y) & x <= y & 'c' <= x
    kClosureLike,     // exists y. R(y) & x <= y & like(x, '%c%')
    kNear,            // R(x) & x ~k 'c'
  };
  Kind kind = Kind::kPrefix;
  int r = 0;  // relation index
  int q = 0;  // second relation (union / difference)
  std::string c;
  int k = 0;  // edit budget (kNear)
};

inline bool HasPrefix(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

// Levenshtein distance <= k, by the textbook dynamic program.
inline bool WithinEdits(const std::string& a, const std::string& b, int k) {
  const size_t n = a.size();
  const size_t m = b.size();
  if ((n > m ? n - m : m - n) > static_cast<size_t>(k)) return false;
  std::vector<int> prev(m + 1), cur(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      int sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({sub, prev[j] + 1, cur[j - 1] + 1});
    }
    prev.swap(cur);
  }
  return prev[m] <= k;
}

// Length first, then lexicographic: the order of TopK and of the
// shortest-witness search over a unary answer.
inline bool ShortlexLess(const std::string& a, const std::string& b) {
  return a.size() != b.size() ? a.size() < b.size() : a < b;
}

inline StrSet Filter(const StrSet& in, bool (*keep)(const std::string&,
                                                    const std::string&),
                     const std::string& c, bool negate = false) {
  StrSet out;
  for (const std::string& s : in) {
    if (keep(s, c) != negate) out.push_back(s);
  }
  return out;
}

inline bool Infix(const std::string& s, const std::string& c) {
  return s.find(c) != std::string::npos;
}

inline bool Same(const std::string& s, const std::string& c) { return s == c; }

inline StrSet Union(const StrSet& a, const StrSet& b) {
  StrSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

inline StrSet Difference(const StrSet& a, const StrSet& b) {
  StrSet out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

// All prefixes (the empty string included) of the strings in `in`.
inline StrSet PrefixClosure(const StrSet& in) {
  StrSet out;
  for (const std::string& s : in) {
    for (size_t len = 0; len <= s.size(); ++len) out.push_back(s.substr(0, len));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// The answer of `spec` over the relations `rels` (each a StrSet).
inline StrSet Answer(const Spec& spec, const std::vector<StrSet>& rels) {
  const StrSet& r = rels[spec.r];
  switch (spec.kind) {
    case Spec::Kind::kPrefix:
      return Filter(r, HasPrefix, spec.c);
    case Spec::Kind::kEquals:
      return Filter(r, Same, spec.c);
    case Spec::Kind::kLike:
      return Filter(r, Infix, spec.c);
    case Spec::Kind::kNotLike:
      return Filter(r, Infix, spec.c, /*negate=*/true);
    case Spec::Kind::kUnionLike:
      return Filter(Union(r, rels[spec.q]), Infix, spec.c);
    case Spec::Kind::kUnion:
      return Union(r, rels[spec.q]);
    case Spec::Kind::kDiffPrefix:
      return Filter(Difference(r, rels[spec.q]), HasPrefix, spec.c);
    case Spec::Kind::kClosurePrefix:
      return Filter(PrefixClosure(r), HasPrefix, spec.c);
    case Spec::Kind::kClosureLike:
      return Filter(PrefixClosure(r), Infix, spec.c);
    case Spec::Kind::kNear: {
      StrSet out;
      for (const std::string& s : r) {
        if (WithinEdits(s, spec.c, spec.k)) out.push_back(s);
      }
      return out;
    }
  }
  return {};
}

// The first `k` members of `answer` in shortlex order.
inline StrSet FirstShortlex(StrSet answer, size_t k) {
  std::sort(answer.begin(), answer.end(), ShortlexLess);
  if (answer.size() > k) answer.resize(k);
  return answer;
}

inline std::optional<std::string> ShortestWitness(const StrSet& answer) {
  StrSet first = FirstShortlex(answer, 1);
  if (first.empty()) return std::nullopt;
  return first[0];
}

}  // namespace perfbench

#endif  // STRQ_PERFBENCH_ORACLE_H_
