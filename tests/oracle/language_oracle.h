#ifndef STRQ_TESTS_ORACLE_LANGUAGE_ORACLE_H_
#define STRQ_TESTS_ORACLE_LANGUAGE_ORACLE_H_

// An independent reference for the automaton operations: plain DFAs run by
// their own loop, word enumeration, naive full products, textbook
// minimality checks, canonical-convolution checks on decoded columns, and
// first-order relational operations on explicit tuple sets. It includes only
// the standard library, so it shares no code (and no bug) with the kernels
// under test; tests convert library automata through the public
// Next/IsAccepting interface alone.

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace strq::oracle {

using Word = std::vector<int>;

// A complete DFA over letters 0..k-1: next[q][s] is the successor of q on s.
struct PlainDfa {
  int k = 0;
  int start = 0;
  std::vector<std::vector<int>> next;
  std::vector<bool> accepting;

  int size() const { return static_cast<int>(next.size()); }

  bool Accepts(const Word& w) const {
    int q = start;
    for (int s : w) q = next[q][s];
    return accepting[q];
  }
};

// Reads any automaton exposing alphabet_size(), num_states(), start(),
// Next(q, s) and IsAccepting(q) into a PlainDfa.
template <typename Automaton>
PlainDfa ToPlain(const Automaton& d) {
  PlainDfa p;
  p.k = d.alphabet_size();
  p.start = d.start();
  p.next.assign(d.num_states(), std::vector<int>(p.k));
  p.accepting.resize(d.num_states());
  for (int q = 0; q < d.num_states(); ++q) {
    for (int s = 0; s < p.k; ++s) p.next[q][s] = d.Next(q, s);
    p.accepting[q] = d.IsAccepting(q);
  }
  return p;
}

// Every word over letters 0..k-1 of length at most max_len, shortest first.
inline std::vector<Word> WordsUpTo(int k, int max_len) {
  std::vector<Word> out = {{}};
  for (size_t i = 0; i < out.size(); ++i) {
    if (static_cast<int>(out[i].size()) == max_len) continue;
    for (int s = 0; s < k; ++s) {
      Word w = out[i];
      w.push_back(s);
      out.push_back(std::move(w));
    }
  }
  return out;
}

// Every string over `sigma` of length at most max_len, shortest first.
inline std::vector<std::string> StringsUpTo(const std::string& sigma,
                                            int max_len) {
  std::vector<std::string> out;
  for (const Word& w : WordsUpTo(static_cast<int>(sigma.size()), max_len)) {
    std::string s;
    for (int c : w) s.push_back(sigma[c]);
    out.push_back(std::move(s));
  }
  return out;
}

// The full |A|x|B| product: pair (qa, qb) is state qa * |B| + qb, allocated
// whether reachable or not, accepting iff combine(accept_a, accept_b).
template <typename Combine>
PlainDfa NaiveProduct(const PlainDfa& a, const PlainDfa& b, Combine combine) {
  PlainDfa p;
  p.k = a.k;
  p.start = a.start * b.size() + b.start;
  for (int qa = 0; qa < a.size(); ++qa) {
    for (int qb = 0; qb < b.size(); ++qb) {
      std::vector<int> row(a.k);
      for (int s = 0; s < a.k; ++s) {
        row[s] = a.next[qa][s] * b.size() + b.next[qb][s];
      }
      p.next.push_back(std::move(row));
      p.accepting.push_back(combine(a.accepting[qa], b.accepting[qb]));
    }
  }
  return p;
}

// States reachable from the start state.
inline std::vector<bool> Reachable(const PlainDfa& d) {
  std::vector<bool> seen(d.size(), false);
  std::vector<int> stack = {d.start};
  seen[d.start] = true;
  while (!stack.empty()) {
    int q = stack.back();
    stack.pop_back();
    for (int t : d.next[q]) {
      if (!seen[t]) {
        seen[t] = true;
        stack.push_back(t);
      }
    }
  }
  return seen;
}

// True iff no accepting state is reachable.
inline bool IsEmpty(const PlainDfa& d) {
  std::vector<bool> reach = Reachable(d);
  for (int q = 0; q < d.size(); ++q) {
    if (reach[q] && d.accepting[q]) return false;
  }
  return true;
}

// Textbook table filling: distinct[p][q] iff some word leads exactly one of
// p, q to acceptance. Start from the pairs that differ in acceptance; when a
// pair (a, b) is marked, mark every pair (p, q) with p -s-> a and q -s-> b
// for some letter s. A worklist over these reverse pair edges touches each
// edge once, so the whole fill is O(n²·k).
inline std::vector<std::vector<bool>> DistinguishablePairs(const PlainDfa& d) {
  int n = d.size();
  // pre[s][t]: the states with an s-edge into t.
  std::vector<std::vector<std::vector<int>>> pre(
      d.k, std::vector<std::vector<int>>(n));
  for (int q = 0; q < n; ++q) {
    for (int s = 0; s < d.k; ++s) pre[s][d.next[q][s]].push_back(q);
  }
  std::vector<std::vector<bool>> distinct(n, std::vector<bool>(n, false));
  std::vector<std::pair<int, int>> work;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      if (d.accepting[p] != d.accepting[q]) {
        distinct[p][q] = true;
        work.emplace_back(p, q);
      }
    }
  }
  while (!work.empty()) {
    auto [a, b] = work.back();
    work.pop_back();
    for (int s = 0; s < d.k; ++s) {
      for (int p : pre[s][a]) {
        for (int q : pre[s][b]) {
          if (!distinct[p][q]) {
            distinct[p][q] = true;
            work.emplace_back(p, q);
          }
        }
      }
    }
  }
  return distinct;
}

// Minimal iff every state is reachable and every two states are
// distinguishable.
inline bool IsMinimal(const PlainDfa& d) {
  std::vector<bool> reach = Reachable(d);
  if (std::find(reach.begin(), reach.end(), false) != reach.end()) return false;
  std::vector<std::vector<bool>> distinct = DistinguishablePairs(d);
  for (int p = 0; p < d.size(); ++p) {
    for (int q = p + 1; q < d.size(); ++q) {
      if (!distinct[p][q]) return false;
    }
  }
  return true;
}

// Is a word of decoded columns (columns[i][t] = digit of track t at
// position i) the canonical convolution of some tuple? Within each track the
// pads form a suffix, and no column is all pad. With zero tracks every
// column is all pad, so only the empty word qualifies.
inline bool IsCanonicalConvolution(
    const std::vector<std::vector<int>>& columns, int arity, int pad) {
  std::vector<bool> ended(arity, false);
  for (const std::vector<int>& col : columns) {
    bool all_pad = true;
    for (int t = 0; t < arity; ++t) {
      if (col[t] == pad) {
        ended[t] = true;
      } else {
        all_pad = false;
        if (ended[t]) return false;
      }
    }
    if (all_pad) return false;
  }
  return true;
}

// The digits of a convolution letter over `arity` tracks with digits
// 0..pad (pad is the end-of-track digit): track t's digit has weight
// (pad+1)^t.
inline std::vector<int> Column(int letter, int arity, int pad) {
  std::vector<int> col;
  for (int t = 0; t < arity; ++t) {
    col.push_back(letter % (pad + 1));
    letter /= pad + 1;
  }
  return col;
}

// The letter whose digits are `col`; inverse of Column.
inline int Letter(const std::vector<int>& col, int pad) {
  int letter = 0;
  for (size_t t = col.size(); t-- > 0;) letter = letter * (pad + 1) + col[t];
  return letter;
}

// A DFA for the words `d` accepts that are canonical convolutions over
// `arity` tracks: d's state paired with the set of tracks already ended,
// plus one rejecting sink for columns that restart a track or pad them all.
inline PlainDfa CanonicalOnly(const PlainDfa& d, int arity, int pad) {
  const int masks = 1 << arity;
  const int sink = d.size() * masks;
  PlainDfa p;
  p.k = d.k;
  p.start = d.start * masks;
  for (int q = 0; q <= sink; ++q) {
    std::vector<int> row(d.k, sink);
    if (q != sink) {
      const int state = q / masks;
      const int ended = q % masks;
      for (int s = 0; s < d.k; ++s) {
        std::vector<int> col = Column(s, arity, pad);
        int now = ended;
        bool ok = false;  // some track still running
        for (int t = 0; t < arity; ++t) {
          if (col[t] == pad) {
            now |= 1 << t;
          } else {
            ok = true;
            if (ended & (1 << t)) now = -1;
          }
          if (now < 0) break;
        }
        if (ok && now >= 0) row[s] = d.next[state][s] * masks + now;
      }
    }
    p.next.push_back(std::move(row));
    p.accepting.push_back(q != sink && d.accepting[q / masks]);
  }
  return p;
}

// States that are reachable and from which an accepting state is reachable.
inline std::vector<bool> Useful(const PlainDfa& d) {
  std::vector<bool> useful = Reachable(d);
  std::vector<bool> coreach(d.size(), false);
  for (int q = 0; q < d.size(); ++q) coreach[q] = d.accepting[q];
  for (bool changed = true; changed;) {
    changed = false;
    for (int q = 0; q < d.size(); ++q) {
      if (coreach[q]) continue;
      for (int t : d.next[q]) {
        if (coreach[t]) {
          coreach[q] = changed = true;
          break;
        }
      }
    }
  }
  for (int q = 0; q < d.size(); ++q) useful[q] = useful[q] && coreach[q];
  return useful;
}

// True iff the language is infinite: some useful state can return to itself
// through useful states.
inline bool IsInfinite(const PlainDfa& d) {
  std::vector<bool> useful = Useful(d);
  for (int root = 0; root < d.size(); ++root) {
    if (!useful[root]) continue;
    std::vector<bool> seen(d.size(), false);
    std::vector<int> stack = {root};
    while (!stack.empty()) {
      int q = stack.back();
      stack.pop_back();
      for (int t : d.next[q]) {
        if (!useful[t]) continue;
        if (t == root) return true;
        if (!seen[t]) {
          seen[t] = true;
          stack.push_back(t);
        }
      }
    }
  }
  return false;
}

// Shortlex order: shorter words first, equal lengths by letters.
inline bool ShortlexLess(const Word& a, const Word& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  return a < b;
}

// Every word of a finite language, in shortlex order: all paths from the
// start through useful states, recorded where they accept.
inline std::vector<Word> AllAccepted(const PlainDfa& d) {
  std::vector<bool> useful = Useful(d);
  std::vector<Word> out;
  if (!useful[d.start]) return out;
  std::vector<std::pair<int, Word>> stack = {{d.start, {}}};
  while (!stack.empty()) {
    auto [q, w] = std::move(stack.back());
    stack.pop_back();
    if (d.accepting[q]) out.push_back(w);
    for (int s = 0; s < d.k; ++s) {
      if (!useful[d.next[q][s]]) continue;
      Word longer = w;
      longer.push_back(s);
      stack.emplace_back(d.next[q][s], std::move(longer));
    }
  }
  std::sort(out.begin(), out.end(), ShortlexLess);
  return out;
}

// A finite relation as an explicit tuple set. `vars` is strictly increasing
// and column i of every tuple belongs to vars[i].
using Tuple = std::vector<std::string>;
struct Relation {
  std::vector<int> vars;
  std::set<Tuple> tuples;
};

// Natural join on the shared variables; the result's variables are the
// sorted union.
inline Relation Join(const Relation& a, const Relation& b) {
  Relation out;
  std::set_union(a.vars.begin(), a.vars.end(), b.vars.begin(), b.vars.end(),
                 std::back_inserter(out.vars));
  auto column_of = [](const std::vector<int>& vars, int v) {
    auto it = std::find(vars.begin(), vars.end(), v);
    return it == vars.end() ? -1 : static_cast<int>(it - vars.begin());
  };
  for (const Tuple& ta : a.tuples) {
    for (const Tuple& tb : b.tuples) {
      Tuple joined;
      bool agree = true;
      for (int v : out.vars) {
        int ia = column_of(a.vars, v);
        int ib = column_of(b.vars, v);
        if (ia >= 0 && ib >= 0 && ta[ia] != tb[ib]) agree = false;
        joined.push_back(ia >= 0 ? ta[ia] : tb[ib]);
      }
      if (agree) out.tuples.insert(std::move(joined));
    }
  }
  return out;
}

// Existential projection: drops the column of `var`.
inline Relation Project(const Relation& r, int var) {
  int col = static_cast<int>(std::find(r.vars.begin(), r.vars.end(), var) -
                             r.vars.begin());
  Relation out;
  out.vars = r.vars;
  out.vars.erase(out.vars.begin() + col);
  for (Tuple t : r.tuples) {
    t.erase(t.begin() + col);
    out.tuples.insert(std::move(t));
  }
  return out;
}

// Relabels variables (unmapped ones keep their name) and reorders the
// columns so the new variables are increasing again.
inline Relation Rename(const Relation& r, const std::map<int, int>& renaming) {
  std::vector<std::pair<int, int>> order;  // (new var, old column)
  for (size_t i = 0; i < r.vars.size(); ++i) {
    auto it = renaming.find(r.vars[i]);
    order.emplace_back(it == renaming.end() ? r.vars[i] : it->second,
                       static_cast<int>(i));
  }
  std::sort(order.begin(), order.end());
  Relation out;
  for (const auto& [var, col] : order) out.vars.push_back(var);
  for (const Tuple& t : r.tuples) {
    Tuple moved;
    for (const auto& [var, col] : order) moved.push_back(t[col]);
    out.tuples.insert(std::move(moved));
  }
  return out;
}

}  // namespace strq::oracle

#endif  // STRQ_TESTS_ORACLE_LANGUAGE_ORACLE_H_
