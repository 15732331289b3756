#ifndef STRQ_AUTOMATA_OPS_H_
#define STRQ_AUTOMATA_OPS_H_

#include "automata/dfa.h"
#include "automata/nfa.h"
#include "base/status.h"

namespace strq {

// Default ceiling on constructed DFA sizes; subset construction can blow up
// exponentially and callers get a ResourceExhausted error instead of an OOM.
inline constexpr int kDefaultMaxDfaStates = 1 << 20;

// Ceiling on materialized product states. Larger than the determinization
// budget: the reachable-only kernel only pays for pairs it actually visits,
// so products of already-large DFAs stay cheap unless genuinely explosive.
//
// Both defaults are per-request knobs: when a RequestBudget (base/budget.h)
// is installed on the calling thread and a kernel is invoked with the
// compile-time default, the budget's max_product_states takes over (the
// determinization ceiling is only ever lowered, never raised). Kernels also
// poll the budget's deadline at worklist granularity and abort with
// DEADLINE_EXCEEDED.
inline constexpr int kDefaultMaxProductStates = 1 << 22;

// Subset construction with epsilon closures. Already reachable-only: the
// worklist interns exactly the subsets reachable from the start closure.
Result<Dfa> Determinize(const Nfa& nfa, int max_states = kDefaultMaxDfaStates);

// Subset construction over a class-level transition relation, for callers
// that already know a valid symbol partition of their NFA (all letters of a
// class have identical target sets from every state — the caller's
// contract). `targets[q][c]` lists the targets of NFA state q on any letter
// of class c (sorted target lists are not required; subsets are normalized
// internally). No epsilon transitions. The result is built condensed with
// (letter_class, num_classes) as the hint partition, so the dense letter
// axis is never materialized. Used by the class-aware projection in mta/.
Result<Dfa> DeterminizeClassed(
    int alphabet_size, const std::vector<int>& letter_class, int num_classes,
    int start, const std::vector<bool>& accepting,
    const std::vector<std::vector<std::vector<int>>>& targets,
    int max_states = kDefaultMaxDfaStates);

// Product constructions on complete DFAs over the same alphabet. Only state
// pairs reachable from (start_a, start_b) are materialized; `max_states`
// bounds the materialized count. The per-pair work iterates the *joint
// refinement* classes(a) ⨯ classes(b) — typically far fewer columns than the
// raw alphabet — and the result is built directly in condensed form with the
// joint partition as hint.
Result<Dfa> Intersect(const Dfa& a, const Dfa& b,
                      int max_states = kDefaultMaxProductStates);
Result<Dfa> Union(const Dfa& a, const Dfa& b,
                  int max_states = kDefaultMaxProductStates);
Result<Dfa> Difference(const Dfa& a, const Dfa& b,
                       int max_states = kDefaultMaxProductStates);

// Is L(a) ∩ L(b) empty? Decided on the fly: the pair worklist stops at the
// first mutually-accepting pair, without ever building a product DFA.
Result<bool> IntersectionEmpty(const Dfa& a, const Dfa& b);

// Symmetric-difference emptiness: do a and b accept the same language?
// Early-exits at the first reachable pair where exactly one side accepts.
Result<bool> Equivalent(const Dfa& a, const Dfa& b);

// Is L(a) a subset of L(b)? Early-exits at the first counterexample pair.
Result<bool> Subset(const Dfa& a, const Dfa& b);

// The reversal language L(a)^R (via NFA reversal + determinization).
Result<Dfa> Reverse(const Dfa& a, int max_states = kDefaultMaxDfaStates);

// Left quotient a^{-1}L = {w | a·w ∈ L}: just advances the start state.
Dfa LeftQuotient(const Dfa& d, Symbol a);

// Concatenation of a single letter in front: {a·w | w ∈ L}.
Result<Dfa> PrependLetter(const Dfa& d, Symbol a);

// The prefix closure {u | ∃v: u·v ∈ L}.
Dfa PrefixClosureLang(const Dfa& d);

}  // namespace strq

#endif  // STRQ_AUTOMATA_OPS_H_
