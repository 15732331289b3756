// Engine B's candidate scan: the active domain is one sorted string vector,
// and a restricted quantifier's candidates are that vector, or its prefix
// closure, filtered by the guard automata found on the quantifier's body.

#ifndef STRQ_RELATIONAL_DOMAIN_WALK_H_
#define STRQ_RELATIONAL_DOMAIN_WALK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "automata/store.h"
#include "base/alphabet.h"

namespace strq {

// The strings of `sorted` (a sorted, duplicate-free vector), or with
// `prefixes` the strings of its prefix closure, that every guard accepts, in
// sorted order. Each guard is a complete DFA over the symbols of `alphabet`;
// a character outside `alphabet` is rejected by every guard, as in
// Dfa::AcceptsString. With no guards this is `sorted` itself or its prefix
// closure.
//
// The walk keeps one row of guard states per depth, and each string reuses
// the rows of its longest common prefix with the string walked before it.
// The moment some guard is dead on a prefix (DfaRef::Profile), one binary
// search skips every string that starts with that prefix. `candidates`, if
// not null, receives the size of the unguarded output.
std::vector<std::string> WalkDomain(const Alphabet& alphabet,
                                    const std::vector<std::string>& sorted,
                                    const std::vector<DfaRef>& guards,
                                    bool prefixes,
                                    int64_t* candidates = nullptr);

}  // namespace strq

#endif  // STRQ_RELATIONAL_DOMAIN_WALK_H_
