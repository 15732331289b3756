#ifndef STRQ_LOGIC_PARSER_H_
#define STRQ_LOGIC_PARSER_H_

#include <string>

#include "base/status.h"
#include "logic/ast.h"

namespace strq {

// Parses the concrete query syntax produced by ToString(). Grammar sketch:
//
//   formula  := quantified | iff
//   quantified := ('exists'|'forall') IDENT range? '.' formula
//   range    := 'in adom' | 'pre adom' | 'len adom'
//   iff      := implies ('<->' implies)*
//   implies  := or ('->' or)*              (right associative)
//   or       := and ('|' and)*
//   and      := unary ('&' unary)*
//   unary    := '!' unary | 'true' | 'false' | '(' formula ')' | atom
//   atom     := predicate-call | relation-call | term ('='|'<='|'<') term
//
//   predicates: step(t,t), last[a](t), eqlen(t,t), leqlen(t,t), lexleq(t,t),
//               adom(t), like(t,'pat'), member(t,'pat'[,syntax]),
//               suffixin(t,t,'pat'[,syntax])    syntax in {regex,like,similar}
//   terms:      IDENT | 'literal' | append[a](t) | prepend[a](t) |
//               trim[a](t) | lcp(t,t) | concat(t,t)
//
// Infix '=' is equality, '<=' the prefix order ≼, '<' the strict prefix ≺.
// Any other IDENT followed by '(' is a database relation atom.
//
// Nesting (parentheses, '!', quantifier bodies, '->' chains, function
// arguments) deeper than 1000 levels is INVALID_ARGUMENT.
Result<FormulaPtr> ParseFormula(const std::string& input);

// Parses a single term (mostly for tests and tools).
Result<TermPtr> ParseTerm(const std::string& input);

}  // namespace strq

#endif  // STRQ_LOGIC_PARSER_H_
