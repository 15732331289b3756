#include "eval/automata_eval.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "base/budget.h"
#include "base/thread_pool.h"
#include "obs/trace.h"

namespace strq {

namespace {

// Span name for the compile-time trace, one per AST node kind.
const char* CompileSpanName(FormulaKind kind) {
  switch (kind) {
    case FormulaKind::kTrue: return "compile.true";
    case FormulaKind::kFalse: return "compile.false";
    case FormulaKind::kPred: return "compile.pred";
    case FormulaKind::kRelation: return "compile.relation";
    case FormulaKind::kNot: return "compile.not";
    case FormulaKind::kAnd: return "compile.and";
    case FormulaKind::kOr: return "compile.or";
    case FormulaKind::kImplies: return "compile.implies";
    case FormulaKind::kIff: return "compile.iff";
    case FormulaKind::kExists: return "compile.exists";
    case FormulaKind::kForall: return "compile.forall";
  }
  return "compile";
}

// Source rendering of the node, truncated so deep traces stay readable.
std::string CompileSpanDetail(const FormulaPtr& f) {
  std::string text = ToString(f);
  constexpr size_t kMaxDetail = 72;
  if (text.size() > kMaxDetail) {
    text.resize(kMaxDetail);
    text += "...";
  }
  return text;
}

// The recursive compiler. Variable scoping: free variables of the whole
// query get ids 0..k-1 in sorted-name order (so answer-relation columns are
// deterministic); bound and auxiliary variables take fresh ids above that.
//
// Every automaton is obtained through the shared AtomCache: atoms and table
// tries come out interned against the cache's AutomatonStore, and all
// first-order operations below memoize in that store's computed table.
class Compiler {
 public:
  Compiler(const Database* db, AtomCache* cache,
           ParallelOptions parallel = ParallelOptions{1},
           const std::unordered_set<const Formula*>* parallel_folds = nullptr)
      : db_(db),
        cache_(cache),
        parallel_(parallel),
        parallel_folds_(parallel_folds) {}

  Result<TrackAutomaton> CompileQuery(const FormulaPtr& f) {
    return CompileQuery(f, AutomataEvaluator::FreeVarOrder(f));
  }

  // Compiles with an explicit free-variable → track-id assignment (ids
  // 0..k-1 in `free_vars` order). The planner can erase a variable from the
  // formula entirely (a conjunct folding to true, a dead quantifier), so
  // the evaluator passes the ORIGINAL query's variable order here and the
  // answer's columns stay put; missing tracks are cylindrified on top.
  Result<TrackAutomaton> CompileQuery(const FormulaPtr& f,
                                      const std::vector<std::string>& free_vars) {
    for (const std::string& name : free_vars) {
      scope_[name] = next_var_++;
    }
    return Compile(f);
  }

 private:
  const Alphabet& alphabet() const { return db_->alphabet(); }

  VarId Fresh() { return next_var_++; }

  // ---- Term resolution --------------------------------------------------

  // Resolves `t` to a variable id. Composite terms introduce a fresh
  // variable plus a defining graph atom appended to `defs`; the fresh ids
  // are appended to `to_project`.
  Result<VarId> ResolveTerm(const TermPtr& t,
                            std::vector<TrackAutomaton>* defs,
                            std::vector<VarId>* to_project) {
    switch (t->kind) {
      case TermKind::kVar: {
        auto it = scope_.find(t->var);
        if (it == scope_.end()) {
          return InternalError("unbound variable " + t->var);
        }
        return it->second;
      }
      case TermKind::kConst: {
        VarId v = Fresh();
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton def, cache_->Const(t->text, v));
        defs->push_back(std::move(def));
        to_project->push_back(v);
        return v;
      }
      case TermKind::kAppend:
      case TermKind::kPrepend:
      case TermKind::kTrim: {
        STRQ_ASSIGN_OR_RETURN(VarId u, ResolveTerm(t->arg0, defs, to_project));
        VarId v = Fresh();
        Result<TrackAutomaton> def =
            t->kind == TermKind::kAppend
                ? cache_->AppendGraph(t->letter, u, v)
                : t->kind == TermKind::kPrepend
                      ? cache_->PrependGraph(t->letter, u, v)
                      : cache_->TrimLeadingGraph(t->letter, u, v);
        if (!def.ok()) return def.status();
        defs->push_back(*std::move(def));
        to_project->push_back(v);
        return v;
      }
      case TermKind::kInsert: {
        STRQ_ASSIGN_OR_RETURN(VarId a, ResolveTerm(t->arg0, defs, to_project));
        STRQ_ASSIGN_OR_RETURN(VarId b, ResolveTerm(t->arg1, defs, to_project));
        // insert_a(x, x) = x·a: alias the shared variable.
        if (a == b) {
          STRQ_ASSIGN_OR_RETURN(b, Alias(a, defs, to_project));
        }
        VarId v = Fresh();
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton def,
                              cache_->InsertGraph(t->letter, a, b, v));
        defs->push_back(std::move(def));
        to_project->push_back(v);
        return v;
      }
      case TermKind::kLcp: {
        STRQ_ASSIGN_OR_RETURN(VarId a, ResolveTerm(t->arg0, defs, to_project));
        STRQ_ASSIGN_OR_RETURN(VarId b, ResolveTerm(t->arg1, defs, to_project));
        // LcpAtom needs three distinct variables; lcp(x, x) = x is handled
        // by aliasing through a fresh equal variable.
        if (a == b) {
          STRQ_ASSIGN_OR_RETURN(b, Alias(a, defs, to_project));
        }
        VarId v = Fresh();
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton def, cache_->Lcp(a, b, v));
        defs->push_back(std::move(def));
        to_project->push_back(v);
        return v;
      }
      case TermKind::kConcat:
        return UnsupportedError(
            "concatenation is not an automatic relation; RC_concat queries "
            "cannot be compiled (Proposition 1) — see src/concat for the "
            "bounded semi-decision evaluator");
    }
    return InternalError("unknown term kind");
  }

  // Fresh variable constrained to equal `v` (for repeated-variable atoms).
  Result<VarId> Alias(VarId v, std::vector<TrackAutomaton>* defs,
                      std::vector<VarId>* to_project) {
    VarId fresh = Fresh();
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton eq, cache_->Equal(v, fresh));
    defs->push_back(std::move(eq));
    to_project->push_back(fresh);
    return fresh;
  }

  // Resolves all argument terms, making the resulting ids pairwise distinct.
  Result<std::vector<VarId>> ResolveArgs(const std::vector<TermPtr>& args,
                                         std::vector<TrackAutomaton>* defs,
                                         std::vector<VarId>* to_project) {
    std::vector<VarId> ids;
    for (const TermPtr& t : args) {
      STRQ_ASSIGN_OR_RETURN(VarId v, ResolveTerm(t, defs, to_project));
      if (std::find(ids.begin(), ids.end(), v) != ids.end()) {
        STRQ_ASSIGN_OR_RETURN(v, Alias(v, defs, to_project));
      }
      ids.push_back(v);
    }
    return ids;
  }

  // Conjoins `atom` with its term-definition constraints and projects the
  // auxiliary variables away.
  Result<TrackAutomaton> FinishAtom(TrackAutomaton atom,
                                    std::vector<TrackAutomaton> defs,
                                    const std::vector<VarId>& to_project) {
    for (TrackAutomaton& def : defs) {
      STRQ_ASSIGN_OR_RETURN(atom, TrackAutomaton::Intersect(atom, def));
    }
    for (VarId v : to_project) {
      STRQ_ASSIGN_OR_RETURN(atom, atom.Project(v));
    }
    return atom;
  }

  // ---- Atoms -------------------------------------------------------------

  Result<TrackAutomaton> CompilePred(const Formula& f) {
    std::vector<TrackAutomaton> defs;
    std::vector<VarId> aux;
    STRQ_ASSIGN_OR_RETURN(std::vector<VarId> ids,
                          ResolveArgs(f.args, &defs, &aux));
    Result<TrackAutomaton> atom = InternalError("unset");
    switch (f.pred) {
      case PredKind::kEq:
        atom = cache_->Equal(ids[0], ids[1]);
        break;
      case PredKind::kPrefix:
        atom = cache_->Prefix(ids[0], ids[1]);
        break;
      case PredKind::kStrictPrefix:
        atom = cache_->StrictPrefix(ids[0], ids[1]);
        break;
      case PredKind::kOneStep:
        atom = cache_->OneStep(ids[0], ids[1]);
        break;
      case PredKind::kLast:
        atom = cache_->LastSymbol(f.letter, ids[0]);
        break;
      case PredKind::kEqLen:
        atom = cache_->EqLen(ids[0], ids[1]);
        break;
      case PredKind::kLeqLen:
        atom = cache_->LeqLen(ids[0], ids[1]);
        break;
      case PredKind::kLexLeq:
        atom = cache_->LexLeq(ids[0], ids[1]);
        break;
      case PredKind::kAdom:
        atom = AdomAutomaton(ids[0]);
        break;
      case PredKind::kLike:
      case PredKind::kMember: {
        STRQ_ASSIGN_OR_RETURN(DfaRef lang,
                              cache_->CompiledPattern(f.pattern, f.syntax));
        atom = cache_->Member(lang, ids[0]);
        break;
      }
      case PredKind::kSuffixIn: {
        STRQ_ASSIGN_OR_RETURN(DfaRef lang,
                              cache_->CompiledPattern(f.pattern, f.syntax));
        atom = cache_->SuffixIn(lang, ids[0], ids[1]);
        break;
      }
      case PredKind::kNear: {
        STRQ_ASSIGN_OR_RETURN(DfaRef lang,
                              cache_->CompiledNear(f.pattern, f.distance));
        atom = cache_->Member(lang, ids[0]);
        break;
      }
    }
    if (!atom.ok()) return atom.status();
    return FinishAtom(*std::move(atom), std::move(defs), aux);
  }

  Result<TrackAutomaton> CompileRelation(const Formula& f) {
    const Relation* rel = db_->Find(f.relation);
    if (rel == nullptr) {
      return InvalidArgumentError("unknown relation " + f.relation);
    }
    if (static_cast<int>(f.args.size()) != rel->arity()) {
      return InvalidArgumentError("relation " + f.relation +
                                  " arity mismatch");
    }
    std::vector<TrackAutomaton> defs;
    std::vector<VarId> aux;
    STRQ_ASSIGN_OR_RETURN(std::vector<VarId> ids,
                          ResolveArgs(f.args, &defs, &aux));
    // The trie depends on the relation's tuples alone, so it is cached per
    // (relation, content revision): commits to other relations, opaque
    // ones included, keep hitting the same entry.
    const std::string key = "rel:" + f.relation + ":" +
                            std::to_string(db_->RelationRevision(f.relation));
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton atom,
                          cache_->TableTrie(key, ids, rel->tuples()));
    return FinishAtom(std::move(atom), std::move(defs), aux);
  }

  Result<TrackAutomaton> AdomAutomaton(VarId v) {
    // Keyed on the database revision: any commit may change adom(D).
    const Database* db = db_;
    return cache_->TableTrie(
        "adom:" + std::to_string(db->revision()), {v}, [db] {
          std::vector<std::vector<std::string>> tuples;
          for (const std::string& s : db->ActiveDomain()) tuples.push_back({s});
          return tuples;
        });
  }

  // ---- Quantifier ranges --------------------------------------------------

  // The range constraint of a restricted quantifier, desugared to automata
  // (Sections 5.1 and 5.2): the paper's ∃x ∈ dom / ∃x ≼ dom / ∃|x| ≤ adom.
  Result<TrackAutomaton> RangeConstraint(VarId v, QuantRange range,
                                         const std::vector<VarId>& params) {
    switch (range) {
      case QuantRange::kAll:
        return InternalError("kAll has no constraint");
      case QuantRange::kAdom:
        return AdomAutomaton(v);
      case QuantRange::kPrefixDom: {
        // x ≼ some adom string, or x ≼ some parameter.
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton adom, AdomAutomaton(v));
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton acc, adom.PrefixClosure(v));
        for (VarId z : params) {
          STRQ_ASSIGN_OR_RETURN(TrackAutomaton pre, cache_->Prefix(v, z));
          STRQ_ASSIGN_OR_RETURN(acc, TrackAutomaton::Union(acc, pre));
        }
        return acc;
      }
      case QuantRange::kLenDom: {
        STRQ_ASSIGN_OR_RETURN(
            TrackAutomaton acc,
            cache_->MaxLen(static_cast<int>(db_->MaxAdomLength()), v));
        for (VarId z : params) {
          STRQ_ASSIGN_OR_RETURN(TrackAutomaton leq, cache_->LeqLen(v, z));
          STRQ_ASSIGN_OR_RETURN(acc, TrackAutomaton::Union(acc, leq));
        }
        return acc;
      }
    }
    return InternalError("unknown range");
  }

  // ---- Formulas -----------------------------------------------------------

  // Recognizes ∃y (φ₁(y) ∧ … ∧ φₙ(y) ∧ x ≼ y) with n ≥ 1: exactly one
  // conjunct x ≼ y over a variable x other than y, and every other conjunct
  // free in exactly {y}. Such a formula is the prefix closure of φ placed
  // on x's track. Fills `phi` with the φᵢ and returns x's id; nullopt for
  // every other shape. The parameterized ranges (pre adom, len adom) never
  // match: x occurs free in the body, so it is a parameter of the range.
  std::optional<VarId> MatchPrefixClosure(const Formula& f,
                                          std::vector<FormulaPtr>* phi) {
    if (f.kind != FormulaKind::kExists || f.range == QuantRange::kPrefixDom ||
        f.range == QuantRange::kLenDom) {
      return std::nullopt;
    }
    std::vector<FormulaPtr> pending = {f.left};
    const std::string* x = nullptr;
    while (!pending.empty()) {
      FormulaPtr c = std::move(pending.back());
      pending.pop_back();
      if (c->kind == FormulaKind::kAnd) {
        pending.push_back(c->right);
        pending.push_back(c->left);
        continue;
      }
      if (c->kind == FormulaKind::kPred && c->pred == PredKind::kPrefix &&
          c->args[0]->kind == TermKind::kVar &&
          c->args[1]->kind == TermKind::kVar && c->args[1]->var == f.var &&
          c->args[0]->var != f.var) {
        if (x != nullptr) return std::nullopt;
        x = &c->args[0]->var;
      } else {
        phi->push_back(std::move(c));
      }
    }
    if (x == nullptr || phi->empty()) return std::nullopt;
    for (const FormulaPtr& c : *phi) {
      std::set<std::string> fv = FreeVars(c);
      if (fv.size() != 1 || *fv.begin() != f.var) return std::nullopt;
    }
    auto it = scope_.find(*x);
    if (it == scope_.end()) return std::nullopt;
    return it->second;
  }

  // The unary φ(y) of a matched prefix closure: its conjuncts intersected
  // in order, and with adom(y) for an `in adom` quantifier.
  Result<TrackAutomaton> CompileClosureBody(const std::vector<FormulaPtr>& phi,
                                            VarId y, QuantRange range) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton acc, Compile(phi[0]));
    for (size_t i = 1; i < phi.size(); ++i) {
      STRQ_ASSIGN_OR_RETURN(TrackAutomaton next, Compile(phi[i]));
      STRQ_ASSIGN_OR_RETURN(acc, TrackAutomaton::Intersect(acc, next));
    }
    if (range == QuantRange::kAdom) {
      STRQ_ASSIGN_OR_RETURN(TrackAutomaton adom, AdomAutomaton(y));
      STRQ_ASSIGN_OR_RETURN(acc, TrackAutomaton::Intersect(acc, adom));
    }
    return acc;
  }

  Result<TrackAutomaton> CompileQuantifier(const Formula& f) {
    bool is_forall = f.kind == FormulaKind::kForall;
    // ∀x∈R φ ≡ ¬∃x∈R ¬φ.
    FormulaPtr body = is_forall ? FNot(f.left) : f.left;
    std::vector<FormulaPtr> closure_body;
    std::optional<VarId> closure_var = MatchPrefixClosure(f, &closure_body);

    // Parameters (free variables of the quantified formula other than x),
    // resolved in the *outer* scope: they bound the restricted ranges.
    std::vector<VarId> params;
    if (f.range == QuantRange::kPrefixDom || f.range == QuantRange::kLenDom) {
      std::set<std::string> fv = FreeVars(f.left);
      fv.erase(f.var);
      for (const std::string& name : fv) {
        auto it = scope_.find(name);
        if (it != scope_.end()) params.push_back(it->second);
      }
    }

    // Bind the quantified variable to a fresh id (shadowing).
    auto saved = scope_.find(f.var);
    std::optional<VarId> shadowed;
    if (saved != scope_.end()) shadowed = saved->second;
    VarId v = Fresh();
    scope_[f.var] = v;
    Result<TrackAutomaton> body_rel =
        closure_var.has_value()
            ? CompileClosureBody(closure_body, v, f.range)
            : Compile(body);
    if (shadowed.has_value()) {
      scope_[f.var] = *shadowed;
    } else {
      scope_.erase(f.var);
    }
    if (!body_rel.ok()) return body_rel.status();
    if (closure_var.has_value()) return body_rel->PrefixClosure(*closure_var);

    TrackAutomaton rel = *std::move(body_rel);
    if (f.range != QuantRange::kAll) {
      STRQ_ASSIGN_OR_RETURN(TrackAutomaton constraint,
                            RangeConstraint(v, f.range, params));
      STRQ_ASSIGN_OR_RETURN(rel, TrackAutomaton::Intersect(rel, constraint));
    }
    // If the variable does not occur, ∃x φ ≡ φ (the domain is non-empty and
    // restricted ranges always contain ε).
    const std::vector<VarId>& vars = rel.vars();
    if (std::find(vars.begin(), vars.end(), v) != vars.end()) {
      STRQ_ASSIGN_OR_RETURN(rel, rel.Project(v));
    }
    if (is_forall) {
      STRQ_ASSIGN_OR_RETURN(rel, rel.Complemented());
    }
    return rel;
  }

  // One span per AST node: name by kind, detail = the subformula, attrs =
  // output automaton size. The nesting mirrors the recursion, so the span
  // tree IS the compile plan (EXPLAIN ANALYZE over it).
  Result<TrackAutomaton> Compile(const FormulaPtr& f) {
    obs::Span span(CompileSpanName(f->kind));
    bool watching = span.active();
    AutomatonStore::Stats store_before;
    AtomCache::Stats cache_before;
    int64_t explored_before = 0;
    if (watching) {
      span.set_detail(CompileSpanDetail(f));
      store_before = cache_->store().stats();
      cache_before = cache_->stats();
      explored_before = obs::MetricsRegistry::Global().Get(
          obs::kDfaProductStatesExplored);
    }
    Result<TrackAutomaton> out = CompileNode(f);
    if (watching && out.ok()) {
      span.Attr("states", out->NumStates());
      span.Attr("arity", out->arity());
      // Alphabet compression for this subtree's result: distinct column
      // behaviors vs the full convolution alphabet, and the bytes the
      // condensed table holds vs its dense letter-indexed equivalent.
      span.Attr("classes", out->NumClasses());
      span.Attr("table_bytes_condensed", out->TableBytesCondensed());
      span.Attr("table_bytes_dense_equiv", out->TableBytesDenseEquiv());
      // Product pairs the reachable-only worklists materialized for this
      // subtree.
      span.Attr("states_explored",
                obs::MetricsRegistry::Global().Get(
                    obs::kDfaProductStatesExplored) -
                    explored_before);
      // A subtree served entirely by the memoization substrate returns
      // near-instantly; mark it so estimated-vs-actual comparisons in the
      // plan phase don't read its span time as real compile cost.
      AutomatonStore::Stats store_after = cache_->store().stats();
      AtomCache::Stats cache_after = cache_->stats();
      bool no_misses =
          store_after.unique_misses == store_before.unique_misses &&
          store_after.op_misses == store_before.op_misses &&
          cache_after.misses == cache_before.misses &&
          cache_after.pattern_misses == cache_before.pattern_misses;
      bool some_hits = store_after.op_hits > store_before.op_hits ||
                       cache_after.hits > cache_before.hits ||
                       cache_after.pattern_hits > cache_before.pattern_hits;
      if (no_misses && some_hits) span.Attr("cached", 1);
    }
    return out;
  }

  // The fan-out for a planner-annotated And/Or fold: flattens the binary
  // spine Render produced from one n-ary plan node back into its child
  // list, compiles the children across the pool (each on a cloned Compiler
  // — the fresh variable ids a child burns are projected away before it
  // returns, so clones starting from the same next_var_ are safe), then
  // folds the results in planner order. With one effective thread
  // ParallelFor degenerates to a serial loop over the same flattened parts,
  // so answers, canonical store ids, and span-tree shape are identical at
  // every thread count. Worker spans stitch into the caller's trace via the
  // TraceContext the pool propagates — tracing no longer forces a serial
  // fallback. Returns nullopt when the node is not annotated.
  std::optional<Result<TrackAutomaton>> CompileSpineParallel(
      const FormulaPtr& f) {
    if (parallel_folds_ == nullptr) {
      return std::nullopt;
    }
    if (parallel_folds_->count(f.get()) == 0) return std::nullopt;
    bool is_and = f->kind == FormulaKind::kAnd;
    std::vector<FormulaPtr> parts;
    FormulaPtr cur = f;
    while (cur->kind == f->kind && parallel_folds_->count(cur.get()) > 0) {
      parts.push_back(cur->right);
      cur = cur->left;
    }
    parts.push_back(cur);
    std::reverse(parts.begin(), parts.end());
    if (parts.size() < 2) return std::nullopt;
    std::vector<Result<TrackAutomaton>> results;
    results.reserve(parts.size());
    for (size_t i = 0; i < parts.size(); ++i) {
      results.emplace_back(InternalError("subplan not compiled"));
    }
    ThreadPool::ParallelFor(
        parallel_.num_threads, static_cast<int>(parts.size()), [&](int i) {
          Compiler clone(*this);
          results[static_cast<size_t>(i)] =
              clone.Compile(parts[static_cast<size_t>(i)]);
        });
    Result<TrackAutomaton> acc = std::move(results[0]);
    for (size_t i = 1; i < parts.size() && acc.ok(); ++i) {
      if (!results[i].ok()) return std::move(results[i]);
      acc = is_and ? TrackAutomaton::Intersect(*acc, *results[i])
                   : TrackAutomaton::Union(*acc, *results[i]);
    }
    return acc;
  }

  Result<TrackAutomaton> CompileNode(const FormulaPtr& f) {
    switch (f->kind) {
      case FormulaKind::kTrue:
        return TrackAutomaton::Truth(cache_->store(), alphabet(), true);
      case FormulaKind::kFalse:
        return TrackAutomaton::Truth(cache_->store(), alphabet(), false);
      case FormulaKind::kPred:
        return CompilePred(*f);
      case FormulaKind::kRelation:
        return CompileRelation(*f);
      case FormulaKind::kNot: {
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton a, Compile(f->left));
        return a.Complemented();
      }
      case FormulaKind::kAnd: {
        if (std::optional<Result<TrackAutomaton>> parallel =
                CompileSpineParallel(f)) {
          return *std::move(parallel);
        }
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton a, Compile(f->left));
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton b, Compile(f->right));
        return TrackAutomaton::Intersect(a, b);
      }
      case FormulaKind::kOr: {
        if (std::optional<Result<TrackAutomaton>> parallel =
                CompileSpineParallel(f)) {
          return *std::move(parallel);
        }
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton a, Compile(f->left));
        STRQ_ASSIGN_OR_RETURN(TrackAutomaton b, Compile(f->right));
        return TrackAutomaton::Union(a, b);
      }
      case FormulaKind::kImplies:
        return Compile(FOr(FNot(f->left), f->right));
      case FormulaKind::kIff:
        return Compile(
            FOr(FAnd(f->left, f->right), FAnd(FNot(f->left), FNot(f->right))));
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        return CompileQuantifier(*f);
    }
    return InternalError("unknown formula kind");
  }

  const Database* db_;
  AtomCache* cache_;
  ParallelOptions parallel_;
  const std::unordered_set<const Formula*>* parallel_folds_;
  std::map<std::string, VarId> scope_;
  int next_var_ = 0;
};

}  // namespace

AutomataEvaluator::AutomataEvaluator(const Database* db)
    : AutomataEvaluator(db, nullptr, nullptr) {}

AutomataEvaluator::AutomataEvaluator(const Database* db,
                                     std::shared_ptr<AtomCache> cache)
    : AutomataEvaluator(db, std::move(cache), nullptr) {}

AutomataEvaluator::AutomataEvaluator(const Database* db,
                                     std::shared_ptr<AtomCache> cache,
                                     std::shared_ptr<plan::Planner> planner)
    : db_(db), cache_(std::move(cache)), planner_(std::move(planner)) {
  if (cache_ == nullptr || !(cache_->alphabet() == db_->alphabet())) {
    cache_ = std::make_shared<AtomCache>(db_->alphabet());
  }
  if (planner_ == nullptr) planner_ = std::make_shared<plan::Planner>();
}

void AutomataEvaluator::set_planner(std::shared_ptr<plan::Planner> planner) {
  planner_ = std::move(planner);
  if (planner_ == nullptr) planner_ = std::make_shared<plan::Planner>();
}

std::vector<std::string> AutomataEvaluator::FreeVarOrder(const FormulaPtr& f) {
  std::set<std::string> fv = FreeVars(f);
  return std::vector<std::string>(fv.begin(), fv.end());
}

namespace {

// Elapsed nanoseconds since `since`, for the per-query latency histograms.
int64_t LatencyNsSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

Result<TrackAutomaton> AutomataEvaluator::Compile(const FormulaPtr& f) {
  // A request that arrives with its deadline already spent fails before any
  // planning or compilation work (kernels poll the same deadline mid-flight).
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  return Compile(f, planner_->Plan(f, db_, cache_.get()));
}

Result<TrackAutomaton> AutomataEvaluator::Compile(
    const FormulaPtr& f, const plan::PlannedQuery& planned) {
  auto compile_start = std::chrono::steady_clock::now();
  // Track ids come from the ORIGINAL formula's free variables: the planner
  // may rewrite a variable out of the formula entirely, and the answer
  // relation's columns must not shift when it does.
  std::vector<std::string> order = FreeVarOrder(f);
  const FormulaPtr& to_compile = planned.formula;
  // Semantic guard: free variables unconstrained by the formula would make
  // every track valid; that is handled naturally (FullRelation semantics)
  // because absent tracks are cylindrified on demand by callers. Here the
  // answer automaton is over exactly the tracks the formula constrains; for
  // evaluation we cylindrify to all free variables below.
  Compiler compiler(db_, cache_.get(), parallel_,
                    planned.parallel_folds.get());
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel,
                        compiler.CompileQuery(to_compile, order));
  // Ensure every free variable has a track (x may not occur in any atom).
  std::vector<VarId> want;
  for (size_t i = 0; i < order.size(); ++i) {
    want.push_back(static_cast<VarId>(i));
  }
  // rel.vars() ⊆ want by construction (aux vars are projected; bound vars
  // are projected; free vars got ids 0..k-1).
  if (rel.vars() != want) {
    STRQ_ASSIGN_OR_RETURN(rel, rel.Cylindrified(want));
  }
  // Close the planner's feedback loop: estimated-vs-actual drift shows up
  // in explain output and the plan.actual_states counter.
  planner_->RecordActual(f, db_, rel.NumStates());
  obs::Observe(obs::kHistCompileNs, LatencyNsSince(compile_start));
  return rel;
}

namespace {

// Splits the planned formula at its boolean skeleton: connectives become
// skeleton nodes, the first non-connective on every path (atom, relation,
// quantifier) becomes a leaf to be compiled as its own component automaton.
int BuildSkeleton(const FormulaPtr& f, lazy::Skeleton* sk,
                  std::vector<FormulaPtr>* leaves) {
  lazy::Skeleton::Node node;
  switch (f->kind) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      node.kind = lazy::Skeleton::Kind::kConst;
      node.value = f->kind == FormulaKind::kTrue;
      break;
    case FormulaKind::kNot:
      node.kind = lazy::Skeleton::Kind::kNot;
      node.left = BuildSkeleton(f->left, sk, leaves);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff:
      node.kind = f->kind == FormulaKind::kAnd ? lazy::Skeleton::Kind::kAnd
                  : f->kind == FormulaKind::kOr
                      ? lazy::Skeleton::Kind::kOr
                      : f->kind == FormulaKind::kImplies
                            ? lazy::Skeleton::Kind::kImplies
                            : lazy::Skeleton::Kind::kIff;
      node.left = BuildSkeleton(f->left, sk, leaves);
      node.right = BuildSkeleton(f->right, sk, leaves);
      break;
    case FormulaKind::kPred:
    case FormulaKind::kRelation:
    case FormulaKind::kExists:
    case FormulaKind::kForall:
      node.kind = lazy::Skeleton::Kind::kLeaf;
      node.leaf = static_cast<int>(leaves->size());
      leaves->push_back(f);
      break;
  }
  sk->nodes.push_back(node);
  return static_cast<int>(sk->nodes.size()) - 1;
}

}  // namespace

Result<lazy::LazyProduct> AutomataEvaluator::CompileLazy(const FormulaPtr& f) {
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  if (FreeVarOrder(f).empty()) {
    return InvalidArgumentError(
        "lazy compilation needs at least one free variable; evaluate "
        "sentences directly");
  }
  return CompileLazy(f, planner_->Plan(f, db_, cache_.get()));
}

Result<lazy::LazyProduct> AutomataEvaluator::CompileLazy(
    const FormulaPtr& f, const plan::PlannedQuery& planned) {
  auto compile_start = std::chrono::steady_clock::now();
  std::vector<std::string> order = FreeVarOrder(f);
  lazy::Skeleton sk;
  std::vector<FormulaPtr> leaf_formulas;
  sk.root = BuildSkeleton(planned.formula, &sk, &leaf_formulas);
  std::vector<VarId> want;
  for (size_t i = 0; i < order.size(); ++i) {
    want.push_back(static_cast<VarId>(i));
  }
  // Leaves compile exactly as Compile() would compile them as standalone
  // queries with the original variable order, so every leaf automaton (and
  // its canonical store id) is shared with eager compilations of the same
  // subformulas. Only the product over them is deferred.
  std::vector<DfaRef> leaves;
  for (const FormulaPtr& leaf : leaf_formulas) {
    Compiler compiler(db_, cache_.get(), parallel_,
                      planned.parallel_folds.get());
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel,
                          compiler.CompileQuery(leaf, order));
    if (rel.vars() != want) {
      STRQ_ASSIGN_OR_RETURN(rel, rel.Cylindrified(want));
    }
    leaves.push_back(rel.dfa_ref());
  }
  STRQ_ASSIGN_OR_RETURN(
      TrackAutomaton full,
      TrackAutomaton::FullRelation(cache_->store(), db_->alphabet(), want));
  obs::Observe(obs::kHistCompileNs, LatencyNsSince(compile_start));
  return lazy::LazyProduct::Create(db_->alphabet(), full.conv(),
                                   full.dfa_ref(), std::move(leaves),
                                   std::move(sk));
}

Result<bool> AutomataEvaluator::Contains(const FormulaPtr& f,
                                         const std::vector<std::string>& tuple) {
  std::vector<std::string> order = FreeVarOrder(f);
  if (tuple.size() != order.size()) {
    return InvalidArgumentError("tuple arity does not match free variables");
  }
  if (order.empty()) return EvaluateSentence(f);
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  plan::PlannedQuery planned = planner_->Plan(f, db_, cache_.get());
  if (!planner_->AdviseLazy(f, planned.estimated_states)) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f, planned));
    return rel.Contains(tuple);
  }
  STRQ_ASSIGN_OR_RETURN(lazy::LazyProduct product, CompileLazy(f, planned));
  obs::Span span("lazy.walk");
  return product.Contains(tuple);
}

Result<std::optional<std::vector<std::string>>>
AutomataEvaluator::ExistsWitness(const FormulaPtr& f) {
  std::vector<std::string> order = FreeVarOrder(f);
  if (order.empty()) {
    STRQ_ASSIGN_OR_RETURN(bool truth, EvaluateSentence(f));
    if (truth) {
      return std::optional<std::vector<std::string>>(
          std::vector<std::string>{});
    }
    return std::optional<std::vector<std::string>>();
  }
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  plan::PlannedQuery planned = planner_->Plan(f, db_, cache_.get());
  if (!planner_->AdviseLazy(f, planned.estimated_states)) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f, planned));
    // Shortlex enumeration's first tuple is a shortest witness; a nonempty
    // language accepts some word of length < NumStates().
    std::vector<std::vector<std::string>> tuples =
        rel.EnumerateTuples(rel.NumStates(), 1);
    if (tuples.empty()) return std::optional<std::vector<std::string>>();
    return std::optional<std::vector<std::string>>(std::move(tuples[0]));
  }
  STRQ_ASSIGN_OR_RETURN(lazy::LazyProduct product, CompileLazy(f, planned));
  obs::Span span("lazy.walk");
  return product.ShortestWitness();
}

Result<std::vector<std::vector<std::string>>> AutomataEvaluator::TopK(
    const FormulaPtr& f, size_t k, int max_len) {
  std::vector<std::string> order = FreeVarOrder(f);
  if (order.empty()) {
    STRQ_ASSIGN_OR_RETURN(bool truth, EvaluateSentence(f));
    std::vector<std::vector<std::string>> out;
    if (truth && k > 0) out.push_back({});
    return out;
  }
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  plan::PlannedQuery planned = planner_->Plan(f, db_, cache_.get());
  if (!planner_->AdviseLazy(f, planned.estimated_states)) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f, planned));
    // Under a budget cap below k, one tuple past the cap decides whether the
    // cap truncated the answer: refuse exactly then, as the lazy route does.
    const size_t cap = CurrentMaxAnswerTuples(k);
    std::vector<std::vector<std::string>> tuples =
        rel.EnumerateTuples(max_len, cap < k ? cap + 1 : k);
    if (tuples.size() > cap) {
      return ResourceExhaustedError(
          "TopK hit the answer-tuple budget before k answers");
    }
    return tuples;
  }
  STRQ_ASSIGN_OR_RETURN(lazy::LazyProduct product, CompileLazy(f, planned));
  obs::Span span("lazy.walk");
  return product.TopK(k, max_len);
}

Result<Relation> AutomataEvaluator::Evaluate(const FormulaPtr& f,
                                             size_t max_tuples) {
  auto start = std::chrono::steady_clock::now();
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f));
  obs::Span span("eval.enumerate");
  span.Attr("answer_states", rel.NumStates());
  // The request budget's max_answer_tuples can only tighten the caller's
  // materialization bound, never widen it.
  Result<std::vector<std::vector<std::string>>> tuples =
      rel.AllTuples(CurrentMaxAnswerTuples(max_tuples));
  if (!tuples.ok()) return tuples.status();
  span.Attr("tuples", static_cast<int64_t>(tuples->size()));
  obs::Count(obs::kEvalTuplesEnumerated,
             static_cast<int64_t>(tuples->size()));
  obs::Observe(obs::kHistQueryLatencyNs, LatencyNsSince(start));
  return Relation::Create(rel.arity(), *std::move(tuples));
}

Result<bool> AutomataEvaluator::EvaluateSentence(const FormulaPtr& f) {
  if (!FreeVars(f).empty()) {
    return InvalidArgumentError("sentence expected, found free variables");
  }
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f));
  return rel.TruthValue();
}

Result<bool> AutomataEvaluator::IsSafeOnDatabase(const FormulaPtr& f) {
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton rel, Compile(f));
  return rel.IsFinite();
}

Result<Dfa> AutomataEvaluator::CompiledPattern(const std::string& pattern,
                                               PatternSyntax syntax) {
  STRQ_ASSIGN_OR_RETURN(DfaRef lang, cache_->CompiledPattern(pattern, syntax));
  return *lang;
}

}  // namespace strq
