#include "eval/restricted_eval.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>

#include "automata/dfa.h"
#include "automata/levenshtein.h"
#include "automata/like.h"
#include "automata/regex.h"
#include "base/budget.h"
#include "base/string_ops.h"
#include "obs/trace.h"
#include "relational/domain_walk.h"

namespace strq {

namespace {

using Env = std::map<std::string, std::string>;

class Evaluator {
 public:
  // Borrows `adom`, the request's active domain, which must outlive the
  // evaluator.
  Evaluator(const Database* db, const RestrictedEvaluator::Options& options,
            AtomCache* cache, const std::vector<std::string>& adom)
      : db_(db), options_(options), cache_(cache), adom_(adom) {}

  Result<bool> Eval(const FormulaPtr& f, Env& env) {
    switch (f->kind) {
      case FormulaKind::kTrue:
        return true;
      case FormulaKind::kFalse:
        return false;
      case FormulaKind::kPred:
        return EvalPred(*f, env);
      case FormulaKind::kRelation:
        return EvalRelation(*f, env);
      case FormulaKind::kNot: {
        STRQ_ASSIGN_OR_RETURN(bool v, Eval(f->left, env));
        return !v;
      }
      case FormulaKind::kAnd: {
        STRQ_ASSIGN_OR_RETURN(bool a, Eval(f->left, env));
        if (!a) return false;
        return Eval(f->right, env);
      }
      case FormulaKind::kOr: {
        STRQ_ASSIGN_OR_RETURN(bool a, Eval(f->left, env));
        if (a) return true;
        return Eval(f->right, env);
      }
      case FormulaKind::kImplies: {
        STRQ_ASSIGN_OR_RETURN(bool a, Eval(f->left, env));
        if (!a) return true;
        return Eval(f->right, env);
      }
      case FormulaKind::kIff: {
        STRQ_ASSIGN_OR_RETURN(bool a, Eval(f->left, env));
        STRQ_ASSIGN_OR_RETURN(bool b, Eval(f->right, env));
        return a == b;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall:
        return EvalQuantifier(*f, env);
    }
    return InternalError("unknown formula kind");
  }

 private:
  Result<std::string> EvalTerm(const TermPtr& t, const Env& env) {
    switch (t->kind) {
      case TermKind::kVar: {
        auto it = env.find(t->var);
        if (it == env.end()) {
          return InternalError("unbound variable " + t->var);
        }
        return it->second;
      }
      case TermKind::kConst:
        return t->text;
      case TermKind::kAppend: {
        STRQ_ASSIGN_OR_RETURN(std::string v, EvalTerm(t->arg0, env));
        return AppendLast(v, t->letter);
      }
      case TermKind::kPrepend: {
        STRQ_ASSIGN_OR_RETURN(std::string v, EvalTerm(t->arg0, env));
        return PrependFirst(v, t->letter);
      }
      case TermKind::kTrim: {
        STRQ_ASSIGN_OR_RETURN(std::string v, EvalTerm(t->arg0, env));
        return TrimLeading(v, t->letter);
      }
      case TermKind::kLcp: {
        STRQ_ASSIGN_OR_RETURN(std::string a, EvalTerm(t->arg0, env));
        STRQ_ASSIGN_OR_RETURN(std::string b, EvalTerm(t->arg1, env));
        return LongestCommonPrefix(a, b);
      }
      case TermKind::kInsert: {
        STRQ_ASSIGN_OR_RETURN(std::string a, EvalTerm(t->arg0, env));
        STRQ_ASSIGN_OR_RETURN(std::string b, EvalTerm(t->arg1, env));
        return InsertAfterPrefix(a, b, t->letter);
      }
      case TermKind::kConcat: {
        // Direct term evaluation is well-defined even for concatenation;
        // only quantification over Σ* is problematic (src/concat).
        STRQ_ASSIGN_OR_RETURN(std::string a, EvalTerm(t->arg0, env));
        STRQ_ASSIGN_OR_RETURN(std::string b, EvalTerm(t->arg1, env));
        return a + b;
      }
    }
    return InternalError("unknown term kind");
  }

  // Patterns are compiled (and served) through the shared AtomCache, so a
  // pattern compiled by any engine is reused by every other one.
  Result<DfaRef> Pattern(const std::string& pattern, PatternSyntax syntax) {
    return cache_->CompiledPattern(pattern, syntax);
  }

  Result<bool> EvalPred(const Formula& f, const Env& env) {
    std::vector<std::string> args;
    for (const TermPtr& t : f.args) {
      STRQ_ASSIGN_OR_RETURN(std::string v, EvalTerm(t, env));
      args.push_back(std::move(v));
    }
    switch (f.pred) {
      case PredKind::kEq:
        return args[0] == args[1];
      case PredKind::kPrefix:
        return IsPrefix(args[0], args[1]);
      case PredKind::kStrictPrefix:
        return IsStrictPrefix(args[0], args[1]);
      case PredKind::kOneStep:
        return IsOneStepExtension(args[0], args[1]);
      case PredKind::kLast:
        return LastSymbolIs(args[0], f.letter);
      case PredKind::kEqLen:
        return EqualLength(args[0], args[1]);
      case PredKind::kLeqLen:
        return args[0].size() <= args[1].size();
      case PredKind::kLexLeq: {
        // The alphabet order gives the symbol order (Section 4).
        std::string order;
        for (int i = 0; i < db_->alphabet().size(); ++i) {
          order.push_back(db_->alphabet().CharOf(static_cast<Symbol>(i)));
        }
        return LexLeq(args[0], args[1], order);
      }
      case PredKind::kAdom:
        return std::binary_search(adom_.begin(), adom_.end(), args[0]);
      case PredKind::kLike:
        return LikeMatch(args[0], f.pattern);
      case PredKind::kMember: {
        STRQ_ASSIGN_OR_RETURN(DfaRef lang, Pattern(f.pattern, f.syntax));
        return lang->AcceptsString(db_->alphabet(), args[0]);
      }
      case PredKind::kSuffixIn: {
        if (!IsPrefix(args[0], args[1])) return false;
        STRQ_ASSIGN_OR_RETURN(DfaRef lang, Pattern(f.pattern, f.syntax));
        return lang->AcceptsString(db_->alphabet(),
                                   RelativeSuffix(args[1], args[0]));
      }
      case PredKind::kNear:
        // Ground edit-distance check: the banded DP, no automaton. The
        // differential fuzz pits this against Engine A's Levenshtein DFA.
        return WithinEditDistance(args[0], f.pattern, f.distance);
    }
    return InternalError("unknown predicate");
  }

  Result<bool> EvalRelation(const Formula& f, const Env& env) {
    const Relation* rel = db_->Find(f.relation);
    if (rel == nullptr) {
      return InvalidArgumentError("unknown relation " + f.relation);
    }
    if (static_cast<int>(f.args.size()) != rel->arity()) {
      return InvalidArgumentError("relation " + f.relation +
                                  " arity mismatch");
    }
    Tuple t;
    for (const TermPtr& arg : f.args) {
      STRQ_ASSIGN_OR_RETURN(std::string v, EvalTerm(arg, env));
      t.push_back(std::move(v));
    }
    return rel->Contains(t);
  }

  // Parameter values of a quantifier: the body's free variables (minus the
  // bound one) as bound in the current environment.
  static std::set<std::string> Params(const Formula& f, const Env& env) {
    std::set<std::string> params;
    std::set<std::string> fv = FreeVars(f.left);
    fv.erase(f.var);
    for (const std::string& name : fv) {
      auto it = env.find(name);
      if (it != env.end()) params.insert(it->second);
    }
    return params;
  }

  // Guard atoms on the quantified variable found on the body's conjunct
  // spine: pattern predicates (LIKE/regex/SIMILAR membership, ~k edit
  // distance) applied to the bare variable. Each is a necessary condition
  // for the body, so an ∃ may soundly enumerate only the strings every
  // guard accepts. Disjuncts, negations, etc. stop the walk — an atom under
  // them is not necessary.
  static void CollectGuards(const FormulaPtr& f, const std::string& var,
                            std::vector<const Formula*>* out) {
    if (f->kind == FormulaKind::kAnd) {
      CollectGuards(f->left, var, out);
      CollectGuards(f->right, var, out);
      return;
    }
    if (f->kind != FormulaKind::kPred) return;
    if (f->pred != PredKind::kMember && f->pred != PredKind::kLike &&
        f->pred != PredKind::kNear) {
      return;
    }
    if (f->args.size() != 1 || f->args[0]->kind != TermKind::kVar ||
        f->args[0]->var != var) {
      return;
    }
    out->push_back(f.get());
  }

  // adom(D) ∪ params, sorted; `storage` holds it unless params is empty.
  const std::vector<std::string>& WithParams(
      const std::set<std::string>& params, std::vector<std::string>* storage) {
    if (params.empty()) return adom_;
    storage->reserve(adom_.size() + params.size());
    std::set_union(adom_.begin(), adom_.end(), params.begin(), params.end(),
                   std::back_inserter(*storage));
    return *storage;
  }

  // DFA-guided candidate pruning for an ∃ over adom / prefix(adom): instead
  // of enumerating the full candidate set and testing the body on each,
  // walk the sorted domain under the guard DFAs, cutting every string below
  // a prefix the moment some guard goes dead. Returns nullopt when pruning
  // does not apply (∀, no guards, length/plain ranges, foreign parameter
  // characters) — the caller then falls back to full enumeration. The
  // enumerated + pruned counters always sum to the full candidate count.
  Result<std::optional<std::vector<std::string>>> PrunedCandidates(
      const Formula& f, const std::set<std::string>& params) {
    std::optional<std::vector<std::string>> none;
    if (f.kind != FormulaKind::kExists) return none;
    const bool prefixes = f.range == QuantRange::kPrefixDom;
    if (!prefixes && f.range != QuantRange::kAdom) return none;
    std::vector<const Formula*> guards;
    CollectGuards(f.left, f.var, &guards);
    if (guards.empty()) return none;
    std::vector<std::string> storage;
    const std::vector<std::string>* domain = &adom_;
    if (prefixes) {
      // The guard DFAs reject a foreign character where the body's
      // string-level LIKE and ~k need not: enumerate the full set instead.
      for (const std::string& p : params) {
        for (char c : p) {
          if (!db_->alphabet().Contains(c)) return none;
        }
      }
      domain = &WithParams(params, &storage);
    }
    std::vector<DfaRef> dfas;
    if (!domain->empty()) {
      for (const Formula* g : guards) {
        DfaRef lang;
        if (g->pred == PredKind::kNear) {
          STRQ_ASSIGN_OR_RETURN(lang,
                                cache_->CompiledNear(g->pattern, g->distance));
        } else {
          STRQ_ASSIGN_OR_RETURN(lang,
                                cache_->CompiledPattern(g->pattern, g->syntax));
        }
        dfas.push_back(std::move(lang));
      }
    }
    const bool counting = obs::Enabled();
    int64_t full = 0;
    std::vector<std::string> matched =
        WalkDomain(db_->alphabet(), *domain, dfas, prefixes,
                   counting ? &full : nullptr);
    if (counting) {
      obs::Count(obs::kRestrictedCandidates,
                 static_cast<int64_t>(matched.size()));
      obs::Count(obs::kRestrictedCandidatesPruned,
                 full - static_cast<int64_t>(matched.size()));
    }
    return std::optional<std::vector<std::string>>(std::move(matched));
  }

  // Candidate strings for a restricted quantifier, given the parameter
  // values (free variables of the body in the current environment).
  Result<std::vector<std::string>> Candidates(
      const Formula& f, const std::set<std::string>& params) {
    switch (f.range) {
      case QuantRange::kAll: {
        if (!options_.all_quantifier_bound.has_value()) {
          return UnsupportedError(
              "plain quantifier in the restricted evaluator; apply the "
              "collapse (Theorem 1 / Theorem 2) or use the automata engine");
        }
        std::string chars;
        for (int i = 0; i < db_->alphabet().size(); ++i) {
          chars.push_back(db_->alphabet().CharOf(static_cast<Symbol>(i)));
        }
        return AllStringsUpToLength(chars, *options_.all_quantifier_bound);
      }
      case QuantRange::kAdom:
        return adom_;
      case QuantRange::kPrefixDom: {
        std::vector<std::string> storage;
        return WalkDomain(db_->alphabet(), WithParams(params, &storage), {},
                          /*prefixes=*/true);
      }
      case QuantRange::kLenDom: {
        size_t max_len = 0;
        for (const std::string& s : adom_) max_len = std::max(max_len, s.size());
        for (const std::string& s : params) {
          max_len = std::max(max_len, s.size());
        }
        // |Σ|^(maxlen+1) candidate budget check before enumerating.
        double count = 1;
        for (size_t i = 0; i < max_len; ++i) {
          count *= db_->alphabet().size();
          count += 1;
          if (count > static_cast<double>(options_.max_len_candidates)) {
            return ResourceExhaustedError(
                "length-restricted quantifier candidate set too large");
          }
        }
        std::string chars;
        for (int i = 0; i < db_->alphabet().size(); ++i) {
          chars.push_back(db_->alphabet().CharOf(static_cast<Symbol>(i)));
        }
        return AllStringsUpToLength(chars, static_cast<int>(max_len));
      }
    }
    return InternalError("unknown range");
  }

  Result<bool> EvalQuantifier(const Formula& f, Env& env) {
    std::set<std::string> params = Params(f, env);
    STRQ_ASSIGN_OR_RETURN(std::optional<std::vector<std::string>> pruned,
                          PrunedCandidates(f, params));
    std::vector<std::string> candidates;
    if (pruned.has_value()) {
      candidates = *std::move(pruned);
    } else {
      STRQ_ASSIGN_OR_RETURN(candidates, Candidates(f, params));
      obs::Count(obs::kRestrictedCandidates,
                 static_cast<int64_t>(candidates.size()));
    }
    bool is_forall = f.kind == FormulaKind::kForall;
    auto saved = env.find(f.var);
    std::optional<std::string> shadowed;
    if (saved != env.end()) shadowed = saved->second;
    bool result = is_forall;
    for (const std::string& c : candidates) {
      env[f.var] = c;
      Result<bool> v = Eval(f.left, env);
      if (!v.ok()) {
        RestoreVar(env, f.var, shadowed);
        return v.status();
      }
      if (is_forall && !*v) {
        result = false;
        break;
      }
      if (!is_forall && *v) {
        result = true;
        break;
      }
    }
    RestoreVar(env, f.var, shadowed);
    return result;
  }

  static void RestoreVar(Env& env, const std::string& var,
                         const std::optional<std::string>& shadowed) {
    if (shadowed.has_value()) {
      env[var] = *shadowed;
    } else {
      env.erase(var);
    }
  }

  const Database* db_;
  RestrictedEvaluator::Options options_;
  AtomCache* cache_;
  const std::vector<std::string>& adom_;
};

}  // namespace

RestrictedEvaluator::RestrictedEvaluator(const Database* db, Options options)
    : RestrictedEvaluator(db, options, nullptr) {}

RestrictedEvaluator::RestrictedEvaluator(const Database* db, Options options,
                                         std::shared_ptr<AtomCache> cache)
    : db_(db), options_(options), cache_(std::move(cache)) {
  if (cache_ == nullptr || !(cache_->alphabet() == db_->alphabet())) {
    cache_ = std::make_shared<AtomCache>(db_->alphabet());
  }
  planner_ = std::make_shared<plan::Planner>();
}

void RestrictedEvaluator::set_planner(std::shared_ptr<plan::Planner> planner) {
  planner_ = std::move(planner);
  if (planner_ == nullptr) planner_ = std::make_shared<plan::Planner>();
}

Result<bool> RestrictedEvaluator::Holds(
    const FormulaPtr& f, const std::map<std::string, std::string>& assignment) {
  obs::Span span("restricted.holds");
  FormulaPtr planned = planner_->Plan(f, db_, cache_.get()).formula;
  const std::vector<std::string> adom = db_->ActiveDomain();
  Evaluator eval(db_, options_, cache_.get(), adom);
  Env env = assignment;
  return eval.Eval(planned, env);
}

Result<bool> RestrictedEvaluator::EvaluateSentence(const FormulaPtr& f) {
  if (!FreeVars(f).empty()) {
    return InvalidArgumentError("sentence expected, found free variables");
  }
  return Holds(f, {});
}

Result<Relation> RestrictedEvaluator::EvaluateOnCandidates(
    const FormulaPtr& f, const std::vector<std::string>& candidates) {
  obs::Span span("restricted.evaluate_on_candidates");
  span.Attr("candidates", static_cast<int64_t>(candidates.size()));
  auto latency_start = std::chrono::steady_clock::now();
  auto observe_latency = [&latency_start] {
    obs::Observe(obs::kHistQueryLatencyNs,
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - latency_start)
                     .count());
  };
  // Columns come from the ORIGINAL formula: planning may eliminate a
  // variable, but the advertised column set must not change (the dropped
  // column is then unconstrained over the candidates, as before planning).
  std::set<std::string> fv = FreeVars(f);
  std::vector<std::string> vars(fv.begin(), fv.end());
  FormulaPtr planned = planner_->Plan(f, db_, cache_.get()).formula;
  int k = static_cast<int>(vars.size());
  std::vector<Tuple> out;
  const std::vector<std::string> adom = db_->ActiveDomain();
  Evaluator eval(db_, options_, cache_.get(), adom);

  if (candidates.empty() && k > 0) return Relation::Create(k, {});

  // Parallel path: partition the candidates^k assignment space into one
  // contiguous block per thread. Every assignment has a rank (its odometer
  // value read as a base-|candidates| number), so blocks enumerate exactly
  // the same tuples in exactly the same order as the serial odometer, and
  // concatenating the per-block outputs reproduces the serial answer
  // byte-for-byte.
  int threads = parallel_.EffectiveThreads();
  double total_est = 1;
  for (int i = 0; i < k; ++i) total_est *= static_cast<double>(candidates.size());
  if (threads > 1 && k > 0 && total_est >= 2 && total_est <= 4e9) {
    uint64_t total = 1;
    for (int i = 0; i < k; ++i) total *= candidates.size();
    uint64_t chunks = std::min<uint64_t>(threads, total);
    std::vector<std::vector<Tuple>> partial(chunks);
    std::vector<Status> errors(chunks, Status::Ok());
    ThreadPool::ParallelFor(
        parallel_.num_threads, static_cast<int>(chunks), [&](int c) {
          uint64_t lo = total * c / chunks;
          uint64_t hi = total * (c + 1) / chunks;
          Evaluator worker(db_, options_, cache_.get(), adom);
          for (uint64_t m = lo; m < hi; ++m) {
            // Per-request deadline, polled at candidate-chunk granularity.
            if (((m - lo) & 255) == 0) {
              Status deadline = CheckDeadline();
              if (!deadline.ok()) {
                errors[c] = deadline;
                return;
              }
            }
            Env env;
            Tuple t;
            uint64_t rest = m;
            for (int i = k - 1; i >= 0; --i) {
              size_t idx = static_cast<size_t>(rest % candidates.size());
              rest /= candidates.size();
              env[vars[i]] = candidates[idx];
              t.insert(t.begin(), candidates[idx]);
            }
            Result<bool> holds = worker.Eval(planned, env);
            if (!holds.ok()) {
              errors[c] = holds.status();
              return;
            }
            if (*holds) partial[c].push_back(std::move(t));
          }
        });
    for (uint64_t c = 0; c < chunks; ++c) {
      STRQ_RETURN_IF_ERROR(errors[c]);
      for (Tuple& t : partial[c]) out.push_back(std::move(t));
    }
    observe_latency();
    return Relation::Create(k, std::move(out));
  }

  // Odometer over candidates^k.
  std::vector<size_t> index(k, 0);
  uint64_t polled = 0;
  while (true) {
    if ((polled++ & 255) == 0) STRQ_RETURN_IF_ERROR(CheckDeadline());
    Env env;
    Tuple t;
    for (int i = 0; i < k; ++i) {
      env[vars[i]] = candidates[index[i]];
      t.push_back(candidates[index[i]]);
    }
    STRQ_ASSIGN_OR_RETURN(bool holds, eval.Eval(planned, env));
    if (holds) out.push_back(std::move(t));
    // Advance odometer.
    int pos = k - 1;
    while (pos >= 0 && ++index[pos] == candidates.size()) {
      index[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
    if (k == 0) break;
  }
  observe_latency();
  return Relation::Create(k, std::move(out));
}

Result<std::vector<Tuple>> RestrictedEvaluator::TopKOnCandidates(
    const FormulaPtr& f, const std::vector<std::string>& candidates,
    size_t k) {
  obs::Span span("restricted.topk");
  span.Attr("candidates", static_cast<int64_t>(candidates.size()));
  std::set<std::string> fv = FreeVars(f);
  std::vector<std::string> vars(fv.begin(), fv.end());
  FormulaPtr planned = planner_->Plan(f, db_, cache_.get()).formula;
  int arity = static_cast<int>(vars.size());
  const std::vector<std::string> adom = db_->ActiveDomain();
  Evaluator eval(db_, options_, cache_.get(), adom);
  std::vector<Tuple> out;
  if (k == 0) return out;
  if (candidates.empty() && arity > 0) return out;
  const size_t limit = std::min(k, CurrentMaxAnswerTuples(k));
  // Serial odometer, stopping at the k-th answer: the output is a prefix of
  // EvaluateOnCandidates' tuple order by construction.
  std::vector<size_t> index(arity, 0);
  uint64_t polled = 0;
  while (true) {
    if ((polled++ & 255) == 0) STRQ_RETURN_IF_ERROR(CheckDeadline());
    Env env;
    Tuple t;
    for (int i = 0; i < arity; ++i) {
      env[vars[i]] = candidates[index[i]];
      t.push_back(candidates[index[i]]);
    }
    STRQ_ASSIGN_OR_RETURN(bool holds, eval.Eval(planned, env));
    if (holds) {
      out.push_back(std::move(t));
      if (out.size() == limit) {
        if (limit < k) {
          return ResourceExhaustedError(
              "top-k answer budget exceeded (max_answer_tuples)");
        }
        break;
      }
    }
    int pos = arity - 1;
    while (pos >= 0 && ++index[pos] == candidates.size()) {
      index[pos] = 0;
      --pos;
    }
    if (pos < 0) break;
  }
  return out;
}

Result<std::optional<Tuple>> RestrictedEvaluator::ExistsWitnessOnCandidates(
    const FormulaPtr& f, const std::vector<std::string>& candidates) {
  STRQ_ASSIGN_OR_RETURN(std::vector<Tuple> first,
                        TopKOnCandidates(f, candidates, 1));
  if (first.empty()) return std::optional<Tuple>();
  return std::optional<Tuple>(std::move(first[0]));
}

std::vector<std::string> RestrictedEvaluator::PrefixDomCandidates() const {
  return WalkDomain(db_->alphabet(), db_->ActiveDomain(), {},
                    /*prefixes=*/true);
}

Result<std::vector<std::string>> RestrictedEvaluator::LenDomCandidates()
    const {
  size_t max_len = db_->MaxAdomLength();
  double count = 1;
  for (size_t i = 0; i < max_len; ++i) {
    count *= db_->alphabet().size();
    count += 1;
    if (count > static_cast<double>(options_.max_len_candidates)) {
      return ResourceExhaustedError("↓adom candidate set too large");
    }
  }
  std::string chars;
  for (int i = 0; i < db_->alphabet().size(); ++i) {
    chars.push_back(db_->alphabet().CharOf(static_cast<Symbol>(i)));
  }
  return AllStringsUpToLength(chars, static_cast<int>(max_len));
}

}  // namespace strq
