#include "incr/incr.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace strq {
namespace incr {

namespace {

// Cap on distinct formulas with maintained answers; the memo is cleared
// wholesale when exceeded (entries re-seed on the next compile).
constexpr size_t kMaxAnswerEntries = 256;

std::vector<VarId> CanonicalVars(int arity) {
  std::vector<VarId> vars(static_cast<size_t>(arity));
  for (int i = 0; i < arity; ++i) vars[static_cast<size_t>(i)] = i;
  return vars;
}

std::vector<Tuple> UnaryTuples(const std::vector<std::string>& strings) {
  std::vector<Tuple> tuples;
  tuples.reserve(strings.size());
  for (const std::string& s : strings) tuples.push_back({s});
  return tuples;
}

// Does a replayed op window leave every relation as it was? +1 per insert,
// -1 per delete of a tuple; the log records only effective ops, so a
// tuple's entries alternate and the fold lands in {-1, 0, +1}.
bool NetEmpty(const std::vector<TupleDelta>& ops) {
  std::map<std::pair<std::string, Tuple>, int> net;
  for (const TupleDelta& op : ops) {
    net[{op.relation, op.tuple}] += op.insert ? 1 : -1;
  }
  return std::all_of(net.begin(), net.end(),
                     [](const auto& entry) { return entry.second == 0; });
}

}  // namespace

IncrementalIndex::IncrementalIndex(const VersionedDatabase* db,
                                   std::shared_ptr<AtomCache> cache)
    : db_(db), cache_(std::move(cache)) {}

// ---------------------------------------------------------------------------
// Commit subscription
// ---------------------------------------------------------------------------

void IncrementalIndex::OnCommit(const CommitDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  // No live domain, or an on-demand seed already read this commit's head.
  if (!dom_valid_ || dom_rev_ == delta.to_revision) return;
  if (delta.opaque || delta.from_revision != dom_rev_) {
    // Unreplayable edge (whole-relation commit, missed commits): drop the
    // domain; the next consumer at the head reseeds it.
    dom_valid_ = false;
    return;
  }
  ApplyDomOpsLocked(delta);
}

bool IncrementalIndex::DomAtLocked(int64_t revision) const {
  if (!dom_valid_) {
    // Lock order: mu_, then only the snapshot's own mutexes (never the
    // writer lock the commit hook runs under).
    DbSnapshot head = db_->Snapshot();
    if (head.revision() != revision) return false;
    SeedDomLocked(head.db());
  }
  return dom_rev_ == revision;
}

void IncrementalIndex::SeedDomLocked(const Database& db) const {
  obs::Span span("incr.dom_seed");
  obs::Count(obs::kIncrDomSeeds);
  counts_.clear();
  for (const auto& [name, rel] : db.relations()) {
    (void)name;
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) ++counts_[s];
    }
  }
  span.Attr("strings", static_cast<int64_t>(counts_.size()));
  dom_rev_ = db.revision();
  dom_valid_ = true;
}

void IncrementalIndex::ApplyDomOpsLocked(const CommitDelta& delta) {
  for (const TupleDelta& op : delta.ops) {
    for (const std::string& s : op.tuple) {
      if (op.insert) {
        ++counts_[s];
        continue;
      }
      auto it = counts_.find(s);  // defensive: ops are effective
      if (it != counts_.end() && --it->second == 0) counts_.erase(it);
    }
  }
  dom_rev_ = delta.to_revision;
}

std::vector<std::string> IncrementalIndex::DomKeysLocked() const {
  std::vector<std::string> keys;
  keys.reserve(counts_.size());
  for (const auto& [s, n] : counts_) {
    (void)n;
    keys.push_back(s);  // map order: already sorted and deduplicated
  }
  return keys;
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

void IncrementalIndex::CountRecompile() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.recompiles;
  }
  obs::Count(obs::kIncrRecompiles);
}

void IncrementalIndex::CountUnchanged() {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.unchanged_hits;
  }
  obs::Count(obs::kIncrUnchangedHits);
}

// ---------------------------------------------------------------------------
// TrieProvider
// ---------------------------------------------------------------------------

Result<TrackAutomaton> IncrementalIndex::RelationTrie(
    const Database& db, const std::string& name,
    const std::vector<VarId>& vars) {
  // Same key the default compiler path uses — the index's trie and a
  // compiler-built one are interchangeable cache entries.
  std::string key = name + ":" + std::to_string(db.revision());
  return cache_->CachedTrie("rel:" + key, vars,
                            [&] { return BuildRelationTrie(db, name); });
}

Result<TrackAutomaton> IncrementalIndex::BuildRelationTrie(
    const Database& db, const std::string& name) {
  const Relation* rel = db.Find(name);
  if (rel == nullptr) {
    return InvalidArgumentError("unknown relation: " + name);
  }
  const int64_t rev = db.revision();
  const int64_t stamp = db.RelationRevision(name);
  std::lock_guard<std::mutex> lock(mu_);
  BaseState& st = rels_[name];
  if (st.base.has_value() && st.stamp == stamp) {
    // The relation is unchanged since the base was built, whatever else
    // committed (opaque commits included): the base IS its trie here.
    if (st.rev != rev) CountUnchanged();
    st.rev = std::max(st.rev, rev);
    return *st.base;
  }
  CountRecompile();
  Result<TrackAutomaton> built =
      TrackAutomaton::FromTuples(cache_->store(), cache_->alphabet(),
                                 CanonicalVars(rel->arity()), rel->tuples());
  // Anchor forward only: a rebuild for an old pinned snapshot must not
  // replace the base of a newer revision.
  if (built.ok() && (!st.base.has_value() || rev >= st.rev)) {
    st.base = *built;
    st.rev = rev;
    st.stamp = stamp;
  }
  return built;
}

Result<TrackAutomaton> IncrementalIndex::AdomTrie(const Database& db,
                                                  VarId var) {
  std::string key = "adom:" + std::to_string(db.revision());
  return cache_->CachedTrie(key, {var}, [&] { return BuildDomTrie(db); });
}

Result<TrackAutomaton> IncrementalIndex::BuildDomTrie(const Database& db) {
  std::vector<std::string> dom;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dom = DomAtLocked(db.revision()) ? DomKeysLocked() : db.ActiveDomain();
  }
  CountRecompile();
  return TrackAutomaton::FromTuples(cache_->store(), cache_->alphabet(), {0},
                                    UnaryTuples(dom));
}

// ---------------------------------------------------------------------------
// DomainProvider (Engine B)
// ---------------------------------------------------------------------------

std::optional<std::vector<std::string>> IncrementalIndex::ActiveDomainAt(
    int64_t revision) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!DomAtLocked(revision)) return std::nullopt;
  return DomKeysLocked();
}

// ---------------------------------------------------------------------------
// Answer maintenance
// ---------------------------------------------------------------------------

Result<TrackAutomaton> IncrementalIndex::CompileAnswer(AutomataEvaluator& eval,
                                                       const FormulaPtr& f,
                                                       const Database& db) {
  const int64_t rev = db.revision();
  const uint64_t h = StructuralHash(f);

  std::optional<AnswerEntry> entry;
  {
    std::lock_guard<std::mutex> lock(answers_mu_);
    auto it = answers_.find(h);
    if (it != answers_.end()) {
      for (const AnswerEntry& e : it->second) {
        if (StructurallyEqual(e.formula, f)) {
          entry = e;
          break;
        }
      }
    }
  }

  auto store_entry = [&](const TrackAutomaton& answer) {
    std::lock_guard<std::mutex> lock(answers_mu_);
    if (answers_.size() > kMaxAnswerEntries) answers_.clear();
    std::vector<AnswerEntry>& bucket = answers_[h];
    for (AnswerEntry& existing : bucket) {
      if (StructurallyEqual(existing.formula, f)) {
        // Last writer wins; concurrent sessions racing forward both hold
        // correct automata for their own revisions.
        if (rev >= existing.rev) existing = AnswerEntry{f, rev, answer};
        return;
      }
    }
    bucket.push_back(AnswerEntry{f, rev, answer});
  };

  if (entry.has_value()) {
    if (entry->rev == rev) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.answer_hits;
      return entry->answer;
    }
    if (rev < entry->rev) {
      // A pinned snapshot older than the stored answer: compile plainly
      // (plan + atom caches still help) and leave the entry anchored forward.
      return eval.Compile(f);
    }
    std::optional<std::vector<TupleDelta>> chain =
        db_->DeltasBetween(entry->rev, rev);
    if (chain.has_value() && NetEmpty(*chain)) {
      // Every commit in the window cancelled out: same contents, same answer.
      CountUnchanged();
      store_entry(entry->answer);
      return entry->answer;
    }
    // Recompile against the new revision. The compile rides on the
    // maintained relation tries, so only changed relations are rebuilt.
    CountRecompile();
  }
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton compiled, eval.Compile(f));
  store_entry(compiled);
  return compiled;
}

Stats IncrementalIndex::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace incr
}  // namespace strq
