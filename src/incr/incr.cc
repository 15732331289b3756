#include "incr/incr.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.h"

namespace strq {
namespace incr {

namespace {

int64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

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

// Net-cancel insertion: adding to `primary` first cancels a pending entry
// in `opposite` (a string that left and re-entered a set across the window
// nets to no change).
void NetInsert(const std::string& s, std::set<std::string>* primary,
               std::set<std::string>* opposite) {
  if (opposite->erase(s) == 0) primary->insert(s);
}

}  // namespace

IncrementalIndex::IncrementalIndex(const VersionedDatabase* db,
                                   std::shared_ptr<AtomCache> cache,
                                   Options options)
    : db_(db), cache_(std::move(cache)), options_(options) {
  DbSnapshot snap = db_->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  SeedDomLocked(snap.db());
}

// ---------------------------------------------------------------------------
// Commit subscription
// ---------------------------------------------------------------------------

void IncrementalIndex::OnCommit(const CommitDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (delta.opaque || !dom_valid_ || delta.from_revision != dom_rev_) {
    // Unreplayable edge (whole-relation commit, missed commits, first
    // sight): rescan the head. The hook runs with the writer lock held, so
    // the head IS delta.to_revision.
    DbSnapshot snap = db_->Snapshot();
    SeedDomLocked(snap.db());
    return;
  }
  ApplyDomOpsLocked(delta);
}

void IncrementalIndex::SeedDomLocked(const Database& db) {
  counts_.clear();
  prefix_counts_.clear();
  dom_log_.clear();
  for (const auto& [name, rel] : db.relations()) {
    (void)name;
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) ++counts_[s];
    }
  }
  // One sorted pass over counts_: a key's prefixes longer than its lcp with
  // the previous key sort after every prefix seen so far, so they append at
  // the end of prefix_counts_; the shared ones are bumped through `path`,
  // the entries of the previous key's prefixes by length.
  std::vector<std::map<std::string, int64_t>::iterator> path;
  const std::string* prev = nullptr;
  for (const auto& [s, n] : counts_) {
    (void)n;
    size_t shared = 0;  // prefixes of lengths 0..lcp(prev, s)
    if (prev != nullptr) {
      auto diff = std::mismatch(prev->begin(), prev->end(), s.begin(), s.end());
      shared = static_cast<size_t>(diff.first - prev->begin()) + 1;
    }
    path.resize(shared);
    for (auto& it : path) ++it->second;
    for (size_t i = shared; i <= s.size(); ++i) {
      path.push_back(
          prefix_counts_.emplace_hint(prefix_counts_.end(), s.substr(0, i), 1));
    }
    prev = &s;
  }
  dom_rev_ = db.revision();
  dom_valid_ = true;
}

void IncrementalIndex::ApplyDomOpsLocked(const CommitDelta& delta) {
  DomDelta d;
  d.from_revision = delta.from_revision;
  d.to_revision = delta.to_revision;
  std::set<std::string> added, removed;
  for (const TupleDelta& op : delta.ops) {
    for (const std::string& s : op.tuple) {
      if (op.insert) {
        if (counts_[s]++ == 0) {
          NetInsert(s, &added, &removed);
          for (size_t i = 0; i <= s.size(); ++i) {
            ++prefix_counts_[s.substr(0, i)];
          }
        }
      } else {
        auto it = counts_.find(s);
        if (it == counts_.end()) continue;  // defensive; ops are effective
        if (--it->second == 0) {
          counts_.erase(it);
          NetInsert(s, &removed, &added);
          for (size_t i = 0; i <= s.size(); ++i) {
            std::string p = s.substr(0, i);
            auto pit = prefix_counts_.find(p);
            if (pit != prefix_counts_.end() && --pit->second == 0) {
              prefix_counts_.erase(pit);
            }
          }
        }
      }
    }
  }
  d.added.assign(added.begin(), added.end());
  d.removed.assign(removed.begin(), removed.end());
  dom_log_.push_back(std::move(d));
  while (dom_log_.size() > kMaxDomLog) dom_log_.pop_front();
  dom_rev_ = delta.to_revision;
}

std::optional<std::pair<std::vector<std::string>, std::vector<std::string>>>
IncrementalIndex::DomNetBetweenLocked(int64_t from, int64_t to) const {
  std::set<std::string> net_added, net_removed;
  int64_t cur = from;
  while (cur != to) {
    const DomDelta* step = nullptr;
    for (const DomDelta& d : dom_log_) {
      if (d.from_revision == cur) {
        step = &d;
        break;
      }
    }
    if (step == nullptr) return std::nullopt;
    for (const std::string& s : step->added) {
      NetInsert(s, &net_added, &net_removed);
    }
    for (const std::string& s : step->removed) {
      NetInsert(s, &net_removed, &net_added);
    }
    cur = step->to_revision;
  }
  return std::make_pair(
      std::vector<std::string>(net_added.begin(), net_added.end()),
      std::vector<std::string>(net_removed.begin(), net_removed.end()));
}

// ---------------------------------------------------------------------------
// Patch machinery
// ---------------------------------------------------------------------------

IncrementalIndex::NetDelta IncrementalIndex::NetOf(
    const std::vector<TupleDelta>& ops) {
  // +1 insert / -1 delete per tuple; the log records only effective ops, so
  // a tuple's entries alternate and the fold lands in {-1, 0, +1}.
  std::map<std::string, std::map<Tuple, int>> net;
  for (const TupleDelta& op : ops) net[op.relation][op.tuple] += op.insert ? 1 : -1;
  NetDelta out;
  for (const auto& [rel, tuples] : net) {
    for (const auto& [tuple, n] : tuples) {
      if (n > 0) {
        out.adds[rel].push_back(tuple);
        ++out.total_ops;
      } else if (n < 0) {
        out.dels[rel].push_back(tuple);
        ++out.total_ops;
      }
    }
  }
  return out;
}

Result<TrackAutomaton> IncrementalIndex::FromTuplesVars(
    const std::vector<VarId>& vars, const std::vector<Tuple>& tuples) {
  return TrackAutomaton::FromTuples(cache_->store(), cache_->alphabet(), vars,
                                    tuples);
}

Result<TrackAutomaton> IncrementalIndex::ApplyPatch(
    const TrackAutomaton& base, const std::vector<Tuple>& adds,
    const std::vector<Tuple>& dels, int64_t* delta_states) {
  TrackAutomaton out = base;
  if (!dels.empty()) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton dtrie,
                          FromTuplesVars(base.vars(), dels));
    *delta_states += dtrie.NumStates();
    STRQ_ASSIGN_OR_RETURN(out, TrackAutomaton::Difference(out, dtrie));
  }
  if (!adds.empty()) {
    STRQ_ASSIGN_OR_RETURN(TrackAutomaton atrie,
                          FromTuplesVars(base.vars(), adds));
    *delta_states += atrie.NumStates();
    STRQ_ASSIGN_OR_RETURN(out, TrackAutomaton::Union(out, atrie));
  }
  return out;
}

bool IncrementalIndex::MaybeCompact(BaseState* st,
                                    const TrackAutomaton& patched,
                                    int64_t target_rev, int64_t window_ops,
                                    int64_t delta_states) {
  bool fold = window_ops > options_.max_patch_ops / 2;
  if (!fold && st->base.has_value()) {
    double budget = options_.compact_ratio *
                    static_cast<double>(st->base->NumStates());
    fold = static_cast<double>(delta_states) > budget;
  }
  if (!fold) return false;
  st->base = patched;
  st->rev = target_rev;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.compactions;
  }
  obs::Count(obs::kIncrCompactions);
  return true;
}

void IncrementalIndex::CountPatch(int64_t ns) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.patches;
  }
  obs::Count(obs::kIncrPatches);
  obs::Observe(obs::kHistIncrPatchNs, ns);
}

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
  // Same key the default compiler path uses — a patched trie and a rebuilt
  // one are interchangeable cache entries.
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
  std::lock_guard<std::mutex> lock(mu_);
  BaseState& st = rels_[name];
  if (st.base.has_value() && st.rev == rev) return *st.base;
  if (st.base.has_value() && rev > st.rev) {
    std::optional<std::vector<TupleDelta>> chain =
        db_->DeltasBetween(st.rev, rev);
    if (chain.has_value()) {
      NetDelta net = NetOf(*chain);
      auto ait = net.adds.find(name);
      auto dit = net.dels.find(name);
      static const std::vector<Tuple> kNone;
      const std::vector<Tuple>& adds = ait != net.adds.end() ? ait->second
                                                             : kNone;
      const std::vector<Tuple>& dels = dit != net.dels.end() ? dit->second
                                                             : kNone;
      if (adds.empty() && dels.empty()) {
        // Other relations changed; this one's contents are identical, so
        // the base automaton IS the trie at the new revision.
        st.rev = rev;
        CountUnchanged();
        return *st.base;
      }
      int64_t window_ops =
          static_cast<int64_t>(adds.size() + dels.size());
      if (window_ops <= options_.max_patch_ops) {
        auto start = std::chrono::steady_clock::now();
        int64_t delta_states = 0;
        Result<TrackAutomaton> patched =
            ApplyPatch(*st.base, adds, dels, &delta_states);
        if (patched.ok()) {
          CountPatch(ElapsedNs(start));
          MaybeCompact(&st, *patched, rev, window_ops, delta_states);
          return patched;
        }
        // A failed patch falls through to the rebuild below.
      }
    }
  }
  CountRecompile();
  Result<TrackAutomaton> built =
      FromTuplesVars(CanonicalVars(rel->arity()), rel->tuples());
  // Anchor forward only: a rebuild for an old pinned snapshot must not move
  // the base behind revisions already folded in.
  if (built.ok() && (!st.base.has_value() || rev >= st.rev)) {
    st.base = *built;
    st.rev = rev;
  }
  return built;
}

Result<TrackAutomaton> IncrementalIndex::AdomTrie(const Database& db,
                                                  VarId var) {
  std::string key = "adom:" + std::to_string(db.revision());
  return cache_->CachedTrie(key, {var}, [&] { return BuildDomTrie(db); });
}

Result<TrackAutomaton> IncrementalIndex::BuildDomTrie(const Database& db) {
  const int64_t rev = db.revision();
  std::lock_guard<std::mutex> lock(mu_);
  BaseState& st = adom_base_;
  if (st.base.has_value() && st.rev == rev) return *st.base;
  if (st.base.has_value() && rev > st.rev) {
    auto net = DomNetBetweenLocked(st.rev, rev);
    if (net.has_value()) {
      if (net->first.empty() && net->second.empty()) {
        st.rev = rev;
        CountUnchanged();
        return *st.base;
      }
      std::vector<Tuple> adds = UnaryTuples(net->first);
      std::vector<Tuple> dels = UnaryTuples(net->second);
      int64_t window_ops = static_cast<int64_t>(adds.size() + dels.size());
      if (window_ops <= options_.max_patch_ops) {
        auto start = std::chrono::steady_clock::now();
        int64_t delta_states = 0;
        Result<TrackAutomaton> patched =
            ApplyPatch(*st.base, adds, dels, &delta_states);
        if (patched.ok()) {
          CountPatch(ElapsedNs(start));
          MaybeCompact(&st, *patched, rev, window_ops, delta_states);
          return patched;
        }
      }
    }
  }
  CountRecompile();
  std::vector<std::string> dom;
  if (dom_valid_ && dom_rev_ == rev) {
    dom.reserve(counts_.size());
    for (const auto& [s, n] : counts_) {
      (void)n;
      dom.push_back(s);
    }
  } else {
    dom = db.ActiveDomain();
  }
  Result<TrackAutomaton> built = FromTuplesVars({0}, UnaryTuples(dom));
  if (built.ok() && (!st.base.has_value() || rev >= st.rev)) {
    st.base = *built;
    st.rev = rev;
  }
  return built;
}

// ---------------------------------------------------------------------------
// DomainProvider (Engine B)
// ---------------------------------------------------------------------------

std::optional<std::vector<std::string>> IncrementalIndex::ActiveDomainAt(
    int64_t revision) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dom_valid_ || dom_rev_ != revision) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(counts_.size());
  for (const auto& [s, n] : counts_) {
    (void)n;
    out.push_back(s);  // map order: already sorted and deduplicated
  }
  return out;
}

std::optional<std::vector<std::string>> IncrementalIndex::PrefixClosureAt(
    int64_t revision) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dom_valid_ || dom_rev_ != revision) return std::nullopt;
  std::vector<std::string> out;
  out.reserve(prefix_counts_.size());
  for (const auto& [s, n] : prefix_counts_) {
    (void)n;
    out.push_back(s);
  }
  return out;
}

std::shared_ptr<const DomainTrie> IncrementalIndex::AdomTrieAt(
    int64_t revision) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dom_valid_ || dom_rev_ != revision) return nullptr;
  if (adom_trie_rev_ == revision && adom_trie_view_ != nullptr) {
    return adom_trie_view_;
  }
  std::vector<std::string> keys;
  keys.reserve(counts_.size());
  for (const auto& [s, n] : counts_) {
    (void)n;
    keys.push_back(s);
  }
  Result<std::shared_ptr<const DomainTrie>> built =
      DomainTrie::Build(cache_->alphabet(), keys);
  if (!built.ok()) return nullptr;
  adom_trie_view_ = *std::move(built);
  adom_trie_rev_ = revision;
  return adom_trie_view_;
}

std::shared_ptr<const DomainTrie> IncrementalIndex::PrefixTrieAt(
    int64_t revision) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dom_valid_ || dom_rev_ != revision) return nullptr;
  if (prefix_trie_rev_ == revision && prefix_trie_view_ != nullptr) {
    return prefix_trie_view_;
  }
  std::vector<std::string> keys;
  keys.reserve(prefix_counts_.size());
  for (const auto& [s, n] : prefix_counts_) {
    (void)n;
    keys.push_back(s);
  }
  Result<std::shared_ptr<const DomainTrie>> built =
      DomainTrie::Build(cache_->alphabet(), keys);
  if (!built.ok()) return nullptr;
  prefix_trie_view_ = *std::move(built);
  prefix_trie_rev_ = revision;
  return prefix_trie_view_;
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
    if (answers_.size() > options_.max_answer_entries) answers_.clear();
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
    if (chain.has_value() && NetOf(*chain).total_ops == 0) {
      // Every commit in the window cancelled out: same contents, same answer.
      CountUnchanged();
      store_entry(entry->answer);
      return entry->answer;
    }
    // Recompile against the new revision. The compile rides on the patched
    // relation tries, so this pays the combine phase only.
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
