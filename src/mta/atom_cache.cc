#include "mta/atom_cache.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

#include "automata/levenshtein.h"
#include "automata/like.h"
#include "automata/regex.h"
#include "mta/atoms.h"
#include "obs/trace.h"

namespace strq {

namespace {

// Fixed per-entry charge for the map node + the cached handle/track
// metadata; the variable part is the key string. The DFA tables behind a
// cached atom belong to (and are accounted by) the AutomatonStore.
constexpr int64_t kAtomEntryBytes = 96;
constexpr int64_t kPatternEntryBytes = 64;

}  // namespace

AtomCache::AtomCache(Alphabet alphabet, const AutomatonStore* store)
    : alphabet_(std::move(alphabet)),
      store_(store != nullptr ? store : &AutomatonStore::Default()) {}

AtomCache::~AtomCache() {
  obs::MemAdd(obs::MemCategory::kAtomCache, -stats_.bytes);
}

Result<TrackAutomaton> AtomCache::Renamed(const TrackAutomaton& canonical,
                                          const std::vector<VarId>& vars) {
  std::map<VarId, VarId> renaming;
  for (int i = 0; i < static_cast<int>(vars.size()); ++i) {
    if (vars[i] != i) renaming[i] = vars[i];
  }
  if (renaming.empty()) return canonical;
  return canonical.Renamed(renaming);
}

Result<TrackAutomaton> AtomCache::Cached(
    const std::string& key, const std::vector<VarId>& vars,
    const std::function<Result<TrackAutomaton>()>& build) {
  // Single-flight claim: hit → done; someone else building → wait and
  // re-check; true miss → claim the key and build it ourselves.
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = atoms_.find(key);
      if (it != atoms_.end()) {
        ++stats_.hits;
        obs::Count(obs::kAtomCacheHits);
        return Renamed(it->second, vars);
      }
      if (inflight_atoms_.insert(key).second) break;
      ++stats_.singleflight_waits;
      obs::Count(obs::kAtomCacheSingleflightWaits);
      inflight_cv_.wait(lock);
    }
  }
  Result<TrackAutomaton> canonical = build();
  // Re-home the atom into this cache's store so every downstream operation
  // on it (and on its renamings) memoizes in one computed table. When the
  // builder already used our store this is a no-op.
  if (canonical.ok() && &canonical->store() != store_) {
    TrackAutomaton built = *std::move(canonical);
    canonical = TrackAutomaton::Create(*store_, built.alphabet(), built.vars(),
                                       built.dfa());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Release the claim whether we succeeded or not; on failure a waiter wakes,
  // sees no entry and no claim, and retries the build itself (a deadline
  // abort on this thread must not poison the key for an unbudgeted caller).
  inflight_atoms_.erase(key);
  inflight_cv_.notify_all();
  STRQ_RETURN_IF_ERROR(canonical.status());
  ++stats_.misses;
  obs::Count(obs::kAtomCacheMisses);
  auto [it, inserted] = atoms_.emplace(key, *canonical);
  if (inserted) {
    int64_t bytes = kAtomEntryBytes + static_cast<int64_t>(key.size());
    stats_.bytes += bytes;
    obs::MemAdd(obs::MemCategory::kAtomCache, bytes);
  }
  return Renamed(it->second, vars);
}

Result<TrackAutomaton> AtomCache::Equal(VarId x, VarId y) {
  return Cached("eq", {x, y},
                [this] { return EqualAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::Prefix(VarId x, VarId y) {
  return Cached("prefix", {x, y},
                [this] { return PrefixAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::StrictPrefix(VarId x, VarId y) {
  return Cached("sprefix", {x, y},
                [this] { return StrictPrefixAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::OneStep(VarId x, VarId y) {
  return Cached("onestep", {x, y},
                [this] { return OneStepAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::LastSymbol(char a, VarId x) {
  return Cached(std::string("last:") + a, {x},
                [this, a] { return LastSymbolAtom(alphabet_, a, 0); });
}

Result<TrackAutomaton> AtomCache::AppendGraph(char a, VarId x, VarId y) {
  return Cached(std::string("append:") + a, {x, y},
                [this, a] { return AppendGraphAtom(alphabet_, a, 0, 1); });
}

Result<TrackAutomaton> AtomCache::PrependGraph(char a, VarId x, VarId y) {
  return Cached(std::string("prepend:") + a, {x, y},
                [this, a] { return PrependGraphAtom(alphabet_, a, 0, 1); });
}

Result<TrackAutomaton> AtomCache::TrimLeadingGraph(char a, VarId x, VarId y) {
  return Cached(std::string("trim:") + a, {x, y},
                [this, a] { return TrimLeadingGraphAtom(alphabet_, a, 0, 1); });
}

Result<TrackAutomaton> AtomCache::InsertGraph(char a, VarId p, VarId x,
                                              VarId y) {
  return Cached(std::string("insert:") + a, {p, x, y}, [this, a] {
    return InsertGraphAtom(alphabet_, a, 0, 1, 2);
  });
}

Result<TrackAutomaton> AtomCache::Const(const std::string& w, VarId x) {
  return Cached("const:" + w, {x},
                [this, &w] { return ConstAtom(alphabet_, w, 0); });
}

Result<TrackAutomaton> AtomCache::EqLen(VarId x, VarId y) {
  return Cached("eqlen", {x, y},
                [this] { return EqLenAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::LeqLen(VarId x, VarId y) {
  return Cached("leqlen", {x, y},
                [this] { return LeqLenAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::LexLeq(VarId x, VarId y) {
  return Cached("lexleq", {x, y},
                [this] { return LexLeqAtom(alphabet_, 0, 1); });
}

Result<TrackAutomaton> AtomCache::Lcp(VarId x, VarId y, VarId z) {
  return Cached("lcp", {x, y, z},
                [this] { return LcpAtom(alphabet_, 0, 1, 2); });
}

Result<TrackAutomaton> AtomCache::MaxLen(int max_len, VarId x) {
  return Cached("maxlen:" + std::to_string(max_len), {x}, [this, max_len] {
    return MaxLenAtom(alphabet_, max_len, 0);
  });
}

Result<TrackAutomaton> AtomCache::Member(const DfaRef& lang, VarId x) {
  if (!lang) return InvalidArgumentError("null language handle");
  return Cached("member:" + std::to_string(lang.id()), {x},
                [this, &lang] { return MemberAtom(alphabet_, *lang, 0); });
}

Result<TrackAutomaton> AtomCache::SuffixIn(const DfaRef& lang, VarId x,
                                           VarId y) {
  if (!lang) return InvalidArgumentError("null language handle");
  return Cached("suffixin:" + std::to_string(lang.id()), {x, y},
                [this, &lang] { return SuffixInAtom(alphabet_, *lang, 0, 1); });
}

Result<DfaRef> AtomCache::CompiledPattern(const std::string& pattern,
                                          PatternSyntax syntax) {
  std::pair<std::string, int> key(pattern, static_cast<int>(syntax));
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = patterns_.find(key);
      if (it != patterns_.end()) {
        ++stats_.pattern_hits;
        obs::Count(obs::kPatternCacheHits);
        return it->second;
      }
      if (inflight_patterns_.insert(key).second) break;
      ++stats_.singleflight_waits;
      obs::Count(obs::kAtomCacheSingleflightWaits);
      inflight_cv_.wait(lock);
    }
  }
  obs::Span span("compile.pattern");
  if (span.active()) span.set_detail(pattern);
  Result<Dfa> lang = InternalError("unset");
  switch (syntax) {
    case PatternSyntax::kLikePattern:
      lang = CompileLike(pattern, alphabet_);
      break;
    case PatternSyntax::kRegex:
      lang = CompileRegex(pattern, alphabet_);
      break;
    case PatternSyntax::kSimilar:
      lang = CompileSimilar(pattern, alphabet_);
      break;
  }
  if (!lang.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_patterns_.erase(key);
    inflight_cv_.notify_all();
    return lang.status();
  }
  DfaRef ref = store_->Intern(*lang);
  if (span.active()) span.Attr("states", ref->num_states());
  std::lock_guard<std::mutex> lock(mu_);
  inflight_patterns_.erase(key);
  inflight_cv_.notify_all();
  ++stats_.pattern_misses;
  obs::Count(obs::kPatternCacheMisses);
  auto [it, inserted] = patterns_.emplace(key, ref);
  if (inserted) {
    int64_t bytes = kPatternEntryBytes + static_cast<int64_t>(pattern.size());
    stats_.bytes += bytes;
    obs::MemAdd(obs::MemCategory::kAtomCache, bytes);
  }
  return it->second;
}

Result<DfaRef> AtomCache::CompiledNear(const std::string& word,
                                       int max_edits) {
  // Shares the pattern cache; the synthetic "syntax" discriminant 1000+k
  // can never collide with a PatternSyntax value.
  std::pair<std::string, int> key(word, 1000 + max_edits);
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = patterns_.find(key);
      if (it != patterns_.end()) {
        ++stats_.pattern_hits;
        obs::Count(obs::kPatternCacheHits);
        return it->second;
      }
      if (inflight_patterns_.insert(key).second) break;
      ++stats_.singleflight_waits;
      obs::Count(obs::kAtomCacheSingleflightWaits);
      inflight_cv_.wait(lock);
    }
  }
  obs::Span span("compile.near");
  if (span.active()) {
    span.set_detail("~" + std::to_string(max_edits) + " '" + word + "'");
  }
  Result<Dfa> lang = LevenshteinDfa(alphabet_, word, max_edits);
  if (!lang.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_patterns_.erase(key);
    inflight_cv_.notify_all();
    return lang.status();
  }
  DfaRef ref = store_->Intern(*lang);
  if (span.active()) span.Attr("states", ref->num_states());
  std::lock_guard<std::mutex> lock(mu_);
  inflight_patterns_.erase(key);
  inflight_cv_.notify_all();
  ++stats_.pattern_misses;
  obs::Count(obs::kPatternCacheMisses);
  auto [it, inserted] = patterns_.emplace(key, ref);
  if (inserted) {
    int64_t bytes = kPatternEntryBytes + static_cast<int64_t>(word.size());
    stats_.bytes += bytes;
    obs::MemAdd(obs::MemCategory::kAtomCache, bytes);
  }
  return it->second;
}

std::optional<DfaRef> AtomCache::PeekPattern(const std::string& pattern,
                                             PatternSyntax syntax) const {
  std::pair<std::string, int> key(pattern, static_cast<int>(syntax));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patterns_.find(key);
  if (it == patterns_.end()) return std::nullopt;
  return it->second;
}

Result<TrackAutomaton> AtomCache::TableTrie(
    const std::string& key, const std::vector<VarId>& vars,
    const std::vector<std::vector<std::string>>& tuples) {
  std::vector<VarId> canonical(vars.size());
  for (int i = 0; i < static_cast<int>(vars.size()); ++i) canonical[i] = i;
  return Cached("trie:" + key, vars, [this, &canonical, &tuples] {
    return TrackAutomaton::FromTuples(*store_, alphabet_, canonical, tuples);
  });
}

Result<TrackAutomaton> AtomCache::TableTrie(
    const std::string& key, const std::vector<VarId>& vars,
    const std::function<std::vector<std::vector<std::string>>()>& tuples) {
  std::vector<VarId> canonical(vars.size());
  for (int i = 0; i < static_cast<int>(vars.size()); ++i) canonical[i] = i;
  return Cached("trie:" + key, vars, [this, &canonical, &tuples] {
    return TrackAutomaton::FromTuples(*store_, alphabet_, canonical, tuples());
  });
}

namespace {

// Revision-keyed cache entries look like "trie:<kind>…:<revision>"; the
// revision is the decimal suffix after the last ':'. Returns false for keys
// with no parseable revision (pure atoms, "const:…" literals, etc.).
bool TrieRevisionOf(const std::string& key, int64_t* rev) {
  if (key.compare(0, 5, "trie:") != 0) return false;
  size_t colon = key.rfind(':');
  if (colon == std::string::npos || colon + 1 >= key.size()) return false;
  int64_t value = 0;
  for (size_t i = colon + 1; i < key.size(); ++i) {
    char c = key[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  *rev = value;
  return true;
}

constexpr char kRelTriePrefix[] = "trie:rel:";

}  // namespace

size_t AtomCache::EvictRevisionEntries(
    const std::vector<int64_t>& live,
    const std::map<std::string, int64_t>& head_stamps) {
  auto live_in = [&live](int64_t lo, int64_t hi) {
    return std::any_of(live.begin(), live.end(),
                       [&](int64_t r) { return lo <= r && r < hi; });
  };
  using Entry = std::map<std::string, TrackAutomaton>::iterator;
  const size_t prefix = sizeof(kRelTriePrefix) - 1;
  size_t evicted = 0;
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Entry> dead;
    // One relation's tries as (stamp, entry). Keys sort by name first, so
    // each relation's tries are adjacent in atoms_ (were a group split, each
    // part would only see a later s_next, which keeps more).
    std::vector<std::pair<int64_t, Entry>> group;
    std::string_view group_name;
    auto flush_group = [&] {
      if (group.empty()) return;
      std::sort(group.begin(), group.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto at_head = head_stamps.find(std::string(group_name));
      const int64_t head = at_head != head_stamps.end() ? at_head->second : -1;
      for (size_t i = 0; i < group.size(); ++i) {
        const int64_t s = group[i].first;
        if (s == head) continue;
        const int64_t hi = i + 1 < group.size() ? group[i + 1].first
                           : head > s          ? head
                                        : std::numeric_limits<int64_t>::max();
        if (!live_in(s, hi)) dead.push_back(group[i].second);
      }
      group.clear();
    };
    // Revision-keyed entries all start with "trie:": one key range.
    for (auto it = atoms_.lower_bound("trie:");
         it != atoms_.end() && it->first.compare(0, 5, "trie:") == 0; ++it) {
      int64_t rev = 0;
      if (!TrieRevisionOf(it->first, &rev)) continue;
      const std::string_view key = it->first;
      if (key.substr(0, prefix) != kRelTriePrefix) {
        if (!live_in(rev, rev + 1)) dead.push_back(it);
        continue;
      }
      const std::string_view name = key.substr(prefix, key.rfind(':') - prefix);
      if (name != group_name) {
        flush_group();
        group_name = name;
      }
      group.emplace_back(rev, it);
    }
    flush_group();
    for (Entry it : dead) {
      released += kAtomEntryBytes + static_cast<int64_t>(it->first.size());
      atoms_.erase(it);
    }
    evicted = dead.size();
    stats_.bytes -= released;
    stats_.evictions += static_cast<int64_t>(evicted);
  }
  if (released != 0) obs::MemAdd(obs::MemCategory::kAtomCache, -released);
  if (evicted != 0) {
    obs::Count(obs::kAtomCacheEvictions, static_cast<int64_t>(evicted));
  }
  return evicted;
}

AtomCache::Stats AtomCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t AtomCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return atoms_.size() + patterns_.size();
}

}  // namespace strq
