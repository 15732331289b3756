#include "incr/incr.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace strq {
namespace incr {

namespace {

// Cap on distinct formulas with maintained answers; the memo is cleared
// wholesale when exceeded (entries re-seed on the next compile).
constexpr size_t kMaxAnswerEntries = 256;

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

IncrementalIndex::IncrementalIndex(const VersionedDatabase* db) : db_(db) {}

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
    // Recompile against the new revision. Relation tries are cached by
    // content revision, so only changed relations are rebuilt.
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
