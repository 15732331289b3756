#ifndef STRQ_SERVE_ANSWER_TABLE_H_
#define STRQ_SERVE_ANSWER_TABLE_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace strq {
namespace serve {

// One value per (database revision, query key), in flight or completed.
// A query's answer depends only on the formula and the database contents,
// so a value computed at a revision stays valid for as long as that
// revision can be read.
//
// Get(): the first caller for a key becomes the LEADER and runs `compute`;
// callers arriving while it runs WAIT and receive the leader's (immutable,
// shared) value; callers arriving after it published HIT the stored value.
// A value the caller's `retain` predicate rejects (a failed compile) is
// erased as soon as it is published, so only its waiters ever see it.
// Whether a waiter should take a failed value is the caller's policy (a
// deadline abort is specific to the leader's budget, a parse error is
// not), which is why Outcome reports how the value was obtained.
//
// Completed entries leave by EraseDeadRevisions, or all at once when more
// than kMaxCompleted of them are held. In-flight entries are never erased.
template <typename V>
class AnswerTable {
 public:
  // (database revision, query key).
  using Key = std::pair<int64_t, uint64_t>;

  static constexpr size_t kMaxCompleted = 256;

  struct Outcome {
    std::shared_ptr<const V> value;
    // This caller ran `compute` itself.
    bool leader = false;
    // This caller waited on another caller's `compute`. Neither flag set
    // means the value was a completed entry's.
    bool waited = false;
  };

  template <typename Fn, typename Retain>
  Outcome Get(const Key& key, Fn&& compute, Retain&& retain) {
    std::shared_ptr<Entry> entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto [it, inserted] = entries_.try_emplace(key);
      if (!inserted) {
        entry = it->second;
        if (entry->done) return Outcome{entry->value, false, false};
        ++total_waits_;
        entry->cv.wait(lock, [&entry] { return entry->done; });
        return Outcome{entry->value, false, true};
      }
      entry = it->second = std::make_shared<Entry>();
    }
    std::shared_ptr<const V> value = std::make_shared<const V>(compute());
    const bool keep = retain(*value);
    {
      std::lock_guard<std::mutex> lock(mu_);
      entry->value = value;
      entry->done = true;
      if (!keep) {
        entries_.erase(key);
      } else if (++completed_ > kMaxCompleted) {
        for (auto it = entries_.begin(); it != entries_.end();) {
          it = it->second->done ? entries_.erase(it) : std::next(it);
        }
        completed_ = 0;
      }
    }
    entry->cv.notify_all();
    return Outcome{std::move(value), true, false};
  }

  // Erases every completed entry whose revision is not in `live` (the
  // head and the pinned revisions) and returns how many. Revisions newer
  // than all of `live` were published after the caller listed it, so they
  // are kept too.
  size_t EraseDeadRevisions(const std::vector<int64_t>& live) {
    if (live.empty()) return 0;
    const int64_t newest = *std::max_element(live.begin(), live.end());
    std::lock_guard<std::mutex> lock(mu_);
    size_t erased = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const int64_t rev = it->first.first;
      if (it->second->done && rev < newest &&
          std::find(live.begin(), live.end(), rev) == live.end()) {
        it = entries_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    completed_ -= erased;
    return erased;
  }

  // Completed entries currently held.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
  }

  // Keys currently being computed.
  size_t inflight_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size() - completed_;
  }

  // Total number of calls that waited on another caller's `compute`, ever.
  // Deterministic tests drive concurrency to a known interleaving and
  // assert on this.
  int64_t total_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_waits_;
  }

 private:
  struct Entry {
    std::condition_variable cv;
    std::shared_ptr<const V> value;
    bool done = false;
  };

  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  size_t completed_ = 0;
  int64_t total_waits_ = 0;
};

}  // namespace serve
}  // namespace strq

#endif  // STRQ_SERVE_ANSWER_TABLE_H_
