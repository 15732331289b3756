#include "relational/snapshot.h"

#include <utility>

namespace strq {

VersionedDatabase::VersionedDatabase(Alphabet alphabet)
    : alphabet_(alphabet),
      head_(std::make_shared<const Database>(std::move(alphabet))),
      pins_(std::make_shared<PinTable>()) {}

VersionedDatabase::VersionedDatabase(Database initial)
    : alphabet_(initial.alphabet()),
      head_(std::make_shared<const Database>(std::move(initial))),
      pins_(std::make_shared<PinTable>()) {}

DbSnapshot VersionedDatabase::Snapshot() const {
  std::shared_ptr<const Database> db;
  {
    std::lock_guard<std::mutex> lock(mu_);
    db = head_;
  }
  int64_t rev = db->revision();
  {
    std::lock_guard<std::mutex> lock(pins_->mu);
    ++pins_->pins[rev];
  }
  // The token's deleter holds the pin table (not `this`), so snapshots may
  // outlive the VersionedDatabase.
  std::shared_ptr<PinTable> pins = pins_;
  std::shared_ptr<void> token(static_cast<void*>(nullptr),
                              [pins, rev](void*) {
                                std::lock_guard<std::mutex> lock(pins->mu);
                                auto it = pins->pins.find(rev);
                                if (it != pins->pins.end() &&
                                    --it->second == 0) {
                                  pins->pins.erase(it);
                                }
                              });
  return DbSnapshot(std::move(db), std::move(token));
}

Status VersionedDatabase::Update(
    const std::function<Status(Database&)>& mutate) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  std::shared_ptr<const Database> cur;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cur = head_;
  }
  auto next = std::make_shared<Database>(*cur);
  STRQ_RETURN_IF_ERROR(mutate(*next));
  int64_t from = cur->revision();
  int64_t to = next->revision();
  {
    std::lock_guard<std::mutex> lock(mu_);
    head_ = std::move(next);
  }
  // Arbitrary mutations are not expressible as tuple ops: publish them
  // opaque.
  if (to != from) Publish(CommitDelta{from, to, /*opaque=*/true, {}});
  return Status::Ok();
}

Result<CommitDelta> VersionedDatabase::ApplyDeltas(
    const std::vector<TupleDelta>& ops) {
  std::lock_guard<std::mutex> wlock(write_mu_);
  std::shared_ptr<const Database> cur;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cur = head_;
  }
  auto next = std::make_shared<Database>(*cur);
  CommitDelta delta;
  delta.from_revision = cur->revision();
  // Intermediate revisions minted while mutating the private copy are never
  // observable; only the final published revision ever reaches a snapshot.
  for (const TupleDelta& op : ops) {
    bool changed = false;
    if (op.insert) {
      STRQ_ASSIGN_OR_RETURN(changed, next->InsertTuple(op.relation, op.tuple));
    } else {
      STRQ_ASSIGN_OR_RETURN(changed, next->DeleteTuple(op.relation, op.tuple));
    }
    if (changed) delta.ops.push_back(op);
  }
  if (delta.ops.empty()) {
    delta.to_revision = delta.from_revision;
    return delta;  // nothing changed; nothing published
  }
  delta.to_revision = next->revision();
  {
    std::lock_guard<std::mutex> lock(mu_);
    head_ = std::move(next);
  }
  Publish(delta);
  return delta;
}

void VersionedDatabase::SetCommitHook(
    std::function<void(const CommitDelta&)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  commit_hook_ = std::move(hook);
}

void VersionedDatabase::Publish(const CommitDelta& delta) {
  std::function<void(const CommitDelta&)> hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = commit_hook_;
  }
  if (hook) hook(delta);
}

Status VersionedDatabase::AddRelation(const std::string& name,
                                      Relation relation) {
  return Update([&](Database& db) {
    return db.AddRelation(name, std::move(relation));
  });
}

Status VersionedDatabase::AddRelation(const std::string& name, int arity,
                                      std::vector<Tuple> tuples) {
  return Update([&](Database& db) {
    return db.AddRelation(name, arity, std::move(tuples));
  });
}

int64_t VersionedDatabase::head_revision() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_->revision();
}

bool VersionedDatabase::IsLive(int64_t revision) const {
  if (revision == head_revision()) return true;
  std::lock_guard<std::mutex> lock(pins_->mu);
  return pins_->pins.count(revision) > 0;
}

std::vector<int64_t> VersionedDatabase::LiveRevisions() const {
  std::vector<int64_t> live;
  live.push_back(head_revision());
  std::lock_guard<std::mutex> lock(pins_->mu);
  for (const auto& [rev, count] : pins_->pins) {
    if (rev != live.front()) live.push_back(rev);
  }
  return live;
}

size_t VersionedDatabase::pinned_revisions() const {
  std::lock_guard<std::mutex> lock(pins_->mu);
  return pins_->pins.size();
}

}  // namespace strq
