#ifndef STRQ_RELATIONAL_SNAPSHOT_H_
#define STRQ_RELATIONAL_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "relational/database.h"

namespace strq {

// One tuple-level write: insert (or delete) `tuple` into relation
// `relation`.
struct TupleDelta {
  std::string relation;
  Tuple tuple;
  bool insert = true;
};

// The published record of one commit: the revision edge it created and the
// tuple ops that explain it. `opaque` marks commits whose effect cannot be
// expressed as tuple deltas (whole-relation AddRelation, arbitrary Update
// mutations).
struct CommitDelta {
  int64_t from_revision = 0;
  int64_t to_revision = 0;
  bool opaque = false;
  std::vector<TupleDelta> ops;  // effective ops only; empty when opaque
};

// An immutable, pinned view of a database at one revision.
//
// A DbSnapshot is the unit of isolation for the serving layer: every query a
// session runs is evaluated against the snapshot's Database object, which is
// never mutated after publication, so a reader holding a snapshot sees a
// point-in-time state no matter how many writers commit meanwhile — repeated
// queries inside one session are answered against the same world.
//
// The snapshot is also a PIN: for as long as any copy of it is alive, its
// revision is reported live by the owning VersionedDatabase, which the
// serving layer uses to retain the AtomCache entries it reads (its
// "adom:<rev>" automaton, "rel:<name>:<stamp>" tries at its relations'
// content revisions) and to reclaim them only once the last pin dies.
// Copying a snapshot is two shared_ptr bumps; snapshots may outlive the
// VersionedDatabase that issued them.
class DbSnapshot {
 public:
  DbSnapshot() = default;

  const Database& db() const { return *db_; }
  const std::shared_ptr<const Database>& shared() const { return db_; }
  int64_t revision() const { return db_ ? db_->revision() : -1; }
  explicit operator bool() const { return db_ != nullptr; }

 private:
  friend class VersionedDatabase;
  DbSnapshot(std::shared_ptr<const Database> db, std::shared_ptr<void> pin)
      : db_(std::move(db)), pin_(std::move(pin)) {}

  std::shared_ptr<const Database> db_;
  // Ref-counted pin token; releases the revision in the issuer's pin table
  // when the last copy is destroyed.
  std::shared_ptr<void> pin_;
};

// A multi-version database: one mutable head published as a chain of
// immutable Database values.
//
//  * Readers call Snapshot() and get the current head pinned at its
//    revision. Taking a snapshot is wait-free with respect to writers in
//    the only sense that matters here: it acquires no lock a writer holds
//    while copying or mutating data — just the brief pointer-swap mutex —
//    so readers never wait for a commit in progress, and an in-progress
//    read never delays a commit.
//  * Writers serialize among themselves (copy the head, mutate the copy,
//    publish it with a pointer swap). Database::AddRelation stamps every
//    commit with a fresh process-unique revision, so revision-keyed cache
//    entries can never alias across commits.
//
// Old versions stay alive exactly as long as someone holds them: the
// Database payload via shared_ptr, the revision's liveness via the pin
// table. IsLive()/LiveRevisions() expose the pin table so cache reclamation
// (AtomCache::EvictRevisionEntries) can drop entries for dead revisions
// without ever touching one a live session might still read.
class VersionedDatabase {
 public:
  explicit VersionedDatabase(Alphabet alphabet);
  explicit VersionedDatabase(Database initial);
  VersionedDatabase(const VersionedDatabase&) = delete;
  VersionedDatabase& operator=(const VersionedDatabase&) = delete;

  // Fixed at construction: every commit keeps the head's alphabet.
  const Alphabet& alphabet() const { return alphabet_; }

  // The current head, pinned. Never blocks on a writer's copy/mutate work.
  DbSnapshot Snapshot() const;

  // Copy-modify-publish commits. AddRelation is the common case; Update runs
  // an arbitrary mutation against a private copy of the head and publishes
  // it iff the mutation succeeds (on error nothing is published).
  Status AddRelation(const std::string& name, Relation relation);
  Status AddRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples);
  Status Update(const std::function<Status(Database&)>& mutate);

  // Applies a batch of tuple-level writes as ONE copy-modify-publish commit
  // (one head copy, one revision edge) and reports the effective ops to the
  // commit hook. No-op writes (inserting a present tuple, deleting an
  // absent one) are dropped from the record; if nothing changed, nothing is
  // published and the returned CommitDelta has from_revision ==
  // to_revision and no ops. On error nothing is published.
  Result<CommitDelta> ApplyDeltas(const std::vector<TupleDelta>& ops);

  // Registers a hook invoked after every publishing commit (including
  // opaque ones), while the writer lock is still held so hooks observe
  // commits in revision order. The hook must not commit back into this
  // VersionedDatabase (self-deadlock) and should be fast; pass nullptr to
  // clear.
  void SetCommitHook(std::function<void(const CommitDelta&)> hook);

  // Revision of the current head.
  int64_t head_revision() const;

  // Is `revision` the head or pinned by a live snapshot? (Dead revisions'
  // cache entries are reclaimable.)
  bool IsLive(int64_t revision) const;
  std::vector<int64_t> LiveRevisions() const;

  // Number of distinct revisions currently pinned by outstanding snapshots.
  size_t pinned_revisions() const;

 private:
  struct PinTable {
    std::mutex mu;
    std::map<int64_t, int> pins;
  };

  // Called with write_mu_ held, after the head swap: fires the commit hook.
  void Publish(const CommitDelta& delta);

  const Alphabet alphabet_;
  mutable std::mutex mu_;        // guards the head_ pointer swap
  std::mutex write_mu_;          // serializes writers
  std::shared_ptr<const Database> head_;
  // Shared with every pin token so tokens outliving this object stay safe.
  std::shared_ptr<PinTable> pins_;

  std::mutex hook_mu_;  // guards commit_hook_
  std::function<void(const CommitDelta&)> commit_hook_;
};

}  // namespace strq

#endif  // STRQ_RELATIONAL_SNAPSHOT_H_
