#ifndef STRQ_RELATIONAL_DATABASE_H_
#define STRQ_RELATIONAL_DATABASE_H_

#include <map>
#include <string>
#include <vector>

#include "base/alphabet.h"
#include "base/status.h"

namespace strq {

// A database tuple: strings over the database's alphabet.
using Tuple = std::vector<std::string>;

// A finite relation instance: a sorted, duplicate-free set of equal-arity
// tuples. Arity 0 is allowed (the two 0-ary relations are the classical
// "true" {()} and "false" {}).
class Relation {
 public:
  static Result<Relation> Create(int arity, std::vector<Tuple> tuples);
  static Relation Empty(int arity);

  int arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  bool Contains(const Tuple& t) const;

  // In-place single-tuple mutation, preserving the sorted/dup-free
  // invariant. Returns true iff the relation changed (the tuple was absent
  // resp. present); arity mismatches are errors.
  Result<bool> Insert(const Tuple& t);
  Result<bool> Remove(const Tuple& t);

  // All strings appearing in some tuple, sorted and deduplicated.
  std::vector<std::string> ActiveDomain() const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.arity_ == b.arity_ && a.tuples_ == b.tuples_;
  }

 private:
  Relation(int arity, std::vector<Tuple> tuples)
      : arity_(arity), tuples_(std::move(tuples)) {}

  int arity_;
  std::vector<Tuple> tuples_;
};

// A database instance: a fixed alphabet plus named relations (the schema SC
// is implicit in the relation names and arities).
class Database {
 public:
  explicit Database(Alphabet alphabet) : alphabet_(std::move(alphabet)) {}

  const Alphabet& alphabet() const { return alphabet_; }

  // Adds (or replaces) a relation; every string must be over the alphabet.
  Status AddRelation(const std::string& name, Relation relation);

  // Convenience: build the relation from raw tuples.
  Status AddRelation(const std::string& name, int arity,
                     std::vector<Tuple> tuples);

  // Single-tuple mutation against an existing relation. Returns true iff
  // the database changed; the revision is bumped only in that case, so
  // no-op writes never invalidate revision-keyed caches. The relation must
  // exist (create it with AddRelation first) and the tuple must match its
  // arity and the alphabet.
  Result<bool> InsertTuple(const std::string& name, const Tuple& t);
  Result<bool> DeleteTuple(const std::string& name, const Tuple& t);

  // nullptr if absent.
  const Relation* Find(const std::string& name) const;

  // Content revision of one relation: the database revision at which it was
  // last added, replaced or changed by a tuple write; -1 if absent. Stamps
  // come from the same process-unique counter as revision(), copies share
  // them, and no-op writes leave them, so an unchanged stamp means unchanged
  // contents: automata built for a relation survive commits to the others.
  int64_t RelationRevision(const std::string& name) const;

  const std::map<std::string, Relation>& relations() const {
    return relations_;
  }

  // adom(D): all strings appearing anywhere in the database, sorted.
  std::vector<std::string> ActiveDomain() const;

  // max length of a string in adom(D); 0 for the empty database.
  size_t MaxAdomLength() const;

  // Content revision: 0 for an empty database, otherwise a process-unique
  // value bumped on every AddRelation and every effective tuple write. Caches key compiled table/adom
  // automata on "<name>:<revision>" so entries for stale contents are
  // simply never looked up again (revisions are never reused, so keys
  // cannot alias — copies of a database share the revision of the content
  // they share).
  int64_t revision() const { return revision_; }

 private:
  Alphabet alphabet_;
  std::map<std::string, Relation> relations_;
  std::map<std::string, int64_t> relation_revisions_;
  int64_t revision_ = 0;
};

}  // namespace strq

#endif  // STRQ_RELATIONAL_DATABASE_H_
