#include "relational/database.h"

#include <algorithm>
#include <atomic>
#include <set>

namespace strq {

namespace {

// Revisions are process-unique (never reused across Database instances) so
// caches keyed on them can never serve stale contents.
int64_t NextRevision() {
  static std::atomic<int64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Result<Relation> Relation::Create(int arity, std::vector<Tuple> tuples) {
  if (arity < 0) return InvalidArgumentError("negative arity");
  for (const Tuple& t : tuples) {
    if (static_cast<int>(t.size()) != arity) {
      return InvalidArgumentError("tuple arity mismatch");
    }
  }
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  return Relation(arity, std::move(tuples));
}

Relation Relation::Empty(int arity) { return Relation(arity, {}); }

bool Relation::Contains(const Tuple& t) const {
  return std::binary_search(tuples_.begin(), tuples_.end(), t);
}

std::vector<std::string> Relation::ActiveDomain() const {
  std::set<std::string> domain;
  for (const Tuple& t : tuples_) domain.insert(t.begin(), t.end());
  return std::vector<std::string>(domain.begin(), domain.end());
}

Result<bool> Relation::Insert(const Tuple& t) {
  if (static_cast<int>(t.size()) != arity_) {
    return InvalidArgumentError("tuple arity mismatch");
  }
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, t);
  return true;
}

Result<bool> Relation::Remove(const Tuple& t) {
  if (static_cast<int>(t.size()) != arity_) {
    return InvalidArgumentError("tuple arity mismatch");
  }
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || *it != t) return false;
  tuples_.erase(it);
  return true;
}

Status Database::AddRelation(const std::string& name, Relation relation) {
  for (const Tuple& t : relation.tuples()) {
    for (const std::string& s : t) {
      for (char c : s) {
        if (!alphabet_.Contains(c)) {
          return InvalidArgumentError(
              std::string("relation ") + name + " contains character '" + c +
              "' outside the database alphabet");
        }
      }
    }
  }
  relations_.insert_or_assign(name, std::move(relation));
  revision_ = relation_revisions_[name] = NextRevision();
  return Status::Ok();
}

Status Database::AddRelation(const std::string& name, int arity,
                             std::vector<Tuple> tuples) {
  STRQ_ASSIGN_OR_RETURN(Relation r, Relation::Create(arity, std::move(tuples)));
  return AddRelation(name, std::move(r));
}

Result<bool> Database::InsertTuple(const std::string& name, const Tuple& t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return InvalidArgumentError("unknown relation " + name);
  }
  for (const std::string& s : t) {
    for (char c : s) {
      if (!alphabet_.Contains(c)) {
        return InvalidArgumentError(
            std::string("tuple for ") + name + " contains character '" + c +
            "' outside the database alphabet");
      }
    }
  }
  STRQ_ASSIGN_OR_RETURN(bool changed, it->second.Insert(t));
  if (changed) revision_ = relation_revisions_[name] = NextRevision();
  return changed;
}

Result<bool> Database::DeleteTuple(const std::string& name, const Tuple& t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return InvalidArgumentError("unknown relation " + name);
  }
  STRQ_ASSIGN_OR_RETURN(bool changed, it->second.Remove(t));
  if (changed) revision_ = relation_revisions_[name] = NextRevision();
  return changed;
}

const Relation* Database::Find(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : &it->second;
}

int64_t Database::RelationRevision(const std::string& name) const {
  auto it = relation_revisions_.find(name);
  return it == relation_revisions_.end() ? -1 : it->second;
}

std::vector<std::string> Database::ActiveDomain() const {
  std::set<std::string> domain;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) domain.insert(t.begin(), t.end());
  }
  return std::vector<std::string>(domain.begin(), domain.end());
}

size_t Database::MaxAdomLength() const {
  size_t best = 0;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) best = std::max(best, s.size());
    }
  }
  return best;
}

}  // namespace strq
