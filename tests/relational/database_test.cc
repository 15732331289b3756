#include "relational/database.h"

#include <gtest/gtest.h>

#include "relational/snapshot.h"

namespace strq {
namespace {

TEST(RelationTest, CreateSortsAndDedups) {
  Result<Relation> r = Relation::Create(
      2, {{"b", "a"}, {"a", "b"}, {"b", "a"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->tuples()[0], (Tuple{"a", "b"}));
  EXPECT_EQ(r->tuples()[1], (Tuple{"b", "a"}));
}

TEST(RelationTest, ArityValidation) {
  EXPECT_FALSE(Relation::Create(2, {{"a"}}).ok());
  EXPECT_FALSE(Relation::Create(-1, {}).ok());
  EXPECT_TRUE(Relation::Create(0, {{}}).ok());  // nullary "true"
}

TEST(RelationTest, Contains) {
  Result<Relation> r = Relation::Create(1, {{"a"}, {"ab"}});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Contains({"a"}));
  EXPECT_TRUE(r->Contains({"ab"}));
  EXPECT_FALSE(r->Contains({"b"}));
}

TEST(RelationTest, ActiveDomain) {
  Result<Relation> r = Relation::Create(2, {{"a", "b"}, {"b", "c"}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ActiveDomain(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(DatabaseTest, AddAndFind) {
  Database db(Alphabet::Abc());
  ASSERT_TRUE(db.AddRelation("R", 1, {{"a"}, {"bc"}}).ok());
  const Relation* r = db.Find("R");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(db.Find("S"), nullptr);
}

TEST(DatabaseTest, ReplacingRelation) {
  Database db(Alphabet::Abc());
  ASSERT_TRUE(db.AddRelation("R", 1, {{"a"}}).ok());
  ASSERT_TRUE(db.AddRelation("R", 1, {{"b"}, {"c"}}).ok());
  EXPECT_EQ(db.Find("R")->size(), 2u);
}

TEST(DatabaseTest, AlphabetEnforced) {
  Database db(Alphabet::Binary());
  EXPECT_FALSE(db.AddRelation("R", 1, {{"abc"}}).ok());
  EXPECT_TRUE(db.AddRelation("R", 1, {{"0101"}}).ok());
}

TEST(DatabaseTest, ActiveDomainAcrossRelations) {
  Database db(Alphabet::Abc());
  ASSERT_TRUE(db.AddRelation("R", 1, {{"a"}, {"ab"}}).ok());
  ASSERT_TRUE(db.AddRelation("S", 2, {{"ab", "c"}}).ok());
  EXPECT_EQ(db.ActiveDomain(), (std::vector<std::string>{"a", "ab", "c"}));
  EXPECT_EQ(db.MaxAdomLength(), 2u);
  // The longest value sits in a later column of a later relation.
  ASSERT_TRUE(db.AddRelation("T", 2, {{"b", "abcab"}}).ok());
  EXPECT_EQ(db.MaxAdomLength(), 5u);
}

// A relation's content revision moves exactly when its contents are
// written: copies share it, no-op writes and writes to other relations
// leave it, and every real change stamps a fresh value.
TEST(DatabaseTest, RelationRevisionMovesOnlyWithItsContents) {
  Database db(Alphabet::Abc());
  EXPECT_EQ(db.RelationRevision("R"), -1);
  ASSERT_TRUE(db.AddRelation("R", 1, {{"a"}, {"ab"}}).ok());
  ASSERT_TRUE(db.AddRelation("S", 1, {{"c"}}).ok());
  const int64_t r0 = db.RelationRevision("R");
  EXPECT_GT(r0, 0);
  EXPECT_NE(db.RelationRevision("S"), r0);
  EXPECT_EQ(db.RelationRevision("S"), db.revision());

  Database copy = db;
  EXPECT_EQ(copy.RelationRevision("R"), r0);
  Result<bool> noop_insert = copy.InsertTuple("R", {"a"});
  ASSERT_TRUE(noop_insert.ok());
  EXPECT_FALSE(*noop_insert);
  Result<bool> noop_delete = copy.DeleteTuple("R", {"b"});
  ASSERT_TRUE(noop_delete.ok());
  EXPECT_FALSE(*noop_delete);
  EXPECT_EQ(copy.RelationRevision("R"), r0);

  ASSERT_TRUE(copy.InsertTuple("S", {"cc"}).ok());
  EXPECT_EQ(copy.RelationRevision("R"), r0);
  Result<bool> insert = copy.InsertTuple("R", {"b"});
  ASSERT_TRUE(insert.ok());
  EXPECT_TRUE(*insert);
  const int64_t r1 = copy.RelationRevision("R");
  EXPECT_GT(r1, r0);
  EXPECT_EQ(r1, copy.revision());
  EXPECT_EQ(db.RelationRevision("R"), r0);  // the original is untouched
  ASSERT_TRUE(copy.DeleteTuple("R", {"b"}).ok());
  EXPECT_GT(copy.RelationRevision("R"), r1);

  VersionedDatabase vdb(db);
  ASSERT_TRUE(vdb.Update([](Database& head) {
                   return head.AddRelation("S", 1, {{"cab"}});
                 }).ok());
  EXPECT_EQ(vdb.Snapshot().db().RelationRevision("R"), r0);
  ASSERT_TRUE(vdb.Update([](Database& head) {
                   return head.AddRelation("R", 1, {{"a"}, {"ab"}});
                 }).ok());
  DbSnapshot head = vdb.Snapshot();
  EXPECT_GT(head.db().RelationRevision("R"), r0);
  EXPECT_EQ(head.db().RelationRevision("R"), head.revision());
}

TEST(DatabaseTest, EmptyDatabase) {
  Database db(Alphabet::Abc());
  EXPECT_TRUE(db.ActiveDomain().empty());
  EXPECT_EQ(db.MaxAdomLength(), 0u);
}

}  // namespace
}  // namespace strq
