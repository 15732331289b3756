#include "relational/database.h"

#include <gtest/gtest.h>

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

TEST(DatabaseTest, EmptyDatabase) {
  Database db(Alphabet::Abc());
  EXPECT_TRUE(db.ActiveDomain().empty());
  EXPECT_EQ(db.MaxAdomLength(), 0u);
}

}  // namespace
}  // namespace strq
