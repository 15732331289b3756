#include "automata/regex.h"

#include <gtest/gtest.h>

#include "base/string_ops.h"

namespace strq {
namespace {

const Alphabet kBin = Alphabet::Binary();
const Alphabet kAbc = Alphabet::Abc();

bool Matches(const std::string& pattern, const std::string& text,
             const Alphabet& alphabet) {
  Result<Dfa> dfa = CompileRegex(pattern, alphabet);
  EXPECT_TRUE(dfa.ok()) << pattern << ": " << dfa.status();
  return dfa->AcceptsString(alphabet, text);
}

TEST(RegexTest, Literals) {
  EXPECT_TRUE(Matches("01", "01", kBin));
  EXPECT_FALSE(Matches("01", "0", kBin));
  EXPECT_FALSE(Matches("01", "011", kBin));
  EXPECT_TRUE(Matches("", "", kBin));
  EXPECT_FALSE(Matches("", "0", kBin));
}

TEST(RegexTest, UnionConcatStar) {
  EXPECT_TRUE(Matches("(0|1)*", "", kBin));
  EXPECT_TRUE(Matches("(0|1)*", "0101", kBin));
  EXPECT_TRUE(Matches("0*1", "1", kBin));
  EXPECT_TRUE(Matches("0*1", "0001", kBin));
  EXPECT_FALSE(Matches("0*1", "0010", kBin));
  EXPECT_TRUE(Matches("a|bc", "a", kAbc));
  EXPECT_TRUE(Matches("a|bc", "bc", kAbc));
  EXPECT_FALSE(Matches("a|bc", "b", kAbc));
}

TEST(RegexTest, PlusOptional) {
  EXPECT_FALSE(Matches("0+", "", kBin));
  EXPECT_TRUE(Matches("0+", "000", kBin));
  EXPECT_TRUE(Matches("01?", "0", kBin));
  EXPECT_TRUE(Matches("01?", "01", kBin));
  EXPECT_FALSE(Matches("01?", "011", kBin));
}

TEST(RegexTest, AnyChar) {
  EXPECT_TRUE(Matches(".", "a", kAbc));
  EXPECT_TRUE(Matches(".", "c", kAbc));
  EXPECT_FALSE(Matches(".", "", kAbc));
  EXPECT_TRUE(Matches("a.c", "abc", kAbc));
  EXPECT_TRUE(Matches("a.c", "aac", kAbc));
}

TEST(RegexTest, CharClass) {
  EXPECT_TRUE(Matches("[ab]", "a", kAbc));
  EXPECT_TRUE(Matches("[ab]", "b", kAbc));
  EXPECT_FALSE(Matches("[ab]", "c", kAbc));
  EXPECT_TRUE(Matches("[^ab]", "c", kAbc));
  EXPECT_FALSE(Matches("[^ab]", "a", kAbc));
  EXPECT_TRUE(Matches("[a-c]*", "abccba", kAbc));
}

TEST(RegexTest, Escapes) {
  // Escaped metacharacters are literals; '+' is not in the alphabet so a
  // pattern using it should fail to compile, but escaping works on symbols.
  EXPECT_TRUE(Matches("\\a", "a", kAbc));
  Result<Dfa> bad = CompileRegex("\\+", kAbc);
  EXPECT_FALSE(bad.ok());  // '+' not in alphabet
}

TEST(RegexTest, ParseErrors) {
  EXPECT_FALSE(ParseRegex("(01").ok());
  EXPECT_FALSE(ParseRegex("01)").ok());
  EXPECT_FALSE(ParseRegex("*01").ok());
  EXPECT_FALSE(ParseRegex("[ab").ok());
  EXPECT_FALSE(ParseRegex("a\\").ok());
  EXPECT_TRUE(ParseRegex("()").ok());
}

TEST(RegexTest, RegexToStringRoundTrips) {
  for (const std::string& pattern :
       {"(0|1)*", "0*1", "0+1?", "(01|10)*", "."}) {
    Result<RegexPtr> rx = ParseRegex(pattern);
    ASSERT_TRUE(rx.ok()) << pattern;
    std::string printed = RegexToString(*rx);
    Result<Dfa> d1 = CompileRegex(pattern, kBin);
    Result<Dfa> d2 = CompileRegex(printed, kBin);
    ASSERT_TRUE(d1.ok());
    ASSERT_TRUE(d2.ok()) << printed;
    for (const std::string& s : AllStringsUpToLength("01", 5)) {
      EXPECT_EQ(d1->AcceptsString(kBin, s), d2->AcceptsString(kBin, s))
          << pattern << " vs " << printed << " on " << s;
    }
  }
}

TEST(RegexTest, SimilarWildcards) {
  // SQL SIMILAR: '%' = any string, '_' = any char, regex operators live.
  Result<Dfa> d = CompileSimilar("%11%", kBin);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->AcceptsString(kBin, "011"));
  EXPECT_TRUE(d->AcceptsString(kBin, "1101"));
  EXPECT_FALSE(d->AcceptsString(kBin, "0101"));

  Result<Dfa> alt = CompileSimilar("0_|1%", kBin);
  ASSERT_TRUE(alt.ok());
  EXPECT_TRUE(alt->AcceptsString(kBin, "00"));
  EXPECT_TRUE(alt->AcceptsString(kBin, "01"));
  EXPECT_TRUE(alt->AcceptsString(kBin, "1"));
  EXPECT_TRUE(alt->AcceptsString(kBin, "1111"));
  EXPECT_FALSE(alt->AcceptsString(kBin, "0"));
}

TEST(RegexTest, ClassicModeTreatsPercentAsLiteral) {
  // '%' is not in the alphabet, so classic compilation fails — confirming it
  // is treated as a literal rather than a wildcard.
  EXPECT_FALSE(CompileRegex("%1", kBin).ok());
  EXPECT_TRUE(CompileSimilar("%1", kBin).ok());
}

TEST(RegexTest, RxStringBuilder) {
  RegexPtr rx = RxString("abc");
  Result<Nfa> nfa = RegexToNfa(rx, kAbc);
  ASSERT_TRUE(nfa.ok());
  Result<std::vector<Symbol>> w = kAbc.Encode("abc");
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(nfa->Accepts(*w));
  Result<std::vector<Symbol>> w2 = kAbc.Encode("ab");
  ASSERT_TRUE(w2.ok());
  EXPECT_FALSE(nfa->Accepts(*w2));
}

// Differential test: random regex-ish patterns vs brute-force matching via
// enumeration is covered in ops_test; here check a curated battery against
// hand-computed membership.
struct RegexCase {
  const char* pattern;
  const char* text;
  bool expected;
};

// gtest prints a parameter without a PrintTo as its raw bytes, pointers
// included; gtest_discover_tests copies that text into the ctest name, so
// the name would change with every run.
void PrintTo(const RegexCase& c, std::ostream* os) {
  *os << '"' << c.pattern << (c.expected ? "\" matches \"" : "\" rejects \"")
      << c.text << '"';
}

class RegexBatteryTest : public ::testing::TestWithParam<RegexCase> {};

TEST_P(RegexBatteryTest, Matches) {
  const RegexCase& c = GetParam();
  EXPECT_EQ(Matches(c.pattern, c.text, kBin), c.expected)
      << c.pattern << " on " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, RegexBatteryTest,
    ::testing::Values(
        RegexCase{"(00)*", "0000", true}, RegexCase{"(00)*", "000", false},
        RegexCase{"(0|1)(0|1)", "10", true},
        RegexCase{"((0|1)(0|1))*", "1010", true},
        RegexCase{"((0|1)(0|1))*", "101", false},
        RegexCase{"1*01*01*", "010", true},
        RegexCase{"1*01*01*", "0110", true},
        RegexCase{"1*01*01*", "011", false},
        RegexCase{"0*(10+)*1?", "00101", true},
        RegexCase{"0*(10+)*1?", "0011", false},
        RegexCase{"0*(10+)*1?", "0100101", true},
        RegexCase{"(01|10)+", "0110", true},
        RegexCase{"(01|10)+", "0", false}));

}  // namespace
}  // namespace strq
