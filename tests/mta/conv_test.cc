#include "mta/conv.h"

#include <gtest/gtest.h>

namespace strq {
namespace {

const Alphabet kBin = Alphabet::Binary();

TEST(ConvTest, CreateSizes) {
  Result<ConvAlphabet> c2 = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c2->num_letters(), 9);  // (2+1)^2
  EXPECT_EQ(c2->pad(), 2);

  Result<ConvAlphabet> c0 = ConvAlphabet::Create(2, 0);
  ASSERT_TRUE(c0.ok());
  EXPECT_EQ(c0->num_letters(), 1);

  // 3^11 = 177147 exceeds the 16-bit letter space.
  EXPECT_FALSE(ConvAlphabet::Create(2, 11).ok());
  EXPECT_FALSE(ConvAlphabet::Create(0, 1).ok());
  EXPECT_FALSE(ConvAlphabet::Create(2, -1).ok());
}

TEST(ConvTest, EncodeDecodeRoundTrip) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(3, 3);
  ASSERT_TRUE(c.ok());
  for (int letter = 0; letter < c->num_letters(); ++letter) {
    std::vector<int> digits = c->Decode(static_cast<Symbol>(letter));
    EXPECT_EQ(c->Encode(digits), letter);
    for (int t = 0; t < 3; ++t) {
      EXPECT_EQ(c->DigitAt(static_cast<Symbol>(letter), t), digits[t]);
    }
  }
}

TEST(ConvTest, WithDigit) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  Symbol letter = c->Encode({0, 1});
  Symbol updated = c->WithDigit(letter, 0, 2);
  EXPECT_EQ(c->Decode(updated), (std::vector<int>{2, 1}));
}

TEST(ConvTest, IsAllPad) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsAllPad(c->Encode({2, 2})));
  EXPECT_FALSE(c->IsAllPad(c->Encode({0, 2})));
  EXPECT_FALSE(c->IsAllPad(c->Encode({0, 0})));
}

TEST(ConvTest, ConvolveEqualLengths) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  Result<std::vector<Symbol>> word = c->ConvolveStrings(kBin, {"01", "10"});
  ASSERT_TRUE(word.ok());
  ASSERT_EQ(word->size(), 2u);
  EXPECT_EQ(c->Decode((*word)[0]), (std::vector<int>{0, 1}));
  EXPECT_EQ(c->Decode((*word)[1]), (std::vector<int>{1, 0}));
}

TEST(ConvTest, ConvolvePadsShorterTracks) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  Result<std::vector<Symbol>> word = c->ConvolveStrings(kBin, {"0", "111"});
  ASSERT_TRUE(word.ok());
  ASSERT_EQ(word->size(), 3u);
  EXPECT_EQ(c->Decode((*word)[1]), (std::vector<int>{2, 1}));  // pad on x
  EXPECT_EQ(c->Decode((*word)[2]), (std::vector<int>{2, 1}));
}

TEST(ConvTest, DeconvolveRoundTrip) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 3);
  ASSERT_TRUE(c.ok());
  std::vector<std::string> tuple = {"01", "", "1101"};
  Result<std::vector<Symbol>> word = c->ConvolveStrings(kBin, tuple);
  ASSERT_TRUE(word.ok());
  EXPECT_EQ(c->DeconvolveStrings(kBin, *word), tuple);
}

TEST(ConvTest, EmptyTupleConvolvesToEmptyWord) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  Result<std::vector<Symbol>> word = c->ConvolveStrings(kBin, {"", ""});
  ASSERT_TRUE(word.ok());
  EXPECT_TRUE(word->empty());
}

TEST(ConvTest, ArityMismatchRejected) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 2);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->ConvolveStrings(kBin, {"0"}).ok());
}

TEST(ConvTest, TrackStrides) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 3);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->TrackStride(0), 1);
  EXPECT_EQ(c->TrackStride(1), 3);
  EXPECT_EQ(c->TrackStride(2), 9);
  // Defined one past the last track: the total letter count, so kernels can
  // split a letter around any track boundary arithmetically.
  EXPECT_EQ(c->TrackStride(3), c->num_letters());
}

// The digit-extraction power tables must stay exact at the very edge of the
// 16-bit Symbol space. 3^10 = 59049 is the largest binary-alphabet
// convolution that still fits; every letter must round-trip through
// Encode/Decode and agree with the table-driven DigitAt/WithDigit.
TEST(ConvTest, EncodeDecodeRoundTripAtSymbolBoundary) {
  Result<ConvAlphabet> c = ConvAlphabet::Create(2, 10);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->num_letters(), 59049);
  // Exhaustive on the extremes, strided through the middle.
  std::vector<int> letters;
  for (int l = 0; l < 100; ++l) letters.push_back(l);
  for (int l = c->num_letters() - 100; l < c->num_letters(); ++l) {
    letters.push_back(l);
  }
  for (int l = 0; l < c->num_letters(); l += 97) letters.push_back(l);
  for (int l : letters) {
    Symbol s = static_cast<Symbol>(l);
    std::vector<int> digits = c->Decode(s);
    ASSERT_EQ(c->Encode(digits), s);
    for (int t = 0; t < c->arity(); ++t) {
      ASSERT_EQ(c->DigitAt(s, t), digits[t]) << "letter " << l << " track "
                                             << t;
      for (int d = 0; d <= c->pad(); ++d) {
        Symbol replaced = c->WithDigit(s, t, d);
        ASSERT_EQ(c->DigitAt(replaced, t), d);
        // Other tracks untouched.
        for (int u = 0; u < c->arity(); ++u) {
          if (u != t) {
            ASSERT_EQ(c->DigitAt(replaced, u), digits[u]);
          }
        }
      }
    }
  }
  EXPECT_TRUE(c->IsAllPad(static_cast<Symbol>(c->num_letters() - 1)));
  EXPECT_FALSE(c->IsAllPad(static_cast<Symbol>(c->num_letters() - 2)));
}

}  // namespace
}  // namespace strq
