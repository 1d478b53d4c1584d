#include "src/util/prng.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace depsurf {
namespace {

TEST(PrngTest, Deterministic) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(PrngTest, DifferentSeedsDiverge) {
  Prng a(1);
  Prng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(PrngTest, ForkIsKeyedNotSequential) {
  Prng base(7);
  Prng f1 = base.Fork({1, 2});
  Prng f2 = base.Fork({1, 2});
  Prng f3 = base.Fork({2, 1});
  EXPECT_EQ(f1.NextU64(), f2.NextU64());
  EXPECT_NE(Prng(7).Fork({1, 2}).NextU64(), f3.NextU64());
}

TEST(PrngTest, NextBelowBounds) {
  Prng p(99);
  EXPECT_EQ(p.NextBelow(0), 0u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(p.NextBelow(17), 17u);
  }
}

TEST(PrngTest, NextInRangeInclusive) {
  Prng p(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    uint64_t v = p.NextInRange(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values hit
  EXPECT_EQ(p.NextInRange(9, 9), 9u);
  EXPECT_EQ(p.NextInRange(9, 2), 9u);  // degenerate range returns lo
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng p(123);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = p.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(PrngTest, NextBoolFrequency) {
  Prng p(55);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += p.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
  EXPECT_FALSE(Prng(1).NextBool(0.0));
  EXPECT_TRUE(Prng(1).NextBool(1.0));
}

TEST(HashTest, StringHashStable) {
  EXPECT_EQ(HashString("do_unlinkat"), HashString("do_unlinkat"));
  EXPECT_NE(HashString("do_unlinkat"), HashString("do_unlinkat2"));
  EXPECT_NE(HashString(""), HashString("a"));
}

// Cache keys and kernelgen decisions are derived from these values, so the
// bits are pinned, and the streamed form must reproduce them piece by piece.
TEST(HashTest, StreamedPiecesEqualTheConcatenation) {
  EXPECT_EQ(HashString("do_unlinkat"), 0x42636b5bdc829713ull);
  EXPECT_EQ(StringHasher().Add("do_").Add("").Add("unlink").Add("at").Finish(),
            HashString("do_unlinkat"));
  EXPECT_EQ(StringHasher().Finish(), HashString(""));
  Prng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::string whole;
    StringHasher streamed;
    for (uint64_t piece = rng.NextBelow(6); piece > 0; --piece) {
      std::string bytes(rng.NextBelow(12), '\0');
      for (char& c : bytes) {
        c = static_cast<char>(rng.NextBelow(256));
      }
      streamed.Add(bytes);
      whole += bytes;
    }
    EXPECT_EQ(streamed.Finish(), HashString(whole)) << round;
  }
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine({1, 2}), HashCombine({2, 1}));
  EXPECT_EQ(HashCombine({1, 2, 3}), HashCombine({1, 2, 3}));
}

}  // namespace
}  // namespace depsurf
