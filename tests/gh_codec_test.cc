#include "crypto/encoding.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"

namespace vf2boost {
namespace {

// gh layout of the slot codec for accumulating up to `max_count` pairs with
// |g|,|h| <= bound.
Result<SlotLayout> GhLayout(uint64_t max_count, double bound,
                            size_t plain_bits) {
  SlotLayoutParams params;
  params.gh = true;
  params.max_count = max_count;
  params.grad_bound = bound;
  params.hess_bound = bound;
  return MakeSlotLayout(FixedPointCodec(16, 8, 1), params, plain_bits);
}

// Layout shared by most tests: up to 1000 rows, logistic-like bounds, a
// 512-bit plaintext space (the mock surrogate / a small real key).
SlotLayout TestLayout(uint64_t max_count = 1000, double bound = 1.0,
                      size_t plain_bits = 512) {
  auto layout = GhLayout(max_count, bound, plain_bits);
  EXPECT_TRUE(layout.ok()) << layout.status().ToString();
  return layout.value();
}

TEST(GhCodec, SinglePairRoundTrip) {
  const SlotLayout layout = TestLayout();
  const struct {
    double g, h;
  } cases[] = {
      {0.0, 0.0},        {-1.0, 0.25},   {1.0, 0.0},
      {-0.73125, 1e-9},  {0.5, 1e-300},  {-1e-9, 0.999},
      {1.0, 1.0},        {-1.0, 1.0},    {0.0625, 0.0625},
  };
  for (const auto& c : cases) {
    const BigInt plain = layout.EncodeGh(c.g, c.h);
    auto slots = layout.DecodeGh(plain);
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    EXPECT_EQ(slots->count, 1u);
    EXPECT_NEAR(slots->g, c.g, 1e-6) << c.g;
    EXPECT_NEAR(slots->h, c.h, 1e-6) << c.h;
  }
}

TEST(GhCodec, NegativeGradientsNeverBorrowAcrossSlots) {
  // The critical property: plaintext *sums* of offset-encoded pairs decode
  // to value sums, even when every gradient is at the negative bound.
  const SlotLayout layout = TestLayout(100);
  BigInt acc;
  double want_g = 0, want_h = 0;
  for (int i = 0; i < 100; ++i) {
    const double g = -1.0;  // worst case: every slot at the negative bound
    const double h = (i % 2 == 0) ? 0.0 : 0.25;
    acc += layout.EncodeGh(g, h);
    want_g += g;
    want_h += h;
  }
  auto slots = layout.DecodeGh(acc);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  EXPECT_EQ(slots->count, 100u);
  EXPECT_NEAR(slots->g, want_g, 1e-6);
  EXPECT_NEAR(slots->h, want_h, 1e-6);
}

TEST(GhCodec, AccumulationIsExactAtDeterministicExponent) {
  // Base-16 exponent-8 encodings of dyadic values are integers; with a
  // single exponent the decoded sum must be bit-exact, not just close.
  const SlotLayout layout = TestLayout(256);
  Rng rng(7);
  BigInt acc;
  double want_g = 0, want_h = 0;
  for (int i = 0; i < 256; ++i) {
    // Dyadic rationals with <= 8 fractional bits: exact in base 16^8.
    const double g =
        (static_cast<double>(rng.NextBounded(513)) - 256.0) / 256.0;
    const double h = static_cast<double>(rng.NextBounded(257)) / 256.0;
    acc += layout.EncodeGh(g, h);
    want_g += g;
    want_h += h;
  }
  auto slots = layout.DecodeGh(acc);
  ASSERT_TRUE(slots.ok());
  EXPECT_EQ(slots->count, 256u);
  EXPECT_EQ(slots->g * 256.0, want_g * 256.0);
  EXPECT_EQ(slots->h * 256.0, want_h * 256.0);
}

TEST(GhCodec, WorstCaseAccumulationFitsTheSizedWidths) {
  // max_count pairs, all at +bound: the count and value slots must hold the
  // sums without spilling into the neighbor slot.
  const uint64_t kMax = 4096;
  const SlotLayout layout = TestLayout(kMax);
  BigInt acc;
  const BigInt one = layout.EncodeGh(1.0, 1.0);
  for (uint64_t i = 0; i < kMax; ++i) acc += one;
  ASSERT_LE(acc.BitLength(), layout.gh_bits());
  auto slots = layout.DecodeGh(acc);
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  EXPECT_EQ(slots->count, kMax);
  EXPECT_NEAR(slots->g, static_cast<double>(kMax), 1e-3);
  EXPECT_NEAR(slots->h, static_cast<double>(kMax), 1e-3);
}

TEST(GhCodec, OversizedLayoutIsACaughtConfigError) {
  // A 128-bit plaintext cannot hold two ~75-bit slots plus count at depth
  // bounds this large; MakeSlotLayout must refuse, not overflow silently.
  auto layout = GhLayout(/*max_count=*/1u << 30, /*bound=*/1.0,
                         /*plain_bits=*/128);
  ASSERT_FALSE(layout.ok());
  EXPECT_EQ(layout.status().code(), StatusCode::kInvalidArgument);
}

TEST(GhCodec, RejectsDegenerateInputs) {
  EXPECT_FALSE(GhLayout(0, 1.0, 512).ok());
  EXPECT_FALSE(GhLayout(10, 0.0, 512).ok());
  EXPECT_FALSE(GhLayout(10, -1.0, 512).ok());
  EXPECT_FALSE(GhLayout(10, std::nan(""), 512).ok());
  // bound * B^e overflowing the u64 offset range.
  EXPECT_FALSE(GhLayout(10, 1e30, 4096).ok());
}

TEST(GhCodec, DecodeRejectsStrayHighBits) {
  const SlotLayout layout = TestLayout();
  const BigInt plain = layout.EncodeGh(0.5, 0.5);
  const BigInt tampered = plain + (BigInt(1) << layout.gh_bits());
  auto slots = layout.DecodeGh(tampered);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kCorruption);
}

TEST(GhCodec, DecodeRejectsCountAboveBound) {
  const SlotLayout layout = TestLayout(/*max_count=*/4);
  BigInt acc;
  const BigInt one = layout.EncodeGh(0.0, 0.0);
  for (int i = 0; i < 5; ++i) acc += one;  // one more than the bound
  auto slots = layout.DecodeGh(acc);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kCorruption);
}

TEST(GhCodec, DecodeRejectsValueSlotOutsideOffsetWindow) {
  const SlotLayout layout = TestLayout();
  // count = 1, but the h slot claims 3*offset: impossible for one pair.
  const BigInt plain = (BigInt(1) << (2 * layout.value_bits)) +
                       (BigInt(layout.offset) << layout.value_bits) +
                       BigInt(3) * BigInt(layout.offset);
  auto slots = layout.DecodeGh(plain);
  ASSERT_FALSE(slots.ok());
  EXPECT_EQ(slots.status().code(), StatusCode::kCorruption);
}

TEST(GhCodecFuzz, RandomPlaintextsNeverCrashAndNeverDecodeOutOfRange) {
  // Hostile-decoder fuzz: DecodeGh over random bit patterns must either
  // fail cleanly or produce values inside the layout's advertised ranges.
  const SlotLayout layout = TestLayout();
  Rng rng(0xf22);
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t bits = 1 + rng.NextBounded(layout.gh_bits() + 64);
    const BigInt plain = BigInt::Random(bits, &rng);
    auto slots = layout.DecodeGh(plain);
    if (!slots.ok()) {
      EXPECT_EQ(slots.status().code(), StatusCode::kCorruption);
      continue;
    }
    EXPECT_LE(slots->count, layout.max_count);
    const double cap =
        static_cast<double>(slots->count) * layout.value_bound + 1.0;
    EXPECT_LE(std::fabs(slots->g), cap);
    EXPECT_LE(std::fabs(slots->h), cap);
  }
}

TEST(GhCodecFuzz, MutatedValidAccumulationsFailCleanlyOrStayBounded) {
  // Start from real accumulations and flip random bits: the decoder must
  // never abort, and whatever decodes must stay inside the count window.
  const SlotLayout layout = TestLayout(64);
  Rng rng(0xabcdef);
  for (int iter = 0; iter < 5000; ++iter) {
    BigInt acc;
    const uint64_t k = 1 + rng.NextBounded(64);
    for (uint64_t i = 0; i < k; ++i) {
      const double g =
          (static_cast<double>(rng.NextBounded(2001)) - 1000.0) / 1000.0;
      const double h = static_cast<double>(rng.NextBounded(1001)) / 1000.0;
      acc += layout.EncodeGh(g, h);
    }
    // Flip up to 3 bits anywhere in (and one past) the layout width.
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      const size_t bit = rng.NextBounded(layout.gh_bits() + 1);
      const BigInt mask = BigInt(1) << bit;
      if (acc.TestBit(bit)) {
        acc -= mask;
      } else {
        acc += mask;
      }
    }
    auto slots = layout.DecodeGh(acc);
    if (!slots.ok()) {
      EXPECT_EQ(slots.status().code(), StatusCode::kCorruption);
      continue;
    }
    EXPECT_LE(slots->count, layout.max_count);
  }
}

}  // namespace
}  // namespace vf2boost
