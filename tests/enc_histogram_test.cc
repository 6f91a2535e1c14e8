#include "fed/enc_histogram.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/synthetic.h"
#include "gbdt/loss.h"

namespace vf2boost {
namespace {

class EncHistogramTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    codec_ = FixedPointCodec(16, 6, 4);
    if (GetParam()) {
      Rng krng(31337);
      auto kp = PaillierKeyPair::Generate(512, &krng);
      ASSERT_TRUE(kp.ok());
      auto pb = std::make_unique<PaillierBackend>(kp->pub, codec_);
      pb->SetPrivateKey(kp->priv);
      backend_ = std::move(pb);
    } else {
      backend_ = std::make_unique<MockBackend>(codec_);
    }

    SyntheticSpec spec;
    spec.rows = GetParam() ? 60 : 400;
    spec.cols = 6;
    spec.density = 0.5;
    spec.seed = 404;
    data_ = GenerateSynthetic(spec);
    cuts_ = ComputeBinCuts(data_.features, 6);
    binned_ = BinnedMatrix::FromCsr(data_.features, cuts_);
    layout_ = FeatureLayout::FromCuts(cuts_);

    // Logistic-like gradient pairs.
    Rng vrng(5);
    grads_.resize(data_.rows());
    for (auto& gp : grads_) {
      gp.g = vrng.NextDouble() * 2 - 1;  // in [-1, 1]
      gp.h = vrng.NextDouble() * 0.25;
    }
    instances_.resize(data_.rows());
    std::iota(instances_.begin(), instances_.end(), 0);
  }

  SlotLayout MakeLayout(bool gh, bool packing, bool reordered = true) const {
    SlotLayoutParams params;
    params.gh = gh;
    params.packing = packing;
    params.reordered = reordered;
    params.max_count = data_.rows();
    auto layout = MakeSlotLayout(codec_, params,
                                 backend_->plain_modulus().BitLength());
    EXPECT_TRUE(layout.ok()) << layout.status().ToString();
    return layout.value();
  }

  /// Every instance's gradient ciphers under `slots`, as Party B sends them.
  std::vector<Cipher> EncryptAll(const SlotLayout& slots,
                                 uint64_t seed) const {
    Rng rng(seed);
    std::vector<Cipher> out(grads_.size() * slots.channels);
    for (size_t i = 0; i < grads_.size(); ++i) {
      slots.Encrypt(grads_[i], *backend_, &rng, &out[i * slots.channels]);
    }
    return out;
  }

  std::vector<PackedCipher> Pack(const SlotLayout& slots,
                                 EncryptedHistogram hist) const {
    auto packed =
        PackHistogram(std::move(hist), layout_, slots, *backend_, nullptr);
    EXPECT_TRUE(packed.ok()) << packed.status().ToString();
    return std::move(packed).value();
  }

  Histogram PlainReference() const {
    return Histogram::Build(binned_, layout_, instances_, grads_);
  }

  FixedPointCodec codec_{16, 6, 4};
  std::unique_ptr<CipherBackend> backend_;
  Dataset data_;
  BinCuts cuts_;
  BinnedMatrix binned_;
  FeatureLayout layout_;
  std::vector<GradPair> grads_;
  std::vector<uint32_t> instances_;
};

TEST_P(EncHistogramTest, MatchesPlaintextHistogram) {
  for (bool reordered : {false, true}) {
    const SlotLayout slots = MakeLayout(/*gh=*/false, /*packing=*/false,
                                        reordered);
    AccumulatorStats stats;
    EncryptedHistogram enc =
        BuildEncryptedHistogram(binned_, layout_, slots, instances_,
                                EncryptAll(slots, 6), *backend_, &stats);
    size_t decryptions = 0;
    auto hist = DecryptHistogram(Pack(slots, std::move(enc)), layout_, slots,
                                 *backend_, &decryptions);
    ASSERT_TRUE(hist.ok());
    EXPECT_EQ(decryptions, 2 * layout_.total_bins());
    Histogram ref = PlainReference();
    for (size_t i = 0; i < layout_.total_bins(); ++i) {
      EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4) << "bin " << i;
      EXPECT_NEAR(hist->bin(i).h, ref.bin(i).h, 1e-4) << "bin " << i;
    }
  }
}

TEST_P(EncHistogramTest, ReorderedCutsScalings) {
  const SlotLayout naive = MakeLayout(false, false, /*reordered=*/false);
  const SlotLayout reordered = MakeLayout(false, false, /*reordered=*/true);
  const std::vector<Cipher> ciphers = EncryptAll(naive, 6);
  AccumulatorStats naive_stats, reordered_stats;
  BuildEncryptedHistogram(binned_, layout_, naive, instances_, ciphers,
                          *backend_, &naive_stats);
  BuildEncryptedHistogram(binned_, layout_, reordered, instances_, ciphers,
                          *backend_, &reordered_stats);
  // Re-ordered: at most E-1 scalings per bin per statistic.
  const size_t e = static_cast<size_t>(codec_.num_exponents());
  EXPECT_LE(reordered_stats.scalings, 2 * layout_.total_bins() * (e - 1));
  EXPECT_LT(reordered_stats.scalings, naive_stats.scalings);
  EXPECT_EQ(reordered_stats.hadds, naive_stats.hadds);
}

TEST_P(EncHistogramTest, PackedRoundTripMatchesRaw) {
  const SlotLayout raw = MakeLayout(/*gh=*/false, /*packing=*/false);
  const SlotLayout packed = MakeLayout(/*gh=*/false, /*packing=*/true);
  ASSERT_TRUE(packed.packed());
  const std::vector<Cipher> ciphers = EncryptAll(raw, 6);
  const EncryptedHistogram enc = BuildEncryptedHistogram(
      binned_, layout_, raw, instances_, ciphers, *backend_, nullptr);

  AccumulatorStats pack_stats;
  auto packs = PackHistogram(enc, layout_, packed, *backend_, &pack_stats);
  ASSERT_TRUE(packs.ok()) << packs.status().ToString();
  EXPECT_EQ(pack_stats.packs, packs->size());
  size_t packed_decryptions = 0;
  auto packed_hist = DecryptHistogram(*packs, layout_, packed, *backend_,
                                      &packed_decryptions);
  ASSERT_TRUE(packed_hist.ok()) << packed_hist.status().ToString();

  size_t raw_decryptions = 0;
  auto raw_hist = DecryptHistogram(Pack(raw, enc), layout_, raw, *backend_,
                                   &raw_decryptions);
  ASSERT_TRUE(raw_hist.ok());

  // The whole point: far fewer decryptions.
  EXPECT_LT(packed_decryptions, raw_decryptions / 2);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(packed_hist->bin(i).g, raw_hist->bin(i).g, 1e-3) << i;
    EXPECT_NEAR(packed_hist->bin(i).h, raw_hist->bin(i).h, 1e-3) << i;
  }

  // Pack geometry comes off the wire. Anything but the layout's own must be
  // refused: an extra slot or a narrower width would otherwise decode to a
  // wrong histogram, and num_slots sizes the unpacking.
  auto expect_refused = [&](std::vector<PackedCipher> hostile) {
    auto hist =
        DecryptHistogram(hostile, layout_, packed, *backend_, nullptr);
    ASSERT_FALSE(hist.ok());
    EXPECT_EQ(hist.status().code(), StatusCode::kProtocolError);
  };
  std::vector<PackedCipher> hostile = *packs;
  hostile.front().num_slots += 1;
  expect_refused(hostile);
  hostile = *packs;
  hostile.front().slot_bits -= 3;
  expect_refused(hostile);
  hostile = *packs;
  hostile.front().num_slots = 1u << 30;
  expect_refused(hostile);
  hostile = *packs;
  hostile.pop_back();
  expect_refused(hostile);
  hostile = *packs;
  hostile.push_back(packs->back());
  expect_refused(hostile);
}

TEST_P(EncHistogramTest, SubsetOfInstances) {
  // Histogram over half the instances must match the plaintext restriction.
  std::vector<uint32_t> subset;
  for (size_t i = 0; i < instances_.size(); i += 2) subset.push_back(i);
  const SlotLayout slots = MakeLayout(false, false);
  EncryptedHistogram enc =
      BuildEncryptedHistogram(binned_, layout_, slots, subset,
                              EncryptAll(slots, 6), *backend_, nullptr);
  auto hist = DecryptHistogram(Pack(slots, std::move(enc)), layout_, slots,
                               *backend_, nullptr);
  ASSERT_TRUE(hist.ok());
  Histogram ref = Histogram::Build(binned_, layout_, subset, grads_);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4);
  }
}

TEST_P(EncHistogramTest, GhModeMatchesClassicAndPlaintext) {
  // gh mode: one [count|g|h] cipher per instance, one accumulator per bin.
  const SlotLayout gh = MakeLayout(/*gh=*/true, /*packing=*/false);
  const SlotLayout classic = MakeLayout(/*gh=*/false, /*packing=*/false);
  EXPECT_EQ(gh.channels, 1u);
  EXPECT_FALSE(gh.reordered);  // one shared exponent: nothing to re-order
  const std::vector<Cipher> gh_ciphers = EncryptAll(gh, 60);

  AccumulatorStats gh_stats, classic_stats;
  EncryptedHistogram enc = BuildEncryptedHistogram(
      binned_, layout_, gh, instances_, gh_ciphers, *backend_, &gh_stats);
  BuildEncryptedHistogram(binned_, layout_, classic, instances_,
                          EncryptAll(classic, 6), *backend_, &classic_stats);
  // The tentpole accounting claim: half the homomorphic additions.
  EXPECT_EQ(2 * gh_stats.hadds, classic_stats.hadds);
  EXPECT_EQ(gh_stats.scalings, 0u);

  size_t raw_decryptions = 0;
  auto hist = DecryptHistogram(Pack(gh, enc), layout_, gh, *backend_,
                               &raw_decryptions);
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  EXPECT_EQ(raw_decryptions, layout_.total_bins());
  Histogram ref = PlainReference();
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(hist->bin(i).g, ref.bin(i).g, 1e-4) << "bin " << i;
    EXPECT_NEAR(hist->bin(i).h, ref.bin(i).h, 1e-4) << "bin " << i;
  }

  // Parallel build must accumulate to the same decrypted histogram.
  ThreadPool pool(3);
  EncryptedHistogram par = BuildEncryptedHistogram(
      binned_, layout_, gh, instances_, gh_ciphers, *backend_, nullptr,
      &pool);
  auto par_hist = DecryptHistogram(Pack(gh, std::move(par)), layout_, gh,
                                   *backend_, nullptr);
  ASSERT_TRUE(par_hist.ok());
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(par_hist->bin(i).g, hist->bin(i).g, 1e-9) << "bin " << i;
    EXPECT_NEAR(par_hist->bin(i).h, hist->bin(i).h, 1e-9) << "bin " << i;
  }

  // §5.2 composition: packed prefix sums round-trip to the same bins with
  // fewer decryptions than the raw gh form.
  const SlotLayout gh_packed = MakeLayout(/*gh=*/true, /*packing=*/true);
  ASSERT_TRUE(gh_packed.packed());
  EXPECT_EQ(gh_packed.slot_bits, gh.gh_bits());
  const std::vector<PackedCipher> packs = Pack(gh_packed, enc);
  size_t packed_decryptions = 0;
  auto packed_hist = DecryptHistogram(packs, layout_, gh_packed, *backend_,
                                      &packed_decryptions);
  ASSERT_TRUE(packed_hist.ok()) << packed_hist.status().ToString();
  EXPECT_LT(packed_decryptions, raw_decryptions);
  for (size_t i = 0; i < layout_.total_bins(); ++i) {
    EXPECT_NEAR(packed_hist->bin(i).g, hist->bin(i).g, 1e-3) << "bin " << i;
    EXPECT_NEAR(packed_hist->bin(i).h, hist->bin(i).h, 1e-3) << "bin " << i;
  }

  // The gh decoder refuses the same hostile geometry.
  std::vector<PackedCipher> hostile = packs;
  hostile.front().num_slots += 1;
  auto refused =
      DecryptHistogram(hostile, layout_, gh_packed, *backend_, nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kProtocolError);
}

INSTANTIATE_TEST_SUITE_P(MockAndPaillier, EncHistogramTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paillier" : "Mock";
                         });

TEST(SlotLayoutTest, TinyKeyStaysRaw) {
  // A 128-bit key cannot hold two ~60-bit slots: the layout keeps the raw
  // transfer form even though packing was asked for.
  FixedPointCodec codec(16, 8, 4);
  SlotLayoutParams params;
  params.packing = true;
  params.max_count = 1000000;
  auto layout = MakeSlotLayout(codec, params, /*plain_modulus_bits=*/128);
  ASSERT_TRUE(layout.ok());
  EXPECT_FALSE(layout->packed());
  EXPECT_EQ(layout->slot_bits, 0u);
  EXPECT_EQ(layout->shift[0], 0.0);
  // And min_pack_slots above the capacity keeps it raw on a large key too.
  params.max_count = 1000;
  ASSERT_TRUE(MakeSlotLayout(codec, params, 512)->packed());
  params.min_pack_slots = 1000;
  EXPECT_FALSE(MakeSlotLayout(codec, params, 512)->packed());
}

}  // namespace
}  // namespace vf2boost
