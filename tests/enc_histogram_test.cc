#include "fed/enc_histogram.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <thread>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/channel.h"
#include "fed/party_b.h"
#include "fed/placement.h"
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


// ---------------------------------------------------------------------------
// Sibling derivation: B derives the larger child's histogram as parent −
// smaller child in the integer slots, which must decode bit-identically to
// the histogram A would have built and sent for it.

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(v));
  return out;
}

class SiblingDerivationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticSpec spec;
    spec.rows = 160;
    spec.cols = 6;
    spec.density = 0.5;
    spec.seed = 405;
    data_ = new Dataset(GenerateSynthetic(spec));
    cuts_ = new BinCuts(ComputeBinCuts(data_->features, 6));
    binned_ = new BinnedMatrix(BinnedMatrix::FromCsr(data_->features, *cuts_));
    layout_ = new FeatureLayout(FeatureLayout::FromCuts(*cuts_));
    Rng krng(2718);
    auto kp = PaillierKeyPair::Generate(256, &krng);
    ASSERT_TRUE(kp.ok());
    key_ = new PaillierKeyPair(std::move(kp).value());
  }
  static void TearDownTestSuite() {
    delete key_;
    delete layout_;
    delete binned_;
    delete cuts_;
    delete data_;
  }

  static std::unique_ptr<CipherBackend> MakeBackend(bool paillier,
                                                    const FixedPointCodec& c) {
    if (!paillier) return std::make_unique<MockBackend>(c);
    auto pb = std::make_unique<PaillierBackend>(key_->pub, c);
    pb->SetPrivateKey(key_->priv);
    return pb;
  }

  /// Parent and child instance sets of the splits the derivation must
  /// survive: a real feature/bin split (bins of that feature empty in one
  /// child only), random ones, and ones with an empty child.
  static std::vector<std::vector<uint32_t>> Parents(Rng* rng) {
    std::vector<uint32_t> all(data_->rows());
    std::iota(all.begin(), all.end(), 0);
    std::vector<uint32_t> half;
    for (uint32_t i : all) {
      if (rng->NextBounded(2) == 0) half.push_back(i);
    }
    return {all, half};
  }
  static std::vector<Bitmap> Splits(const std::vector<uint32_t>& parent,
                                    Rng* rng) {
    std::vector<Bitmap> out;
    out.push_back(ComputePlacement(*binned_, parent, 1, 2, true));
    out.push_back(ComputePlacement(*binned_, parent, 4, 0, false));
    for (uint64_t share : {2, 7}) {
      Bitmap random(parent.size());
      for (size_t k = 0; k < parent.size(); ++k) {
        if (rng->NextBounded(share) == 0) random.Set(k);
      }
      out.push_back(std::move(random));
    }
    out.push_back(Bitmap(parent.size()));  // every instance goes right
    Bitmap all_left(parent.size());
    for (size_t k = 0; k < parent.size(); ++k) all_left.Set(k);
    out.push_back(std::move(all_left));
    return out;
  }

  static Dataset* data_;
  static BinCuts* cuts_;
  static BinnedMatrix* binned_;
  static FeatureLayout* layout_;
  static PaillierKeyPair* key_;
};

Dataset* SiblingDerivationTest::data_ = nullptr;
BinCuts* SiblingDerivationTest::cuts_ = nullptr;
BinnedMatrix* SiblingDerivationTest::binned_ = nullptr;
FeatureLayout* SiblingDerivationTest::layout_ = nullptr;
PaillierKeyPair* SiblingDerivationTest::key_ = nullptr;

TEST_F(SiblingDerivationTest, DerivedEqualsDirectBitForBit) {
  Rng grng(77);
  std::vector<GradPair> unit(data_->rows());
  for (GradPair& gp : unit) {
    gp.g = grng.NextDouble() * 2 - 1;
    gp.h = grng.NextDouble() * 0.25;
  }
  // Signed layouts also run with gradients near 2^27, mostly positive so
  // bin sums pass 2^64 and decode through multi-limb conversions before and
  // after alignment (gh ones would no longer pack two per 256-bit
  // plaintext).
  const double kWide = 1 << 27;
  std::vector<GradPair> wide = unit;
  for (GradPair& gp : wide) {
    gp.g = (gp.g * 0.625 + 0.375) * kWide;
    gp.h *= kWide;
  }
  ThreadPool two(2);
  size_t compared = 0;
  for (bool paillier : {false, true}) {
    for (int num_exponents : {1, 4}) {
      const FixedPointCodec codec(16, 6, num_exponents);
      const auto backend = MakeBackend(paillier, codec);
      const BigInt& n = backend->plain_modulus();
      for (bool gh : {false, true}) {
        for (bool packing : {false, true}) {
          for (bool reordered : {false, true}) {
            const std::vector<GradPair>& grads = gh ? unit : wide;
            SlotLayoutParams params;
            params.gh = gh;
            params.packing = packing;
            params.reordered = reordered;
            params.max_count = data_->rows();
            params.grad_bound = params.hess_bound = gh ? 1 : kWide;
            auto made = MakeSlotLayout(codec, params, n.BitLength());
            ASSERT_TRUE(made.ok()) << made.status().ToString();
            const SlotLayout slots = *made;
            ASSERT_EQ(slots.packed(), packing);
            Rng rng(91);
            std::vector<Cipher> ciphers(grads.size() * slots.channels);
            for (size_t i = 0; i < grads.size(); ++i) {
              slots.Encrypt(grads[i], *backend, &rng,
                            &ciphers[i * slots.channels]);
            }
            for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two}) {
              auto decrypt = [&](const std::vector<uint32_t>& rows) {
                auto packed = PackHistogram(
                    BuildEncryptedHistogram(*binned_, *layout_, slots, rows,
                                            ciphers, *backend, nullptr, pool),
                    *layout_, slots, *backend, nullptr, pool);
                EXPECT_TRUE(packed.ok()) << packed.status().ToString();
                auto out = DecryptHistogramSlots(*packed, *layout_, slots,
                                                 *backend, nullptr, pool);
                EXPECT_TRUE(out.ok()) << out.status().ToString();
                return std::move(out).value();
              };
              const std::string where =
                  std::string(paillier ? "paillier" : "mock") + " E=" +
                  std::to_string(num_exponents) + (gh ? " gh" : " signed") +
                  (packing ? " packed" : " raw") +
                  (reordered ? " reordered" : " naive") +
                  (pool ? " pool" : " serial");
              for (const auto& parent : Parents(&rng)) {
                const HistogramSlots parent_slots = decrypt(parent);
                for (const Bitmap& split : Splits(parent, &rng)) {
                  std::vector<uint32_t> left, right;
                  ApplyPlacement(parent, split, &left, &right);
                  const bool left_smaller =
                      SmallerChildIsLeft(left.size(), right.size());
                  const auto& small = left_smaller ? left : right;
                  const auto& big = left_smaller ? right : left;
                  auto derived_slots = DeriveSiblingSlots(
                      parent_slots, decrypt(small), slots, n);
                  ASSERT_TRUE(derived_slots.ok())
                      << where << ": " << derived_slots.status().ToString();
                  auto derived =
                      DecodeHistogram(*derived_slots, *layout_, slots, n);
                  ASSERT_TRUE(derived.ok()) << where;
                  auto direct = DecodeHistogram(decrypt(big), *layout_,
                                                slots, n);
                  ASSERT_TRUE(direct.ok()) << where;
                  for (size_t b = 0; b < layout_->total_bins(); ++b) {
                    ASSERT_EQ(Bits(derived->bin(b).g), Bits(direct->bin(b).g))
                        << where << " bin " << b << ": "
                        << derived->bin(b).g << " vs " << direct->bin(b).g;
                    ASSERT_EQ(Bits(derived->bin(b).h), Bits(direct->bin(b).h))
                        << where << " bin " << b;
                  }
                  ++compared;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 2 * 2 * 2 * 2 * 2 * 2 * 6);
}

TEST_F(SiblingDerivationTest, SmallerChildAboveItsParentIsRefused) {
  // A hostile A can claim any "smaller child". When its slots exceed the
  // parent's, gh and signed-packed derivation would borrow across slot
  // fields; that must be a ProtocolError, never an OK wrong histogram.
  Rng grng(78);
  std::vector<GradPair> grads(data_->rows());
  for (GradPair& gp : grads) {
    gp.g = grng.NextDouble() * 2 - 1;
    gp.h = grng.NextDouble() * 0.25;
  }
  std::vector<uint32_t> all(data_->rows());
  std::iota(all.begin(), all.end(), 0);
  const std::vector<uint32_t> part(all.begin(), all.begin() + 40);
  for (bool paillier : {false, true}) {
    const FixedPointCodec codec(16, 6, 4);
    const auto backend = MakeBackend(paillier, codec);
    const BigInt& n = backend->plain_modulus();
    for (auto [gh, packing] : {std::pair{true, false}, std::pair{true, true},
                               std::pair{false, true}}) {
      SlotLayoutParams params;
      params.gh = gh;
      params.packing = packing;
      params.max_count = data_->rows();
      const SlotLayout slots =
          MakeSlotLayout(codec, params, n.BitLength()).value();
      Rng rng(92);
      std::vector<Cipher> ciphers(grads.size() * slots.channels);
      for (size_t i = 0; i < grads.size(); ++i) {
        slots.Encrypt(grads[i], *backend, &rng, &ciphers[i * slots.channels]);
      }
      auto decrypt = [&](const std::vector<uint32_t>& rows) {
        auto packed = PackHistogram(
            BuildEncryptedHistogram(*binned_, *layout_, slots, rows, ciphers,
                                    *backend, nullptr),
            *layout_, slots, *backend, nullptr);
        return DecryptHistogramSlots(*packed, *layout_, slots, *backend,
                                     nullptr)
            .value();
      };
      // The roles swapped: the "smaller child" holds every row, the
      // "parent" a few of them.
      auto refused = DeriveSiblingSlots(decrypt(part), decrypt(all), slots, n);
      ASSERT_FALSE(refused.ok()) << (gh ? "gh" : "signed") << packing;
      EXPECT_EQ(refused.status().code(), StatusCode::kProtocolError);
      // The honest direction still derives.
      EXPECT_TRUE(DeriveSiblingSlots(decrypt(all), decrypt(part), slots, n)
                      .ok());
    }
  }
}

TEST_F(SiblingDerivationTest, CipherExponentOutsideTheLayoutIsRefused) {
  // Derivation rescales by B^(exponent gap), so an exponent off the wire
  // must lie where A's accumulation can put it.
  const FixedPointCodec codec(16, 6, 4);
  MockBackend backend(codec);
  std::vector<uint32_t> all(data_->rows());
  std::iota(all.begin(), all.end(), 0);
  std::vector<GradPair> grads(data_->rows(), GradPair{0.5, 0.25});
  for (bool packing : {false, true}) {
    SlotLayoutParams params;
    params.packing = packing;
    params.max_count = data_->rows();
    const SlotLayout slots =
        MakeSlotLayout(codec, params, backend.plain_modulus().BitLength())
            .value();
    Rng rng(93);
    std::vector<Cipher> ciphers(grads.size() * slots.channels);
    for (size_t i = 0; i < grads.size(); ++i) {
      slots.Encrypt(grads[i], backend, &rng, &ciphers[i * slots.channels]);
    }
    const std::vector<PackedCipher> packed =
        PackHistogram(BuildEncryptedHistogram(*binned_, *layout_, slots, all,
                                              ciphers, backend, nullptr),
                      *layout_, slots, backend, nullptr)
            .value();
    ASSERT_TRUE(
        DecryptHistogramSlots(packed, *layout_, slots, backend, nullptr).ok());
    for (int32_t exponent : {codec.min_exponent() - 1,
                             codec.max_exponent() + 1, 1 << 30}) {
      std::vector<PackedCipher> hostile = packed;
      hostile.back().exponent = exponent;
      auto refused =
          DecryptHistogramSlots(hostile, *layout_, slots, backend, nullptr);
      ASSERT_FALSE(refused.ok()) << exponent;
      EXPECT_EQ(refused.status().code(), StatusCode::kProtocolError);
    }
  }
}

// A Party A that follows the sequential protocol on one tree but, when
// `send_larger`, answers every split with its LARGER child's histogram.
Status RunScriptedPartyA(const FedConfig& config, const Dataset& data,
                         MessagePort* port, bool send_larger) {
  MockBackend backend(config.MakeCodec());
  VF2_ASSIGN_OR_RETURN(Message key, port->Receive());
  if (key.type != MessageType::kPublicKey) {
    return Status::ProtocolError("expected the public key");
  }
  VF2_ASSIGN_OR_RETURN(
      const SlotLayout slots,
      config.MakeSlotLayout(data.rows(),
                            backend.plain_modulus().BitLength()));
  const BinCuts cuts = ComputeBinCuts(data.features, config.gbdt.max_bins);
  const BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  const FeatureLayout layout = FeatureLayout::FromCuts(cuts);
  LayoutPayload layout_msg;
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    layout_msg.bins_per_feature.push_back(layout.NumBins(f));
  }
  port->Send(EncodeLayout(layout_msg));

  std::vector<Cipher> grads(data.rows() * slots.channels);
  for (size_t received = 0; received < data.rows();) {
    VF2_ASSIGN_OR_RETURN(Message msg, port->Receive());
    GradBatchPayload batch;
    VF2_RETURN_IF_ERROR(DecodeGradBatch(msg, backend, &batch));
    std::move(batch.ciphers.begin(), batch.ciphers.end(),
              grads.begin() + batch.start * slots.channels);
    received += batch.ciphers.size() / slots.channels;
  }
  std::map<int32_t, std::vector<uint32_t>> instances;
  instances[0].resize(data.rows());
  std::iota(instances[0].begin(), instances[0].end(), 0);
  auto send_hist = [&](uint32_t layer, int32_t node) -> Status {
    NodeHistogramPayload payload;
    payload.layer = layer;
    payload.node = node;
    VF2_ASSIGN_OR_RETURN(
        payload.ciphers,
        PackHistogram(BuildEncryptedHistogram(binned, layout, slots,
                                              instances[node], grads,
                                              backend, nullptr),
                      layout, slots, backend, nullptr));
    port->Send(EncodeNodeHistogram(payload, slots, backend));
    return Status::OK();
  };
  VF2_RETURN_IF_ERROR(send_hist(0, 0));
  for (;;) {
    VF2_ASSIGN_OR_RETURN(Message msg, port->Receive());
    if (msg.type == MessageType::kTreeDone) continue;
    if (msg.type == MessageType::kTrainDone) return Status::OK();
    DecisionsPayload decisions;
    VF2_RETURN_IF_ERROR(DecodeDecisions(msg, &decisions));
    for (const NodeDecision& d : decisions.decisions) {
      if (msg.type == MessageType::kSplitQueries) {
        PlacementPayload reply;
        reply.tree = decisions.tree;
        reply.layer = decisions.layer;
        reply.node = d.node;
        reply.placement = ComputePlacement(binned, instances[d.node],
                                           d.feature, d.bin, d.default_left);
        port->Send(EncodePlacement(reply));
        continue;
      }
      if (d.action != NodeAction::kSplitResolved) continue;
      ApplyPlacement(instances[d.node], d.placement, &instances[d.left],
                     &instances[d.right]);
      if (decisions.layer + 2 >= config.gbdt.num_layers) continue;
      const bool left_smaller = SmallerChildIsLeft(
          instances[d.left].size(), instances[d.right].size());
      VF2_RETURN_IF_ERROR(send_hist(decisions.layer + 1,
                                    left_smaller != send_larger ? d.left
                                                                : d.right));
    }
  }
}

TEST(SiblingProtocolTest, PartyBRefusesTheLargerChild) {
  SyntheticSpec spec;
  spec.rows = 300;
  spec.cols = 8;
  spec.density = 0.6;
  spec.seed = 406;
  const Dataset all = GenerateSynthetic(spec);
  VerticalSplitSpec split;
  split.party_columns = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  const auto shards = PartitionVertically(all, split, 1);
  ASSERT_TRUE(shards.ok());
  FedConfig config;
  config.mock_crypto = true;
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 4;
  config.gbdt.max_bins = 8;
  config.network.default_deadline_seconds = 30;

  for (bool send_larger : {false, true}) {
    auto [a_end, b_end] = ChannelEndpoint::CreatePair(config.network);
    Status a_status;
    std::thread party_a([&, a = a_end.get()] {
      a_status = RunScriptedPartyA(config, (*shards)[0], a, send_larger);
      if (!a_status.ok()) a->Close(a_status);
    });
    PartyBEngine engine(config, shards->back(), {b_end.get()});
    Result<PartyBResult> result = engine.Run();
    party_a.join();
    if (!send_larger) {
      // The scripted A is a faithful one otherwise.
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(a_status.ok()) << a_status.ToString();
      EXPECT_GT(result->stats.derived_hists, 0u);
      continue;
    }
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kProtocolError)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("larger child"),
              std::string::npos)
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace vf2boost
