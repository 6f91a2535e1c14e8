// Intra-party worker parallelism: the scheduler-worker decomposition must
// change only the schedule, never the protocol semantics or model quality.

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/enc_histogram.h"
#include "fed/fed_trainer.h"
#include "metrics/metrics.h"

namespace vf2boost {
namespace {

TEST(ParallelHistogramTest, ShardMergeMatchesSerialBuild) {
  SyntheticSpec spec;
  spec.rows = 500;
  spec.cols = 8;
  spec.density = 0.5;
  spec.seed = 55;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 6);
  BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  FeatureLayout layout = FeatureLayout::FromCuts(cuts);

  MockBackend backend(FixedPointCodec(16, 6, 4));
  SlotLayoutParams params;
  params.reordered = true;
  params.max_count = data.rows();
  auto slots = MakeSlotLayout(backend.codec(), params,
                              backend.plain_modulus().BitLength());
  ASSERT_TRUE(slots.ok());
  Rng rng(5);
  std::vector<Cipher> ciphers;  // g, h per row
  for (size_t i = 0; i < data.rows(); ++i) {
    ciphers.push_back(backend.Encrypt(rng.NextGaussian(), &rng));
    ciphers.push_back(backend.Encrypt(0.25, &rng));
  }
  std::vector<uint32_t> all(data.rows());
  std::iota(all.begin(), all.end(), 0);

  EncryptedHistogram serial = BuildEncryptedHistogram(
      binned, layout, *slots, all, ciphers, backend, nullptr);

  ThreadPool pool(4);
  EncryptedHistogram parallel = BuildEncryptedHistogram(
      binned, layout, *slots, all, ciphers, backend, nullptr, &pool);

  ASSERT_EQ(serial.size(), 2 * layout.total_bins());
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(backend.Decrypt(parallel[i]), backend.Decrypt(serial[i]),
                1e-6)
        << "cipher " << i;
  }
}

TEST(ParallelHistogramTest, NullPoolFallsBackToSerial) {
  SyntheticSpec spec;
  spec.rows = 50;
  spec.cols = 4;
  spec.density = 1.0;
  spec.seed = 57;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 4);
  BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  FeatureLayout layout = FeatureLayout::FromCuts(cuts);
  MockBackend backend;
  SlotLayout slots;  // signed raw: g, h per row
  Rng rng(1);
  std::vector<Cipher> ciphers;
  for (size_t i = 0; i < 2 * data.rows(); ++i) {
    ciphers.push_back(backend.Encrypt(1.0, &rng));
  }
  std::vector<uint32_t> all(data.rows());
  std::iota(all.begin(), all.end(), 0);
  EncryptedHistogram hist = BuildEncryptedHistogram(
      binned, layout, slots, all, ciphers, backend, nullptr, /*pool=*/nullptr);
  EXPECT_EQ(hist.size(), 2 * layout.total_bins());
}

// One node's encrypted histogram and its derived packed layout: what
// PackHistogram gets on Party A.
struct PackFixture {
  std::unique_ptr<CipherBackend> backend;
  FeatureLayout layout;
  SlotLayout slots;
  EncryptedHistogram hist;
};

PackFixture MakePackFixture(bool paillier, bool gh) {
  PackFixture p;
  const FixedPointCodec codec(16, 6, 4);
  if (paillier) {
    Rng krng(2718);
    auto kp = PaillierKeyPair::Generate(256, &krng);
    EXPECT_TRUE(kp.ok());
    p.backend = std::make_unique<PaillierBackend>(kp->pub, codec);
  } else {
    p.backend = std::make_unique<MockBackend>(codec);
  }
  SyntheticSpec spec;
  spec.rows = 200;
  spec.cols = 8;
  spec.density = 0.6;
  spec.seed = 58;
  Dataset data = GenerateSynthetic(spec);
  BinCuts cuts = ComputeBinCuts(data.features, 5);
  BinnedMatrix binned = BinnedMatrix::FromCsr(data.features, cuts);
  p.layout = FeatureLayout::FromCuts(cuts);

  SlotLayoutParams params;
  params.gh = gh;
  params.packing = true;
  params.reordered = true;
  params.max_count = data.rows();
  auto slots = MakeSlotLayout(codec, params,
                              p.backend->plain_modulus().BitLength());
  EXPECT_TRUE(slots.ok()) << slots.status().ToString();
  p.slots = slots.value();
  Rng rng(59);
  std::vector<Cipher> ciphers(data.rows() * p.slots.channels);
  for (size_t i = 0; i < data.rows(); ++i) {
    const GradPair grad{rng.NextDouble() * 2 - 1, rng.NextDouble() * 0.25};
    p.slots.Encrypt(grad, *p.backend, &rng, &ciphers[i * p.slots.channels]);
  }
  std::vector<uint32_t> all(data.rows());
  std::iota(all.begin(), all.end(), 0);
  p.hist = BuildEncryptedHistogram(binned, p.layout, p.slots, all, ciphers,
                                   *p.backend, nullptr);
  return p;
}

// Serial and pooled packs of one histogram: every PackedCipher and the
// stats must be equal.
void ExpectPoolPackMatchesSerial(bool paillier, bool gh) {
  const PackFixture p = MakePackFixture(paillier, gh);
  ASSERT_TRUE(p.slots.packed());
  AccumulatorStats serial_stats;
  auto serial = PackHistogram(p.hist, p.layout, p.slots, *p.backend,
                              &serial_stats, /*pool=*/nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // Three workers must not divide the groups evenly.
  ASSERT_NE(serial->size() % 3, 0u);
  for (size_t workers : {2u, 3u}) {
    ThreadPool pool(workers);
    AccumulatorStats stats;
    auto parallel =
        PackHistogram(p.hist, p.layout, p.slots, *p.backend, &stats, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      const PackedCipher& want = (*serial)[i];
      const PackedCipher& got = (*parallel)[i];
      EXPECT_EQ(got.data, want.data) << "cipher " << i;
      EXPECT_EQ(got.exponent, want.exponent) << "cipher " << i;
      EXPECT_EQ(got.slot_bits, want.slot_bits) << "cipher " << i;
      EXPECT_EQ(got.num_slots, want.num_slots) << "cipher " << i;
    }
    EXPECT_EQ(stats.hadds, serial_stats.hadds);
    EXPECT_EQ(stats.scalings, serial_stats.scalings);
    EXPECT_EQ(stats.packs, serial_stats.packs);
    EXPECT_EQ(stats.packs, serial->size());
  }
}

// A slot width that fits one slot per cipher, with a capacity that leaves
// each channel one full group and a two-slot tail: every group fails, the
// full groups (first in group order) with a different message than the
// tails. Every schedule must report the first group's.
void ExpectPoolPackFailsAtTheFirstGroup(bool paillier, bool gh) {
  const PackFixture p = MakePackFixture(paillier, gh);
  const size_t total = p.layout.total_bins();
  ASSERT_GT(total, 4u);
  SlotLayout bad = p.slots;
  bad.slot_bits =
      static_cast<uint32_t>(p.backend->plain_modulus().BitLength() / 2);
  bad.capacity = static_cast<uint32_t>(total - 2);
  const std::string first =
      "packing " + std::to_string(total - 2) + " slots exceeds capacity 1";
  auto serial = PackHistogram(p.hist, p.layout, bad, *p.backend, nullptr);
  ASSERT_FALSE(serial.ok());
  EXPECT_EQ(serial.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(serial.status().message().find(first), std::string::npos)
      << serial.status().ToString();
  for (size_t workers : {2u, 3u}) {
    ThreadPool pool(workers);
    for (int rep = 0; rep < 5; ++rep) {
      auto parallel =
          PackHistogram(p.hist, p.layout, bad, *p.backend, nullptr, &pool);
      ASSERT_FALSE(parallel.ok());
      EXPECT_EQ(parallel.status().ToString(), serial.status().ToString());
    }
  }
}

// Gh-packed and signed-packed layouts, on the mock backend and on a 256-bit
// Paillier key.
TEST(ParallelHistogramTest, PoolPackIsByteIdenticalToSerial) {
  for (bool paillier : {false, true}) {
    for (bool gh : {false, true}) {
      SCOPED_TRACE(std::string(paillier ? "paillier" : "mock") +
                   (gh ? " gh" : " signed"));
      ExpectPoolPackMatchesSerial(paillier, gh);
      ExpectPoolPackFailsAtTheFirstGroup(paillier, gh);
    }
  }
}

struct WorkerFixture {
  Dataset train;
  Dataset valid;
  VerticalSplitSpec spec;
  std::vector<Dataset> shards;
};

WorkerFixture MakeFixture(uint64_t seed) {
  SyntheticSpec sspec;
  sspec.rows = 1200;
  sspec.cols = 14;
  sspec.density = 0.5;
  sspec.seed = seed;
  Dataset all = GenerateSynthetic(sspec);
  WorkerFixture f;
  Rng rng(seed + 1);
  TrainValidSplit(all, 0.8, &rng, &f.train, &f.valid);
  f.spec = SplitColumnsRandomly(14, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(f.train, f.spec, 1);
  EXPECT_TRUE(shards.ok());
  f.shards = std::move(shards).value();
  return f;
}

TEST(FedWorkersTest, MultiWorkerTrainingMatchesSingleWorkerQuality) {
  WorkerFixture f = MakeFixture(61);
  FedConfig base;
  base.mock_crypto = true;
  base.gbdt.num_trees = 6;
  base.gbdt.num_layers = 4;
  base.gbdt.max_bins = 8;

  FedConfig multi = base;
  multi.workers_per_party = 3;

  auto r1 = FedTrainer(base).Train(f.shards);
  auto r3 = FedTrainer(multi).Train(f.shards);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();

  const double auc1 = Auc(
      r1->ToJointModel(f.spec)->PredictRaw(f.valid.features), f.valid.labels);
  const double auc3 = Auc(
      r3->ToJointModel(f.spec)->PredictRaw(f.valid.features), f.valid.labels);
  EXPECT_NEAR(auc1, auc3, 0.03);
  EXPECT_GT(auc3, 0.65);
}

TEST(FedWorkersTest, MultiWorkerWithAllOptimizationsAndRealCrypto) {
  WorkerFixture f = MakeFixture(63);
  FedConfig config = FedConfig::Vf2Boost();
  config.paillier_bits = 256;
  config.workers_per_party = 2;
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 3;
  config.gbdt.max_bins = 6;
  auto result = FedTrainer(config).Train(f.shards);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model.trees.size(), 2u);
  EXPECT_GT(result->stats.encryptions, 0u);
}

}  // namespace
}  // namespace vf2boost
