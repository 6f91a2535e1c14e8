// Wire-format round-trip tests for every cross-party payload, plus
// FedConfig validation.

#include "fed/protocol.h"

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fed/channel.h"
#include "fed/fed_trainer.h"
#include "fed/party_a.h"
#include "fed/party_b.h"
#include "fed/placement.h"

namespace vf2boost {
namespace {

class PayloadRoundTripTest : public ::testing::Test {
 protected:
  MockBackend backend_;
  Rng rng_{9};
};

TEST_F(PayloadRoundTripTest, GradBatch) {
  GradBatchPayload payload;
  payload.tree = 7;
  payload.start = 4096;
  for (int i = 0; i < 10; ++i) {
    payload.ciphers.push_back(backend_.Encrypt(0.1 * i - 0.5, &rng_));
    payload.ciphers.push_back(backend_.Encrypt(0.02 * i, &rng_));
  }
  Message msg = EncodeGradBatch(payload, backend_);
  EXPECT_EQ(msg.type, MessageType::kGradBatch);

  GradBatchPayload out;
  ASSERT_TRUE(DecodeGradBatch(msg, backend_, &out).ok());
  EXPECT_EQ(out.tree, 7u);
  EXPECT_EQ(out.start, 4096u);
  ASSERT_EQ(out.ciphers.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(out.ciphers[i].data, payload.ciphers[i].data);
    EXPECT_EQ(out.ciphers[i].exponent, payload.ciphers[i].exponent);
  }
}

TEST_F(PayloadRoundTripTest, GradBatchRejectsCiphersOutsideTheModulus) {
  const BigInt& n = backend_.cipher_modulus();
  for (const BigInt& hostile : {n, n + BigInt(1), n << 64}) {
    GradBatchPayload payload;
    payload.ciphers.push_back(backend_.Encrypt(0.25, &rng_));
    payload.ciphers.push_back({hostile, 0});
    GradBatchPayload out;
    const Status st =
        DecodeGradBatch(EncodeGradBatch(payload, backend_), backend_, &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST_F(PayloadRoundTripTest, NodeHistogramRaw) {
  const SlotLayout raw;  // signed, unpacked
  NodeHistogramPayload payload;
  payload.tree = 1;
  payload.layer = 3;
  payload.node = 12;
  for (int i = 0; i < 6; ++i) {
    const Cipher c = backend_.Encrypt(i * 1.0, &rng_);
    payload.ciphers.push_back({c.data, c.exponent, 0, 1});
  }
  Message msg = EncodeNodeHistogram(payload, raw, backend_);
  NodeHistogramPayload out;
  ASSERT_TRUE(DecodeNodeHistogram(msg, raw, backend_, &out).ok());
  EXPECT_EQ(out.tree, 1u);
  EXPECT_EQ(out.layer, 3u);
  EXPECT_EQ(out.node, 12);
  ASSERT_EQ(out.ciphers.size(), 6u);
  EXPECT_EQ(out.ciphers[3].num_slots, 1u);
  EXPECT_NEAR(
      backend_.Decrypt({out.ciphers[3].data, out.ciphers[3].exponent}), 3.0,
      1e-6);
}

TEST_F(PayloadRoundTripTest, NodeHistogramPacked) {
  SlotLayout packed;
  packed.slot_bits = 40;
  packed.capacity = 3;
  NodeHistogramPayload payload;
  payload.tree = 2;
  payload.layer = 1;
  payload.node = 5;
  PackedCipher pc;
  pc.data = BigInt(123456789);
  pc.exponent = 9;
  pc.slot_bits = 40;
  pc.num_slots = 3;
  payload.ciphers.assign(3, pc);

  Message msg = EncodeNodeHistogram(payload, packed, backend_);
  NodeHistogramPayload out;
  ASSERT_TRUE(DecodeNodeHistogram(msg, packed, backend_, &out).ok());
  ASSERT_EQ(out.ciphers.size(), 3u);
  EXPECT_EQ(out.ciphers[0].data, BigInt(123456789));
  EXPECT_EQ(out.ciphers[0].exponent, 9);
  EXPECT_EQ(out.ciphers[0].slot_bits, 40u);
  EXPECT_EQ(out.ciphers[0].num_slots, 3u);

  // A truncated frame fails cleanly under either layout.
  msg.payload.resize(msg.payload.size() - 5);
  EXPECT_FALSE(DecodeNodeHistogram(msg, packed, backend_, &out).ok());
  EXPECT_FALSE(DecodeNodeHistogram(msg, SlotLayout{}, backend_, &out).ok());
}

TEST_F(PayloadRoundTripTest, DecisionsAllActionKinds) {
  DecisionsPayload payload;
  payload.tree = 4;
  payload.layer = 2;
  NodeDecision leaf;
  leaf.node = 1;
  leaf.action = NodeAction::kLeaf;
  NodeDecision resolved;
  resolved.node = 2;
  resolved.action = NodeAction::kSplitResolved;
  resolved.left = 5;
  resolved.right = 6;
  resolved.placement = Bitmap(10);
  resolved.placement.Set(3);
  NodeDecision query;
  query.node = 3;
  query.action = NodeAction::kSplitQuery;
  query.left = 7;
  query.right = 8;
  query.feature = 11;
  query.bin = 4;
  query.default_left = false;
  payload.decisions = {leaf, resolved, query};

  Message msg = EncodeDecisions(payload, MessageType::kDecisions);
  DecisionsPayload out;
  ASSERT_TRUE(DecodeDecisions(msg, &out).ok());
  ASSERT_EQ(out.decisions.size(), 3u);
  EXPECT_EQ(out.decisions[0].action, NodeAction::kLeaf);
  EXPECT_EQ(out.decisions[1].action, NodeAction::kSplitResolved);
  EXPECT_TRUE(out.decisions[1].placement.Get(3));
  EXPECT_FALSE(out.decisions[1].placement.Get(4));
  EXPECT_EQ(out.decisions[2].action, NodeAction::kSplitQuery);
  EXPECT_EQ(out.decisions[2].feature, 11u);
  EXPECT_EQ(out.decisions[2].bin, 4u);
  EXPECT_FALSE(out.decisions[2].default_left);
}

TEST_F(PayloadRoundTripTest, Verdicts) {
  VerdictsPayload payload;
  payload.tree = 9;
  payload.layer = 4;
  NodeVerdict confirm;
  confirm.node = 1;
  confirm.use_a = false;
  NodeVerdict dirty;
  dirty.node = 2;
  dirty.use_a = true;
  dirty.owner = 1;
  dirty.feature = 3;
  dirty.bin = 7;
  dirty.default_left = false;
  dirty.left = 9;
  dirty.right = 10;
  payload.verdicts = {confirm, dirty};

  Message msg = EncodeVerdicts(payload);
  VerdictsPayload out;
  ASSERT_TRUE(DecodeVerdicts(msg, &out).ok());
  ASSERT_EQ(out.verdicts.size(), 2u);
  EXPECT_FALSE(out.verdicts[0].use_a);
  EXPECT_TRUE(out.verdicts[1].use_a);
  EXPECT_EQ(out.verdicts[1].owner, 1u);
  EXPECT_EQ(out.verdicts[1].left, 9);
  EXPECT_EQ(out.verdicts[1].right, 10);
}

TEST_F(PayloadRoundTripTest, PlacementAndLayout) {
  PlacementPayload placement;
  placement.tree = 1;
  placement.layer = 2;
  placement.node = 3;
  placement.placement = Bitmap(130);
  placement.placement.Set(0);
  placement.placement.Set(129);
  Message msg = EncodePlacement(placement);
  PlacementPayload pout;
  ASSERT_TRUE(DecodePlacement(msg, &pout).ok());
  EXPECT_EQ(pout.node, 3);
  EXPECT_TRUE(pout.placement.Get(129));
  EXPECT_EQ(pout.placement.Count(), 2u);

  LayoutPayload layout;
  layout.bins_per_feature = {20, 20, 7, 1};
  Message lmsg = EncodeLayout(layout);
  LayoutPayload lout;
  ASSERT_TRUE(DecodeLayout(lmsg, &lout).ok());
  EXPECT_EQ(lout.bins_per_feature, layout.bins_per_feature);
}

TEST(FedConfigTest, PresetsAreValid) {
  EXPECT_TRUE(FedConfig::VfGbdt().Validate().ok());
  EXPECT_TRUE(FedConfig::Vf2Boost().Validate().ok());
  EXPECT_TRUE(FedConfig::VfMock().Validate().ok());
}

TEST(FedConfigTest, ValidateRejectsBadSettings) {
  FedConfig c;
  c.paillier_bits = 63;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.paillier_bits = 30;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.mock_crypto = true;
  c.paillier_bits = 30;  // irrelevant under mock
  EXPECT_TRUE(c.Validate().ok());
  c = FedConfig{};
  c.codec_num_exponents = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.codec_min_exponent = 14;
  c.codec_num_exponents = 6;  // exceeds mantissa-safe range
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.num_trees = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.max_bins = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.gbdt.learning_rate = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.blaster = true;
  c.blaster_batch = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = FedConfig{};
  c.workers_per_party = 0;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(FedConfigTest, TrainerRejectsInvalidConfig) {
  FedConfig c;
  c.gbdt.num_trees = 0;
  Dataset dummy;
  EXPECT_FALSE(FedTrainer(c).Train({dummy, dummy}).ok());
}

TEST(MessageTest, AllTypeNamesResolve) {
  for (uint8_t t = 1; t <= 14; ++t) {
    EXPECT_STRNE(MessageTypeName(static_cast<MessageType>(t)), "Unknown");
  }
}

TEST(MessageTest, MetricsDeltaFramesRoundTripOnTheWire) {
  EXPECT_STREQ(MessageTypeName(MessageType::kMetricsDelta), "MetricsDelta");
  Message msg{MessageType::kMetricsDelta, {1, 2, 3}};
  Message out{};
  ASSERT_TRUE(DecodeFrame(EncodeFrame(msg), &out).ok());
  EXPECT_EQ(out.type, MessageType::kMetricsDelta);
  EXPECT_EQ(out.payload, msg.payload);
  // Heartbeats (19) filled the last gap; the first slot past the dense
  // range stays an unknown wire type.
  Message beat{MessageType::kHeartbeat, {}};
  ASSERT_TRUE(DecodeFrame(EncodeFrame(beat), &out).ok());
  EXPECT_EQ(out.type, MessageType::kHeartbeat);
  Message bogus{static_cast<MessageType>(24), {}};
  EXPECT_FALSE(DecodeFrame(EncodeFrame(bogus), &out).ok());
}

TEST_F(PayloadRoundTripTest, MetricsDelta) {
  MetricsDeltaPayload payload;
  payload.party = 3;
  payload.seq = 41;
  payload.final_frame = true;

  obs::MetricSample counter;
  counter.name = "party_a3/hadds";
  counter.kind = obs::MetricSample::Kind::kCounter;
  counter.unit = "count";
  counter.value = 12345;
  payload.samples.push_back(counter);

  obs::MetricSample gauge;
  gauge.name = "party_a3/features";
  gauge.kind = obs::MetricSample::Kind::kGauge;
  gauge.unit = "features";
  gauge.value = 6.5;
  payload.samples.push_back(gauge);

  obs::MetricSample hist;
  hist.name = "party_a3/phase/build_hist";
  hist.kind = obs::MetricSample::Kind::kHistogram;
  hist.unit = "s";
  hist.count = 9;
  hist.sum = 1.25;
  hist.min = 0.01;
  hist.max = 0.5;
  hist.first_upper = 1e-6;
  hist.growth = 2.0;
  hist.buckets = {0, 1, 2, 3, 3};
  payload.samples.push_back(hist);

  Message msg = EncodeMetricsDelta(payload);
  EXPECT_EQ(msg.type, MessageType::kMetricsDelta);

  MetricsDeltaPayload out;
  ASSERT_TRUE(DecodeMetricsDelta(msg, &out).ok());
  EXPECT_EQ(out.party, 3u);
  EXPECT_EQ(out.seq, 41u);
  EXPECT_TRUE(out.final_frame);
  ASSERT_EQ(out.samples.size(), 3u);
  EXPECT_EQ(out.samples[0].name, "party_a3/hadds");
  EXPECT_EQ(out.samples[0].kind, obs::MetricSample::Kind::kCounter);
  EXPECT_DOUBLE_EQ(out.samples[0].value, 12345);
  EXPECT_EQ(out.samples[1].unit, "features");
  EXPECT_DOUBLE_EQ(out.samples[1].value, 6.5);
  EXPECT_EQ(out.samples[2].kind, obs::MetricSample::Kind::kHistogram);
  EXPECT_EQ(out.samples[2].count, 9u);
  EXPECT_DOUBLE_EQ(out.samples[2].sum, 1.25);
  EXPECT_DOUBLE_EQ(out.samples[2].growth, 2.0);
  EXPECT_EQ(out.samples[2].buckets, (std::vector<uint64_t>{0, 1, 2, 3, 3}));
}

TEST_F(PayloadRoundTripTest, MetricsDeltaRejectsGarbage) {
  Message wrong{MessageType::kTreeDone, {}};
  MetricsDeltaPayload out;
  EXPECT_FALSE(DecodeMetricsDelta(wrong, &out).ok());
  // Truncated payload must fail cleanly, not crash or over-allocate.
  MetricsDeltaPayload payload;
  payload.party = 0;
  payload.seq = 1;
  obs::MetricSample s;
  s.name = "x";
  payload.samples.push_back(s);
  Message msg = EncodeMetricsDelta(payload);
  msg.payload.resize(msg.payload.size() / 2);
  EXPECT_FALSE(DecodeMetricsDelta(msg, &out).ok());
}

TEST(FedConfigTest, FingerprintCoversGhPack) {
  // gh packing fixes the encoding exponent, so a resumed run that silently
  // flipped the knob would train a different model: the fingerprint must
  // move with it.
  FedConfig base = FedConfig::Vf2Boost();
  FedConfig off = base;
  off.gh_pack = false;
  EXPECT_NE(base.Fingerprint(), off.Fingerprint());
}

TEST(FedConfigTest, FingerprintIgnoresObservabilityKnobs) {
  FedConfig base = FedConfig::Vf2Boost();
  const uint64_t fp = base.Fingerprint();
  FedConfig ops = base;
  ops.ops_port = 9100;
  ops.federate_metrics = true;
  // Ops settings must not invalidate checkpoints: a run resumed with live
  // endpoints enabled trains the same model.
  EXPECT_EQ(ops.Fingerprint(), fp);
  FedConfig other = base;
  other.gbdt.num_trees += 1;
  EXPECT_NE(other.Fingerprint(), fp);
}

// A scripted Party B that hands a real Party A gradient ciphers outside
// Z_{n^2}: equal to n^2, n^2 + 1, and one limb wider than n^2. HAdd loads
// its operands into k-limb Montgomery buffers, so the wire decoder has to
// refuse them first: A must fail with a status (and, under the ASan job,
// without touching memory past a buffer).
TEST(HostileCipherTest, PartyARefusesGradientCiphersOutsideTheRing) {
  SyntheticSpec spec;
  spec.rows = 40;
  spec.cols = 4;
  spec.seed = 16;
  const Dataset data = GenerateSynthetic(spec);
  FedConfig config;
  config.paillier_bits = 256;
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 3;
  config.network.default_deadline_seconds = 30;
  Rng rng(16);
  auto keys = PaillierKeyPair::Generate(config.paillier_bits, &rng);
  ASSERT_TRUE(keys.ok());
  const PaillierBackend backend(keys->pub, config.MakeCodec());
  const BigInt& n2 = backend.cipher_modulus();
  const std::vector<uint64_t> wide(n2.limbs().size() + 1, ~uint64_t{0});
  for (const BigInt& hostile :
       {n2, n2 + BigInt(1), BigInt::FromLimbs(wide)}) {
    auto [a_end, b_end] = ChannelEndpoint::CreatePair(config.network);
    Status a_status;
    std::thread party_a([&, a = a_end.get()] {
      PartyAEngine engine(config, data, a, 0);
      a_status = engine.Run();
      if (!a_status.ok()) a->Close(a_status);
    });
    ByteWriter key;
    keys->pub.Serialize(&key);
    b_end->Send({MessageType::kPublicKey, key.Release()});
    auto layout = b_end->Receive();
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    ASSERT_EQ(layout->type, MessageType::kLayout);
    GradBatchPayload batch;
    batch.ciphers.assign(2 * data.rows(),
                         {hostile, config.MakeCodec().min_exponent()});
    b_end->Send(EncodeGradBatch(batch, backend));
    party_a.join();
    EXPECT_EQ(a_status.code(), StatusCode::kCorruption)
        << hostile.BitLength() << " bits: " << a_status.ToString();
  }
}

// A scripted Party B driving one tree of a real Party A under mock crypto,
// the HostileCipherTest harness without a key: the handshake, every row's
// gradients in one batch, then A's root histogram. Each test scripts the
// first layer's messages and reads back every frame A sends until it exits.
class ScriptedPartyBTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = 40;

  void SetUp() override {
    SyntheticSpec spec;
    spec.rows = kRows;
    spec.cols = 4;
    spec.seed = 17;
    data_ = GenerateSynthetic(spec);
    config_ = FedConfig::Vf2Boost();
    config_.mock_crypto = true;
    config_.gbdt.num_trees = 1;
    config_.gbdt.num_layers = 3;  // layer 0's children get histograms
    config_.gbdt.max_bins = 8;
    config_.network.default_deadline_seconds = 30;
    auto [a_end, b_end] = ChannelEndpoint::CreatePair(config_.network);
    a_end_ = std::move(a_end);
    b_end_ = std::move(b_end);
    party_a_ = std::thread([this] {
      PartyAEngine engine(config_, data_, a_end_.get(), 0);
      a_status_ = engine.Run();
    });
    b_end_->Send({MessageType::kPublicKey, {}});
    auto layout = b_end_->Receive();
    ASSERT_TRUE(layout.ok()) << layout.status().ToString();
    ASSERT_EQ(layout->type, MessageType::kLayout);
    const MockBackend backend(config_.MakeCodec());
    auto slots = config_.MakeSlotLayout(kRows,
                                        backend.plain_modulus().BitLength());
    ASSERT_TRUE(slots.ok()) << slots.status().ToString();
    GradBatchPayload batch;
    batch.ciphers.resize(kRows * slots->channels);
    Rng rng(17);
    for (size_t i = 0; i < kRows; ++i) {
      slots->Encrypt({0.5 - (i % 3) * 0.25, 0.25}, backend, &rng,
                     &batch.ciphers[i * slots->channels]);
    }
    b_end_->Send(EncodeGradBatch(batch, backend));
    auto root = b_end_->Receive();
    ASSERT_TRUE(root.ok()) << root.status().ToString();
    ASSERT_EQ(root->type, MessageType::kNodeHistogram);
  }

  void TearDown() override {
    b_end_->Close(Status::Aborted("test over"));
    if (party_a_.joinable()) party_a_.join();
  }

  /// B's optimistic pre-split of the root: the first `left_rows` rows go left
  /// to node 1, the rest right to node 2.
  static NodeDecision PreSplit(size_t left_rows) {
    NodeDecision d;
    d.node = 0;
    d.action = NodeAction::kSplitResolved;
    d.left = 1;
    d.right = 2;
    d.placement = Bitmap(kRows);
    for (size_t i = 0; i < left_rows; ++i) d.placement.Set(i);
    return d;
  }

  static Message Layer0(MessageType type, std::vector<NodeDecision> ds) {
    DecisionsPayload p;
    p.decisions = std::move(ds);
    return EncodeDecisions(p, type);
  }

  static Message Verdict(const NodeVerdict& v) {
    VerdictsPayload p;
    p.verdicts = {v};
    return EncodeVerdicts(p);
  }

  /// Ends the tree and the training, then returns every frame A sent until
  /// its engine exited and closed the channel.
  std::vector<Message> FinishAndDrain() {
    b_end_->Send({MessageType::kTreeDone, {}});
    b_end_->Send({MessageType::kTrainDone, {}});
    std::vector<Message> frames;
    for (;;) {
      auto m = b_end_->Receive();
      if (!m.ok()) break;
      frames.push_back(std::move(m).value());
    }
    party_a_.join();
    return frames;
  }

  static NodeHistogramPayload HistHeader(const Message& m) {
    NodeHistogramPayload p;
    ByteReader r(m.payload);
    EXPECT_TRUE(r.GetU32(&p.tree).ok());
    EXPECT_TRUE(r.GetU32(&p.layer).ok());
    EXPECT_TRUE(r.GetI32(&p.node).ok());
    return p;
  }

  Dataset data_;
  FedConfig config_;
  std::unique_ptr<ChannelEndpoint> a_end_, b_end_;
  std::thread party_a_;
  Status a_status_;
};

TEST_F(ScriptedPartyBTest, ConfirmedPreSplitSendsTheSmallerChildOnly) {
  b_end_->Send(Layer0(MessageType::kOptPlacements, {PreSplit(30)}));
  NodeVerdict confirm;
  confirm.node = 0;
  b_end_->Send(Verdict(confirm));
  const std::vector<Message> frames = FinishAndDrain();
  ASSERT_TRUE(a_status_.ok()) << a_status_.ToString();
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, MessageType::kNodeHistogram);
  const NodeHistogramPayload h = HistHeader(frames[0]);
  EXPECT_EQ(h.layer, 1u);
  EXPECT_EQ(h.node, 2);  // 10 rows right against 30 left
}

TEST_F(ScriptedPartyBTest, DirtyPreSplitSendsThePlacementAndNoStaleChild) {
  b_end_->Send(Layer0(MessageType::kOptPlacements, {PreSplit(30)}));
  NodeVerdict dirty;
  dirty.node = 0;
  dirty.use_a = true;
  dirty.owner = 0;
  dirty.feature = 0;
  dirty.bin = 0;
  dirty.left = 1;
  dirty.right = 2;
  b_end_->Send(Verdict(dirty));
  // A answers the verdict with its placement first.
  auto reply = b_end_->Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, MessageType::kPlacement);
  PlacementPayload placement;
  ASSERT_TRUE(DecodePlacement(*reply, &placement).ok());
  ASSERT_EQ(placement.node, 0);
  ASSERT_EQ(placement.placement.size(), kRows);

  NodeDecision correction = PreSplit(0);
  correction.placement = placement.placement;
  b_end_->Send(Layer0(MessageType::kDecisions, {correction}));
  const std::vector<Message> frames = FinishAndDrain();
  ASSERT_TRUE(a_status_.ok()) << a_status_.ToString();
  // Exactly one histogram, the corrected split's smaller child: the child
  // A accumulated for the pre-split was never packed or sent.
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, MessageType::kNodeHistogram);
  const size_t left = placement.placement.Count();
  EXPECT_EQ(HistHeader(frames[0]).node,
            SmallerChildIsLeft(left, kRows - left) ? 1 : 2);
}

// A bad decision from B is a status on A, never a crash.
TEST_F(ScriptedPartyBTest, PartyARefusesAPlacementOneBitShort) {
  NodeDecision d = PreSplit(20);
  d.placement = Bitmap(kRows - 1);
  b_end_->Send(Layer0(MessageType::kOptPlacements, {d}));
  party_a_.join();
  EXPECT_EQ(a_status_.code(), StatusCode::kProtocolError)
      << a_status_.ToString();
}

TEST_F(ScriptedPartyBTest, PartyARefusesChildrenThatAreNotTwoNewNodes) {
  NodeDecision d = PreSplit(20);
  d.right = d.left;
  b_end_->Send(Layer0(MessageType::kDecisions, {d}));
  party_a_.join();
  EXPECT_EQ(a_status_.code(), StatusCode::kProtocolError)
      << a_status_.ToString();
}

// Forwards a real Party A's traffic, sending the first histogram frame that
// `pick` selects twice.
class RepeatingPort : public MessagePort {
 public:
  RepeatingPort(MessagePort* inner,
                std::function<bool(const NodeHistogramPayload&)> pick)
      : inner_(inner), pick_(std::move(pick)) {}

  void Send(Message msg) override {
    if (!repeated_ && msg.type == MessageType::kNodeHistogram) {
      NodeHistogramPayload h;
      ByteReader r(msg.payload);
      if (r.GetU32(&h.tree).ok() && r.GetU32(&h.layer).ok() &&
          r.GetI32(&h.node).ok() && pick_(h)) {
        repeated_ = true;
        inner_->Send(msg);
      }
    }
    inner_->Send(std::move(msg));
  }
  Result<Message> Receive() override { return inner_->Receive(); }
  Status TryReceive(Message* out, bool* got) override {
    return inner_->TryReceive(out, got);
  }
  void Close(Status status) override { inner_->Close(std::move(status)); }
  bool closed() const override { return inner_->closed(); }
  ChannelStats sent_stats() const override { return inner_->sent_stats(); }

 private:
  MessagePort* inner_;
  std::function<bool(const NodeHistogramPayload&)> pick_;
  bool repeated_ = false;
};

// A real Party B against a Party A that repeats one histogram frame: B
// must fail with a ProtocolError naming `want`, not hang, decrypt twice or
// train on the repeat.
void ExpectPartyBRefusesRepeat(
    FedConfig config, std::function<bool(const NodeHistogramPayload&)> pick,
    const std::string& want) {
  SyntheticSpec spec;
  spec.rows = 400;
  spec.cols = 12;
  spec.density = 0.6;
  spec.seed = 23;
  const Dataset all = GenerateSynthetic(spec);
  Rng rng(24);
  const VerticalSplitSpec split =
      SplitColumnsRandomly(spec.cols, {0.5, 0.5}, &rng);
  auto shards = PartitionVertically(all, split, /*label_party=*/1);
  ASSERT_TRUE(shards.ok());
  config.mock_crypto = true;
  config.gbdt.max_bins = 8;
  config.network.default_deadline_seconds = 30;
  auto [a_end, b_end] = ChannelEndpoint::CreatePair(config.network);
  RepeatingPort repeating(a_end.get(), std::move(pick));
  std::thread party_a([&] {
    PartyAEngine engine(config, (*shards)[0], &repeating, 0);
    (void)engine.Run();
  });
  PartyBEngine engine(config, (*shards)[1], {b_end.get()});
  const Result<PartyBResult> result = engine.Run();
  party_a.join();
  ASSERT_FALSE(result.ok()) << "B trained on a repeated histogram";
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolError)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find(want), std::string::npos)
      << result.status().ToString();
}

TEST(ScriptedPartyATest, PartyBRefusesARepeatedRootHistogram) {
  // One layer per tree: the repeat of tree 0's root is the next histogram
  // B reads, as tree 1's root.
  FedConfig config = FedConfig::Vf2Boost();
  config.gbdt.num_trees = 2;
  config.gbdt.num_layers = 2;
  ExpectPartyBRefusesRepeat(
      config, [](const NodeHistogramPayload& h) { return h.node == 0; },
      "wrong tree");
}

TEST(ScriptedPartyATest, PartyBRefusesADuplicateHistogramInOneLayer) {
  // Layer 2 gets the smaller child of both layer-1 splits; the first one
  // arrives twice.
  FedConfig config = FedConfig::Vf2Boost();
  config.gbdt.num_trees = 1;
  config.gbdt.num_layers = 4;
  ExpectPartyBRefusesRepeat(
      config, [](const NodeHistogramPayload& h) { return h.layer == 2; },
      "duplicate histogram");
}

}  // namespace
}  // namespace vf2boost
