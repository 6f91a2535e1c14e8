#include "fed/protocol.h"

#include <cstring>

#include "common/bytes.h"
#include "fed/placement.h"
#include "gbdt/loss.h"

namespace vf2boost {

Status FedConfig::Validate() const {
  if (!mock_crypto && (paillier_bits < 64 || paillier_bits % 2 != 0)) {
    return Status::InvalidArgument(
        "paillier_bits must be even and >= 64, got " +
        std::to_string(paillier_bits));
  }
  if (codec_base < 2) {
    return Status::InvalidArgument("codec base must be >= 2");
  }
  if (codec_num_exponents < 1) {
    return Status::InvalidArgument("codec needs at least one exponent");
  }
  if (codec_min_exponent < 0 || codec_min_exponent + codec_num_exponents > 16) {
    return Status::InvalidArgument(
        "codec exponent range must lie in [0, 16) to keep encodings in the "
        "64-bit mantissa");
  }
  if (gbdt.num_trees == 0) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  if (gbdt.num_layers == 0) {
    return Status::InvalidArgument("num_layers must be >= 1");
  }
  if (gbdt.max_bins < 2 || gbdt.max_bins > 65535) {
    return Status::InvalidArgument("max_bins must be in [2, 65535]");
  }
  if (gbdt.learning_rate <= 0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (blaster && blaster_batch == 0) {
    return Status::InvalidArgument("blaster_batch must be >= 1");
  }
  if (workers_per_party == 0 || workers_per_party > 256) {
    return Status::InvalidArgument("workers_per_party must be in [1, 256]");
  }
  if (resume && checkpoint_dir.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint_dir");
  }
  VF2_RETURN_IF_ERROR(network.Validate());
  for (const NetworkConfig& per_party : network_per_party) {
    VF2_RETURN_IF_ERROR(per_party.Validate());
  }
  return Status::OK();
}

uint64_t FedConfig::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV prime
  };
  auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  // Every knob that changes the trained model. Network shape, worker counts
  // and observability hooks are deliberately excluded: a resumed run may use
  // a different machine or link without invalidating the checkpoint.
  mix(paillier_bits);
  mix(codec_base);
  mix(static_cast<uint64_t>(codec_min_exponent));
  mix(static_cast<uint64_t>(codec_num_exponents));
  mix(mock_crypto ? 1 : 0);
  mix(blaster ? 1 : 0);
  mix(blaster ? blaster_batch : 0);
  mix(reordered ? 1 : 0);
  mix(optimistic ? 1 : 0);
  mix(packing ? 1 : 0);
  mix(packing ? min_pack_slots : 0);
  mix(gh_pack ? 1 : 0);
  mix(seed);
  mix(gbdt.num_trees);
  mix(gbdt.num_layers);
  mix(gbdt.max_bins);
  mix_double(gbdt.learning_rate);
  mix_double(gbdt.l2_reg);
  mix_double(gbdt.l1_reg);
  mix_double(gbdt.min_split_gain);
  mix_double(gbdt.min_child_weight);
  mix_double(gbdt.row_subsample);
  mix_double(gbdt.col_subsample);
  mix(gbdt.early_stopping_rounds);
  mix(gbdt.seed);
  for (char c : gbdt.objective) mix(static_cast<uint64_t>(c));
  return h;
}

Result<SlotLayout> FedConfig::MakeSlotLayout(
    uint64_t rows, size_t plain_modulus_bits) const {
  VF2_ASSIGN_OR_RETURN(std::unique_ptr<Loss> loss, MakeLoss(gbdt.objective));
  SlotLayoutParams params;
  params.gh = gh_pack;
  params.packing = packing;
  params.min_pack_slots = min_pack_slots;
  params.reordered = reordered;
  params.max_count = rows;
  params.grad_bound = loss->GradientBound();
  params.hess_bound = loss->HessianBound();
  return vf2boost::MakeSlotLayout(MakeCodec(), params, plain_modulus_bits);
}

namespace {

void PutPackedCipher(const PackedCipher& pc, ByteWriter* w) {
  w->PutI32(pc.exponent);
  w->PutU32(pc.slot_bits);
  w->PutU32(pc.num_slots);
  w->PutU64Vector(pc.data.limbs());
}

Status GetPackedCipher(ByteReader* r, PackedCipher* pc) {
  VF2_RETURN_IF_ERROR(r->GetI32(&pc->exponent));
  VF2_RETURN_IF_ERROR(r->GetU32(&pc->slot_bits));
  VF2_RETURN_IF_ERROR(r->GetU32(&pc->num_slots));
  std::vector<uint64_t> limbs;
  VF2_RETURN_IF_ERROR(r->GetU64Vector(&limbs));
  pc->data = BigInt::FromLimbs(std::move(limbs));
  return Status::OK();
}

}  // namespace

void PutCipherVector(const std::vector<Cipher>& v, const CipherBackend& b,
                     ByteWriter* w) {
  w->PutU64(v.size());
  for (const Cipher& c : v) b.SerializeCipher(c, w);
}

Status GetCipherVector(ByteReader* r, const CipherBackend& b,
                       std::vector<Cipher>* v) {
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r->GetU64(&n));
  // Each serialized cipher needs at least an exponent + limb count
  // (12 bytes); a hostile count must never drive the allocation.
  if (n > r->remaining() / 12) {
    return Status::Corruption("cipher vector count exceeds payload");
  }
  v->clear();
  v->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    Cipher c;
    VF2_RETURN_IF_ERROR(b.DeserializeCipher(r, &c));
    v->push_back(std::move(c));
  }
  return Status::OK();
}

Message EncodeGradBatch(const GradBatchPayload& p, const CipherBackend& b) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU64(p.start);
  PutCipherVector(p.ciphers, b, &w);
  return {MessageType::kGradBatch, w.Release()};
}

Status DecodeGradBatch(const Message& m, const CipherBackend& b,
                       GradBatchPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU64(&p->start));
  return GetCipherVector(&r, b, &p->ciphers);
}

Message EncodeNodeHistogram(const NodeHistogramPayload& p,
                            const SlotLayout& layout, const CipherBackend& b) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutI32(p.node);
  w.PutU64(p.ciphers.size());
  for (const PackedCipher& pc : p.ciphers) {
    if (layout.packed()) {
      PutPackedCipher(pc, &w);
    } else {
      b.SerializeCipher({pc.data, pc.exponent}, &w);
    }
  }
  return {MessageType::kNodeHistogram, w.Release()};
}

Status DecodeNodeHistogram(const Message& m, const SlotLayout& layout,
                           const CipherBackend& b, NodeHistogramPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  VF2_RETURN_IF_ERROR(r.GetI32(&p->node));
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  // Every serialized cipher needs at least an exponent + limb count; a
  // hostile count must never drive the allocation.
  if (n > r.remaining() / 12) {
    return Status::Corruption("histogram cipher count exceeds payload");
  }
  p->ciphers.assign(static_cast<size_t>(n), PackedCipher{});
  for (PackedCipher& pc : p->ciphers) {
    if (layout.packed()) {
      VF2_RETURN_IF_ERROR(GetPackedCipher(&r, &pc));
      continue;
    }
    Cipher c;
    VF2_RETURN_IF_ERROR(b.DeserializeCipher(&r, &c));
    pc = {std::move(c.data), c.exponent, 0, 1};
  }
  return Status::OK();
}

Message EncodeDecisions(const DecisionsPayload& p, MessageType type) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutU64(p.decisions.size());
  for (const NodeDecision& d : p.decisions) {
    w.PutI32(d.node);
    w.PutU8(static_cast<uint8_t>(d.action));
    w.PutI32(d.left);
    w.PutI32(d.right);
    if (d.action == NodeAction::kSplitResolved) {
      SerializeBitmap(d.placement, &w);
    } else if (d.action == NodeAction::kSplitQuery) {
      w.PutU32(d.feature);
      w.PutU32(d.bin);
      w.PutU8(d.default_left ? 1 : 0);
    }
  }
  return {type, w.Release()};
}

Status DecodeDecisions(const Message& m, DecisionsPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  if (n > r.remaining() / 13) {  // min serialized NodeDecision size
    return Status::Corruption("decision count exceeds payload");
  }
  p->decisions.clear();
  p->decisions.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    NodeDecision d;
    VF2_RETURN_IF_ERROR(r.GetI32(&d.node));
    uint8_t action = 0;
    VF2_RETURN_IF_ERROR(r.GetU8(&action));
    if (action > 2) return Status::Corruption("bad node action");
    d.action = static_cast<NodeAction>(action);
    VF2_RETURN_IF_ERROR(r.GetI32(&d.left));
    VF2_RETURN_IF_ERROR(r.GetI32(&d.right));
    if (d.action == NodeAction::kSplitResolved) {
      VF2_RETURN_IF_ERROR(DeserializeBitmap(&r, &d.placement));
    } else if (d.action == NodeAction::kSplitQuery) {
      VF2_RETURN_IF_ERROR(r.GetU32(&d.feature));
      VF2_RETURN_IF_ERROR(r.GetU32(&d.bin));
      uint8_t dl = 0;
      VF2_RETURN_IF_ERROR(r.GetU8(&dl));
      d.default_left = dl != 0;
    }
    p->decisions.push_back(std::move(d));
  }
  return Status::OK();
}

Message EncodeVerdicts(const VerdictsPayload& p) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutU64(p.verdicts.size());
  for (const NodeVerdict& v : p.verdicts) {
    w.PutI32(v.node);
    w.PutU8(v.use_a ? 1 : 0);
    if (v.use_a) {
      w.PutU32(v.owner);
      w.PutU32(v.feature);
      w.PutU32(v.bin);
      w.PutU8(v.default_left ? 1 : 0);
      w.PutI32(v.left);
      w.PutI32(v.right);
    }
  }
  return {MessageType::kVerdicts, w.Release()};
}

Status DecodeVerdicts(const Message& m, VerdictsPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  if (n > r.remaining() / 5) {  // min serialized NodeVerdict size
    return Status::Corruption("verdict count exceeds payload");
  }
  p->verdicts.clear();
  p->verdicts.reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    NodeVerdict v;
    VF2_RETURN_IF_ERROR(r.GetI32(&v.node));
    uint8_t use_a = 0;
    VF2_RETURN_IF_ERROR(r.GetU8(&use_a));
    v.use_a = use_a != 0;
    if (v.use_a) {
      VF2_RETURN_IF_ERROR(r.GetU32(&v.owner));
      VF2_RETURN_IF_ERROR(r.GetU32(&v.feature));
      VF2_RETURN_IF_ERROR(r.GetU32(&v.bin));
      uint8_t dl = 0;
      VF2_RETURN_IF_ERROR(r.GetU8(&dl));
      v.default_left = dl != 0;
      VF2_RETURN_IF_ERROR(r.GetI32(&v.left));
      VF2_RETURN_IF_ERROR(r.GetI32(&v.right));
    }
    p->verdicts.push_back(v);
  }
  return Status::OK();
}

Message EncodePlacement(const PlacementPayload& p) {
  ByteWriter w;
  w.PutU32(p.tree);
  w.PutU32(p.layer);
  w.PutI32(p.node);
  SerializeBitmap(p.placement, &w);
  return {MessageType::kPlacement, w.Release()};
}

Status DecodePlacement(const Message& m, PlacementPayload* p) {
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->tree));
  VF2_RETURN_IF_ERROR(r.GetU32(&p->layer));
  VF2_RETURN_IF_ERROR(r.GetI32(&p->node));
  return DeserializeBitmap(&r, &p->placement);
}

Message EncodeLayout(const LayoutPayload& p) {
  ByteWriter w;
  w.PutU64Vector(p.bins_per_feature);
  return {MessageType::kLayout, w.Release()};
}

Status DecodeLayout(const Message& m, LayoutPayload* p) {
  ByteReader r(m.payload);
  return r.GetU64Vector(&p->bins_per_feature);
}

Message EncodeMetricsDelta(const MetricsDeltaPayload& p) {
  ByteWriter w;
  w.PutU32(p.party);
  w.PutU64(p.seq);
  w.PutU8(p.final_frame ? 1 : 0);
  w.PutU64(p.samples.size());
  for (const obs::MetricSample& s : p.samples) {
    w.PutString(s.name);
    w.PutU8(static_cast<uint8_t>(s.kind));
    w.PutString(s.unit);
    w.PutDouble(s.value);
    w.PutU64(s.count);
    w.PutDouble(s.sum);
    w.PutDouble(s.min);
    w.PutDouble(s.max);
    w.PutDouble(s.first_upper);
    w.PutDouble(s.growth);
    w.PutU64Vector(s.buckets);
  }
  return Message{MessageType::kMetricsDelta, w.Release()};
}

Status DecodeMetricsDelta(const Message& m, MetricsDeltaPayload* p) {
  if (m.type != MessageType::kMetricsDelta) {
    return Status::ProtocolError(std::string("expected MetricsDelta, got ") +
                                 MessageTypeName(m.type));
  }
  ByteReader r(m.payload);
  VF2_RETURN_IF_ERROR(r.GetU32(&p->party));
  VF2_RETURN_IF_ERROR(r.GetU64(&p->seq));
  uint8_t final_flag = 0;
  VF2_RETURN_IF_ERROR(r.GetU8(&final_flag));
  p->final_frame = final_flag != 0;
  uint64_t n = 0;
  VF2_RETURN_IF_ERROR(r.GetU64(&n));
  // A sample is dozens of bytes; a count the payload cannot possibly hold is
  // corruption, not a reason to try allocating it.
  if (n > r.remaining() / 8) {
    return Status::Corruption("MetricsDelta sample count " +
                              std::to_string(n) + " exceeds payload size");
  }
  p->samples.clear();
  p->samples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    obs::MetricSample s;
    VF2_RETURN_IF_ERROR(r.GetString(&s.name));
    uint8_t kind = 0;
    VF2_RETURN_IF_ERROR(r.GetU8(&kind));
    if (kind > static_cast<uint8_t>(obs::MetricSample::Kind::kValue)) {
      return Status::Corruption("MetricsDelta sample kind " +
                                std::to_string(kind) + " unknown");
    }
    s.kind = static_cast<obs::MetricSample::Kind>(kind);
    VF2_RETURN_IF_ERROR(r.GetString(&s.unit));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.value));
    VF2_RETURN_IF_ERROR(r.GetU64(&s.count));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.sum));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.min));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.max));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.first_upper));
    VF2_RETURN_IF_ERROR(r.GetDouble(&s.growth));
    VF2_RETURN_IF_ERROR(r.GetU64Vector(&s.buckets));
    p->samples.push_back(std::move(s));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in MetricsDelta payload");
  }
  return Status::OK();
}

}  // namespace vf2boost
