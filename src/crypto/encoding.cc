#include "crypto/encoding.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/logging.h"
#include "crypto/backend.h"
#include "crypto/packing.h"

namespace vf2boost {

namespace {

// Converts a nonnegative finite long double to the nearest BigInt. Values
// like `shift * B^e` in histogram packing exceed 2^63, so a plain int64
// mantissa is not enough.
BigInt BigIntFromLongDouble(long double x) {
  BigInt out;
  long double cur = floorl(x + 0.5L);
  size_t shift = 0;
  const long double kChunk = 4294967296.0L;  // 2^32
  while (cur >= 1.0L) {
    const uint64_t chunk = static_cast<uint64_t>(fmodl(cur, kChunk));
    out += BigInt(chunk) << shift;
    cur = floorl(cur / kChunk);
    shift += 32;
  }
  return out;
}

// Splits a gh plaintext [count | g | h] into its integer fields and applies
// the window checks CheckGh and DecodeGh share.
Status SplitGh(const SlotLayout& layout, const BigInt& plain, uint64_t* count,
               BigInt* g, BigInt* h) {
  if (layout.value_bits == 0 || layout.offset == 0) {
    return Status::InvalidArgument("gh-pack layout is uninitialized");
  }
  if (plain.BitLength() > layout.gh_bits()) {
    return Status::Corruption("gh plaintext exceeds the layout width");
  }
  const size_t s = layout.value_bits;
  const BigInt hi = plain >> s;  // [count | g]
  *h = plain - (hi << s);
  const BigInt count_big = hi >> s;
  *g = hi - (count_big << s);
  if (count_big > BigInt(layout.max_count)) {
    return Status::Corruption("gh count slot exceeds the accumulation bound");
  }
  *count = count_big.ToU64();
  const BigInt slot_cap = BigInt(*count) * BigInt(2 * layout.offset);
  if (*g > slot_cap || *h > slot_cap) {
    return Status::Corruption("gh value slot outside the offset window");
  }
  return Status::OK();
}

}  // namespace

BigInt FixedPointCodec::Encode(double v, int exponent, const BigInt& n) const {
  const long double scaled =
      static_cast<long double>(v) *
      powl(static_cast<long double>(base_), exponent);
  VF2_CHECK(std::isfinite(static_cast<double>(scaled / 1e30)) &&
            fabsl(scaled) < 1e37)
      << "value " << v << " at exponent " << exponent
      << " overflows the encoding range";
  if (scaled >= 0) {
    BigInt enc = BigIntFromLongDouble(scaled);
    VF2_CHECK(enc < (n >> 1)) << "encoded value collides with negative range";
    return enc;
  }
  BigInt enc = BigIntFromLongDouble(-scaled);
  VF2_CHECK(enc < (n >> 1)) << "encoded value collides with negative range";
  return enc.IsZero() ? BigInt(0) : n - enc;
}

double FixedPointCodec::Decode(const BigInt& value, int exponent,
                               const BigInt& n) const {
  const double scale = std::pow(static_cast<double>(base_), exponent);
  const BigInt half = n >> 1;
  if (value.Compare(half) > 0) {
    return -(n - value).ToDouble() / scale;
  }
  return value.ToDouble() / scale;
}

BigInt FixedPointCodec::ScaleFactor(int k) const {
  VF2_CHECK(k >= 0) << "cannot rescale a cipher downward (k=" << k << ")";
  BigInt f(1);
  for (int i = 0; i < k; ++i) f *= BigInt(static_cast<uint64_t>(base_));
  return f;
}

// ---------------------------------------------------------------------------
// Slot layouts
// ---------------------------------------------------------------------------

namespace {

// Sizes the gh value slots for accumulating up to `max_count` pairs.
Status SizeGhSlots(uint64_t max_count, double value_bound,
                   size_t plain_modulus_bits, SlotLayout* layout) {
  if (max_count == 0) {
    return Status::InvalidArgument("gh-pack: max_count must be positive");
  }
  if (!std::isfinite(value_bound) || value_bound <= 0) {
    return Status::InvalidArgument(
        "gh-pack: value bound must be positive and finite");
  }
  layout->channels = 1;
  layout->exponent = layout->codec.min_exponent();
  layout->max_count = max_count;
  layout->value_bound = value_bound;
  const long double scale =
      powl(static_cast<long double>(layout->codec.base()), layout->exponent);
  const long double offset =
      floorl(static_cast<long double>(value_bound) * scale) + 1.0L;
  // offset must fit a u64 with room for the 2·offset per-instance bound.
  if (offset >= 4611686018427387904.0L /* 2^62 */) {
    return Status::InvalidArgument(
        "gh-pack: value bound x B^e exceeds the per-slot offset range");
  }
  layout->offset = static_cast<uint64_t>(offset);
  const BigInt slot_max = BigInt(max_count) * BigInt(2 * layout->offset);
  layout->value_bits = static_cast<uint32_t>(slot_max.BitLength() + 2);
  layout->count_bits =
      static_cast<uint32_t>(BigInt(max_count).BitLength() + 2);
  if (layout->gh_bits() + 2 > plain_modulus_bits) {
    return Status::InvalidArgument(
        "gh-pack layout needs " + std::to_string(layout->gh_bits()) +
        " bits (+2 headroom) but the plaintext modulus has only " +
        std::to_string(plain_modulus_bits) +
        " — use a larger key or disable gh packing");
  }
  return Status::OK();
}

}  // namespace

Result<SlotLayout> MakeSlotLayout(const FixedPointCodec& codec,
                                  const SlotLayoutParams& params,
                                  size_t plain_modulus_bits) {
  SlotLayout layout;
  layout.codec = codec;
  size_t width = 0;  // the slot width a packed form needs
  double g_shift = 0;
  if (params.gh) {
    VF2_RETURN_IF_ERROR(SizeGhSlots(
        params.max_count, std::max(params.grad_bound, params.hess_bound),
        plain_modulus_bits, &layout));
    width = layout.gh_bits();
  } else {
    layout.reordered = params.reordered;
    layout.exponent = codec.max_exponent();
    g_shift = static_cast<double>(params.max_count) * params.grad_bound;
    const double max_slot_value =
        2.0 * g_shift *
            std::pow(static_cast<double>(codec.base()), layout.exponent) +
        1.0;
    width = static_cast<size_t>(std::ceil(std::log2(max_slot_value))) + 1;
  }
  if (params.packing) {
    const size_t capacity = MaxSlotsPerCipher(width, plain_modulus_bits);
    if (capacity >= std::max<size_t>(2, params.min_pack_slots)) {
      layout.slot_bits = static_cast<uint32_t>(width);
      layout.capacity = static_cast<uint32_t>(capacity);
      if (!params.gh) layout.shift[0] = g_shift;
    }
  }
  return layout;
}

void SlotLayout::Encrypt(const GradPair& grad, const CipherBackend& backend,
                         Rng* rng, Cipher* out) const {
  if (gh()) {
    out[0].exponent = exponent;
    out[0].data = backend.EncryptRaw(EncodeGh(grad.g, grad.h), rng);
    return;
  }
  out[0] = backend.Encrypt(grad.g, rng);
  out[1] = backend.Encrypt(grad.h, rng);
}

BigInt SlotLayout::EncodeGh(double g, double h) const {
  VF2_CHECK(std::fabs(g) <= value_bound && std::fabs(h) <= value_bound)
      << "gh pair (" << g << ", " << h << ") exceeds the layout bound "
      << value_bound;
  const long double scale =
      powl(static_cast<long double>(codec.base()), exponent);
  const int64_t g_enc = llroundl(static_cast<long double>(g) * scale);
  const int64_t h_enc = llroundl(static_cast<long double>(h) * scale);
  const uint64_t g_slot = offset + static_cast<uint64_t>(g_enc);
  const uint64_t h_slot = offset + static_cast<uint64_t>(h_enc);
  return (BigInt(1) << (2 * static_cast<size_t>(value_bits))) +
         (BigInt(g_slot) << value_bits) + BigInt(h_slot);
}

Status SlotLayout::CheckGh(const BigInt& plain) const {
  uint64_t count = 0;
  BigInt g, h;
  return SplitGh(*this, plain, &count, &g, &h);
}

Result<GhSlots> SlotLayout::DecodeGh(const BigInt& plain) const {
  GhSlots out;
  BigInt g_slot, h_slot;
  VF2_RETURN_IF_ERROR(SplitGh(*this, plain, &out.count, &g_slot, &h_slot));
  const double scale = std::pow(static_cast<double>(codec.base()), exponent);
  const BigInt base = BigInt(out.count) * BigInt(offset);
  auto decode = [&](const BigInt& slot) {
    return slot >= base ? (slot - base).ToDouble() / scale
                        : -((base - slot).ToDouble() / scale);
  };
  out.g = decode(g_slot);
  out.h = decode(h_slot);
  return out;
}

Status SlotLayout::DecodeSlot(const BigInt& slot, int slot_exponent,
                              size_t channel, const BigInt& n,
                              GradPair* out) const {
  if (gh()) {
    VF2_ASSIGN_OR_RETURN(GhSlots sums, DecodeGh(slot));
    out->g = sums.g;
    out->h = sums.h;
    return Status::OK();
  }
  double& value = channel == 0 ? out->g : out->h;
  value = codec.Decode(slot, slot_exponent, n) - shift[channel];
  return Status::OK();
}

}  // namespace vf2boost
