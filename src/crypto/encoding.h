#ifndef VF2BOOST_CRYPTO_ENCODING_H_
#define VF2BOOST_CRYPTO_ENCODING_H_

#include <cstddef>
#include <cstdint>

#include "bigint/bigint.h"
#include "common/random.h"
#include "common/result.h"
#include "gbdt/types.h"

namespace vf2boost {

struct Cipher;
class CipherBackend;

/// \brief Fixed-point codec mapping doubles into the Paillier plaintext
/// space (paper §2.2).
///
/// A floating-point value v is encoded as a pair ⟨e, V⟩ with
/// `V = round(v * B^e) + 1(v<0) * n`, i.e. negative values live in the top
/// half of the modulus range. The exponent e can be sampled from a small
/// range ("non-deterministic in order to obfuscate the range of v",
/// footnote 2) — which is precisely what makes naive cipher accumulation pay
/// for scaling operations and the paper's re-ordered accumulation worthwhile.
class FixedPointCodec {
 public:
  /// \param base        encoding base B (paper uses 16).
  /// \param min_exponent lowest exponent ever produced.
  /// \param num_exponents size of the exponent range E; SampleExponent draws
  ///        uniformly from [min_exponent, min_exponent + num_exponents).
  ///        The paper observes E in [4, 8] in practice.
  FixedPointCodec(uint32_t base, int min_exponent, int num_exponents)
      : base_(base),
        min_exponent_(min_exponent),
        num_exponents_(num_exponents) {}

  /// Defaults matching the paper: B = 16, e in [8, 12).
  FixedPointCodec() : FixedPointCodec(16, 8, 4) {}

  uint32_t base() const { return base_; }
  int min_exponent() const { return min_exponent_; }
  int num_exponents() const { return num_exponents_; }
  int max_exponent() const { return min_exponent_ + num_exponents_ - 1; }

  /// Draws a random exponent from the configured range.
  int SampleExponent(Rng* rng) const {
    return min_exponent_ +
           static_cast<int>(rng->NextBounded(
               static_cast<uint64_t>(num_exponents_)));
  }

  /// Encodes v at exponent e into [0, n). n is the plaintext modulus.
  BigInt Encode(double v, int exponent, const BigInt& n) const;

  /// Decodes V (in [0, n)) at exponent e; values above n/2 are negative.
  double Decode(const BigInt& value, int exponent, const BigInt& n) const;

  /// B^k for k >= 0 — the plaintext multiplier used to rescale a cipher
  /// from exponent e to exponent e + k.
  BigInt ScaleFactor(int k) const;

 private:
  uint32_t base_;
  int min_exponent_;
  int num_exponents_;
};

/// A decoded gh accumulation: how many pairs were summed and the two sums.
struct GhSlots {
  uint64_t count = 0;
  double g = 0;
  double h = 0;
};

/// \brief How gradient statistics ride in ciphers, from Party B's encryption
/// through Party A's accumulation and packing to B's decryption.
///
/// A *channel* is one cipher per instance and per histogram bin. Two value
/// encodings:
///  - signed, two channels (g, h): the paper's VF-GBDT stream (§2.2). Each
///    value is its own cipher at a codec-sampled exponent, negatives in the
///    top half of the modulus; sums align exponents, which is what the §5.1
///    re-ordered accumulator economizes.
///  - gh, one channel: one plaintext [ count | g | h ], h in the low bits
///    (SecureBoost+-style cipher-level packing). Both value slots hold
///    `offset + round(v·B^e)`, nonnegative for |v| ≤ value_bound, so sums of
///    k plaintexts never borrow across slots; the count slot sums to k and
///    lets the decoder subtract k·offset. Every gh cipher sits at the codec's
///    minimum exponent — needed by the offset subtraction, and the documented
///    trade against the randomized-exponent obfuscation of the signed stream.
/// And two transfer forms:
///  - raw: one cipher per channel and bin;
///  - packed (§5.2, Fig. 9): per channel, per-feature prefix sums aligned to
///    `exponent`, `capacity` slots of `slot_bits` bits per cipher.
///
/// Both parties derive the layout once at setup (MakeSlotLayout) from what
/// they already share, so nothing about it travels per message.
struct SlotLayout {
  FixedPointCodec codec;
  /// Ciphers per instance and per bin: 2 (signed g, h) or 1 (gh).
  uint32_t channels = 2;
  /// §5.1 per-exponent accumulation workspaces. Set only when requested and
  /// exponents vary; under gh every cipher shares one exponent.
  bool reordered = false;
  /// The exponent packed slots are aligned to (signed: the codec maximum);
  /// gh: the fixed exponent of every cipher.
  int32_t exponent = 0;
  /// Packed signed layouts add shift[c] to channel c's prefix sums so every
  /// slot is nonnegative: rows·|g| bound for g, 0 for the nonnegative h.
  double shift[2] = {0, 0};
  /// Packed layouts: slot width and slots per cipher. Raw layouts: 0 and 1,
  /// a cipher is one slot spanning the whole plaintext.
  uint32_t slot_bits = 0;
  uint32_t capacity = 1;
  // gh value-slot codec: slot widths, the per-instance offset, and the
  // accumulation bounds the widths were sized for.
  uint32_t value_bits = 0;
  uint32_t count_bits = 0;
  uint64_t offset = 0;
  uint64_t max_count = 0;
  double value_bound = 0;

  bool gh() const { return channels == 1; }
  bool packed() const { return capacity > 1; }
  /// Width of one whole gh plaintext [count | g | h].
  size_t gh_bits() const {
    return static_cast<size_t>(count_bits) + 2 * value_bits;
  }

  /// Encrypts one instance's statistics into `channels` ciphers at
  /// out[0 .. channels): signed layouts draw g's exponent and nonce before
  /// h's; gh makes one EncryptRaw of EncodeGh.
  void Encrypt(const GradPair& grad, const CipherBackend& backend, Rng* rng,
               Cipher* out) const;
  /// gh: encodes one instance's (g, h) with count slot = 1. Aborts
  /// (checked) if |g| or |h| exceeds value_bound.
  BigInt EncodeGh(double g, double h) const;
  /// gh: decodes an accumulated plaintext (a homomorphic sum of EncodeGh
  /// outputs). Returns Corruption when it exceeds the layout bounds (stray
  /// high bits, count above max_count, or a value slot outside the offset
  /// window) — never a silently wrong value.
  Result<GhSlots> DecodeGh(const BigInt& plain) const;
  /// gh: DecodeGh's window checks alone, on the integer fields (layout
  /// width, count <= max_count, each value slot <= count·2·offset), with
  /// no conversion to double.
  Status CheckGh(const BigInt& plain) const;
  /// How one decrypted slot becomes statistics. `slot` is channel
  /// `channel`'s value at `slot_exponent`: a whole plaintext in raw layouts,
  /// one unpacked slot in packed ones. Signed layouts decode it with the
  /// codec's sign rule (plaintext modulus `n`), remove the channel's shift
  /// and write out->g or out->h; gh writes both.
  Status DecodeSlot(const BigInt& slot, int slot_exponent, size_t channel,
                    const BigInt& n, GradPair* out) const;
};

/// What a session's layout is derived from; both parties know all of it at
/// setup (the shared configuration, the aligned row count, the loss).
struct SlotLayoutParams {
  bool gh = false;
  bool packing = false;
  /// Pack only when at least max(2, this) slots fit one cipher: packing a
  /// slot costs M squarings (the SMul by 2^M) and one HAdd, so small keys
  /// can make it a net loss.
  size_t min_pack_slots = 2;
  bool reordered = false;
  /// Accumulation bound: a node at any depth holds at most every row.
  uint64_t max_count = 0;
  double grad_bound = 1;  ///< |g| bound of the loss
  double hess_bound = 1;  ///< h bound of the loss (h ≥ 0)
};

/// Derives the layout for a plaintext modulus of `plain_modulus_bits`.
/// gh guard-bit math (DESIGN.md): each of max_count rows contributes at most
/// 2·offset per value slot, so
///   value_bits = bits(max_count · 2·offset) + 2 guard bits,
///   count_bits = bits(max_count) + 2 guard bits,
/// and the whole plaintext must leave 2 bits of headroom under the modulus —
/// InvalidArgument otherwise, the caught config error the protocol insists
/// on instead of silent slot overflow. A signed packed slot holds a g prefix
/// shifted into [0, 2·max_count·grad_bound] at the codec's maximum exponent,
/// plus one guard bit; a gh packed slot is one whole gh plaintext.
Result<SlotLayout> MakeSlotLayout(const FixedPointCodec& codec,
                                  const SlotLayoutParams& params,
                                  size_t plain_modulus_bits);

}  // namespace vf2boost

#endif  // VF2BOOST_CRYPTO_ENCODING_H_
