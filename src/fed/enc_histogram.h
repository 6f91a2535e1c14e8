#ifndef VF2BOOST_FED_ENC_HISTOGRAM_H_
#define VF2BOOST_FED_ENC_HISTOGRAM_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/threadpool.h"
#include "crypto/accumulator.h"
#include "crypto/backend.h"
#include "crypto/encoding.h"
#include "crypto/packing.h"
#include "data/binning.h"
#include "gbdt/histogram.h"

namespace vf2boost {

/// \brief Party A's core data structure: SlotLayout::channels accumulated
/// ciphers per (feature, bin), channel-major — channel c's bins, flattened
/// by A's FeatureLayout, sit at [c·total_bins, (c+1)·total_bins).
using EncryptedHistogram = std::vector<Cipher>;

/// \brief Stateful histogram accumulation (BuildHistA). Rows can be added
/// as their gradient ciphers arrive, so Party A overlaps root-node
/// accumulation with Party B's encryption of later batches (the Fig. 4
/// pipeline). One accumulator per channel and bin; the layout picks naive or
/// §5.1 re-ordered accumulation.
class IncrementalHistogramBuilder {
 public:
  IncrementalHistogramBuilder(const BinnedMatrix* x,
                              const FeatureLayout* layout,
                              const SlotLayout* slots,
                              const CipherBackend* backend);

  /// Accumulates one instance. `ciphers` holds `channels` ciphers per row,
  /// row-major, indexed by global row id.
  void AddRow(uint32_t row, const std::vector<Cipher>& ciphers);
  /// Accumulates the contiguous row range [begin, end) — one grad batch.
  void AddRange(uint32_t begin, uint32_t end,
                const std::vector<Cipher>& ciphers);

  size_t rows_added() const { return rows_added_; }

  /// Finalizes every bin accumulator. The builder is spent afterwards.
  EncryptedHistogram Finalize(AccumulatorStats* stats);

 private:
  const BinnedMatrix* x_;
  const FeatureLayout* layout_;
  size_t channels_;
  std::vector<std::unique_ptr<CipherAccumulator>> acc_;  // channel-major
  size_t rows_added_ = 0;
};

/// Builds the encrypted histogram of one tree node from its instances. With
/// a pool of two or more workers, instance shards build partial histograms
/// that are then homomorphically merged (paper §3: "the local histograms
/// built by workers are further aggregated into global ones"). HAdds and
/// scalings accumulate into *stats when given.
EncryptedHistogram BuildEncryptedHistogram(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const SlotLayout& slots, const std::vector<uint32_t>& instances,
    const std::vector<Cipher>& ciphers, const CipherBackend& backend,
    AccumulatorStats* stats, ThreadPool* pool = nullptr);

/// Puts `hist` in the layout's transfer form (A side). Raw layouts pass each
/// bin cipher through as one slot. Packed layouts take per-feature *prefix
/// sums* per channel — split finding consumes prefix sums anyway — aligned
/// to the layout exponent, signed channels shifted nonnegative by one HAdd
/// per feature, then pack `capacity` slots per cipher (§5.2, Fig. 9).
/// The prefix pass is serial; the pack groups spread over `pool` when given
/// and keep their order, so the output does not depend on the pool. On
/// failure, the first failing group's status. HAdds, scalings and packs
/// accumulate into *stats when given.
Result<std::vector<PackedCipher>> PackHistogram(EncryptedHistogram hist,
                                                const FeatureLayout& layout,
                                                const SlotLayout& slots,
                                                const CipherBackend& backend,
                                                AccumulatorStats* stats,
                                                ThreadPool* pool = nullptr);

/// B side: a decrypted histogram before decoding. SlotLayout::channels ×
/// total_bins integer slots, channel-major like EncryptedHistogram, each at
/// its fixed-point exponent; packed layouts hold the per-feature prefix sums
/// as they were packed. Sibling subtraction works on these integers, so a
/// derived histogram decodes bit-identically to one A built and sent.
struct HistogramSlots {
  std::vector<BigInt> values;
  std::vector<int32_t> exponents;
};

/// B side, step 1: decrypts a PackHistogram output — one decryption per
/// cipher, CRT halves spread over `pool` when given — and unpacks the slots.
/// The ciphers come off the wire: ProtocolError unless every one has the
/// layout's slot width, at most its capacity of slots and an exponent the
/// layout can produce (the layout exponent when packed, the codec range when
/// raw), and the slots number exactly channels × total_bins.
Result<HistogramSlots> DecryptHistogramSlots(
    const std::vector<PackedCipher>& ciphers, const FeatureLayout& layout,
    const SlotLayout& slots, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool = nullptr);

/// B side: the larger sibling's slots, parent − smaller, in the integers of
/// the plaintext modulus `n`:
///  - signed raw: both aligned to the larger of their two exponents (×B^k
///    mod n), then subtracted mod n;
///  - signed packed: both slots carry the channel shift, so the difference
///    gets the shift's encoding at the layout exponent back;
///  - gh: plain subtraction.
/// Packed and gh slots come from A: ProtocolError unless every derived slot
/// is nonnegative and inside the layout window (a smaller-child slot above
/// its parent's would otherwise borrow into a wrong histogram).
Result<HistogramSlots> DeriveSiblingSlots(const HistogramSlots& parent,
                                          const HistogramSlots& smaller,
                                          const SlotLayout& slots,
                                          const BigInt& n);

/// B side, step 2: decodes every slot through SlotLayout::DecodeSlot and
/// rebuilds per-bin GradPairs, differencing prefix sums in packed layouts.
Result<Histogram> DecodeHistogram(const HistogramSlots& hist_slots,
                                  const FeatureLayout& layout,
                                  const SlotLayout& slots, const BigInt& n);

/// DecryptHistogramSlots then DecodeHistogram.
Result<Histogram> DecryptHistogram(const std::vector<PackedCipher>& ciphers,
                                   const FeatureLayout& layout,
                                   const SlotLayout& slots,
                                   const CipherBackend& backend,
                                   size_t* decryptions,
                                   ThreadPool* pool = nullptr);

}  // namespace vf2boost

#endif  // VF2BOOST_FED_ENC_HISTOGRAM_H_
