#include "fed/enc_histogram.h"

#include <algorithm>
#include <iterator>

namespace vf2boost {

IncrementalHistogramBuilder::IncrementalHistogramBuilder(
    const BinnedMatrix* x, const FeatureLayout* layout,
    const SlotLayout* slots, const CipherBackend* backend)
    : x_(x), layout_(layout), channels_(slots->channels) {
  acc_.resize(channels_ * layout->total_bins());
  for (auto& acc : acc_) {
    if (slots->reordered) {
      acc = std::make_unique<ReorderedCipherAccumulator>(backend);
    } else {
      acc = std::make_unique<NaiveCipherAccumulator>(backend);
    }
  }
}

void IncrementalHistogramBuilder::AddRow(uint32_t row,
                                         const std::vector<Cipher>& ciphers) {
  const auto cols = x_->RowColumns(row);
  const auto bins = x_->RowBins(row);
  const size_t total = layout_->total_bins();
  for (size_t k = 0; k < cols.size(); ++k) {
    const size_t flat = layout_->Flat(cols[k], bins[k]);
    for (size_t c = 0; c < channels_; ++c) {
      acc_[c * total + flat]->Add(ciphers[row * channels_ + c]);
    }
  }
  ++rows_added_;
}

void IncrementalHistogramBuilder::AddRange(uint32_t begin, uint32_t end,
                                           const std::vector<Cipher>& ciphers) {
  for (uint32_t i = begin; i < end; ++i) AddRow(i, ciphers);
}

EncryptedHistogram IncrementalHistogramBuilder::Finalize(
    AccumulatorStats* stats) {
  EncryptedHistogram out;
  out.reserve(acc_.size());
  for (auto& acc : acc_) {
    out.push_back(acc->Finalize());
    if (stats != nullptr) {
      stats->hadds += acc->stats().hadds;
      stats->scalings += acc->stats().scalings;
    }
  }
  return out;
}

EncryptedHistogram BuildEncryptedHistogram(
    const BinnedMatrix& x, const FeatureLayout& layout,
    const SlotLayout& slots, const std::vector<uint32_t>& instances,
    const std::vector<Cipher>& ciphers, const CipherBackend& backend,
    AccumulatorStats* stats, ThreadPool* pool) {
  auto build = [&](auto begin, auto end, AccumulatorStats* shard_stats) {
    IncrementalHistogramBuilder builder(&x, &layout, &slots, &backend);
    for (auto it = begin; it != end; ++it) builder.AddRow(*it, ciphers);
    return builder.Finalize(shard_stats);
  };
  if (pool == nullptr || pool->num_threads() < 2 || instances.size() < 64) {
    return build(instances.begin(), instances.end(), stats);
  }
  const size_t shards = pool->num_threads();
  const size_t chunk = (instances.size() + shards - 1) / shards;
  std::vector<EncryptedHistogram> partial(shards);
  std::vector<AccumulatorStats> partial_stats(shards);
  pool->ParallelFor(shards, [&](size_t s) {
    const size_t begin = s * chunk;
    const size_t end = std::min(instances.size(), begin + chunk);
    if (begin >= end) return;
    partial[s] = build(instances.begin() + begin, instances.begin() + end,
                       &partial_stats[s]);
  });

  // Aggregate worker-local histograms into the global one (one HAdd per
  // cipher per extra shard; exponents are aligned on demand).
  EncryptedHistogram out = std::move(partial[0]);
  AccumulatorStats merge;
  for (size_t s = 1; s < shards; ++s) {
    for (size_t i = 0; i < partial[s].size(); ++i) {
      out[i] = backend.HAdd(out[i], partial[s][i], &merge.scalings);
      ++merge.hadds;
    }
  }
  if (stats != nullptr) {
    partial_stats.push_back(merge);
    for (const AccumulatorStats& ps : partial_stats) {
      stats->hadds += ps.hadds;
      stats->scalings += ps.scalings;
    }
  }
  return out;
}

Result<std::vector<PackedCipher>> PackHistogram(EncryptedHistogram hist,
                                                const FeatureLayout& layout,
                                                const SlotLayout& slots,
                                                const CipherBackend& backend,
                                                AccumulatorStats* stats,
                                                ThreadPool* pool) {
  std::vector<PackedCipher> out;
  if (!slots.packed()) {
    out.reserve(hist.size());
    for (Cipher& c : hist) {
      out.push_back({std::move(c.data), c.exponent, 0, 1});
    }
    return out;
  }
  const size_t total = layout.total_bins();
  AccumulatorStats local;
  // Per-feature prefix sums of every channel, channel-major like `hist`.
  std::vector<Cipher> prefix;
  prefix.reserve(hist.size());
  for (size_t c = 0; c < slots.channels; ++c) {
    // Signed slots can be negative: the channel's shift, added once to the
    // first bin of each feature, carries into every prefix (Fig. 9 step 1).
    // gh slots are offset-encoded nonnegative and need none.
    const Cipher shift =
        slots.gh() ? Cipher{}
                   : backend.EncryptPublicAt(slots.shift[c], slots.exponent);
    for (uint32_t f = 0; f < layout.num_features(); ++f) {
      Cipher run;
      for (size_t b = 0; b < layout.NumBins(f); ++b) {
        Cipher& bin =
            hist[c * total + layout.Flat(f, static_cast<uint32_t>(b))];
        if (bin.exponent != slots.exponent) {
          bin = backend.ScaleTo(bin, slots.exponent);
          ++local.scalings;
        }
        if (b > 0) {
          run.data = backend.HAddRaw(run.data, bin.data);
          ++local.hadds;
        } else {
          run = std::move(bin);
          if (!slots.gh()) {
            run.data = backend.HAddRaw(run.data, shift.data);
            ++local.hadds;
          }
        }
        prefix.push_back(run);
      }
    }
  }

  // A pack group is `capacity` consecutive prefix slots of one channel;
  // groups are numbered channel by channel and each lands in its own output
  // position, so the cipher order does not depend on the pool.
  const size_t per_channel = (total + slots.capacity - 1) / slots.capacity;
  const size_t groups = slots.channels * per_channel;
  out.resize(groups);
  std::vector<Status> status(groups);
  auto pack = [&](size_t g) {
    const size_t channel = g / per_channel;
    const size_t begin = channel * total + (g % per_channel) * slots.capacity;
    const size_t end =
        std::min<size_t>((channel + 1) * total, begin + slots.capacity);
    const std::vector<Cipher> group(
        std::make_move_iterator(prefix.begin() + begin),
        std::make_move_iterator(prefix.begin() + end));
    Result<PackedCipher> packed = PackCiphers(group, slots.slot_bits, backend);
    if (packed.ok()) {
      out[g] = std::move(packed).value();
    } else {
      status[g] = packed.status();
    }
  };
  if (pool == nullptr) {
    for (size_t g = 0; g < groups; ++g) pack(g);
  } else {
    pool->ParallelFor(groups, pack);
  }
  // The first failing group in group order, whatever the schedule.
  for (const Status& st : status) VF2_RETURN_IF_ERROR(st);
  if (stats != nullptr) {
    stats->hadds += local.hadds;
    stats->scalings += local.scalings;
    stats->packs += groups;
  }
  return out;
}

Result<HistogramSlots> DecryptHistogramSlots(
    const std::vector<PackedCipher>& ciphers, const FeatureLayout& layout,
    const SlotLayout& slots, const CipherBackend& backend,
    size_t* decryptions, ThreadPool* pool) {
  if (!backend.can_decrypt()) {
    return Status::CryptoError("backend has no private key");
  }
  const FixedPointCodec& codec = slots.codec;
  size_t num_slots = 0;
  std::vector<BigInt> raw;
  raw.reserve(ciphers.size());
  for (const PackedCipher& pc : ciphers) {
    // Only the layout's own geometry decodes to the right bins, and
    // num_slots sizes the unpacking below.
    if (pc.slot_bits != slots.slot_bits || pc.num_slots == 0 ||
        pc.num_slots > slots.capacity) {
      return Status::ProtocolError(
          "histogram cipher geometry does not match the slot layout");
    }
    // Sibling derivation rescales by B^(exponent difference), so the
    // exponent must be one A's accumulation can produce.
    if (slots.packed() ? pc.exponent != slots.exponent
                       : (pc.exponent < codec.min_exponent() ||
                          pc.exponent > codec.max_exponent())) {
      return Status::ProtocolError(
          "histogram cipher exponent outside the slot layout");
    }
    num_slots += pc.num_slots;
    raw.push_back(pc.data);
  }
  if (num_slots != slots.channels * layout.total_bins()) {
    return Status::ProtocolError("histogram size does not match layout");
  }
  const std::vector<BigInt> plains = backend.DecryptRawBatch(raw, pool);
  if (decryptions != nullptr) *decryptions += raw.size();

  HistogramSlots out;
  out.values.reserve(num_slots);
  out.exponents.reserve(num_slots);
  for (size_t p = 0; p < ciphers.size(); ++p) {
    for (BigInt& slot : UnpackPlaintext(plains[p], slots.slot_bits,
                                        ciphers[p].num_slots)) {
      out.values.push_back(std::move(slot));
      out.exponents.push_back(ciphers[p].exponent);
    }
  }
  return out;
}

Result<HistogramSlots> DeriveSiblingSlots(const HistogramSlots& parent,
                                          const HistogramSlots& smaller,
                                          const SlotLayout& slots,
                                          const BigInt& n) {
  const size_t size = parent.values.size();
  if (smaller.values.size() != size || parent.exponents.size() != size ||
      smaller.exponents.size() != size) {
    return Status::ProtocolError("sibling histogram size does not match");
  }
  const bool signed_raw = !slots.gh() && !slots.packed();
  // B^k for every exponent gap the codec range allows.
  std::vector<BigInt> factor;
  for (int k = 0; signed_raw && k < slots.codec.num_exponents(); ++k) {
    factor.push_back(slots.codec.ScaleFactor(k));
  }
  auto align = [&](const BigInt& v, int32_t from, int32_t to) {
    return from == to ? v : (v * factor[to - from]) % n;
  };
  // Signed packed slots carry the channel shift; gh slots and raw ones none.
  BigInt shift[2];
  if (!slots.gh() && slots.packed()) {
    for (size_t c = 0; c < slots.channels; ++c) {
      shift[c] = slots.codec.Encode(slots.shift[c], slots.exponent, n);
    }
  }
  const size_t per_channel = size / slots.channels;
  HistogramSlots out;
  out.values.reserve(size);
  out.exponents = parent.exponents;
  for (size_t i = 0; i < size; ++i) {
    const BigInt& p = parent.values[i];
    const BigInt& s = smaller.values[i];
    if (signed_raw) {
      const int32_t e = std::max(parent.exponents[i], smaller.exponents[i]);
      BigInt diff = align(p, parent.exponents[i], e) -
                    align(s, smaller.exponents[i], e);
      if (diff.IsNegative()) diff += n;
      out.values.push_back(std::move(diff));
      out.exponents[i] = e;
      continue;
    }
    BigInt diff = p - s + shift[i / per_channel];
    const bool in_window =
        !diff.IsNegative() &&
        (slots.gh() ? slots.CheckGh(diff).ok()
                    : diff.BitLength() <= slots.slot_bits);
    if (!in_window) {
      return Status::ProtocolError(
          "smaller-child histogram exceeds its parent's");
    }
    out.values.push_back(std::move(diff));
  }
  return out;
}

Result<Histogram> DecodeHistogram(const HistogramSlots& hist_slots,
                                  const FeatureLayout& layout,
                                  const SlotLayout& slots, const BigInt& n) {
  const size_t total = layout.total_bins();
  if (hist_slots.values.size() != slots.channels * total) {
    return Status::ProtocolError("histogram size does not match layout");
  }
  // Slot i belongs to channel i / total and bin i % total.
  std::vector<GradPair> values(total);
  for (size_t i = 0; i < hist_slots.values.size(); ++i) {
    VF2_RETURN_IF_ERROR(slots.DecodeSlot(hist_slots.values[i],
                                         hist_slots.exponents[i], i / total,
                                         n, &values[i % total]));
  }

  Histogram hist(total);
  if (!slots.packed()) {
    for (size_t i = 0; i < total; ++i) hist.bin(i) = values[i];
    return hist;
  }
  for (uint32_t f = 0; f < layout.num_features(); ++f) {
    GradPair prev;
    for (size_t b = 0; b < layout.NumBins(f); ++b) {
      const size_t flat = layout.Flat(f, static_cast<uint32_t>(b));
      hist.bin(flat) = values[flat] - prev;
      prev = values[flat];
    }
  }
  return hist;
}

Result<Histogram> DecryptHistogram(const std::vector<PackedCipher>& ciphers,
                                   const FeatureLayout& layout,
                                   const SlotLayout& slots,
                                   const CipherBackend& backend,
                                   size_t* decryptions, ThreadPool* pool) {
  VF2_ASSIGN_OR_RETURN(HistogramSlots hist_slots,
                       DecryptHistogramSlots(ciphers, layout, slots, backend,
                                             decryptions, pool));
  return DecodeHistogram(hist_slots, layout, slots, backend.plain_modulus());
}

}  // namespace vf2boost
