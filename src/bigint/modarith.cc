#include "bigint/modarith.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "bigint/row_kernel.h"
#include "common/logging.h"

namespace vf2boost {

namespace {

using u128 = unsigned __int128;
using bigint_detail::AddMulRowFn;

// Per-thread product buffer: the 2k-limb double-length product that the
// REDC rows then reduce in place. Reused across calls, so the steady state
// performs no heap traffic.
uint64_t* ProductScratch(size_t k) {
  thread_local std::vector<uint64_t> scratch;
  if (scratch.size() < 2 * k) scratch.resize(2 * k);
  return scratch.data();
}

// Row-wise REDC of the 2k-limb t < m*R into out = t*R^{-1} mod m. Row i
// picks q with t[i] + q*m[0] = 0 mod 2^64, so adding q*m at limb i zeroes
// t[i]; that dead limb parks the row's carry, which belongs at limb i+k.
// One pass then adds the parked carries to the high half: the sum is below
// 2m, so one conditional subtraction leaves the canonical residue.
template <AddMulRowFn Row>
void Redc(uint64_t* t, const uint64_t* m, size_t k, uint64_t inv,
          uint64_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const uint64_t q = t[i] * inv;
    t[i] = Row(t + i, m, k, q);
  }
  uint64_t* hi = t + k;
  uint64_t carry = 0;
  for (size_t i = 0; i < k; ++i) {
    const u128 cur = static_cast<u128>(hi[i]) + t[i] + carry;
    hi[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  bool ge = carry != 0;
  if (!ge) {
    ge = true;
    for (size_t i = k; i-- > 0;) {
      if (hi[i] != m[i]) {
        ge = hi[i] > m[i];
        break;
      }
    }
  }
  if (!ge) {
    std::copy(hi, hi + k, out);
    return;
  }
  uint64_t borrow = 0;
  for (size_t i = 0; i < k; ++i) {
    const u128 d = static_cast<u128>(hi[i]) - m[i] - borrow;
    out[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
}

// t = a*b over k rows; `out` is written only by the final Redc step, after
// the last read of a and b, so it may alias either.
template <AddMulRowFn Row>
void MulRedc(const uint64_t* a, const uint64_t* b, const uint64_t* m,
             size_t k, uint64_t inv, uint64_t* out) {
  uint64_t* t = ProductScratch(k);
  std::fill(t, t + 2 * k, 0);
  for (size_t i = 0; i < k; ++i) t[i + k] = Row(t + i, b, k, a[i]);
  Redc<Row>(t, m, k, inv, out);
}

// t = a^2: row i adds a[i]*a[i+1..k) at limb 2i+1 (each off-diagonal
// product once), then one pass doubles t and adds the diagonal a[i]^2 at
// limb 2i.
template <AddMulRowFn Row>
void SqrRedc(const uint64_t* a, const uint64_t* m, size_t k, uint64_t inv,
             uint64_t* out) {
  uint64_t* t = ProductScratch(k);
  std::fill(t, t + 2 * k, 0);
  for (size_t i = 0; i + 1 < k; ++i) {
    t[i + k] = Row(t + 2 * i + 1, a + i + 1, k - 1 - i, a[i]);
  }
  uint64_t shifted_out = 0;  // top bit of the previous limb
  uint64_t carry = 0;
  auto double_and_add = [&](uint64_t* limb, uint64_t diag) {
    const uint64_t doubled = (*limb << 1) | shifted_out;
    shifted_out = *limb >> 63;
    const u128 cur = static_cast<u128>(doubled) + diag + carry;
    *limb = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  };
  for (size_t i = 0; i < k; ++i) {
    const u128 sq = static_cast<u128>(a[i]) * a[i];
    double_and_add(t + 2 * i, static_cast<uint64_t>(sq));
    double_and_add(t + 2 * i + 1, static_cast<uint64_t>(sq >> 64));
  }
  Redc<Row>(t, m, k, inv, out);
}

}  // namespace

BigInt Mod(const BigInt& a, const BigInt& m) {
  BigInt r = a % m;
  if (r.IsNegative()) r += m;
  return r;
}

BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt r = a + b;
  if (r.Compare(m) >= 0) r -= m;
  return r;
}

BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt r = a - b;
  if (r.IsNegative()) r += m;
  return r;
}

BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(a * b, m);
}

BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  VF2_CHECK(!exp.IsNegative()) << "negative exponent";
  if (m.IsOne()) return BigInt();
  if (m.IsOdd()) {
    MontgomeryContext ctx(m);
    return ctx.Pow(base, exp);
  }
  // Generic square-and-multiply for even moduli (not used by Paillier).
  BigInt result(1);
  BigInt b = Mod(base, m);
  const size_t bits = exp.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (exp.TestBit(i)) result = ModMul(result, b, m);
    b = ModMul(b, b, m);
  }
  return result;
}

BigInt ModExp(const BigInt& base, const BigInt& exp,
              const MontgomeryContext& ctx) {
  return ctx.Pow(base, exp);
}

Result<BigInt> ModInverse(const BigInt& a, const BigInt& m) {
  // Iterative extended Euclid on (a mod m, m).
  BigInt r0 = Mod(a, m), r1 = m;
  BigInt s0(1), s1(0);
  while (!r1.IsZero()) {
    BigInt q, r;
    BigInt::DivMod(r0, r1, &q, &r);
    BigInt s = s0 - q * s1;
    r0 = r1;
    r1 = r;
    s0 = s1;
    s1 = s;
  }
  if (!r0.IsOne()) {
    return Status::InvalidArgument("not invertible: gcd != 1");
  }
  return Mod(s0, m);
}

BigInt Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.IsNegative() ? -a : a;
  BigInt y = b.IsNegative() ? -b : b;
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = y;
    y = r;
  }
  return x;
}

BigInt Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  return (a * b) / Gcd(a, b);
}

MontgomeryContext::MontgomeryContext(const BigInt& m) : m_(m) {
  VF2_CHECK(m.IsOdd() && m.BitLength() > 1)
      << "Montgomery modulus must be odd and > 1";
  k_ = m.limbs().size();
  // inv64_ = -m^{-1} mod 2^64 via Newton iteration (5 steps double precision
  // each time: 2 -> 4 -> 8 -> 16 -> 32 -> 64 bits).
  const uint64_t m0 = m.limbs()[0];
  uint64_t x = m0;  // correct mod 2^3 already since m0 odd: x*m0 ≡ 1 mod 8
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  inv64_ = ~x + 1;  // -m^{-1}

  // R^2 mod m where R = 2^(64k).
  r2_ = Mod(BigInt(1) << (128 * k_), m_);
  one_mont_ = Mod(BigInt(1) << (64 * k_), m_);

  r2_raw_.assign(k_, 0);
  LoadRaw(r2_, r2_raw_.data());
  one_raw_.assign(k_, 0);
  LoadRaw(one_mont_, one_raw_.data());
  unit_raw_.assign(k_, 0);
  unit_raw_[0] = 1;
}

void MontgomeryContext::MulReduceRaw(const uint64_t* a, const uint64_t* b,
                                     uint64_t* out) const {
#if defined(VF2_HAVE_MULX_ROW)
  if (bigint_detail::CpuHasMulxAdx()) {
    MulRedc<bigint_detail::AddMulRowMulx>(a, b, m_.limbs().data(), k_, inv64_,
                                          out);
    return;
  }
#endif
  MulRedc<bigint_detail::AddMulRowPortable>(a, b, m_.limbs().data(), k_,
                                            inv64_, out);
}

void MontgomeryContext::SqrReduceRaw(const uint64_t* a, uint64_t* out) const {
#if defined(VF2_HAVE_MULX_ROW)
  if (bigint_detail::CpuHasMulxAdx()) {
    SqrRedc<bigint_detail::AddMulRowMulx>(a, m_.limbs().data(), k_, inv64_,
                                          out);
    return;
  }
#endif
  SqrRedc<bigint_detail::AddMulRowPortable>(a, m_.limbs().data(), k_, inv64_,
                                            out);
}

void MontgomeryContext::LoadRaw(const BigInt& a, uint64_t* out) const {
  const std::vector<uint64_t>& limbs = a.limbs();
  VF2_DCHECK(!a.IsNegative() && limbs.size() <= k_);
  std::copy(limbs.begin(), limbs.end(), out);
  std::fill(out + limbs.size(), out + k_, 0);
}

BigInt MontgomeryContext::FromMontRaw(const uint64_t* a) const {
  std::vector<uint64_t> out(k_);
  MulReduceRaw(a, unit_raw_.data(), out.data());
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return MontMul(Mod(a, m_), r2_);
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  thread_local std::vector<uint64_t> pad;
  if (pad.size() < k_) pad.resize(k_);
  LoadRaw(a, pad.data());
  return FromMontRaw(pad.data());
}

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  VF2_DCHECK(!a.IsNegative() && !b.IsNegative());
  thread_local std::vector<uint64_t> pads;
  if (pads.size() < 2 * k_) pads.resize(2 * k_);
  uint64_t* av = pads.data();
  uint64_t* bv = av + k_;
  LoadRaw(a, av);
  LoadRaw(b, bv);
  std::vector<uint64_t> out(k_);
  MulReduceRaw(av, bv, out.data());
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::MulMod(const BigInt& a, const BigInt& b) const {
  thread_local std::vector<uint64_t> pads;
  if (pads.size() < 2 * k_) pads.resize(2 * k_);
  uint64_t* av = pads.data();
  uint64_t* bv = av + k_;
  auto load = [&](const BigInt& v, uint64_t* out) {
    if (v.IsNegative() || v.Compare(m_) >= 0) {
      LoadRaw(Mod(v, m_), out);
    } else {
      LoadRaw(v, out);
    }
  };
  load(a, av);
  load(b, bv);
  MulReduceRaw(av, bv, av);  // a*b*R^{-1}
  std::vector<uint64_t> out(k_);
  MulReduceRaw(av, r2_raw_.data(), out.data());  // * R^2 * R^{-1}
  return BigInt::FromLimbs(std::move(out));
}

BigInt MontgomeryContext::Pow(const BigInt& base, const BigInt& exp) const {
  VF2_CHECK(!exp.IsNegative()) << "negative exponent";
  if (exp.IsZero()) return Mod(BigInt(1), m_);

  // Left-to-right square-and-multiply over raw limb buffers with a window
  // picked from the exponent. A single set bit — every cipher shift Party A
  // makes, B^k alignment and 2^M packing — and exponents under 24 bits
  // (OpenSSL's BN_window_bits_for_exponent_size cutoff) take window 1: no
  // table, so 2^j costs j squarings. Longer exponents take a fixed 4-bit
  // window, table[d] = base^d in the Montgomery domain. The accumulator
  // starts at the top window's entry rather than squaring one through it.
  // One thread-local arena holds the table and the accumulator, so the
  // whole loop performs no heap allocation.
  constexpr size_t kMaxWindow = 4;
  constexpr size_t kArenaEntries = (size_t{1} << kMaxWindow) + 1;  // + acc
  const size_t bits = exp.BitLength();
  size_t set_bits = 0;
  for (uint64_t limb : exp.limbs()) set_bits += std::popcount(limb);
  const size_t window = (set_bits == 1 || bits < 24) ? 1 : kMaxWindow;
  const size_t table_size = size_t{1} << window;
  thread_local std::vector<uint64_t> arena;
  if (arena.size() < kArenaEntries * k_) arena.resize(kArenaEntries * k_);
  uint64_t* table = arena.data();  // entry d at table + d*k_; d = 0 unused
  uint64_t* acc = table + table_size * k_;

  const BigInt* b = &base;
  BigInt reduced;
  if (base.IsNegative() || base.Compare(m_) >= 0) {
    reduced = Mod(base, m_);
    b = &reduced;
  }
  LoadRaw(*b, table + k_);
  MulReduceRaw(table + k_, r2_raw_.data(), table + k_);  // into the domain
  for (size_t d = 2; d < table_size; ++d) {
    MulReduceRaw(table + (d - 1) * k_, table + k_, table + d * k_);
  }

  auto digit = [&](size_t w) {
    size_t idx = 0;
    for (size_t s = window; s-- > 0;) {
      idx = (idx << 1) | (exp.TestBit(w * window + s) ? 1 : 0);
    }
    return idx;
  };
  const size_t windows = (bits + window - 1) / window;
  // The top window holds the exponent's leading bit, so its digit is nonzero.
  const size_t top = digit(windows - 1);
  std::copy(table + top * k_, table + (top + 1) * k_, acc);
  for (size_t w = windows - 1; w-- > 0;) {
    for (size_t s = 0; s < window; ++s) SqrReduceRaw(acc, acc);
    const size_t idx = digit(w);
    if (idx) MulReduceRaw(acc, table + idx * k_, acc);
  }
  return FromMontRaw(acc);
}

FixedBasePowTable::FixedBasePowTable(
    std::shared_ptr<const MontgomeryContext> ctx, BigInt base,
    size_t max_exp_bits, size_t window_bits)
    : ctx_(std::move(ctx)),
      base_(std::move(base)),
      max_exp_bits_(max_exp_bits),
      window_bits_(window_bits),
      k_(ctx_->num_limbs()) {
  VF2_CHECK(window_bits_ >= 1 && window_bits_ <= 8) << "bad window";
  VF2_CHECK(max_exp_bits_ >= 1) << "empty exponent range";
  num_windows_ = (max_exp_bits_ + window_bits_ - 1) / window_bits_;
  table_digits_ = (size_t{1} << window_bits_) - 1;
  table_.assign(num_windows_ * table_digits_ * k_, 0);

  // g_i = base^(2^(w*i)) in the Montgomery domain; entry (i, d) = g_i^d.
  std::vector<uint64_t> g(k_);
  ctx_->LoadRaw(Mod(base_, ctx_->modulus()), g.data());
  ctx_->MulReduceRaw(g.data(), ctx_->r2_raw(), g.data());
  for (size_t i = 0; i < num_windows_; ++i) {
    uint64_t* first = table_.data() + i * table_digits_ * k_;
    std::copy(g.begin(), g.end(), first);  // digit 1
    for (size_t d = 2; d <= table_digits_; ++d) {
      ctx_->MulReduceRaw(first + (d - 2) * k_, g.data(), first + (d - 1) * k_);
    }
    for (size_t s = 0; s < window_bits_; ++s) {
      ctx_->SqrReduceRaw(g.data(), g.data());
    }
  }
}

BigInt FixedBasePowTable::Pow(const BigInt& exp) const {
  VF2_CHECK(!exp.IsNegative() && exp.BitLength() <= max_exp_bits_)
      << "fixed-base exponent out of range";
  thread_local std::vector<uint64_t> acc;
  if (acc.size() < k_) acc.resize(k_);
  std::copy(ctx_->one_raw(), ctx_->one_raw() + k_, acc.data());
  const size_t windows =
      std::min(num_windows_, (exp.BitLength() + window_bits_ - 1) / window_bits_);
  for (size_t i = 0; i < windows; ++i) {
    size_t digit = 0;
    for (size_t s = window_bits_; s-- > 0;) {
      digit = (digit << 1) | (exp.TestBit(i * window_bits_ + s) ? 1 : 0);
    }
    if (digit) ctx_->MulReduceRaw(acc.data(), Entry(i, digit), acc.data());
  }
  return ctx_->FromMontRaw(acc.data());
}

}  // namespace vf2boost
