#ifndef VF2BOOST_BIGINT_MODARITH_H_
#define VF2BOOST_BIGINT_MODARITH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "common/result.h"

namespace vf2boost {

class MontgomeryContext;

/// Canonical residue of a mod m, in [0, m). m must be positive.
BigInt Mod(const BigInt& a, const BigInt& m);

/// (a + b) mod m with both inputs already reduced.
BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);
/// (a - b) mod m with both inputs already reduced.
BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m);
/// (a * b) mod m.
BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);

/// base^exp mod m, exp >= 0. Uses Montgomery arithmetic when m is odd
/// (the Paillier case), generic square-and-multiply otherwise.
///
/// Builds a fresh MontgomeryContext (R^2 reduction included) on every call;
/// hot loops against a fixed modulus should use the cached-context overload.
BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);

/// base^exp mod ctx.modulus() through a caller-cached context, skipping the
/// per-call setup cost entirely.
BigInt ModExp(const BigInt& base, const BigInt& exp,
              const MontgomeryContext& ctx);

/// Multiplicative inverse of a modulo m, or InvalidArgument when
/// gcd(a, m) != 1.
Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

BigInt Gcd(const BigInt& a, const BigInt& b);
BigInt Lcm(const BigInt& a, const BigInt& b);

/// \brief Precomputed Montgomery domain for a fixed odd modulus.
///
/// Paillier encryption/decryption performs thousands of exponentiations
/// against the same modulus (n or n^2), so the per-modulus setup (R^2 mod m,
/// -m^{-1} mod 2^64) is hoisted here. Products are operand-scanning: k rows
/// of one row primitive (bigint/row_kernel.h, mulx/adx where the CPU has it)
/// form the double-length product, k more rows reduce it (REDC), and one
/// conditional subtraction leaves the canonical residue.
///
/// The raw-limb API (`*Raw` methods) is the allocation-free hot path: every
/// operand is a plain k-limb little-endian array and the only per-call
/// storage is a thread-local scratch buffer that is reused across calls.
/// The BigInt-typed convenience wrappers allocate once for each returned
/// value and nothing else.
class MontgomeryContext {
 public:
  /// m must be odd and > 1.
  explicit MontgomeryContext(const BigInt& m);

  const BigInt& modulus() const { return m_; }
  /// Limb count k of the modulus; every raw-limb operand has this length.
  size_t num_limbs() const { return k_; }

  /// Converts into the Montgomery domain: a*R mod m.
  BigInt ToMont(const BigInt& a) const;
  /// Converts out of the Montgomery domain: a*R^{-1} mod m.
  BigInt FromMont(const BigInt& a) const;
  /// Montgomery product: a*b*R^{-1} mod m (both operands in-domain).
  BigInt MontMul(const BigInt& a, const BigInt& b) const;

  /// base^exp mod m (inputs/outputs in the ordinary domain).
  /// Window 1 (no table) for a power-of-two or sub-24-bit exponent, so a
  /// shift by 2^j costs j SqrReduceRaw calls between the two domain
  /// conversions; a 4-bit window otherwise.
  BigInt Pow(const BigInt& base, const BigInt& exp) const;

  /// a*b mod m for residues in the ordinary domain, as two reductions:
  /// (a*b*R^{-1}) * R^2 * R^{-1}. No division; operands at or above m take
  /// a reducing slow path first.
  BigInt MulMod(const BigInt& a, const BigInt& b) const;

  // --- raw-limb hot-path kernels (allocation-free) --------------------------

  /// Raw k-limb Montgomery product: out = a*b*R^{-1} mod m. All pointers
  /// reference k-limb little-endian arrays of residues below m; `out` may
  /// alias `a` and/or `b`.
  void MulReduceRaw(const uint64_t* a, const uint64_t* b, uint64_t* out) const;

  /// Raw k-limb Montgomery square: out = a*a*R^{-1} mod m, from the
  /// k(k-1)/2 off-diagonal limb products doubled plus the k diagonal ones.
  /// `out` may alias `a`.
  void SqrReduceRaw(const uint64_t* a, uint64_t* out) const;

  /// Loads a residue (must already be in [0, m)) into a zero-padded k-limb
  /// array.
  void LoadRaw(const BigInt& a, uint64_t* out) const;

  /// Converts a k-limb in-domain residue at `a` into an ordinary-domain
  /// BigInt (the one allocation of a raw computation chain).
  BigInt FromMontRaw(const uint64_t* a) const;

  /// k-limb Montgomery form of 1 (R mod m).
  const uint64_t* one_raw() const { return one_raw_.data(); }
  /// k-limb R^2 mod m — MulReduceRaw(x, r2_raw(), out) converts x into the
  /// Montgomery domain.
  const uint64_t* r2_raw() const { return r2_raw_.data(); }

 private:
  BigInt m_;
  size_t k_ = 0;        // limb count of m_
  uint64_t inv64_ = 0;  // -m^{-1} mod 2^64
  BigInt r2_;           // R^2 mod m
  BigInt one_mont_;     // R mod m (Montgomery form of 1)
  std::vector<uint64_t> r2_raw_;    // k-limb copy of r2_
  std::vector<uint64_t> one_raw_;   // k-limb copy of one_mont_
  std::vector<uint64_t> unit_raw_;  // k-limb literal 1 (for FromMont)
};

/// \brief Precomputed fixed-base windowed exponentiation (Lim-Lee style).
///
/// For a base that never changes — the Paillier obfuscation generator
/// h^n mod n^2 — precomputes base^(d * 2^(w*i)) for every window position i
/// and digit d, so an exponentiation is just one Montgomery multiply per
/// nonzero window and **zero squarings**. A 256-bit exponent at the default
/// 4-bit window costs <= 64 multiplies versus ~307 for windowed
/// square-and-multiply (256 squarings + ~51 multiplies).
class FixedBasePowTable {
 public:
  /// Builds the table for exponents in [0, 2^max_exp_bits). The context is
  /// shared (not copied); it must describe the modulus `base` lives under.
  FixedBasePowTable(std::shared_ptr<const MontgomeryContext> ctx, BigInt base,
                    size_t max_exp_bits, size_t window_bits = 4);

  /// base^exp mod m. exp must be in [0, 2^max_exp_bits).
  BigInt Pow(const BigInt& exp) const;

  const BigInt& base() const { return base_; }
  size_t max_exp_bits() const { return max_exp_bits_; }

 private:
  const uint64_t* Entry(size_t window, size_t digit) const {
    return table_.data() + (window * table_digits_ + (digit - 1)) * k_;
  }

  std::shared_ptr<const MontgomeryContext> ctx_;
  BigInt base_;
  size_t max_exp_bits_ = 0;
  size_t window_bits_ = 0;
  size_t num_windows_ = 0;
  size_t table_digits_ = 0;  // (1 << window_bits_) - 1, digit 0 is implicit
  size_t k_ = 0;
  std::vector<uint64_t> table_;  // [num_windows][table_digits][k], in-domain
};

}  // namespace vf2boost

#endif  // VF2BOOST_BIGINT_MODARITH_H_
