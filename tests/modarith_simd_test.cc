// The Montgomery kernel checked against GMP as an oracle: both forms of the
// row primitive against mpn_addmul_1, the raw products and MulMod against
// mpz arithmetic over every limb count from 1 to 65, and Pow against
// mpz_powm for each window shape. GMP is used only here and in the other
// oracle tests; the library never links it.

#include <gmp.h>
#include <gtest/gtest.h>

#include <vector>

#include "bigint/modarith.h"
#include "bigint/row_kernel.h"
#include "common/random.h"

namespace vf2boost {
namespace {

using bigint_detail::AddMulRowFn;

// RAII mpz_t filled from k little-endian limbs.
class Mpz {
 public:
  Mpz() { mpz_init(z_); }
  Mpz(const uint64_t* limbs, size_t k) : Mpz() {
    mpz_import(z_, k, -1, sizeof(uint64_t), 0, 0, limbs);
  }
  explicit Mpz(const BigInt& v) : Mpz(v.limbs().data(), v.limbs().size()) {}
  ~Mpz() { mpz_clear(z_); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;

  mpz_ptr get() { return z_; }

  /// Zero-padded k-limb copy; the value must fit.
  std::vector<uint64_t> Limbs(size_t k) const {
    EXPECT_LE(mpz_sizeinbase(z_, 2), 64 * k);
    std::vector<uint64_t> out(k, 0);
    mpz_export(out.data(), nullptr, -1, sizeof(uint64_t), 0, 0, z_);
    return out;
  }

 private:
  mpz_t z_;
};

std::vector<uint64_t> RandomLimbs(size_t n, bool all_ones, Rng* rng) {
  std::vector<uint64_t> out(n);
  for (uint64_t& limb : out) limb = all_ones ? ~uint64_t{0} : rng->NextU64();
  return out;
}

void CheckRow(AddMulRowFn row, const char* name) {
  Rng rng(0x5eed);
  for (size_t n = 1; n <= 70; ++n) {
    for (int shape = 0; shape < 4; ++shape) {
      // Shapes: random, all-ones rp and up, v = 2^64-1, all three at once.
      const bool ones = shape == 1 || shape == 3;
      const uint64_t v = shape >= 2 ? ~uint64_t{0} : rng.NextU64();
      const std::vector<uint64_t> up = RandomLimbs(n, ones, &rng);
      std::vector<uint64_t> got = RandomLimbs(n, ones, &rng);
      std::vector<uint64_t> want = got;
      const uint64_t carry = row(got.data(), up.data(), n, v);
      const mp_limb_t want_carry = mpn_addmul_1(
          reinterpret_cast<mp_limb_t*>(want.data()),
          reinterpret_cast<const mp_limb_t*>(up.data()),
          static_cast<mp_size_t>(n), v);
      ASSERT_EQ(carry, want_carry) << name << " n=" << n << " shape=" << shape;
      ASSERT_EQ(got, want) << name << " n=" << n << " shape=" << shape;
    }
  }
  uint64_t untouched = 7;
  EXPECT_EQ(row(&untouched, nullptr, 0, 3), 0u) << name << " n=0";
  EXPECT_EQ(untouched, 7u) << name << " n=0";
}

TEST(RowKernelTest, PortableRowMatchesMpnAddmul) {
  CheckRow(bigint_detail::AddMulRowPortable, "portable");
}

TEST(RowKernelTest, MulxRowMatchesMpnAddmul) {
#if defined(VF2_HAVE_MULX_ROW)
  if (!bigint_detail::CpuHasMulxAdx()) GTEST_SKIP() << "no BMI2+ADX";
  CheckRow(bigint_detail::AddMulRowMulx, "mulx");
#else
  GTEST_SKIP() << "mulx row not compiled on this target";
#endif
}

// The moduli every product check runs over for a k-limb ring: random with
// the top bit set, all-ones limbs, and 2^(64k-1) + 1.
std::vector<BigInt> EdgeModuli(size_t k, Rng* rng) {
  const size_t bits = 64 * k;
  BigInt random = BigInt::Random(bits, rng);
  if (!random.TestBit(bits - 1)) random += BigInt(1) << (bits - 1);
  if (random.IsEven()) random += BigInt(1);
  return {random, (BigInt(1) << bits) - BigInt(1),
          (BigInt(1) << (bits - 1)) + BigInt(1)};
}

// Operands 0, 1, m-1 and random residues, as k-limb arrays.
std::vector<std::vector<uint64_t>> EdgeOperands(const MontgomeryContext& ctx,
                                                Rng* rng) {
  const BigInt& m = ctx.modulus();
  std::vector<std::vector<uint64_t>> out;
  for (const BigInt& v : {BigInt(0), BigInt(1), m - BigInt(1),
                          BigInt::RandomBelow(m, rng),
                          BigInt::RandomBelow(m, rng)}) {
    out.emplace_back(ctx.num_limbs());
    ctx.LoadRaw(v, out.back().data());
  }
  return out;
}

TEST(MontgomeryProductTest, ProductsMatchMpzForEveryLimbCount) {
  Rng rng(20261019);
  for (size_t k = 1; k <= 65; ++k) {
    for (const BigInt& m : EdgeModuli(k, &rng)) {
      const MontgomeryContext ctx(m);
      ASSERT_EQ(ctx.num_limbs(), k);
      Mpz zm(m);
      Mpz r_inv;  // R^{-1} mod m, R = 2^(64k)
      mpz_setbit(r_inv.get(), 64 * k);
      ASSERT_NE(mpz_invert(r_inv.get(), r_inv.get(), zm.get()), 0);
      // a*b*R^{-1} mod m, or a*b mod m when `montgomery` is false.
      auto expect = [&](const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b, bool montgomery) {
        Mpz za(a.data(), k), zb(b.data(), k), out;
        mpz_mul(out.get(), za.get(), zb.get());
        if (montgomery) mpz_mul(out.get(), out.get(), r_inv.get());
        mpz_mod(out.get(), out.get(), zm.get());
        return out.Limbs(k);
      };
      const auto operands = EdgeOperands(ctx, &rng);
      for (const auto& a : operands) {
        for (const auto& b : operands) {
          std::vector<uint64_t> got(k);
          ctx.MulReduceRaw(a.data(), b.data(), got.data());
          ASSERT_EQ(got, expect(a, b, true)) << "MulReduceRaw k=" << k;
          const BigInt prod = ctx.MulMod(BigInt::FromLimbs(a),
                                         BigInt::FromLimbs(b));
          ASSERT_EQ(Mpz(prod).Limbs(k), expect(a, b, false))
              << "MulMod k=" << k;
        }
        const std::vector<uint64_t> square = expect(a, a, true);
        std::vector<uint64_t> got(k);
        ctx.SqrReduceRaw(a.data(), got.data());
        ASSERT_EQ(got, square) << "SqrReduceRaw k=" << k;
        // out == a == b: the in-place chains Pow and the pow tables run.
        std::vector<uint64_t> inplace = a;
        ctx.MulReduceRaw(inplace.data(), inplace.data(), inplace.data());
        ASSERT_EQ(inplace, square) << "aliased MulReduceRaw k=" << k;
        inplace = a;
        ctx.SqrReduceRaw(inplace.data(), inplace.data());
        ASSERT_EQ(inplace, square) << "aliased SqrReduceRaw k=" << k;
      }
    }
  }
}

TEST(MontgomeryProductTest, MulModReducesOutOfRangeOperands) {
  Rng rng(41);
  const BigInt m = EdgeModuli(4, &rng)[0];
  const MontgomeryContext ctx(m);
  const BigInt a = m + BigInt::RandomBelow(m, &rng);  // in [m, 2m)
  const BigInt b = (m << 70) + BigInt(12345);         // wider than m
  const BigInt c = -BigInt::RandomBelow(m, &rng);
  EXPECT_EQ(ctx.MulMod(a, b), Mod(a * b, m));
  EXPECT_EQ(ctx.MulMod(c, a), Mod(c * a, m));
}

BigInt RandomOddModulus(size_t bits, Rng* rng) {
  BigInt n = BigInt::Random(bits, rng);
  n += BigInt(1) << (bits - 1);  // force the top bit: full limb count
  if (n.IsEven()) n += BigInt(1);
  return n;
}

// Pow against mpz_powm across 256-4160-bit moduli (k = 4..65 limbs, odd
// and even), for each window shape Pow picks: a long exponent (4-bit
// window), a power of two (the squaring chain of a cipher shift) and a
// short one (binary, no table).
TEST(MontgomeryPowTest, PowMatchesMpzPowmAcrossSizes) {
  Rng rng(20260808);
  const size_t kBits[] = {256, 320, 512, 576, 1024, 1088, 2048,
                          2112, 3072, 4096, 4160};
  for (size_t bits : kBits) {
    const MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    const BigInt base = BigInt::RandomBelow(ctx.modulus(), &rng);
    for (const BigInt& exp :
         {BigInt::Random(256, &rng), BigInt(1) << 108, BigInt(0x4e3779)}) {
      Mpz zb(base), ze(exp), zm(ctx.modulus()), want;
      mpz_powm(want.get(), zb.get(), ze.get(), zm.get());
      EXPECT_EQ(Mpz(ctx.Pow(base, exp)).Limbs(ctx.num_limbs()),
                want.Limbs(ctx.num_limbs()))
          << bits << " bits, exp " << exp.ToDecString();
    }
  }
}

}  // namespace
}  // namespace vf2boost
