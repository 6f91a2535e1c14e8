#include "bigint/modarith.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace vf2boost {
namespace {

// Restores the process-global kernel selection after each test so the rest
// of the suite keeps running under kAuto dispatch.
class KernelGuard {
 public:
  KernelGuard() : saved_(GetMontKernel()) {}
  ~KernelGuard() { SetMontKernel(saved_); }

 private:
  MontKernel saved_;
};

BigInt RandomOddModulus(size_t bits, Rng* rng) {
  BigInt n = BigInt::Random(bits, rng);
  n += BigInt(1) << (bits - 1);  // force the top bit: full limb count
  if (n.IsEven()) n += BigInt(1);
  return n;
}

// The AVX2 column-tiled kernel and the scalar CIOS kernel must produce
// identical Montgomery residues for every modulus size, including odd limb
// counts and the small rings kAuto keeps scalar.
TEST(ModArithSimd, KernelsAgreeAcrossSizes) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  KernelGuard guard;
  Rng rng(20260808);
  // Bit sizes chosen to cover k = 4..65 limbs, odd and even.
  const size_t kBits[] = {256, 320, 512, 576, 1024, 1088, 2048,
                          2112, 3072, 4096, 4160};
  for (size_t bits : kBits) {
    MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    for (int iter = 0; iter < 16; ++iter) {
      const BigInt a = BigInt::RandomBelow(ctx.modulus(), &rng);
      const BigInt b = BigInt::RandomBelow(ctx.modulus(), &rng);
      SetMontKernel(MontKernel::kScalar);
      const BigInt am_s = ctx.ToMont(a);
      const BigInt r_s = ctx.FromMont(ctx.MontMul(am_s, ctx.ToMont(b)));
      SetMontKernel(MontKernel::kAvx2);
      const BigInt am_v = ctx.ToMont(a);
      const BigInt r_v = ctx.FromMont(ctx.MontMul(am_v, ctx.ToMont(b)));
      ASSERT_EQ(am_s.Compare(am_v), 0) << bits << " bits, iter " << iter;
      ASSERT_EQ(r_s.Compare(r_v), 0) << bits << " bits, iter " << iter;
      ASSERT_EQ(r_s.Compare(Mod(a * b, ctx.modulus())), 0)
          << bits << " bits, iter " << iter;
    }
  }
}

TEST(ModArithSimd, PowAgreesUnderForcedKernels) {
  if (!CpuHasAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  KernelGuard guard;
  Rng rng(99);
  MontgomeryContext ctx(RandomOddModulus(2048, &rng));
  const BigInt base = BigInt::RandomBelow(ctx.modulus(), &rng);
  // One exponent per window shape: long (4-bit window), a power of two
  // (the squaring chain of a cipher shift) and short (binary, no table).
  for (const BigInt& exp :
       {BigInt::Random(256, &rng), BigInt(1) << 108, BigInt(0x4e3779)}) {
    SetMontKernel(MontKernel::kScalar);
    const BigInt scalar = ctx.Pow(base, exp);
    SetMontKernel(MontKernel::kAvx2);
    const BigInt vec = ctx.Pow(base, exp);
    EXPECT_EQ(scalar.Compare(vec), 0) << exp.ToDecString();
  }
}

TEST(ModArithSimd, AutoDispatchMatchesScalarEverywhere) {
  // Whatever kAuto picks per size, results must equal the scalar kernel.
  KernelGuard guard;
  Rng rng(7);
  for (size_t bits : {512u, 1024u, 2048u, 4096u}) {
    MontgomeryContext ctx(RandomOddModulus(bits, &rng));
    const BigInt a = BigInt::RandomBelow(ctx.modulus(), &rng);
    const BigInt b = BigInt::RandomBelow(ctx.modulus(), &rng);
    SetMontKernel(MontKernel::kScalar);
    const BigInt want = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    SetMontKernel(MontKernel::kAuto);
    const BigInt got = ctx.FromMont(ctx.MontMul(ctx.ToMont(a), ctx.ToMont(b)));
    EXPECT_EQ(got.Compare(want), 0) << bits;
  }
}

}  // namespace
}  // namespace vf2boost
