// Property tests cross-checking src/bigint against GMP. GMP is used ONLY
// here, as an independent oracle — the library itself never links it.

#include <gmp.h>
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "bigint/modarith.h"
#include "bigint/prime.h"
#include "common/random.h"
#include "crypto/encoding.h"

namespace vf2boost {
namespace {

// Converts via decimal strings, which independently exercises the string
// codecs too.
class Gmp {
 public:
  explicit Gmp(const BigInt& v) { mpz_init_set_str(z_, v.ToDecString().c_str(), 10); }
  Gmp() { mpz_init(z_); }
  ~Gmp() { mpz_clear(z_); }
  Gmp(const Gmp&) = delete;
  Gmp& operator=(const Gmp&) = delete;

  mpz_t& get() { return z_; }
  std::string Str() const {
    char* s = mpz_get_str(nullptr, 10, z_);
    std::string out(s);
    free(s);
    return out;
  }

 private:
  mutable mpz_t z_;
};

BigInt RandomSigned(size_t bits, Rng* rng) {
  BigInt v = BigInt::Random(bits, rng);
  return (rng->NextU64() & 1) ? -v : v;
}

TEST(BigIntOracle, AddSubMul) {
  Rng rng(1001);
  for (int i = 0; i < 400; ++i) {
    BigInt a = RandomSigned(1 + (i * 37) % 2000, &rng);
    BigInt b = RandomSigned(1 + (i * 53) % 2000, &rng);
    Gmp ga(a), gb(b), out;
    mpz_add(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a + b).ToDecString(), out.Str());
    mpz_sub(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a - b).ToDecString(), out.Str());
    mpz_mul(out.get(), ga.get(), gb.get());
    EXPECT_EQ((a * b).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, DivMod) {
  Rng rng(1003);
  for (int i = 0; i < 400; ++i) {
    BigInt a = RandomSigned(64 + (i * 41) % 1500, &rng);
    BigInt b = RandomSigned(1 + (i * 29) % 800, &rng);
    if (b.IsZero()) continue;
    Gmp ga(a), gb(b), q, r;
    mpz_tdiv_qr(q.get(), r.get(), ga.get(), gb.get());
    EXPECT_EQ((a / b).ToDecString(), q.Str());
    EXPECT_EQ((a % b).ToDecString(), r.Str());
  }
}

TEST(BigIntOracle, ModExpOddModuli) {
  Rng rng(1005);
  for (int i = 0; i < 40; ++i) {
    BigInt base = BigInt::Random(512, &rng);
    BigInt exp = BigInt::Random(256, &rng);
    BigInt m = BigInt::Random(512, &rng);
    if (m.IsEven()) m += BigInt(1);
    if (m.IsOne() || m.IsZero()) continue;
    Gmp gb(base), ge(exp), gm(m), out;
    mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
    EXPECT_EQ(ModExp(base, exp, m).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, ModExpPaillierShapedOperands) {
  // The exact operand shape Paillier uses: 2S-bit odd modulus n^2, S-bit
  // exponent, 2S-bit base.
  Rng rng(1007);
  for (size_t s : {256u, 512u}) {
    BigInt p = GeneratePrime(s / 2, &rng);
    BigInt q = GeneratePrime(s / 2, &rng);
    BigInt n = p * q;
    BigInt n2 = n * n;
    MontgomeryContext ctx(n2);
    for (int i = 0; i < 10; ++i) {
      BigInt base = BigInt::RandomBelow(n2, &rng);
      Gmp gb(base), ge(n), gm(n2), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(ctx.Pow(base, n).ToDecString(), out.Str());
    }
  }
}

TEST(BigIntOracle, FixedBasePowMatchesGmp) {
  // The fixed-base window table used for short-exponent Paillier nonces:
  // same operand shape (odd 2S-bit modulus, fixed base, 256-bit exponents).
  Rng rng(1006);
  for (size_t s : {256u, 512u}) {
    BigInt p = GeneratePrime(s / 2, &rng);
    BigInt q = GeneratePrime(s / 2, &rng);
    BigInt n2 = p * q * p * q;
    auto ctx = std::make_shared<MontgomeryContext>(n2);
    BigInt base = BigInt::RandomBelow(n2, &rng);
    FixedBasePowTable table(ctx, base, 256);
    for (int i = 0; i < 20; ++i) {
      // Sweep lengths, including degenerate exponents.
      BigInt exp = i == 0 ? BigInt(0) : BigInt::Random(1 + (i * 29) % 256, &rng);
      Gmp gb(base), ge(exp), gm(n2), out;
      mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
      EXPECT_EQ(table.Pow(exp).ToDecString(), out.Str())
          << "bits=" << s << " i=" << i;
      EXPECT_EQ(table.Pow(exp), ctx->Pow(base, exp));
    }
  }
}

TEST(BigIntOracle, PowMatchesGmpForEveryWindowShape) {
  // Pow picks its window from the exponent: a single set bit (the cipher
  // shifts 16^k and 2^M) and sub-24-bit exponents run table-free, longer
  // ones take the 4-bit window. The widest slot any layout in the suite
  // derives is the gh slot for 2^30 rows; shifts up to twice that are
  // covered.
  SlotLayoutParams params;
  params.gh = true;
  params.packing = true;
  params.max_count = 1u << 30;
  auto widest = MakeSlotLayout(FixedPointCodec(16, 8, 1), params, 2048);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  ASSERT_GT(widest->slot_bits, 0u);

  Rng rng(1010);
  std::vector<BigInt> exps = {BigInt(1), BigInt(2), BigInt(16),
                              BigInt(16 * 16), BigInt(16 * 16 * 16)};
  for (size_t j = 0; j <= 2 * widest->slot_bits; ++j) {
    exps.push_back(BigInt(1) << j);
  }
  for (size_t len = 1; len < 24; ++len) {
    exps.push_back(BigInt::Random(len - 1, &rng) + (BigInt(1) << (len - 1)));
    exps.push_back((BigInt(1) << len) - BigInt(1));  // all ones
  }
  exps.push_back(BigInt::Random(1024, &rng));

  for (size_t bits : {256u, 1024u, 2048u}) {
    BigInt m = BigInt::Random(bits - 1, &rng) + (BigInt(1) << (bits - 1));
    if (m.IsEven()) m += BigInt(1);
    MontgomeryContext ctx(m);
    const BigInt bases[] = {BigInt(0), BigInt(1), m - BigInt(1),
                            m + BigInt::RandomBelow(m, &rng)};
    for (const BigInt& base : bases) {
      for (const BigInt& exp : exps) {
        Gmp gb(base), ge(exp), gm(m), out;
        mpz_powm(out.get(), gb.get(), ge.get(), gm.get());
        ASSERT_EQ(ctx.Pow(base, exp).ToDecString(), out.Str())
            << "bits=" << bits << " exp=" << exp.ToDecString()
            << " base=" << base.ToDecString();
      }
    }
  }
}

TEST(BigIntOracle, ModInverse) {
  Rng rng(1009);
  for (int i = 0; i < 60; ++i) {
    BigInt m = BigInt::Random(256, &rng);
    if (m.BitLength() < 2) continue;
    BigInt a = BigInt::RandomBelow(m, &rng);
    Gmp ga(a), gm(m), out;
    const int invertible = mpz_invert(out.get(), ga.get(), gm.get());
    auto mine = ModInverse(a, m);
    EXPECT_EQ(mine.ok(), invertible != 0);
    if (mine.ok()) {
      EXPECT_EQ(mine.value().ToDecString(), out.Str());
    }
  }
}

TEST(BigIntOracle, Gcd) {
  Rng rng(1011);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::Random(300, &rng);
    BigInt b = BigInt::Random(200, &rng);
    Gmp ga(a), gb(b), out;
    mpz_gcd(out.get(), ga.get(), gb.get());
    EXPECT_EQ(Gcd(a, b).ToDecString(), out.Str());
  }
}

TEST(BigIntOracle, PrimalityAgreement) {
  Rng rng(1013);
  for (int i = 0; i < 60; ++i) {
    BigInt n = BigInt::Random(128, &rng);
    if (n.IsZero()) continue;
    Gmp gn(n);
    const bool gmp_prime = mpz_probab_prime_p(gn.get(), 30) > 0;
    EXPECT_EQ(IsProbablePrime(n, &rng), gmp_prime) << n.ToDecString();
  }
}

TEST(BigIntOracle, ShiftAgreement) {
  Rng rng(1015);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::Random(1 + (i * 31) % 900, &rng);
    unsigned long s = rng.NextBounded(300);
    Gmp ga(a), out;
    mpz_mul_2exp(out.get(), ga.get(), s);
    EXPECT_EQ((a << s).ToDecString(), out.Str());
    mpz_fdiv_q_2exp(out.get(), ga.get(), s);
    EXPECT_EQ((a >> s).ToDecString(), out.Str());
  }
}


// The nearest double to `v`, ties to even, from GMP. mpz_get_d truncates, so
// the value is compared exactly against the midpoint of the truncated double
// and the next one up.
double GmpNearestDouble(const BigInt& v) {
  Gmp gv(v), mag, twice, mid, next;
  mpz_abs(mag.get(), gv.get());
  const double lo = mpz_get_d(mag.get());
  const double hi = std::nextafter(lo, INFINITY);
  mpz_mul_2exp(twice.get(), mag.get(), 1);
  mpz_set_d(mid.get(), lo);
  mpz_set_d(next.get(), hi);
  mpz_add(mid.get(), mid.get(), next.get());
  const int cmp = mpz_cmp(twice.get(), mid.get());
  uint64_t lo_bits;
  std::memcpy(&lo_bits, &lo, sizeof(lo));
  const double out =
      cmp < 0 ? lo : cmp > 0 ? hi : ((lo_bits & 1) == 0 ? lo : hi);
  return mpz_sgn(gv.get()) < 0 ? -out : out;
}

TEST(BigIntOracle, ToDoubleRoundsOnceToNearestEven) {
  auto expect_nearest = [](const BigInt& v) {
    const double want = GmpNearestDouble(v);
    const double got = v.ToDouble();
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &want, sizeof(want));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits) << v.ToDecString();
  };
  // The double-rounding case a limb-by-limb fold gets wrong: the low limb's
  // own rounding drops the +1 that puts the value above the halfway point.
  const BigInt two_64 = BigInt(1) << 64;
  const BigInt v = two_64 + (BigInt(1) << 63) + (BigInt(1) << 11) + BigInt(1);
  EXPECT_EQ(v.ToDouble(), std::ldexp(1.0, 64) + std::ldexp(1.0, 63) +
                              std::ldexp(1.0, 12));
  expect_nearest(v);
  expect_nearest(-v);

  Rng rng(1017);
  for (int i = 0; i < 2000; ++i) {
    expect_nearest(RandomSigned(1 + i % 200, &rng));
  }
  // Exact ties, and one unit either side of them, at every width from the
  // first that rounds to 200 bits: a 53-bit mantissa (odd or even) followed
  // by a half-ulp.
  for (size_t width = 54; width <= 200; ++width) {
    for (int parity = 0; parity < 2; ++parity) {
      BigInt mantissa = BigInt::Random(52, &rng) + (BigInt(1) << 52);
      if (mantissa.TestBit(0) != (parity == 1)) mantissa += BigInt(1);
      const size_t low = width - 53;
      const BigInt tie = (mantissa << low) + (BigInt(1) << (low - 1));
      expect_nearest(tie);
      expect_nearest(tie + BigInt(1));
      expect_nearest(tie - BigInt(1));
      expect_nearest(-tie);
      // A sticky bit far below the rounding bit, past the top 64 bits.
      if (low > 12) expect_nearest(tie + (BigInt(1) << (low - 12)));
    }
  }
}

// Rescaling a fixed-point value by B^k and raising its exponent by k must
// not change what it decodes to: a cipher aligned to a higher exponent
// decodes exactly like the unaligned one.
TEST(BigIntOracle, DecodeIsInvariantUnderExponentAlignment) {
  Rng rng(1019);
  BigInt n = (BigInt(1) << 1023) + BigInt::Random(1000, &rng);
  if (!n.TestBit(0)) n += BigInt(1);
  for (const FixedPointCodec& codec :
       {FixedPointCodec(), FixedPointCodec(16, 6, 4), FixedPointCodec(16, 8, 1),
        FixedPointCodec(16, 0, 8)}) {
    size_t checked = 0;
    for (int i = 0; i < 2000; ++i) {
      const BigInt v = BigInt::Random(50 + i % 15, &rng);
      const int e = codec.min_exponent() +
                    static_cast<int>(rng.NextBounded(
                        static_cast<uint64_t>(codec.num_exponents())));
      for (int k = 0; k < codec.num_exponents(); ++k) {
        const BigInt scaled = v * codec.ScaleFactor(k);
        ASSERT_EQ(codec.Decode(scaled, e + k, n), codec.Decode(v, e, n))
            << v.ToDecString() << " e=" << e << " k=" << k;
        // Negative values live at n - |V|.
        ASSERT_EQ(codec.Decode(n - scaled, e + k, n),
                  codec.Decode(n - v, e, n))
            << "-" << v.ToDecString() << " e=" << e << " k=" << k;
        ++checked;
      }
    }
    EXPECT_GE(checked, 2000u);
  }
}

}  // namespace
}  // namespace vf2boost
