// Montgomery kernel yardstick: time per call of src/bigint's modular
// primitives divided by GMP's for the same job, single-threaded, at 1024-
// and 2048-bit moduli. A ratio of 1.0 is GMP speed; lower is faster.
//
//   ModExpVsGmp/<bits>  MontgomeryContext::Pow (cached context) against
//                       mpz_powm, half-length exponent.
//   SqrVsGmp/<bits>     SqrReduceRaw against mpn_sqr followed by a row-wise
//                       REDC built from mpn_addmul_1.
//   MulModVsGmp/<bits>  MontgomeryContext::MulMod (Paillier's HAdd) against
//                       mpz_mul followed by mpz_mod.
//
// Every pair is checked for equal results before it is timed. Built only
// when GMP is found; the library itself never links GMP.
//
//   bench_montgomery_gmp [--json BENCH_montgomery.json]

#include <gmp.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bigint/modarith.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/timer.h"

namespace vf2boost {
namespace {

class Mpz {
 public:
  explicit Mpz(const BigInt& v) {
    mpz_init(z_);
    mpz_import(z_, v.limbs().size(), -1, sizeof(uint64_t), 0, 0,
               v.limbs().data());
  }
  Mpz() { mpz_init(z_); }
  ~Mpz() { mpz_clear(z_); }
  Mpz(const Mpz&) = delete;
  Mpz& operator=(const Mpz&) = delete;
  mpz_ptr get() { return z_; }

  BigInt ToBigInt() const {
    std::vector<uint64_t> limbs(mpz_size(z_));
    mpz_export(limbs.data(), nullptr, -1, sizeof(uint64_t), 0, 0, z_);
    return BigInt::FromLimbs(std::move(limbs));
  }

 private:
  mpz_t z_;
};

// Median over 7 rounds of the per-call time of `fn`; each round runs long
// enough (~20 ms) for the clock to resolve it.
template <typename Fn>
double MicrosPerCall(Fn fn) {
  size_t calls = 1;
  for (;;) {
    Stopwatch sw;
    for (size_t i = 0; i < calls; ++i) fn();
    if (sw.ElapsedSeconds() > 0.02) break;
    calls *= 2;
  }
  std::vector<double> rounds;
  for (int r = 0; r < 7; ++r) {
    Stopwatch sw;
    for (size_t i = 0; i < calls; ++i) fn();
    rounds.push_back(sw.ElapsedSeconds() * 1e6 / static_cast<double>(calls));
  }
  std::nth_element(rounds.begin(), rounds.begin() + 3, rounds.end());
  return rounds[3];
}

BigInt OddModulus(size_t bits, Rng* rng) {
  BigInt m = BigInt::Random(bits, rng);
  if (!m.TestBit(bits - 1)) m += BigInt(1) << (bits - 1);
  if (m.IsEven()) m += BigInt(1);
  return m;
}

// out = t * R^{-1} mod m for the 2k-limb t, from GMP's mpn_addmul_1 rows:
// the same REDC the library runs, on GMP's row primitive.
void GmpRedc(mp_limb_t* t, const mp_limb_t* m, mp_size_t k, mp_limb_t inv,
             mp_limb_t* out) {
  for (mp_size_t i = 0; i < k; ++i) t[i] = mpn_addmul_1(t + i, m, k, t[i] * inv);
  const mp_limb_t carry = mpn_add_n(out, t + k, t, k);
  if (carry != 0 || mpn_cmp(out, m, k) >= 0) mpn_sub_n(out, out, m, k);
}

void Measure(size_t bits, bench::JsonWriter* json) {
  Rng rng(bits);
  const BigInt m = OddModulus(bits, &rng);
  const MontgomeryContext ctx(m);
  const size_t k = ctx.num_limbs();
  const BigInt a = BigInt::RandomBelow(m, &rng);
  const BigInt b = BigInt::RandomBelow(m, &rng);
  const BigInt exp = BigInt::Random(bits / 2, &rng);
  Mpz zm(m), za(a), zb(b), ze(exp), zout;

  // Pow against mpz_powm.
  mpz_powm(zout.get(), za.get(), ze.get(), zm.get());
  VF2_CHECK(ctx.Pow(a, exp) == zout.ToBigInt()) << "Pow mismatch";
  BigInt sink;
  const double pow_us = MicrosPerCall([&] { sink = ctx.Pow(a, exp); });
  const double powm_us = MicrosPerCall(
      [&] { mpz_powm(zout.get(), za.get(), ze.get(), zm.get()); });

  // One Montgomery squaring.
  std::vector<uint64_t> x(k), ours(k), theirs(k), t(2 * k);
  ctx.LoadRaw(a, x.data());
  const uint64_t m0 = m.limbs()[0];
  uint64_t inv = m0;  // Newton: m0^{-1} mod 2^64, then negated
  for (int i = 0; i < 5; ++i) inv *= 2 - m0 * inv;
  inv = ~inv + 1;
  auto gmp_sqr = [&] {
    mpn_sqr(reinterpret_cast<mp_limb_t*>(t.data()),
            reinterpret_cast<const mp_limb_t*>(x.data()),
            static_cast<mp_size_t>(k));
    GmpRedc(reinterpret_cast<mp_limb_t*>(t.data()),
            reinterpret_cast<const mp_limb_t*>(m.limbs().data()),
            static_cast<mp_size_t>(k), inv,
            reinterpret_cast<mp_limb_t*>(theirs.data()));
  };
  ctx.SqrReduceRaw(x.data(), ours.data());
  gmp_sqr();
  VF2_CHECK(ours == theirs) << "squaring mismatch";
  const double sqr_us =
      MicrosPerCall([&] { ctx.SqrReduceRaw(x.data(), ours.data()); });
  const double gmp_sqr_us = MicrosPerCall(gmp_sqr);

  // a*b mod m, as Paillier's HAdd computes it.
  mpz_mul(zout.get(), za.get(), zb.get());
  mpz_mod(zout.get(), zout.get(), zm.get());
  VF2_CHECK(ctx.MulMod(a, b) == zout.ToBigInt()) << "MulMod mismatch";
  const double mulmod_us = MicrosPerCall([&] { sink = ctx.MulMod(a, b); });
  const double gmp_mulmod_us = MicrosPerCall([&] {
    mpz_mul(zout.get(), za.get(), zb.get());
    mpz_mod(zout.get(), zout.get(), zm.get());
  });

  const std::string suffix = "/" + std::to_string(bits);
  std::printf("%5zu bits  Pow %8.2f us vs mpz_powm %8.2f us  (%.2fx)\n", bits,
              pow_us, powm_us, pow_us / powm_us);
  std::printf("%5zu bits  Sqr %8.3f us vs mpn_sqr+redc %8.3f us  (%.2fx)\n",
              bits, sqr_us, gmp_sqr_us, sqr_us / gmp_sqr_us);
  std::printf("%5zu bits  MulMod %8.3f us vs mpz_mul+mod %8.3f us  (%.2fx)\n",
              bits, mulmod_us, gmp_mulmod_us, mulmod_us / gmp_mulmod_us);
  json->Add("ModExpVsGmp" + suffix, pow_us / powm_us, "x");
  json->Add("SqrVsGmp" + suffix, sqr_us / gmp_sqr_us, "x");
  json->Add("MulModVsGmp" + suffix, mulmod_us / gmp_mulmod_us, "x");
}

}  // namespace
}  // namespace vf2boost

int main(int argc, char** argv) {
  const std::string json_path =
      vf2boost::bench::TakeStringFlag(&argc, argv, "--json");
  vf2boost::bench::JsonWriter json;
  for (size_t bits : {1024, 2048}) vf2boost::Measure(bits, &json);
  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;
  return 0;
}
