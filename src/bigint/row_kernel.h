#ifndef VF2BOOST_BIGINT_ROW_KERNEL_H_
#define VF2BOOST_BIGINT_ROW_KERNEL_H_

// The one row primitive every Montgomery product in modarith.cc is built on:
// rp[0..n) += up[0..n) * v, returning the carry limb (GMP's mpn_addmul_1).
// Two forms with identical results: mulx/adcx/adox inline assembly for x86-64
// CPUs with BMI2 and ADX, and portable 128-bit C++ for everything else.
// Internal to src/bigint; tests include it to check both forms directly.

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VF2_HAVE_MULX_ROW 1
#endif

namespace vf2boost {
namespace bigint_detail {

/// Signature shared by both row forms.
using AddMulRowFn = uint64_t (*)(uint64_t* rp, const uint64_t* up, size_t n,
                                 uint64_t v);

inline uint64_t AddMulRowPortable(uint64_t* rp, const uint64_t* up, size_t n,
                                  uint64_t v) {
  using u128 = unsigned __int128;
  uint64_t carry = 0;
  for (size_t j = 0; j < n; ++j) {
    const u128 cur = static_cast<u128>(up[j]) * v + rp[j] + carry;
    rp[j] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  return carry;
}

/// True when the running CPU has BMI2 (mulx) and ADX (adcx/adox); probed
/// once. Always false where AddMulRowMulx is not compiled.
inline bool CpuHasMulxAdx() {
#if defined(VF2_HAVE_MULX_ROW)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && __builtin_cpu_supports("adx");
  }();
  return has;
#else
  return false;
#endif
}

#if defined(VF2_HAVE_MULX_ROW)

/// Two independent carry chains: CF (adcx) adds each product's high limb
/// into the next product's low limb, OF (adox) adds the products into rp.
/// mulx, mov, lea and jrcxz leave both flags alone, so the loop control
/// never breaks a chain (dec would clobber OF). The n % 4 leading limbs go
/// one at a time, the rest four to an iteration. Requires BMI2 and ADX.
inline uint64_t AddMulRowMulx(uint64_t* rp, const uint64_t* up, size_t n,
                              uint64_t v) {
  uint64_t c, lo0, hi0, lo1, hi1;
  __asm__(
      "mov %%rcx, %[lo1]\n\t"
      "shr $2, %[lo1]\n\t"  // groups of four
      "and $3, %%ecx\n\t"   // leading single limbs
      "xor %k[c], %k[c]\n\t"  // c = 0, CF = OF = 0
      "1:\n\t"
      "jrcxz 2f\n\t"
      "mulx (%[up]), %[lo0], %[hi0]\n\t"
      "adcx %[c], %[lo0]\n\t"
      "adox (%[rp]), %[lo0]\n\t"
      "mov %[lo0], (%[rp])\n\t"
      "mov %[hi0], %[c]\n\t"
      "lea 8(%[up]), %[up]\n\t"
      "lea 8(%[rp]), %[rp]\n\t"
      "lea -1(%%rcx), %%rcx\n\t"
      "jmp 1b\n\t"
      "2:\n\t"
      "mov %[lo1], %%rcx\n\t"
      "3:\n\t"
      "jrcxz 4f\n\t"
      "mulx (%[up]), %[lo0], %[hi0]\n\t"
      "adcx %[c], %[lo0]\n\t"
      "adox (%[rp]), %[lo0]\n\t"
      "mov %[lo0], (%[rp])\n\t"
      "mulx 8(%[up]), %[lo1], %[hi1]\n\t"
      "adcx %[hi0], %[lo1]\n\t"
      "adox 8(%[rp]), %[lo1]\n\t"
      "mov %[lo1], 8(%[rp])\n\t"
      "mulx 16(%[up]), %[lo0], %[hi0]\n\t"
      "adcx %[hi1], %[lo0]\n\t"
      "adox 16(%[rp]), %[lo0]\n\t"
      "mov %[lo0], 16(%[rp])\n\t"
      "mulx 24(%[up]), %[lo1], %[c]\n\t"
      "adcx %[hi0], %[lo1]\n\t"
      "adox 24(%[rp]), %[lo1]\n\t"
      "mov %[lo1], 24(%[rp])\n\t"
      "lea 32(%[up]), %[up]\n\t"
      "lea 32(%[rp]), %[rp]\n\t"
      "lea -1(%%rcx), %%rcx\n\t"
      "jmp 3b\n\t"
      "4:\n\t"
      "mov $0, %k[lo0]\n\t"  // close both chains into the carry limb
      "adcx %[lo0], %[c]\n\t"
      "adox %[lo0], %[c]\n\t"
      : [c] "=&r"(c), [lo0] "=&r"(lo0), [hi0] "=&r"(hi0), [lo1] "=&r"(lo1),
        [hi1] "=&r"(hi1), [rp] "+r"(rp), [up] "+r"(up), "+c"(n)
      : "d"(v)
      : "cc", "memory");
  return c;
}

#endif  // VF2_HAVE_MULX_ROW

}  // namespace bigint_detail
}  // namespace vf2boost

#endif  // VF2BOOST_BIGINT_ROW_KERNEL_H_
