// AVX2 kernel tier. This translation unit is compiled with -mavx2 (see
// CMakeLists); everything is guarded so the file degrades to a nullptr
// table on toolchains/architectures that cannot target AVX2. Runtime CPUID
// dispatch (common/simd.h) guarantees these bodies only execute on hardware
// that supports them.
#include "exec/kernels/kernels.h"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <array>
#include <cstring>

namespace bdcc {
namespace exec {
namespace kernels {
namespace internal {

namespace {

// Expand an 8-bit lane mask to 8 bytes of 0/1 (bit b -> byte b).
// constexpr so this TU has no runtime static initializer: code in an
// -mavx2 TU must never run before the CPUID dispatch check.
constexpr std::array<uint64_t, 256> MakeBitsToBytes() {
  std::array<uint64_t, 256> t{};
  for (int m = 0; m < 256; ++m) {
    uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      if ((m >> b) & 1) w |= uint64_t{1} << (8 * b);
    }
    t[m] = w;
  }
  return t;
}
constexpr std::array<uint64_t, 256> kBitsToBytes = MakeBitsToBytes();

// AND the low `nbytes` 0/1 bytes of `bytes` into mask[0..nbytes).
inline void AndBytes8(uint8_t* mask, uint64_t bytes) {
  uint64_t cur;
  std::memcpy(&cur, mask, 8);
  cur &= bytes;
  std::memcpy(mask, &cur, 8);
}

inline void AndBytes4(uint8_t* mask, uint32_t bytes) {
  uint32_t cur;
  std::memcpy(&cur, mask, 4);
  cur &= bytes;
  std::memcpy(mask, &cur, 4);
}

void RangeMaskI32Avx2(const int32_t* v, size_t n, int32_t lo, int32_t hi,
                      uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi32(lo);
  const __m256i vhi = _mm256_set1_epi32(hi);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // fail = (lo > x) | (x > hi); pass lanes are the complement.
    __m256i fail = _mm256_or_si256(_mm256_cmpgt_epi32(vlo, x),
                                   _mm256_cmpgt_epi32(x, vhi));
    int pass = (~_mm256_movemask_ps(_mm256_castsi256_ps(fail))) & 0xFF;
    AndBytes8(mask + i, kBitsToBytes[pass]);
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

void RangeMaskI64Avx2(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                      uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    __m256i fail = _mm256_or_si256(_mm256_cmpgt_epi64(vlo, x),
                                   _mm256_cmpgt_epi64(x, vhi));
    int pass = (~_mm256_movemask_pd(_mm256_castsi256_pd(fail))) & 0xF;
    AndBytes4(mask + i, static_cast<uint32_t>(kBitsToBytes[pass]));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

void RangeMaskF64Avx2(const double* v, size_t n, double lo, double hi,
                      bool has_hi, uint8_t* mask) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    // Ordered compares are false for NaN; UNORD picks the NaN lanes out so
    // the scalar semantics (NaN sorts last) reproduce exactly.
    __m256d ge = _mm256_cmp_pd(x, vlo, _CMP_GE_OQ);
    __m256d le = _mm256_cmp_pd(x, vhi, _CMP_LE_OQ);
    __m256d nan = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
    __m256d lo_ok = _mm256_or_pd(ge, nan);
    __m256d hi_ok = has_hi ? le : _mm256_or_pd(le, nan);
    int pass = _mm256_movemask_pd(_mm256_and_pd(lo_ok, hi_ok)) & 0xF;
    AndBytes4(mask + i, static_cast<uint32_t>(kBitsToBytes[pass]));
  }
  for (; i < n; ++i) {
    bool nan = v[i] != v[i];
    mask[i] &= (static_cast<uint8_t>(v[i] >= lo) | nan) &
               (static_cast<uint8_t>(v[i] <= hi) |
                static_cast<uint8_t>(nan && !has_hi));
  }
}

size_t MaskToSelAvx2(const uint8_t* mask, size_t n, uint32_t base,
                     std::vector<uint32_t>* out) {
  size_t before = out->size();
  const __m256i zero = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask + i));
    uint32_t bits = static_cast<uint32_t>(
        ~_mm256_movemask_epi8(_mm256_cmpeq_epi8(m, zero)));
    if (bits == 0) continue;
    uint32_t at = base + static_cast<uint32_t>(i);
    if (bits == 0xFFFFFFFFu) {
      for (uint32_t b = 0; b < 32; ++b) out->push_back(at + b);
      continue;
    }
    while (bits != 0) {
      out->push_back(at + static_cast<uint32_t>(__builtin_ctz(bits)));
      bits &= bits - 1;
    }
  }
  for (; i < n; ++i) {
    if (mask[i]) out->push_back(base + static_cast<uint32_t>(i));
  }
  return out->size() - before;
}

void GatherScatterI32Avx2(const int32_t* src, const uint32_t* sel, size_t n,
                          int32_t* dst) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sel + i));
    __m256i g = _mm256_i32gather_epi32(src, idx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), g);
  }
  for (; i < n; ++i) dst[i] = src[sel[i]];
}

void GatherScatterI64Avx2(const int64_t* src, const uint32_t* sel, size_t n,
                          int64_t* dst) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    __m256i g = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(src), idx, 8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), g);
  }
  for (; i < n; ++i) dst[i] = src[sel[i]];
}

void GatherScatterF64Avx2(const double* src, const uint32_t* sel, size_t n,
                          double* dst) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    // The masked form with a zeroed source and every lane enabled loads the
    // same values; the unmasked intrinsic reads an uninitialized source
    // register, which GCC 12 flags (-Wmaybe-uninitialized).
    __m256d g = _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), src, idx,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    _mm256_storeu_pd(dst + i, g);
  }
  for (; i < n; ++i) dst[i] = src[sel[i]];
}

const KernelTable kAvx2Table = {
    RangeMaskI32Avx2,  RangeMaskI64Avx2, RangeMaskF64Avx2,
    nullptr,  // verdict table lookups stay scalar (byte gathers would
              // over-read the table; the scalar loop is load-bound anyway)
    MaskToSelAvx2,     GatherScatterI32Avx2, GatherScatterI64Avx2,
    GatherScatterF64Avx2,
};

}  // namespace

const KernelTable* GetAvx2Table() { return &kAvx2Table; }

}  // namespace internal
}  // namespace kernels
}  // namespace exec
}  // namespace bdcc

#else  // !__AVX2__

namespace bdcc {
namespace exec {
namespace kernels {
namespace internal {

const KernelTable* GetAvx2Table() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace exec
}  // namespace bdcc

#endif
