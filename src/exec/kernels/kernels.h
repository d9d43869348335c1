// Tier-dispatched data-parallel kernels behind the hot scan/filter/probe
// loops: typed range predicates over byte masks, verdict-table lookups,
// mask-to-selection conversion and gathers.
//
// Dispatch contract (see src/exec/README.md for the full rules):
//  * Every kernel has a scalar reference implementation; wider tiers
//    (AVX2, NEON) must be bit-for-bit equal to it for all inputs, including
//    NULL masks and tail lengths 0..vector_width-1.
//  * Masks are byte masks, one uint8_t per value, strictly 0 or 1. Range /
//    verdict kernels AND their result into the caller's mask, so predicates
//    compose by chaining calls.
//  * No alignment requirements: kernels use unaligned loads and handle the
//    ragged tail scalar. Inputs may not overlap outputs.
//  * The tier is resolved per call from simd::ActiveTier(), so tests can
//    flip tiers (simd::ForceTier / BDCC_SIMD) between calls.
#ifndef BDCC_EXEC_KERNELS_KERNELS_H_
#define BDCC_EXEC_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.h"

namespace bdcc {
namespace exec {
namespace kernels {

// ---- Range predicates: mask[i] &= (lo <= v[i] && v[i] <= hi) ----
void RangeMaskI32(const int32_t* v, size_t n, int32_t lo, int32_t hi,
                  uint8_t* mask);
void RangeMaskI64(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                  uint8_t* mask);
// Float ranges mirror the Filter comparator's NaN handling (NaN sorts
// last): NaN passes any lower bound and fails only an explicit upper bound
// (`has_hi`).
void RangeMaskF64(const double* v, size_t n, double lo, double hi,
                  bool has_hi, uint8_t* mask);

// ---- Verdict table (dict codes): mask[i] &= ok[v[i]] ----
// v[i] must index within the table (dict codes by construction).
void VerdictMaskI32(const int32_t* v, size_t n, const uint8_t* ok,
                    uint8_t* mask);

// ---- Mask consumption ----
/// Append base+i for every set mask byte to `out` (in order); returns the
/// number appended.
size_t MaskToSel(const uint8_t* mask, size_t n, uint32_t base,
                 std::vector<uint32_t>* out);
/// Number of set bytes in mask[0..n).
size_t CountMask(const uint8_t* mask, size_t n);

// ---- Gathers: dst[i] = src[sel[i]] ----
// Contiguous ascending runs collapse to memcpy; scattered stretches use the
// tier's gather (hardware gather on AVX2). sel values must be < 2^31.
void GatherI32(const int32_t* src, const uint32_t* sel, size_t n,
               int32_t* dst);
void GatherI64(const int64_t* src, const uint32_t* sel, size_t n,
               int64_t* dst);
void GatherF64(const double* src, const uint32_t* sel, size_t n, double* dst);
void GatherU8(const uint8_t* src, const uint32_t* sel, size_t n,
              uint8_t* dst);

namespace internal {

/// One tier's function table. Wider tiers may leave entries null to
/// inherit the scalar implementation.
struct KernelTable {
  void (*range_mask_i32)(const int32_t*, size_t, int32_t, int32_t,
                         uint8_t*) = nullptr;
  void (*range_mask_i64)(const int64_t*, size_t, int64_t, int64_t,
                         uint8_t*) = nullptr;
  void (*range_mask_f64)(const double*, size_t, double, double, bool,
                         uint8_t*) = nullptr;
  void (*verdict_mask_i32)(const int32_t*, size_t, const uint8_t*,
                           uint8_t*) = nullptr;
  size_t (*mask_to_sel)(const uint8_t*, size_t, uint32_t,
                        std::vector<uint32_t>*) = nullptr;
  void (*gather_scatter_i32)(const int32_t*, const uint32_t*, size_t,
                             int32_t*) = nullptr;
  void (*gather_scatter_i64)(const int64_t*, const uint32_t*, size_t,
                             int64_t*) = nullptr;
  void (*gather_scatter_f64)(const double*, const uint32_t*, size_t,
                             double*) = nullptr;
};

/// Tier tables: defined in their own translation units (the AVX2 one is
/// compiled with -mavx2); they return nullptr when the build cannot target
/// the tier, and dispatch falls back to scalar.
const KernelTable* GetScalarTable();
const KernelTable* GetAvx2Table();
const KernelTable* GetNeonTable();

}  // namespace internal

}  // namespace kernels
}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_KERNELS_KERNELS_H_
