// NEON kernel tier (aarch64). NEON is architecturally guaranteed on
// aarch64, so no runtime feature check is needed beyond the tier selection
// in common/simd.cc; on other architectures this TU degrades to a nullptr
// table and dispatch falls back to scalar.
//
// Only the hot range-mask kernels are vectorized here; the remaining
// entries inherit the scalar implementations (null table slots).
#include "exec/kernels/kernels.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace bdcc {
namespace exec {
namespace kernels {
namespace internal {

namespace {

void RangeMaskI32Neon(const int32_t* v, size_t n, int32_t lo, int32_t hi,
                      uint8_t* mask) {
  const int32x4_t vlo = vdupq_n_s32(lo);
  const int32x4_t vhi = vdupq_n_s32(hi);
  const uint8x8_t one = vdup_n_u8(1);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    int32x4_t a = vld1q_s32(v + i);
    int32x4_t b = vld1q_s32(v + i + 4);
    uint32x4_t pa = vandq_u32(vcgeq_s32(a, vlo), vcleq_s32(a, vhi));
    uint32x4_t pb = vandq_u32(vcgeq_s32(b, vlo), vcleq_s32(b, vhi));
    // Narrow 2x u32x4 all-ones/zero lanes to u8x8 of 0/1 bytes.
    uint16x8_t p16 = vcombine_u16(vmovn_u32(pa), vmovn_u32(pb));
    uint8x8_t bytes = vand_u8(vmovn_u16(p16), one);
    vst1_u8(mask + i, vand_u8(vld1_u8(mask + i), bytes));
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

void RangeMaskI64Neon(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                      uint8_t* mask) {
  const int64x2_t vlo = vdupq_n_s64(lo);
  const int64x2_t vhi = vdupq_n_s64(hi);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    int64x2_t a = vld1q_s64(v + i);
    uint64x2_t p = vandq_u64(vcgeq_s64(a, vlo), vcleq_s64(a, vhi));
    mask[i] &= static_cast<uint8_t>(vgetq_lane_u64(p, 0) & 1);
    mask[i + 1] &= static_cast<uint8_t>(vgetq_lane_u64(p, 1) & 1);
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

const KernelTable kNeonTable = {
    RangeMaskI32Neon,
    RangeMaskI64Neon,
    nullptr,  // f64: scalar (NaN plumbing not worth it here)
    nullptr,  // verdict: scalar
    nullptr,  // mask_to_sel: scalar
    nullptr,  // gathers: scalar (no hardware gather on NEON)
    nullptr,
    nullptr,
};

}  // namespace

const KernelTable* GetNeonTable() { return &kNeonTable; }

}  // namespace internal
}  // namespace kernels
}  // namespace exec
}  // namespace bdcc

#else  // !__aarch64__

namespace bdcc {
namespace exec {
namespace kernels {
namespace internal {

const KernelTable* GetNeonTable() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace exec
}  // namespace bdcc

#endif
