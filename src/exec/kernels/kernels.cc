#include "exec/kernels/kernels.h"

#include <cmath>
#include <cstring>

namespace bdcc {
namespace exec {
namespace kernels {

namespace internal {

namespace {

// ---- Scalar reference implementations ----
// These are the semantics contract: wider tiers must match them exactly.

void RangeMaskI32Scalar(const int32_t* v, size_t n, int32_t lo, int32_t hi,
                        uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

void RangeMaskI64Scalar(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                        uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(v[i] >= lo) &
               static_cast<uint8_t>(v[i] <= hi);
  }
}

void RangeMaskF64Scalar(const double* v, size_t n, double lo, double hi,
                        bool has_hi, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    bool nan = std::isnan(v[i]);
    mask[i] &= (static_cast<uint8_t>(v[i] >= lo) | nan) &
               (static_cast<uint8_t>(v[i] <= hi) |
                static_cast<uint8_t>(nan && !has_hi));
  }
}

void VerdictMaskI32Scalar(const int32_t* v, size_t n, const uint8_t* ok,
                          uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) mask[i] &= ok[v[i]];
}

size_t MaskToSelScalar(const uint8_t* mask, size_t n, uint32_t base,
                       std::vector<uint32_t>* out) {
  size_t before = out->size();
  size_t i = 0;
  // Word-at-a-time: skip all-zero octets, bulk-emit all-ones octets.
  constexpr uint64_t kAllOnes = 0x0101010101010101ull;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, mask + i, 8);
    if (w == 0) continue;
    if (w == kAllOnes) {
      for (int b = 0; b < 8; ++b) {
        out->push_back(base + static_cast<uint32_t>(i) + b);
      }
      continue;
    }
    for (int b = 0; b < 8; ++b) {
      if (mask[i + b]) out->push_back(base + static_cast<uint32_t>(i) + b);
    }
  }
  for (; i < n; ++i) {
    if (mask[i]) out->push_back(base + static_cast<uint32_t>(i));
  }
  return out->size() - before;
}

template <typename T>
void GatherScatterScalar(const T* src, const uint32_t* sel, size_t n,
                         T* dst) {
  // 4-wide unrolled so the loads pipeline.
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    T v0 = src[sel[j]];
    T v1 = src[sel[j + 1]];
    T v2 = src[sel[j + 2]];
    T v3 = src[sel[j + 3]];
    dst[j] = v0;
    dst[j + 1] = v1;
    dst[j + 2] = v2;
    dst[j + 3] = v3;
  }
  for (; j < n; ++j) dst[j] = src[sel[j]];
}

const KernelTable kScalarTable = {
    RangeMaskI32Scalar,    RangeMaskI64Scalar,
    RangeMaskF64Scalar,    VerdictMaskI32Scalar,
    MaskToSelScalar,       GatherScatterScalar<int32_t>,
    GatherScatterScalar<int64_t>, GatherScatterScalar<double>,
};

}  // namespace

const KernelTable* GetScalarTable() { return &kScalarTable; }

}  // namespace internal

namespace {

using internal::KernelTable;

// Effective table for the active tier, with per-entry scalar fallback
// resolved once per tier (cheap enough to rebuild on every lookup miss).
struct Resolved {
  KernelTable t;
  int tier = -1;
};

const KernelTable& Active() {
  thread_local Resolved r;
  int tier = static_cast<int>(simd::ActiveTier());
  if (r.tier != tier) {
    const KernelTable* base = internal::GetScalarTable();
    const KernelTable* wide = nullptr;
    if (tier == static_cast<int>(simd::Tier::kAvx2)) {
      wide = internal::GetAvx2Table();
    } else if (tier == static_cast<int>(simd::Tier::kNeon)) {
      wide = internal::GetNeonTable();
    }
    r.t = *base;
    if (wide != nullptr) {
      if (wide->range_mask_i32) r.t.range_mask_i32 = wide->range_mask_i32;
      if (wide->range_mask_i64) r.t.range_mask_i64 = wide->range_mask_i64;
      if (wide->range_mask_f64) r.t.range_mask_f64 = wide->range_mask_f64;
      if (wide->verdict_mask_i32) {
        r.t.verdict_mask_i32 = wide->verdict_mask_i32;
      }
      if (wide->mask_to_sel) r.t.mask_to_sel = wide->mask_to_sel;
      if (wide->gather_scatter_i32) {
        r.t.gather_scatter_i32 = wide->gather_scatter_i32;
      }
      if (wide->gather_scatter_i64) {
        r.t.gather_scatter_i64 = wide->gather_scatter_i64;
      }
      if (wide->gather_scatter_f64) {
        r.t.gather_scatter_f64 = wide->gather_scatter_f64;
      }
    }
    r.tier = tier;
  }
  return r.t;
}

// Shared run-detecting gather frame: contiguous ascending runs >= kMemcpyRun
// collapse to one memcpy (the dominant shape when a dense chunk carries a
// near-identity selection); scattered stretches go through the tier's
// scatter-gather primitive.
constexpr size_t kMemcpyRun = 8;

template <typename T, typename ScatterFn>
void GatherRuns(const T* src, const uint32_t* sel, size_t n, T* dst,
                ScatterFn scatter) {
  size_t i = 0;
  while (i < n) {
    uint32_t base = sel[i];
    size_t max_run = n - i;
    size_t run = 1;
    while (run < max_run && sel[i + run] == base + run) ++run;
    if (run >= kMemcpyRun) {
      std::memcpy(dst + i, src + base, run * sizeof(T));
      i += run;
      continue;
    }
    // Scattered stretch: extend past short runs until a memcpy-worthy run
    // could start, then hand the stretch to the tier gather.
    size_t end = i + run;
    while (end < n) {
      size_t r = 1;
      while (r < kMemcpyRun && end + r < n && sel[end + r] == sel[end] + r) {
        ++r;
      }
      if (r >= kMemcpyRun) break;
      end += r;
    }
    scatter(src, sel + i, end - i, dst + i);
    i = end;
  }
}

}  // namespace

void RangeMaskI32(const int32_t* v, size_t n, int32_t lo, int32_t hi,
                  uint8_t* mask) {
  Active().range_mask_i32(v, n, lo, hi, mask);
}

void RangeMaskI64(const int64_t* v, size_t n, int64_t lo, int64_t hi,
                  uint8_t* mask) {
  Active().range_mask_i64(v, n, lo, hi, mask);
}

void RangeMaskF64(const double* v, size_t n, double lo, double hi,
                  bool has_hi, uint8_t* mask) {
  Active().range_mask_f64(v, n, lo, hi, has_hi, mask);
}

void VerdictMaskI32(const int32_t* v, size_t n, const uint8_t* ok,
                    uint8_t* mask) {
  Active().verdict_mask_i32(v, n, ok, mask);
}

size_t MaskToSel(const uint8_t* mask, size_t n, uint32_t base,
                 std::vector<uint32_t>* out) {
  return Active().mask_to_sel(mask, n, base, out);
}

size_t CountMask(const uint8_t* mask, size_t n) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, mask + i, 8);
    // Mask bytes are 0/1, so the byte-sum fits in one lane-wise add.
    count += static_cast<size_t>((w * 0x0101010101010101ull) >> 56);
  }
  for (; i < n; ++i) count += mask[i];
  return count;
}

void GatherI32(const int32_t* src, const uint32_t* sel, size_t n,
               int32_t* dst) {
  GatherRuns(src, sel, n, dst, Active().gather_scatter_i32);
}

void GatherI64(const int64_t* src, const uint32_t* sel, size_t n,
               int64_t* dst) {
  GatherRuns(src, sel, n, dst, Active().gather_scatter_i64);
}

void GatherF64(const double* src, const uint32_t* sel, size_t n,
               double* dst) {
  GatherRuns(src, sel, n, dst, Active().gather_scatter_f64);
}

void GatherU8(const uint8_t* src, const uint32_t* sel, size_t n,
              uint8_t* dst) {
  GatherRuns(src, sel, n, dst,
             [](const uint8_t* s, const uint32_t* idx, size_t m,
                uint8_t* d) {
               for (size_t j = 0; j < m; ++j) d[j] = s[idx[j]];
             });
}

}  // namespace kernels
}  // namespace exec
}  // namespace bdcc
