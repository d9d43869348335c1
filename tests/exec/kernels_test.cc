// SIMD-vs-scalar kernel equality: every dispatchable tier must produce
// bit-identical results to the scalar reference for all kernels, across
// NULL masks, adversarial values, and every tail length 0..vector_width-1.
// Forcing a tier the host cannot run clamps to scalar (simd::ForceTier
// returns what was applied), so the sweep is safe on any machine.
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "exec/kernels/kernels.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace exec {
namespace kernels {
namespace {

constexpr simd::Tier kAllTiers[] = {simd::Tier::kScalar, simd::Tier::kNeon,
                                    simd::Tier::kAvx2};

// Restores env/hardware tier selection when a test scope ends.
struct TierGuard {
  ~TierGuard() { simd::ResetTier(); }
};

// Lengths that cover empty input, every ragged tail of an 8-lane vector,
// exact multiples, and a stretch long enough to hit unrolled main loops.
std::vector<size_t> TestLengths() {
  std::vector<size_t> n;
  for (size_t i = 0; i <= 9; ++i) n.push_back(i);
  n.push_back(15);
  n.push_back(16);
  n.push_back(17);
  n.push_back(255);
  n.push_back(256);
  n.push_back(1000);
  return n;
}

std::vector<uint8_t> RandomMask(Rng* rng, size_t n) {
  std::vector<uint8_t> m(n);
  for (size_t i = 0; i < n; ++i) m[i] = rng->Uniform(0, 1);
  return m;
}

TEST(KernelDispatchTest, ForceTierClampsAndReports) {
  TierGuard guard;
  simd::Tier hw = simd::DetectTier();
  for (simd::Tier t : kAllTiers) {
    simd::Tier applied = simd::ForceTier(t);
    EXPECT_EQ(applied, simd::ActiveTier());
    // Never wider than the hardware, and exact when the request fits.
    EXPECT_LE(static_cast<int>(applied), static_cast<int>(hw));
    if (static_cast<int>(t) <= static_cast<int>(hw)) {
      EXPECT_EQ(applied, t);
    }
  }
  simd::ResetTier();
  EXPECT_EQ(simd::ActiveTier(), simd::DetectTier());
}

TEST(KernelEqualityTest, RangeMaskI32AllTiers) {
  TierGuard guard;
  Rng rng(7);
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  for (size_t n : TestLengths()) {
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 3)) {
        case 0: v[i] = static_cast<int32_t>(rng.Uniform(0, 1000)) - 500; break;
        case 1: v[i] = kMin; break;
        case 2: v[i] = kMax; break;
        default: v[i] = static_cast<int32_t>(rng.Next64()); break;
      }
    }
    struct Bounds { int32_t lo, hi; };
    const Bounds bounds[] = {
        {-100, 100}, {kMin, kMax}, {kMax, kMin} /* empty */, {0, 0},
        {kMin, 0},   {0, kMax}};
    for (const Bounds& b : bounds) {
      std::vector<uint8_t> init = RandomMask(&rng, n);
      simd::ForceTier(simd::Tier::kScalar);
      std::vector<uint8_t> want = init;
      RangeMaskI32(v.data(), n, b.lo, b.hi, want.data());
      for (simd::Tier t : kAllTiers) {
        simd::ForceTier(t);
        std::vector<uint8_t> got = init;
        RangeMaskI32(v.data(), n, b.lo, b.hi, got.data());
        ASSERT_EQ(got, want) << "tier=" << simd::TierName(t) << " n=" << n
                             << " lo=" << b.lo << " hi=" << b.hi;
      }
    }
  }
}

TEST(KernelEqualityTest, RangeMaskI64AllTiers) {
  TierGuard guard;
  Rng rng(11);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (size_t n : TestLengths()) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      int c = rng.Uniform(0, 3);
      v[i] = c == 0 ? static_cast<int64_t>(rng.Uniform(0, 1000)) - 500
             : c == 1 ? kMin
             : c == 2 ? kMax
                      : static_cast<int64_t>(rng.Next64());
    }
    struct Bounds { int64_t lo, hi; };
    const Bounds bounds[] = {{-100, 100}, {kMin, kMax}, {1, 0}, {kMin, -1}};
    for (const Bounds& b : bounds) {
      std::vector<uint8_t> init = RandomMask(&rng, n);
      simd::ForceTier(simd::Tier::kScalar);
      std::vector<uint8_t> want = init;
      RangeMaskI64(v.data(), n, b.lo, b.hi, want.data());
      for (simd::Tier t : kAllTiers) {
        simd::ForceTier(t);
        std::vector<uint8_t> got = init;
        RangeMaskI64(v.data(), n, b.lo, b.hi, got.data());
        ASSERT_EQ(got, want) << "tier=" << simd::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelEqualityTest, RangeMaskF64AllTiersIncludingNaN) {
  TierGuard guard;
  Rng rng(13);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (size_t n : TestLengths()) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) {
      switch (rng.Uniform(0, 4)) {
        case 0: v[i] = rng.NextDouble() * 200 - 100; break;
        case 1: v[i] = kNan; break;
        case 2: v[i] = kInf; break;
        case 3: v[i] = -kInf; break;
        default: v[i] = -0.0; break;
      }
    }
    struct Bounds { double lo, hi; bool has_hi; };
    const Bounds bounds[] = {{-50.0, 50.0, true},
                             {-kInf, kInf, true},
                             {0.0, kInf, false},  // no upper: NaN passes
                             {-kInf, 0.0, true}};
    for (const Bounds& b : bounds) {
      std::vector<uint8_t> init = RandomMask(&rng, n);
      simd::ForceTier(simd::Tier::kScalar);
      std::vector<uint8_t> want = init;
      RangeMaskF64(v.data(), n, b.lo, b.hi, b.has_hi, want.data());
      for (simd::Tier t : kAllTiers) {
        simd::ForceTier(t);
        std::vector<uint8_t> got = init;
        RangeMaskF64(v.data(), n, b.lo, b.hi, b.has_hi, got.data());
        ASSERT_EQ(got, want) << "tier=" << simd::TierName(t) << " n=" << n
                             << " has_hi=" << b.has_hi;
      }
    }
  }
}

TEST(KernelEqualityTest, RangeMaskF64NanSemantics) {
  TierGuard guard;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  double v[3] = {kNan, 1.0, kNan};
  for (simd::Tier t : kAllTiers) {
    simd::ForceTier(t);
    // NaN sorts last: passes any lower bound when there is no upper bound.
    uint8_t m1[3] = {1, 1, 1};
    RangeMaskF64(v, 3, 1e300, 0.0, /*has_hi=*/false, m1);
    EXPECT_EQ(m1[0], 1) << simd::TierName(t);
    EXPECT_EQ(m1[1], 0) << simd::TierName(t);
    EXPECT_EQ(m1[2], 1) << simd::TierName(t);
    // ...and fails any explicit upper bound.
    uint8_t m2[3] = {1, 1, 1};
    RangeMaskF64(v, 3, -1e300, 1e300, /*has_hi=*/true, m2);
    EXPECT_EQ(m2[0], 0) << simd::TierName(t);
    EXPECT_EQ(m2[1], 1) << simd::TierName(t);
    EXPECT_EQ(m2[2], 0) << simd::TierName(t);
  }
}

TEST(KernelEqualityTest, PredicatesComposeByChaining) {
  TierGuard guard;
  Rng rng(17);
  const size_t n = 333;
  std::vector<int32_t> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<int32_t>(rng.Uniform(0, 100));
    b[i] = static_cast<int32_t>(rng.Uniform(0, 100));
  }
  for (simd::Tier t : kAllTiers) {
    simd::ForceTier(t);
    std::vector<uint8_t> mask(n, 1);
    RangeMaskI32(a.data(), n, 20, 80, mask.data());
    RangeMaskI32(b.data(), n, 0, 50, mask.data());
    for (size_t i = 0; i < n; ++i) {
      uint8_t want = (a[i] >= 20 && a[i] <= 80 && b[i] >= 0 && b[i] <= 50);
      ASSERT_EQ(mask[i], want) << "tier=" << simd::TierName(t) << " i=" << i;
    }
  }
}

TEST(KernelEqualityTest, VerdictMaskI32AllTiers) {
  TierGuard guard;
  Rng rng(19);
  const size_t num_codes = 61;
  std::vector<uint8_t> ok(num_codes);
  for (size_t i = 0; i < num_codes; ++i) ok[i] = rng.Uniform(0, 1);
  for (size_t n : TestLengths()) {
    std::vector<int32_t> v(n);
    for (size_t i = 0; i < n; ++i) {
      v[i] = static_cast<int32_t>(rng.Uniform(0, num_codes - 1));
    }
    std::vector<uint8_t> init = RandomMask(&rng, n);
    simd::ForceTier(simd::Tier::kScalar);
    std::vector<uint8_t> want = init;
    VerdictMaskI32(v.data(), n, ok.data(), want.data());
    for (simd::Tier t : kAllTiers) {
      simd::ForceTier(t);
      std::vector<uint8_t> got = init;
      VerdictMaskI32(v.data(), n, ok.data(), got.data());
      ASSERT_EQ(got, want) << "tier=" << simd::TierName(t) << " n=" << n;
    }
  }
}

TEST(KernelEqualityTest, MaskToSelAndCountAllTiers) {
  TierGuard guard;
  Rng rng(23);
  for (size_t n : TestLengths()) {
    // Dense, sparse, empty, and full masks.
    for (int pct : {0, 3, 50, 97, 100}) {
      std::vector<uint8_t> mask(n);
      for (size_t i = 0; i < n; ++i) {
        mask[i] = rng.Uniform(0, 99) < pct;
      }
      std::vector<uint32_t> want;
      want.push_back(777);  // pre-existing content must be preserved
      simd::ForceTier(simd::Tier::kScalar);
      size_t want_n = MaskToSel(mask.data(), n, 100, &want);
      size_t want_cnt = CountMask(mask.data(), n);
      for (simd::Tier t : kAllTiers) {
        simd::ForceTier(t);
        std::vector<uint32_t> got;
        got.push_back(777);
        size_t got_n = MaskToSel(mask.data(), n, 100, &got);
        ASSERT_EQ(got_n, want_n) << "tier=" << simd::TierName(t) << " n=" << n;
        ASSERT_EQ(got, want) << "tier=" << simd::TierName(t) << " n=" << n;
        ASSERT_EQ(CountMask(mask.data(), n), want_cnt)
            << "tier=" << simd::TierName(t) << " n=" << n;
      }
    }
  }
}

TEST(KernelEqualityTest, GathersAllTiers) {
  TierGuard guard;
  Rng rng(29);
  const size_t src_n = 2048;
  std::vector<int32_t> s32(src_n);
  std::vector<int64_t> s64(src_n);
  std::vector<double> sf(src_n);
  std::vector<uint8_t> s8(src_n);
  for (size_t i = 0; i < src_n; ++i) {
    s32[i] = static_cast<int32_t>(rng.Next64());
    s64[i] = static_cast<int64_t>(rng.Next64());
    sf[i] = rng.NextDouble();
    s8[i] = static_cast<uint8_t>(rng.Uniform(0, 255));
  }
  for (size_t n : TestLengths()) {
    // Mix contiguous runs (memcpy collapse) with scattered jumps.
    std::vector<uint32_t> sel(n);
    uint32_t pos = 0;
    for (size_t i = 0; i < n; ++i) {
      if (rng.Uniform(0, 3) == 0 || pos + 1 >= src_n) {
        pos = static_cast<uint32_t>(rng.Uniform(0, src_n - 1));
      } else {
        ++pos;  // extend an ascending run
      }
      sel[i] = pos;
    }
    for (simd::Tier t : kAllTiers) {
      simd::ForceTier(t);
      std::vector<int32_t> d32(n + 1, -1);
      std::vector<int64_t> d64(n + 1, -1);
      std::vector<double> df(n + 1, -1);
      std::vector<uint8_t> d8(n + 1, 0xEE);
      GatherI32(s32.data(), sel.data(), n, d32.data());
      GatherI64(s64.data(), sel.data(), n, d64.data());
      GatherF64(sf.data(), sel.data(), n, df.data());
      GatherU8(s8.data(), sel.data(), n, d8.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(d32[i], s32[sel[i]]) << simd::TierName(t) << " i=" << i;
        ASSERT_EQ(d64[i], s64[sel[i]]) << simd::TierName(t) << " i=" << i;
        ASSERT_EQ(df[i], sf[sel[i]]) << simd::TierName(t) << " i=" << i;
        ASSERT_EQ(d8[i], s8[sel[i]]) << simd::TierName(t) << " i=" << i;
      }
      // One-past-the-end slot untouched (no overwrite past n).
      EXPECT_EQ(d32[n], -1);
      EXPECT_EQ(d8[n], 0xEE);
    }
  }
}

}  // namespace
}  // namespace kernels
}  // namespace exec
}  // namespace bdcc
