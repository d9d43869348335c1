// The deterministic fault-injection layer: disabled by default, scoped
// overrides fire with the configured probability, point filters restrict
// where faults land, and nested scopes restore their predecessor.
#include "common/fault_injection.h"

#include "gtest/gtest.h"

namespace bdcc {
namespace fault {
namespace {

TEST(FaultInjectionTest, DisabledByDefault) {
  if (Enabled()) {
    GTEST_SKIP() << "BDCC_FAULT_SEED is set; env injection is active";
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(ShouldFail(kAlloc));
    EXPECT_FALSE(ShouldFail(kScanDecode));
  }
}

TEST(FaultInjectionTest, ProbabilityOneFiresEveryDraw) {
  ScopedFaultInjection scope(42, 1.0);
  uint64_t before = InjectedCount();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(Enabled());
    EXPECT_TRUE(ShouldFail(kAlloc));
  }
  EXPECT_EQ(InjectedCount(), before + 50);
}

TEST(FaultInjectionTest, ProbabilityZeroNeverFires) {
  ScopedFaultInjection scope(42, 0.0);
  uint64_t before = InjectedCount();
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(Enabled());  // enabled but never firing
    EXPECT_FALSE(ShouldFail(kAlloc));
  }
  EXPECT_EQ(InjectedCount(), before);
}

TEST(FaultInjectionTest, PointFilterRestrictsFaults) {
  ScopedFaultInjection scope(7, 1.0, kScanDecode);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(ShouldFail(kAlloc));
    EXPECT_TRUE(ShouldFail(kScanDecode));
  }
}

TEST(FaultInjectionTest, LowProbabilityFiresRoughlyAtRate) {
  ScopedFaultInjection scope(1234, 0.5);
  int fired = 0;
  for (int i = 0; i < 400; ++i) {
    if (ShouldFail(kAlloc)) ++fired;
  }
  // Deterministic hash sequence; a 0.5 threshold over 400 draws lands well
  // inside this band for any reasonable mixing function.
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 300);
}

TEST(FaultInjectionTest, NestedScopesRestoreLifo) {
  bool env_enabled = Enabled();
  {
    ScopedFaultInjection outer(9, 1.0, kAlloc);
    EXPECT_TRUE(ShouldFail(kAlloc));
    {
      ScopedFaultInjection inner(9, 0.0);
      EXPECT_FALSE(ShouldFail(kAlloc));
    }
    // Outer config restored.
    EXPECT_TRUE(ShouldFail(kAlloc));
  }
  EXPECT_EQ(Enabled(), env_enabled);
}

TEST(FaultInjectionTest, MaybeDelayNeverFails) {
  ScopedFaultInjection scope(5, 1.0, kTaskDelay);
  uint64_t before = InjectedCount();
  MaybeDelay(kTaskDelay);  // fires: sleeps briefly, returns normally
  EXPECT_GT(InjectedCount(), before);
  // Filtered out at another point: a no-op.
  MaybeDelay(kAggMerge);
  EXPECT_EQ(InjectedCount(), before + 1);
}

}  // namespace
}  // namespace fault
}  // namespace bdcc
