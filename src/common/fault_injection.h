// Deterministic fault injection for lifecycle testing.
//
// Execution code asks `ShouldFail(point)` at named injection points; when
// injection is enabled the answer is a deterministic function of the seed,
// a global draw counter, and the point name — so a given seed replays the
// same fault sequence, and different seeds explore different interleavings.
// Disabled (the default) every query costs one predicted-false branch per
// point.
//
// Two ways to enable it:
//  - Environment (CI sweeps): BDCC_FAULT_SEED=<n> turns injection on for the
//    whole process; BDCC_FAULT_PROB=<p in [0,1]> sets the per-draw fault
//    probability (default 0.001); BDCC_FAULT_POINTS=<name> restricts faults
//    to one point. Read once on first use.
//  - ScopedFaultInjection (tests): installs a config for the current scope
//    and restores the previous one on destruction. With probability 1.0 and
//    a single point this gives a deterministic failure at a chosen site.
//
// Point registry (keep src/exec/README.md in sync):
//   memory.alloc     ExecContext::ChargeMemory — budget charge fails as if
//                    the tracker denied it (ResourceExhausted).
//   scan.decode      SegmentScan chunk decode fails with IOError.
//   scheduler.delay  TaskScheduler::RunTask sleeps briefly before the task
//                    body, perturbing morsel interleavings.
//   agg.merge        ParallelHashAgg partitioned merge partition fails.
//   scheduler.inject serve::QueryRunner dispatch — an admitted query fails
//                    as if its first budget charge was denied
//                    (ResourceExhausted), exercising the retry path.
//   delta.append     delta::DeltaStore::Append — the chunk build fails with
//                    IOError before any state is published (the store is
//                    unchanged; the caller can retry the same batch).
//   delta.merge      delta::LiveTable merge pass — a dirty-group merge step
//                    fails with Internal; the pass unwinds without
//                    publishing, leaving the prior snapshot intact and
//                    re-publishable.
//
// Thread-safety: all free functions are safe from any thread.
// ScopedFaultInjection construction/destruction is serialized internally but
// is meant for test code; scopes must nest (LIFO).
#ifndef BDCC_COMMON_FAULT_INJECTION_H_
#define BDCC_COMMON_FAULT_INJECTION_H_

#include <cstdint>

namespace bdcc {
namespace fault {

inline constexpr const char* kAlloc = "memory.alloc";
inline constexpr const char* kScanDecode = "scan.decode";
inline constexpr const char* kTaskDelay = "scheduler.delay";
inline constexpr const char* kAggMerge = "agg.merge";
inline constexpr const char* kSchedulerInject = "scheduler.inject";
inline constexpr const char* kDeltaAppend = "delta.append";
inline constexpr const char* kDeltaMerge = "delta.merge";

/// True when any config (env or scoped) has injection turned on.
bool Enabled();

/// Draw once at the named point; true means "fail here now". Counts the
/// injected fault when it fires.
bool ShouldFail(const char* point);

/// Sleep briefly (sub-millisecond) when a draw at `point` fires; no-op
/// otherwise. Used to perturb task scheduling, not to fail anything.
void MaybeDelay(const char* point);

/// Process-wide count of faults that fired (all points, all configs).
uint64_t InjectedCount();

/// \brief Test-scoped override of the injection config (RAII).
///
/// `probability` 1.0 fires on every draw; `only_point` non-null restricts
/// faults to that point name. The previous config is restored on
/// destruction. Configs are intentionally leaked (never freed) so a racing
/// reader on another thread can never observe a dangling config.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(uint64_t seed, double probability,
                       const char* only_point = nullptr);
  ~ScopedFaultInjection();
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

 private:
  const void* previous_;
};

}  // namespace fault
}  // namespace bdcc

#endif  // BDCC_COMMON_FAULT_INJECTION_H_
