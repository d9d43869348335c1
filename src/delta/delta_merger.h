// Background incremental re-clustering for a live table.
//
// A DeltaMerger hangs a merge policy off a LiveTable: it installs itself as
// the table's append observer, so every successful append pokes it, and
// when the delta has grown past `trigger_rows` it schedules one task on the
// work-stealing scheduler that runs LiveTable::Merge passes (each folds
// every chunk it pins) until the delta is back under the trigger. The task
// runs in the scheduler's *normal* lane — re-clustering is batch work;
// interactive queries' morsels route through the high-priority lane and
// jump ahead of it (see common/task_scheduler.h).
//
// At most one pass chain is in flight at a time (an atomic claim); pokes
// while one runs are absorbed, and the chain re-checks the trigger after
// releasing its claim so a concurrent append can never be lost between
// "loop decided to exit" and "claim released". Stop() cancels the in-flight
// pass through the merger's QueryControl (LiveTable::Merge polls it between
// groups and unwinds publishing nothing) and drains the task.
#ifndef BDCC_DELTA_DELTA_MERGER_H_
#define BDCC_DELTA_DELTA_MERGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/status.h"
#include "common/task_scheduler.h"
#include "delta/live_table.h"
#include "exec/exec_context.h"

namespace bdcc {
namespace delta {

/// \brief Schedules LiveTable merge passes in the background.
class DeltaMerger {
 public:
  struct Options {
    /// Schedule a pass once delta_rows() reaches this many rows.
    uint64_t trigger_rows = 4096;
  };

  /// `table` and `scheduler` must outlive the merger.
  DeltaMerger(LiveTable* table, common::TaskScheduler* scheduler,
              Options options);
  DeltaMerger(LiveTable* table, common::TaskScheduler* scheduler)
      : DeltaMerger(table, scheduler, Options()) {}
  ~DeltaMerger();  // Stop()s
  BDCC_DISALLOW_COPY_AND_ASSIGN(DeltaMerger);

  /// Schedule a pass chain if the delta is over the trigger and none is in
  /// flight. Safe from any thread; cheap when nothing to do.
  void Poke();

  /// Cancel any in-flight pass (nothing gets published) and drain the task.
  /// The merger stays stopped; idempotent.
  void Stop();

  /// Block until the delta is below the trigger and no pass is in flight,
  /// poking and yielding while it waits (the scheduler's workers run the
  /// passes). For tests and benchmarks.
  void Drain();

  uint64_t passes_completed() const {
    return passes_completed_.load(std::memory_order_relaxed);
  }
  uint64_t passes_failed() const {
    return passes_failed_.load(std::memory_order_relaxed);
  }
  /// Most recent non-OK merge status (OK when none failed yet).
  Status last_error() const;

 private:
  void RunChain();

  LiveTable* table_;
  common::TaskScheduler* scheduler_;
  Options options_;

  std::atomic<bool> stopped_{false};
  std::atomic<bool> in_flight_{false};
  std::atomic<uint64_t> passes_completed_{0};
  std::atomic<uint64_t> passes_failed_{0};

  // Merge passes run on scheduler workers with this context (serialized by
  // the in-flight claim); its QueryControl is the Stop() channel.
  exec::ExecContext ctx_;
  mutable std::mutex error_mu_;
  Status last_error_;  // guarded by error_mu_

  std::mutex group_mu_;  // serializes Submit (Poke threads) vs Wait (Stop)
  common::TaskScheduler::TaskGroup group_;
};

}  // namespace delta
}  // namespace bdcc

#endif  // BDCC_DELTA_DELTA_MERGER_H_
