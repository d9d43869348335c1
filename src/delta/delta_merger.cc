#include "delta/delta_merger.h"

#include <thread>
#include <utility>

namespace bdcc {
namespace delta {

DeltaMerger::DeltaMerger(LiveTable* table, common::TaskScheduler* scheduler,
                         Options options)
    : table_(table),
      scheduler_(scheduler),
      options_(options),
      group_(scheduler) {
  BDCC_CHECK(table_ != nullptr && scheduler_ != nullptr);
  if (options_.trigger_rows == 0) options_.trigger_rows = 1;
  table_->SetAppendObserver([this] { Poke(); });
}

DeltaMerger::~DeltaMerger() {
  table_->SetAppendObserver(nullptr);
  Stop();
}

void DeltaMerger::Poke() {
  if (stopped_.load(std::memory_order_acquire)) return;
  if (table_->delta_rows() < options_.trigger_rows) return;
  bool expected = false;
  if (!in_flight_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel)) {
    return;  // a chain is already running; it re-checks before finishing
  }
  common::ScopedTaskPriority priority(common::TaskPriority::kNormal);
  std::lock_guard<std::mutex> lock(group_mu_);
  // Re-check under the lock: Stop() may have drained between the claim and
  // here, and a submit after Wait() would leak a task past shutdown.
  if (stopped_.load(std::memory_order_acquire)) {
    in_flight_.store(false, std::memory_order_release);
    return;
  }
  group_.Submit([this] { RunChain(); });
}

void DeltaMerger::RunChain() {
  while (!stopped_.load(std::memory_order_acquire) &&
         table_->delta_rows() >= options_.trigger_rows) {
    Result<LiveTable::MergeStats> pass = table_->Merge(&ctx_);
    if (!pass.ok()) {
      passes_failed_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu_);
      last_error_ = pass.status();
      break;  // leave the delta intact; the next poke retries
    }
    passes_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  in_flight_.store(false, std::memory_order_release);
  // An append may have landed after the loop's last delta_rows() read but
  // before the claim release — its Poke saw in_flight_ and was absorbed.
  if (!stopped_.load(std::memory_order_acquire) &&
      table_->delta_rows() >= options_.trigger_rows) {
    Poke();
  }
}

void DeltaMerger::Stop() {
  stopped_.store(true, std::memory_order_release);
  ctx_.control()->RequestCancel();
  std::lock_guard<std::mutex> lock(group_mu_);
  group_.Wait();
}

void DeltaMerger::Drain() {
  while (!stopped_.load(std::memory_order_acquire) &&
         (in_flight_.load(std::memory_order_acquire) ||
          table_->delta_rows() >= options_.trigger_rows)) {
    Poke();
    std::this_thread::yield();
  }
}

Status DeltaMerger::last_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return last_error_;
}

}  // namespace delta
}  // namespace bdcc
