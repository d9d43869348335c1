// Operator memory accounting (reproduces the paper's Figure 3).
//
// Operators report the bytes held by their stateful structures (join hash
// tables, aggregation tables, sort buffers, outer-side materializations);
// the tracker keeps the running total and the high-water mark per query.
// With set_limit() the tracker also *enforces* a per-query budget:
// TryAllocate refuses growth that would push the total past the limit, and
// TrackedMemory::TrySet turns the refusal into a ResourceExhausted status
// naming the operator (see the budget-enforcement contract in
// src/exec/README.md).
//
// Thread-safety contract: MemoryTracker is fully thread-safe — one tracker
// is shared by every worker of a parallel query, so the peak reflects the
// query-wide concurrent footprint. Allocate/Release are lock-free atomics;
// peak_bytes() may transiently lag a concurrent Allocate by one CAS round
// but is exact once the query quiesces. Reset() must not race with
// concurrent Allocate/Release (call it between queries only; debug builds
// assert it). TrackedMemory is NOT thread-safe: each instance must be owned
// and adjusted by a single thread (per-clone operator state in parallel
// pipelines owns one TrackedMemory per clone).
#ifndef BDCC_EXEC_MEMORY_TRACKER_H_
#define BDCC_EXEC_MEMORY_TRACKER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/macros.h"
#include "common/status.h"

namespace bdcc {
namespace exec {

class MemoryTracker {
 public:
  void Allocate(uint64_t bytes) {
#ifndef NDEBUG
    MutationGuard guard(this);
#endif
    uint64_t now = current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    RaisePeak(now);
  }

  /// Budget-checked growth: false (and no state change, one denial counted)
  /// when a limit is set and `bytes` more would exceed it.
  bool TryAllocate(uint64_t bytes) {
#ifndef NDEBUG
    MutationGuard guard(this);
#endif
    uint64_t limit = limit_.load(std::memory_order_relaxed);
    if (limit == 0) {
      uint64_t now =
          current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
      RaisePeak(now);
      return true;
    }
    uint64_t cur = current_.load(std::memory_order_relaxed);
    do {
      if (bytes > limit || cur > limit - bytes) {
        denials_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    } while (!current_.compare_exchange_weak(cur, cur + bytes,
                                             std::memory_order_relaxed));
    RaisePeak(cur + bytes);
    return true;
  }

  /// `owner` names the releasing operator in the under-release failure
  /// message (an under-release means that operator's delta accounting
  /// double-freed bytes).
  void Release(uint64_t bytes, const char* owner = nullptr) {
#ifndef NDEBUG
    MutationGuard guard(this);
#endif
    uint64_t prev = current_.fetch_sub(bytes, std::memory_order_relaxed);
    if (BDCC_UNLIKELY(bytes > prev)) {
      std::fprintf(stderr,
                   "MemoryTracker under-release by '%s': releasing %llu bytes "
                   "with only %llu tracked\n",
                   owner != nullptr ? owner : "<untracked owner>",
                   static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(prev));
      BDCC_CHECK_MSG(bytes <= prev, "MemoryTracker under-release");
    }
  }

  uint64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  uint64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Hard per-query budget in bytes; 0 (the default) means unlimited.
  void set_limit(uint64_t bytes) {
    limit_.store(bytes, std::memory_order_relaxed);
  }
  uint64_t limit() const { return limit_.load(std::memory_order_relaxed); }

  /// TryAllocate refusals since the last Reset().
  uint64_t budget_denials() const {
    return denials_.load(std::memory_order_relaxed);
  }

  /// Rearm for the next query; keeps the limit. Must not race concurrent
  /// Allocate/Release (debug builds assert no mutation is in flight).
  void Reset() {
#ifndef NDEBUG
    BDCC_CHECK_MSG(mutators_.load(std::memory_order_acquire) == 0,
                   "MemoryTracker::Reset raced a concurrent Allocate/Release");
#endif
    current_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
    denials_.store(0, std::memory_order_relaxed);
  }

 private:
  void RaisePeak(uint64_t now) {
    uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
    }
  }

  // Debug builds count in-flight mutations so Reset can assert it does not
  // race them. The member exists in every build: the layout must not depend
  // on NDEBUG, or code compiled with a different NDEBUG than the library
  // would read the other fields at the wrong offsets.
  struct MutationGuard {
    explicit MutationGuard(MemoryTracker* t) : t(t) {
      t->mutators_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~MutationGuard() { t->mutators_.fetch_sub(1, std::memory_order_acq_rel); }
    MemoryTracker* t;
  };
  std::atomic<int> mutators_{0};

  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<uint64_t> limit_{0};
  std::atomic<uint64_t> denials_{0};
};

/// \brief RAII registration of a chunk of operator memory. Single-owner:
/// see the thread-safety contract above. `name` identifies the owning
/// operator in budget-denial and under-release messages.
class TrackedMemory {
 public:
  explicit TrackedMemory(MemoryTracker* tracker,
                         const char* name = "operator")
      : tracker_(tracker), name_(name) {}
  ~TrackedMemory() { Clear(); }
  BDCC_DISALLOW_COPY_AND_ASSIGN(TrackedMemory);

  /// Adjust the registered size to `bytes`, bypassing the budget (shrink
  /// paths and legacy callers).
  void Set(uint64_t bytes) {
    if (tracker_ == nullptr) return;
    if (bytes > bytes_) {
      tracker_->Allocate(bytes - bytes_);
    } else {
      tracker_->Release(bytes_ - bytes, name_);
    }
    bytes_ = bytes;
  }

  /// Adjust the registered size to `bytes`, honouring the tracker's budget:
  /// growth that would exceed the limit leaves the registration unchanged
  /// and returns ResourceExhausted naming this operator, the requested
  /// delta, and the query's high-water mark.
  Status TrySet(uint64_t bytes) {
    if (tracker_ == nullptr || bytes <= bytes_) {
      Set(bytes);
      return Status::OK();
    }
    uint64_t delta = bytes - bytes_;
    if (BDCC_UNLIKELY(!tracker_->TryAllocate(delta))) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "%s: memory budget exceeded: +%llu bytes over the %llu "
                    "held would pass the %llu-byte limit (query now %llu, "
                    "peak %llu)",
                    name_, static_cast<unsigned long long>(delta),
                    static_cast<unsigned long long>(bytes_),
                    static_cast<unsigned long long>(tracker_->limit()),
                    static_cast<unsigned long long>(tracker_->current_bytes()),
                    static_cast<unsigned long long>(tracker_->peak_bytes()));
      return Status::ResourceExhausted(msg);
    }
    bytes_ = bytes;
    return Status::OK();
  }

  void Clear() { Set(0); }
  uint64_t bytes() const { return bytes_; }
  const char* name() const { return name_; }

 private:
  MemoryTracker* tracker_;
  const char* name_;
  uint64_t bytes_ = 0;
};

}  // namespace exec
}  // namespace bdcc

#endif  // BDCC_EXEC_MEMORY_TRACKER_H_
