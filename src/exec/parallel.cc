#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

#include "common/fault_injection.h"

namespace bdcc {
namespace exec {

namespace {

common::TaskScheduler* SchedulerOrShared(common::TaskScheduler* scheduler) {
  return scheduler != nullptr ? scheduler : common::TaskScheduler::Shared();
}

uint64_t BatchBytes(const Batch& b) {
  uint64_t total = 0;
  for (const ColumnVector& c : b.columns) total += ColumnVectorBytes(c);
  return total;
}

// Drain `op` on a worker, collecting every non-empty batch; the growing
// buffer is charged to `mem` (one TrackedMemory per chain, single-owner).
// The buffer is a materializing boundary: sparse selections are compacted
// so a parked chain does not hold unselected rows in memory.
// A set `abandoned` (the union was closed early) stops it too.
Status DrainChain(Operator* op, ExecContext* ctx, std::deque<Batch>* out,
                  TrackedMemory* mem, const std::atomic<bool>* abandoned) {
  uint64_t bytes = 0;
  while (true) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
    if (abandoned->load(std::memory_order_relaxed)) {
      return Status::Cancelled("parallel union closed");
    }
    BDCC_ASSIGN_OR_RETURN(Batch b, op->Next(ctx));
    if (b.empty()) return Status::OK();
    b.CompactIfSparse(ExecContext::kCompactDensity);
    bytes += BatchBytes(b);
    BDCC_RETURN_NOT_OK(ctx->ChargeMemory(mem, bytes));
    out->push_back(std::move(b));
  }
}

}  // namespace

// ---------------- ParallelUnion ----------------

// One chain of the union and its slot in the window. Whoever flips
// `claimed` first runs the chain: its task on a worker (or on a thread
// helping in a wait), or the coordinator streaming an unstarted head. A
// task owns `op`, `ctx`, `parked`, `mem` and `closed` until it returns; the
// coordinator reads them only after waiting for the chain's group.
struct ParallelUnion::Chain {
  OperatorPtr op;
  std::unique_ptr<ExecContext> ctx;
  std::atomic<bool> claimed{false};
  bool streaming = false;  // the coordinator claimed it
  bool closed = false;
  bool joined = false;  // the task's group was waited for
  std::deque<Batch> parked;
  std::unique_ptr<TrackedMemory> mem;
  Status status;  // the task's, once joined
  // Last, so it is destroyed first: its destructor waits for the task.
  std::unique_ptr<common::TaskScheduler::TaskGroup> group;

  void CloseOp() {
    if (op != nullptr && !closed) op->Close(ctx.get());
    closed = true;
  }
};

ParallelUnion::ParallelUnion(ChainFactory factory, size_t num_chains,
                             size_t num_threads,
                             common::TaskScheduler* scheduler)
    : factory_(std::move(factory)),
      num_chains_(num_chains),
      window_(num_threads + 1),
      scheduler_(SchedulerOrShared(scheduler)) {
  BDCC_CHECK(num_chains_ > 0);
}

// Out of line: Chain is complete only here.
ParallelUnion::~ParallelUnion() = default;

Status ParallelUnion::Open(ExecContext* ctx) {
  chains_.clear();
  head_ = 0;
  admitted_ = 0;
  abandoned_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < num_chains_; ++i) {
    auto chain = std::make_unique<Chain>();
    BDCC_ASSIGN_OR_RETURN(chain->op, factory_(i, num_chains_));
    chain->ctx = std::make_unique<ExecContext>(*ctx);
    chain->mem = std::make_unique<TrackedMemory>(ctx->memory(),
                                                 "parallel-union buffer");
    Chain* c = chain.get();
    chains_.push_back(std::move(chain));
    BDCC_RETURN_NOT_OK(c->op->Open(c->ctx.get()));
  }
  schema_ = chains_[0]->op->schema();
  return Status::OK();
}

void ParallelUnion::Admit(ExecContext* ctx) {
  size_t end = std::min(num_chains_, head_ + window_);
  QueryControl* control = ctx->control();
  for (; admitted_ < end; ++admitted_) {
    if (admitted_ == head_) continue;
    // A stopped query starts no further chain.
    if (!control->Check().ok()) return;
    Chain* c = chains_[admitted_].get();
    c->group = std::make_unique<common::TaskScheduler::TaskGroup>(scheduler_);
    const std::atomic<bool>* abandoned = &abandoned_;
    c->group->SubmitFallible([c, control, abandoned]() -> Status {
      if (c->claimed.exchange(true)) return Status::OK();
      // Its first lifecycle check keeps a stopped query from starting it.
      Status s = DrainChain(c->op.get(), c->ctx.get(), &c->parked,
                            c->mem.get(), abandoned);
      // Release the chain's state now, not at the union's Close.
      c->CloseOp();
      // Publish real failures so sibling chains stop at their next
      // lifecycle check; cancel/deadline are already globally visible.
      if (BDCC_UNLIKELY(!s.ok())) control->ReportError(s);
      return s;
    });
  }
}

void ParallelUnion::Retire(ExecContext* ctx) {
  Chain* c = chains_[head_].get();
  c->CloseOp();
  ctx->MergeStats(*c->ctx);
  // A task still queued for a chain the coordinator streamed only touches
  // `claimed`, so the chain's operators can go now.
  c->op.reset();
  c->ctx.reset();
  c->mem.reset();
  ++head_;
  Admit(ctx);
}

Result<Batch> ParallelUnion::Next(ExecContext* ctx) {
  Admit(ctx);
  while (head_ < num_chains_) {
    Chain* c = chains_[head_].get();
    if (!c->streaming && !c->claimed.exchange(true)) {
      c->streaming = true;
    }
    if (c->streaming) {
      Status s = c->ctx->CheckLifecycle();
      Result<Batch> next =
          s.ok() ? c->op->Next(c->ctx.get()) : Result<Batch>(s);
      if (BDCC_UNLIKELY(!next.ok())) {
        ctx->control()->ReportError(next.status());
        return next.status();
      }
      if (!next.value().empty()) return next;
      Retire(ctx);
      continue;
    }
    if (!c->joined) {
      // Helping wait: this thread runs queued tasks meanwhile.
      c->status = c->group->WaitStatus();
      c->joined = true;
    }
    BDCC_RETURN_NOT_OK(c->status);
    if (!c->parked.empty()) {
      Batch out = std::move(c->parked.front());
      c->parked.pop_front();
      c->mem->Set(c->mem->bytes() - BatchBytes(out));
      return out;
    }
    Retire(ctx);
  }
  return Batch::Empty();
}

void ParallelUnion::Close(ExecContext* ctx) {
  // Queued tasks find their chain claimed and return at once; running ones
  // stop at their next batch. They own their chain until they finish.
  abandoned_.store(true, std::memory_order_relaxed);
  for (std::unique_ptr<Chain>& c : chains_) c->claimed.store(true);
  for (std::unique_ptr<Chain>& c : chains_) {
    if (c->group != nullptr) c->group->Wait();
  }
  // Fold every unretired chain's stats in (partial scan counters of a
  // failed or abandoned chain are still real work done).
  for (size_t i = head_; i < chains_.size(); ++i) {
    Chain* c = chains_[i].get();
    c->CloseOp();
    if (c->ctx != nullptr) ctx->MergeStats(*c->ctx);
  }
  chains_.clear();
  head_ = 0;
  admitted_ = 0;
}

// ---------------- ParallelHashAgg ----------------

ParallelHashAgg::ParallelHashAgg(ChainFactory child_factory, size_t num_clones,
                                 std::vector<std::string> group_cols,
                                 std::vector<AggSpec> specs,
                                 common::TaskScheduler* scheduler)
    : child_factory_(std::move(child_factory)),
      num_clones_(num_clones),
      group_cols_(std::move(group_cols)),
      spec_templates_(std::move(specs)),
      scheduler_(SchedulerOrShared(scheduler)) {
  BDCC_CHECK(num_clones_ > 0);
}

const Schema& ParallelHashAgg::schema() const { return schema_; }

Status ParallelHashAgg::Open(ExecContext* ctx) {
  partials_.clear();
  mergers_.clear();
  emit_merger_ = 0;
  child_ctxs_.clear();
  merged_ = false;
  for (size_t i = 0; i < num_clones_; ++i) {
    BDCC_ASSIGN_OR_RETURN(OperatorPtr child, child_factory_(i, num_clones_));
    auto agg = std::make_unique<HashAgg>(std::move(child), group_cols_,
                                         spec_templates_);
    child_ctxs_.push_back(std::make_unique<ExecContext>(*ctx));
    BDCC_RETURN_NOT_OK(agg->Open(child_ctxs_.back().get()));
    partials_.push_back(std::move(agg));
  }
  schema_ = partials_[0]->schema();
  return Status::OK();
}

Status ParallelHashAgg::MergeAll(ExecContext* ctx) {
  QueryControl* control = ctx->control();
  Status run_status = scheduler_->ParallelForStatus(
      partials_.size(), [&](size_t i) {
        Status s = partials_[i]->ConsumeAll(child_ctxs_[i].get());
        if (BDCC_UNLIKELY(!s.ok())) control->ReportError(s);
        return s;
      });
  for (size_t i = 0; i < partials_.size(); ++i) {
    ctx->MergeStats(*child_ctxs_[i]);
  }
  BDCC_RETURN_NOT_OK(run_status);
  size_t total_groups = 0;
  for (size_t i = 0; i < partials_.size(); ++i) {
    total_groups += partials_[i]->num_groups();
  }

  // Radix-partitioned merge: seal every partial and hash-partition its
  // groups by key value, then fold each partition with an independent task
  // into its own merge-only aggregate. Each task reads the (now immutable)
  // partials and writes only its own merger — no shared mutable state, no
  // atomics. Scalar aggregates and small group sets take one partition.
  int bits = 0;
  if (!group_cols_.empty() && total_groups >= kMinPartitionedMergeGroups) {
    bits = 1;
    while ((size_t{1} << bits) < partials_.size() * 4 &&
           bits < kMaxMergeBits) {
      ++bits;
    }
  }
  size_t num_partitions = size_t{1} << bits;
  std::vector<std::vector<uint32_t>> part_of(partials_.size());
  scheduler_->ParallelFor(partials_.size(), [&](size_t i) {
    partials_[i]->SealForMerge();
    part_of[i] = bits == 0 ? std::vector<uint32_t>(partials_[i]->num_groups())
                           : partials_[i]->PartitionGroups(bits);
  });

  mergers_.clear();
  mergers_.reserve(num_partitions);
  merger_mem_.clear();
  merger_mem_.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    auto merger =
        std::make_unique<HashAgg>(nullptr, group_cols_, spec_templates_);
    BDCC_RETURN_NOT_OK(merger->BindChildless(partials_[0]->input_schema()));
    mergers_.push_back(std::move(merger));
    merger_mem_.push_back(
        std::make_unique<TrackedMemory>(ctx->memory(), "hash-agg merge"));
  }
  // Strided over num_clones workers so merge concurrency stays bounded by
  // the requested parallelism, not the shared pool's width. Each partition
  // (and its TrackedMemory) is owned by exactly one worker; the control is
  // polled between partitions and denials go straight to the tracker (the
  // per-context stats are not shared with workers).
  size_t workers = std::min(num_partitions, partials_.size());
  Status merge_status = scheduler_->ParallelForStatus(
      workers, [&](size_t w) -> Status {
        for (size_t p = w; p < num_partitions; p += workers) {
          BDCC_RETURN_NOT_OK(control->Check());
          if (BDCC_UNLIKELY(fault::ShouldFail(fault::kAggMerge))) {
            return Status::Internal("injected aggregation-merge fault");
          }
          // Clone order within the partition keeps float accumulation
          // order — and therefore bitwise results — deterministic for a
          // fixed clone count.
          for (size_t i = 0; i < partials_.size(); ++i) {
            Status s = mergers_[p]->MergePartialPartition(
                *partials_[i], part_of[i], static_cast<uint32_t>(p));
            if (BDCC_UNLIKELY(!s.ok())) {
              control->ReportError(s);
              return s;
            }
          }
          Status charge = merger_mem_[p]->TrySet(mergers_[p]->MemoryBytes());
          if (BDCC_UNLIKELY(!charge.ok())) {
            control->ReportError(charge);
            return charge;
          }
        }
        return Status::OK();
      });
  BDCC_RETURN_NOT_OK(merge_status);
  merged_ = true;
  return Status::OK();
}

Result<Batch> ParallelHashAgg::Next(ExecContext* ctx) {
  if (!merged_) BDCC_RETURN_NOT_OK(MergeAll(ctx));
  // Emit partitions in order.
  while (emit_merger_ < mergers_.size()) {
    BDCC_ASSIGN_OR_RETURN(Batch b,
                          mergers_[emit_merger_]->Next(child_ctxs_[0].get()));
    if (!b.empty()) return b;
    ++emit_merger_;
  }
  return Batch::Empty();
}

void ParallelHashAgg::Close(ExecContext* ctx) {
  for (size_t i = 0; i < partials_.size(); ++i) {
    partials_[i]->Close(child_ctxs_[i].get());
  }
  for (std::unique_ptr<HashAgg>& m : mergers_) m->Close(ctx);
  partials_.clear();
  mergers_.clear();
  merger_mem_.clear();
  emit_merger_ = 0;
  child_ctxs_.clear();
}

// ---------------- ParallelHashJoin ----------------

ParallelHashJoin::ParallelHashJoin(ChainFactory probe_factory,
                                   size_t num_clones, OperatorPtr build,
                                   std::vector<std::string> probe_keys,
                                   std::vector<std::string> build_keys,
                                   JoinType type,
                                   common::TaskScheduler* scheduler)
    : build_(std::move(build)),
      build_keys_(std::move(build_keys)),
      probes_(
          [this, probe_factory = std::move(probe_factory),
           probe_keys = std::move(probe_keys),
           type](size_t i, size_t n) -> Result<OperatorPtr> {
            BDCC_ASSIGN_OR_RETURN(OperatorPtr probe, probe_factory(i, n));
            return OperatorPtr(std::make_unique<HashJoinProbe>(
                std::move(probe), &table_, probe_keys, type));
          },
          num_clones, num_clones, scheduler) {}

Status ParallelHashJoin::Open(ExecContext* ctx) {
  tracked_ = std::make_unique<TrackedMemory>(ctx->memory(), "hash-join build");
  BDCC_RETURN_NOT_OK(BuildHashTable(build_.get(), build_keys_, ctx, &table_,
                                    tracked_.get()));
  return probes_.Open(ctx);
}

void ParallelHashJoin::Close(ExecContext* ctx) {
  build_->Close(ctx);
  probes_.Close(ctx);
  table_.Clear();
  if (tracked_) tracked_->Clear();
}

}  // namespace exec
}  // namespace bdcc
