#include "exec/parallel.h"

#include <algorithm>
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
// buffer is charged to `mem` (one TrackedMemory per clone, single-owner).
// The buffer is a materializing boundary: sparse selections are compacted
// so the barrier does not hold unselected rows in memory.
Status DrainChain(Operator* op, ExecContext* ctx, std::vector<Batch>* out,
                  TrackedMemory* mem) {
  uint64_t bytes = 0;
  while (true) {
    BDCC_RETURN_NOT_OK(ctx->CheckLifecycle());
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

ParallelUnion::ParallelUnion(ChainFactory factory, size_t num_chains,
                             common::TaskScheduler* scheduler)
    : factory_(std::move(factory)),
      num_chains_(num_chains),
      scheduler_(SchedulerOrShared(scheduler)) {
  BDCC_CHECK(num_chains_ > 0);
}

Status ParallelUnion::Open(ExecContext* ctx) {
  chains_.clear();
  child_ctxs_.clear();
  ran_ = false;
  ready_.clear();
  for (size_t i = 0; i < num_chains_; ++i) {
    BDCC_ASSIGN_OR_RETURN(OperatorPtr chain, factory_(i, num_chains_));
    child_ctxs_.push_back(std::make_unique<ExecContext>(*ctx));
    BDCC_RETURN_NOT_OK(chain->Open(child_ctxs_.back().get()));
    chains_.push_back(std::move(chain));
  }
  schema_ = chains_[0]->schema();
  return Status::OK();
}

Status ParallelUnion::RunAll(ExecContext* ctx) {
  std::vector<std::vector<Batch>> outputs(chains_.size());
  std::vector<std::unique_ptr<TrackedMemory>> clone_mem;
  for (size_t i = 0; i < chains_.size(); ++i) {
    clone_mem.push_back(std::make_unique<TrackedMemory>(
        ctx->memory(), "parallel-union buffer"));
  }
  QueryControl* control = ctx->control();
  Status run_status = scheduler_->ParallelForStatus(
      chains_.size(), [&](size_t i) {
        Status s = DrainChain(chains_[i].get(), child_ctxs_[i].get(),
                              &outputs[i], clone_mem[i].get());
        // Publish real failures so sibling clones stop at their next
        // lifecycle check; cancel/deadline are already globally visible.
        if (BDCC_UNLIKELY(!s.ok())) control->ReportError(s);
        return s;
      });
  // Fold every clone's stats in (even on failure: partial scan counters are
  // still real work done) before surfacing the first error.
  for (size_t i = 0; i < chains_.size(); ++i) ctx->MergeStats(*child_ctxs_[i]);
  BDCC_RETURN_NOT_OK(run_status);
  ready_bytes_ = 0;
  for (size_t i = 0; i < chains_.size(); ++i) {
    clone_mem[i]->Clear();
    for (Batch& b : outputs[i]) {
      ready_bytes_ += BatchBytes(b);
      ready_.push_back(std::move(b));
    }
  }
  tracked_ready_ = std::make_unique<TrackedMemory>(ctx->memory(),
                                                   "parallel-union output");
  BDCC_RETURN_NOT_OK(ctx->ChargeMemory(tracked_ready_.get(), ready_bytes_));
  ran_ = true;
  return Status::OK();
}

Result<Batch> ParallelUnion::Next(ExecContext* ctx) {
  if (!ran_) BDCC_RETURN_NOT_OK(RunAll(ctx));
  if (ready_.empty()) return Batch::Empty();
  Batch out = std::move(ready_.front());
  ready_.pop_front();
  ready_bytes_ -= BatchBytes(out);
  tracked_ready_->Set(ready_bytes_);
  return out;
}

void ParallelUnion::Close(ExecContext* ctx) {
  for (size_t i = 0; i < chains_.size(); ++i) {
    chains_[i]->Close(child_ctxs_[i].get());
  }
  chains_.clear();
  child_ctxs_.clear();
  ready_.clear();
  if (tracked_ready_) tracked_ready_->Clear();
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
          num_clones, scheduler) {}

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
