#include "exec/aggregate.h"

#include <algorithm>
#include <memory>
#include <type_traits>

namespace bdcc {
namespace exec {

namespace {

// Calls f(group, value) for every non-NULL row in row order. The NULL test
// is chosen once per batch: a batch without NULLs runs a loop without it.
template <typename T, typename F>
void FoldRows(const T* values, const uint8_t* nulls, const uint32_t* groups,
              size_t n, F&& f) {
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) f(groups[i], values[i]);
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (!nulls[i]) f(groups[i], values[i]);
    }
  }
}

// Folds one MIN or MAX argument lane into `best`/`has_value` as Acc.
template <typename Acc, typename T>
void FoldMinMax(bool is_min, const T* values, const uint8_t* nulls,
                const uint32_t* groups, size_t n, Acc* best,
                uint8_t* has_value) {
  auto fold = [&](auto better) {
    FoldRows(values, nulls, groups, n, [&](uint32_t g, T x) {
      Acc v = static_cast<Acc>(x);
      if (!has_value[g] || better(v, best[g])) {
        best[g] = v;
        has_value[g] = 1;
      }
    });
  };
  if (is_min) {
    fold([](Acc v, Acc b) { return v < b; });
  } else {
    fold([](Acc v, Acc b) { return v > b; });
  }
}

// Appends (group, value) for every non-NULL row to the pending pairs: room
// for every row first, trimmed to the rows appended.
template <typename T>
void AppendPairs(const T* values, const uint8_t* nulls, const uint32_t* groups,
                 size_t n, std::vector<int64_t>* pending_values,
                 std::vector<uint32_t>* pending_groups) {
  size_t at = pending_values->size();
  pending_values->resize(at + n);
  pending_groups->resize(at + n);
  int64_t* value_out = pending_values->data();
  uint32_t* group_out = pending_groups->data();
  FoldRows(values, nulls, groups, n, [&](uint32_t g, T x) {
    value_out[at] = static_cast<int64_t>(x);
    group_out[at++] = g;
  });
  pending_values->resize(at);
  pending_groups->resize(at);
}

}  // namespace

Status AggregatorCore::Bind(const Schema& input, std::vector<AggSpec> specs) {
  specs_ = std::move(specs);
  arg_types_.clear();
  output_fields_.clear();
  states_.assign(specs_.size(), State{});
  num_groups_ = 0;
  for (AggSpec& spec : specs_) {
    TypeId arg_type = TypeId::kInt64;
    if (spec.arg) {
      BDCC_RETURN_NOT_OK(spec.arg->Bind(input));
      arg_type = spec.arg->type();
    }
    arg_types_.push_back(arg_type);
    TypeId out_type = TypeId::kInt64;
    switch (spec.kind) {
      case AggKind::kSum:
        out_type = (arg_type == TypeId::kFloat64) ? TypeId::kFloat64
                                                  : TypeId::kInt64;
        break;
      case AggKind::kAvg:
        out_type = TypeId::kFloat64;
        break;
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountDistinct:
        out_type = TypeId::kInt64;
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (arg_type == TypeId::kString) {
          return Status::NotImplemented("MIN/MAX over strings");
        }
        out_type = (arg_type == TypeId::kFloat64) ? TypeId::kFloat64
                                                  : arg_type;
        break;
    }
    if (spec.kind == AggKind::kCountDistinct &&
        (arg_type == TypeId::kString || arg_type == TypeId::kFloat64)) {
      return Status::NotImplemented("COUNT DISTINCT over non-integer input");
    }
    output_fields_.push_back(Field{spec.output_name, out_type});
  }
  return Status::OK();
}

void AggregatorCore::EnsureGroups(size_t n) {
  if (n <= num_groups_) return;
  for (size_t s = 0; s < specs_.size(); ++s) {
    State& st = states_[s];
    switch (specs_[s].kind) {
      case AggKind::kSum:
        if (arg_types_[s] == TypeId::kFloat64) {
          st.sum_f64.resize(n, 0.0);
        } else {
          st.sum_i64.resize(n, 0);
        }
        break;
      case AggKind::kAvg:
        st.sum_f64.resize(n, 0.0);
        st.count.resize(n, 0);
        break;
      case AggKind::kCount:
      case AggKind::kCountStar:
      case AggKind::kCountDistinct:
        st.count.resize(n, 0);
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (arg_types_[s] == TypeId::kFloat64) {
          st.minmax_f64.resize(n, 0.0);
        } else {
          st.minmax_i64.resize(n, 0);
        }
        st.has_value.resize(n, 0);
        break;
    }
  }
  num_groups_ = n;
}

Status AggregatorCore::Update(const Batch& batch,
                              const std::vector<uint32_t>& group_of_row) {
  BDCC_CHECK(group_of_row.size() == batch.num_rows);
  const size_t n = batch.num_rows;
  const uint32_t* groups = group_of_row.data();
  ColumnVector scratch;
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    State& st = states_[s];
    if (spec.kind == AggKind::kCountStar) {
      int64_t* count = st.count.data();
      for (size_t i = 0; i < n; ++i) count[groups[i]] += 1;
      continue;
    }
    // One branch per batch on (kind, argument type, NULLs present); rows
    // are then folded in order, so float sums match a sequential loop.
    BDCC_ASSIGN_OR_RETURN(const ColumnVector* arg,
                          EvalInPlace(spec.arg, batch, &scratch));
    const uint8_t* nulls = arg->HasNulls() ? arg->nulls.data() : nullptr;
    const bool float_arg = arg_types_[s] == TypeId::kFloat64;
    VisitNumericLane(*arg, [&](const auto* values) {
      using T = std::remove_cv_t<std::remove_pointer_t<decltype(values)>>;
      switch (spec.kind) {
        case AggKind::kSum:
          if (float_arg) {
            double* sum = st.sum_f64.data();
            FoldRows(values, nulls, groups, n, [&](uint32_t g, T x) {
              sum[g] += static_cast<double>(x);
            });
          } else {
            int64_t* sum = st.sum_i64.data();
            FoldRows(values, nulls, groups, n, [&](uint32_t g, T x) {
              sum[g] += static_cast<int64_t>(x);
            });
          }
          break;
        case AggKind::kAvg: {
          double* sum = st.sum_f64.data();
          int64_t* count = st.count.data();
          FoldRows(values, nulls, groups, n, [&](uint32_t g, T x) {
            sum[g] += static_cast<double>(x);
            count[g] += 1;
          });
          break;
        }
        case AggKind::kCount: {
          int64_t* count = st.count.data();
          FoldRows(values, nulls, groups, n,
                   [&](uint32_t g, T) { count[g] += 1; });
          break;
        }
        case AggKind::kMin:
        case AggKind::kMax: {
          bool is_min = spec.kind == AggKind::kMin;
          if (float_arg) {
            FoldMinMax(is_min, values, nulls, groups, n, st.minmax_f64.data(),
                       st.has_value.data());
          } else {
            FoldMinMax(is_min, values, nulls, groups, n, st.minmax_i64.data(),
                       st.has_value.data());
          }
          break;
        }
        case AggKind::kCountDistinct:
          AppendPairs(values, nulls, groups, n, &st.pending_values,
                      &st.pending_groups);
          MaybeSeal(&st);
          break;
        case AggKind::kCountStar:
          break;  // handled above
      }
    });
  }
  return Status::OK();
}

void AggregatorCore::EmitRange(size_t begin, size_t end,
                               std::vector<ColumnVector>* out) const {
  for (size_t s = 0; s < specs_.size(); ++s) {
    const AggSpec& spec = specs_[s];
    const State& st = states_[s];
    BDCC_CHECK(st.pending_values.empty());  // COUNT(DISTINCT): sealed
    ColumnVector v(output_fields_[s].type);
    v.Reserve(end - begin);
    for (size_t g = begin; g < end; ++g) {
      switch (spec.kind) {
        case AggKind::kSum:
          if (arg_types_[s] == TypeId::kFloat64) {
            v.f64.push_back(st.sum_f64[g]);
          } else {
            v.i64.push_back(st.sum_i64[g]);
          }
          break;
        case AggKind::kAvg:
          v.f64.push_back(st.count[g] == 0
                              ? 0.0
                              : st.sum_f64[g] /
                                    static_cast<double>(st.count[g]));
          break;
        case AggKind::kCount:
        case AggKind::kCountStar:
        case AggKind::kCountDistinct:
          v.i64.push_back(st.count[g]);
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (output_fields_[s].type == TypeId::kFloat64) {
            v.f64.push_back(st.has_value[g] ? st.minmax_f64[g] : 0.0);
          } else if (output_fields_[s].type == TypeId::kInt64) {
            v.i64.push_back(st.has_value[g] ? st.minmax_i64[g] : 0);
          } else {
            v.i32.push_back(st.has_value[g]
                                ? static_cast<int32_t>(st.minmax_i64[g])
                                : 0);
          }
          break;
      }
    }
    out->push_back(std::move(v));
  }
}

void AggregatorCore::Seal() {
  for (State& st : states_) {
    SealState(&st);
    st.pending_values = std::vector<int64_t>();
    st.pending_groups = std::vector<uint32_t>();
  }
}

void AggregatorCore::MaybeSeal(State* st) {
  if (st->pending_values.size() >=
      std::max(kMinSealPairs, st->distinct_by_group.size())) {
    SealState(st);
  }
}

void AggregatorCore::SealState(State* st) {
  const size_t pending = st->pending_values.size();
  if (pending == 0) return;
  // Counting sort of the pending values by group: end[g] starts as the
  // start of g's slice and ends as its end (the start of g + 1's).
  const size_t groups = num_groups_;
  std::vector<size_t> end(groups + 1, 0);
  for (uint32_t g : st->pending_groups) ++end[g + 1];
  for (size_t g = 0; g < groups; ++g) end[g + 1] += end[g];
  std::vector<int64_t> by_group(pending);
  for (size_t i = 0; i < pending; ++i) {
    by_group[end[st->pending_groups[i]]++] = st->pending_values[i];
  }
  // Each group's sealed run and its sorted, deduplicated new values unite
  // into its new run.
  std::unique_ptr<int64_t[]> merged(
      new int64_t[st->distinct_by_group.size() + pending]);
  const int64_t* run = st->distinct_by_group.data();
  int64_t* out = merged.get();
  for (size_t g = 0, begin = 0; g < groups; begin = end[g++]) {
    const int64_t* run_end = run + st->count[g];
    int64_t* fresh = by_group.data() + begin;
    int64_t* fresh_end = by_group.data() + end[g];
    int64_t* next = out;
    if (fresh == fresh_end) {
      next = std::copy(run, run_end, out);
    } else {
      std::sort(fresh, fresh_end);
      fresh_end = std::unique(fresh, fresh_end);
      next = std::set_union(run, run_end, fresh, fresh_end, out);
    }
    st->count[g] = next - out;
    out = next;
    run = run_end;
  }
  st->distinct_by_group.assign(merged.get(), out);
  st->pending_values.clear();
  st->pending_groups.clear();
}

void AggregatorCore::MergeFrom(const AggregatorCore& other,
                               const std::vector<uint32_t>& group_map) {
  BDCC_CHECK(specs_.size() == other.specs_.size());
  BDCC_CHECK(group_map.size() == other.num_groups_);
  for (size_t s = 0; s < specs_.size(); ++s) {
    State& st = states_[s];
    const State& os = other.states_[s];
    if (specs_[s].kind == AggKind::kCountDistinct) {
      // Counts are not additive: other's values join this core's pending
      // pairs under their mapped groups, and the next seal drops repeats.
      // Group g's values are the next os.count[g] of the sealed runs.
      BDCC_CHECK(os.pending_values.empty());  // other is sealed
      if (os.distinct_by_group.empty()) continue;
      const int64_t* run = os.distinct_by_group.data();
      for (size_t g = 0; g < other.num_groups_; ++g) {
        const int64_t* end = run + os.count[g];
        uint32_t m = group_map[g];
        if (m != kSkipGroup) {  // else partition-sliced merge: not ours
          st.pending_values.insert(st.pending_values.end(), run, end);
          st.pending_groups.insert(st.pending_groups.end(), end - run, m);
        }
        run = end;
      }
      MaybeSeal(&st);
      continue;
    }
    for (size_t g = 0; g < other.num_groups_; ++g) {
      uint32_t m = group_map[g];
      if (m == kSkipGroup) continue;  // partition-sliced merge: not ours
      switch (specs_[s].kind) {
        case AggKind::kSum:
          if (arg_types_[s] == TypeId::kFloat64) {
            st.sum_f64[m] += os.sum_f64[g];
          } else {
            st.sum_i64[m] += os.sum_i64[g];
          }
          break;
        case AggKind::kAvg:
          st.sum_f64[m] += os.sum_f64[g];
          st.count[m] += os.count[g];
          break;
        case AggKind::kCount:
        case AggKind::kCountStar:
          st.count[m] += os.count[g];
          break;
        case AggKind::kMin:
        case AggKind::kMax: {
          if (!os.has_value[g]) break;
          bool is_min = specs_[s].kind == AggKind::kMin;
          if (arg_types_[s] == TypeId::kFloat64) {
            double v = os.minmax_f64[g];
            if (!st.has_value[m] || (is_min ? v < st.minmax_f64[m]
                                            : v > st.minmax_f64[m])) {
              st.minmax_f64[m] = v;
            }
          } else {
            int64_t v = os.minmax_i64[g];
            if (!st.has_value[m] || (is_min ? v < st.minmax_i64[m]
                                            : v > st.minmax_i64[m])) {
              st.minmax_i64[m] = v;
            }
          }
          st.has_value[m] = 1;
          break;
        }
        case AggKind::kCountDistinct:
          break;  // merged above
      }
    }
  }
}

uint64_t AggregatorCore::MemoryBytes() const {
  uint64_t total = 0;
  for (const State& st : states_) {
    total += st.sum_f64.capacity() * 8 + st.sum_i64.capacity() * 8 +
             st.count.capacity() * 8 + st.minmax_f64.capacity() * 8 +
             st.minmax_i64.capacity() * 8 + st.has_value.capacity() +
             st.distinct_by_group.capacity() * 8 +
             st.pending_values.capacity() * 8 +
             st.pending_groups.capacity() * 4;
  }
  return total;
}

void AggregatorCore::Reset() {
  for (State& st : states_) st = State{};
  num_groups_ = 0;
}

void AggregatorCore::KeepOnlyLastGroup() {
  if (num_groups_ <= 1) return;  // the only group already is group 0
  const uint32_t last = static_cast<uint32_t>(num_groups_ - 1);
  for (State& st : states_) {
    SealState(&st);
    auto keep = [last](auto& lane) {
      if (lane.empty()) return;
      lane[0] = std::move(lane[last]);
      lane.resize(1);
    };
    keep(st.sum_f64);
    keep(st.sum_i64);
    keep(st.count);
    keep(st.minmax_f64);
    keep(st.minmax_i64);
    keep(st.has_value);
    // The last group's run is the tail of the sealed runs.
    std::vector<int64_t>& runs = st.distinct_by_group;
    if (!runs.empty()) runs.erase(runs.begin(), runs.end() - st.count[0]);
  }
  num_groups_ = 1;
}

}  // namespace exec
}  // namespace bdcc
