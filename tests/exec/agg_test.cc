// Aggregation tests: every aggregate kind, plus the equivalence property
// that hash, streaming (sorted input), and sandwich (grouped input)
// aggregation agree.
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/rng.h"
#include "exec/hash_agg.h"
#include "exec/sandwich_agg.h"
#include "exec/stream_agg.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

class VectorSource : public Operator {
 public:
  VectorSource(Schema schema, std::vector<Batch> batches)
      : schema_(std::move(schema)), batches_(std::move(batches)) {}
  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext*) override {
    at_ = 0;
    return Status::OK();
  }
  Result<Batch> Next(ExecContext*) override {
    if (at_ >= batches_.size()) return Batch::Empty();
    Batch out;
    const Batch& src = batches_[at_++];
    out.num_rows = src.num_rows;
    out.group_id = src.group_id;
    out.columns = src.columns;
    return out;
  }

 private:
  Schema schema_;
  std::vector<Batch> batches_;
  size_t at_ = 0;
};

Schema S() {
  return Schema({{"k", TypeId::kInt32}, {"v", TypeId::kFloat64}});
}

Batch B(std::vector<int32_t> keys, std::vector<double> vals,
        int64_t gid = -1) {
  Batch b;
  ColumnVector k(TypeId::kInt32), v(TypeId::kFloat64);
  k.i32 = std::move(keys);
  v.f64 = std::move(vals);
  b.num_rows = k.i32.size();
  b.columns = {std::move(k), std::move(v)};
  b.group_id = gid;
  return b;
}

OperatorPtr Src(std::vector<Batch> b) {
  return std::make_unique<VectorSource>(S(), std::move(b));
}

std::vector<AggSpec> AllSpecs() {
  return {AggSum(Col("v"), "s"),       AggCount(Col("v"), "c"),
          AggCountStar("cs"),          AggAvg(Col("v"), "a"),
          AggMin(Col("v"), "mn"),      AggMax(Col("v"), "mx"),
          AggCountDistinct(Col("k"), "cd")};
}

TEST(HashAggTest, AllKindsSingleGroup) {
  ExecContext ctx(nullptr);
  HashAgg agg(Src({B({1, 1, 1}, {2.0, 4.0, 6.0})}), {"k"}, AllSpecs());
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_DOUBLE_EQ(out.columns[1].f64[0], 12.0);  // sum
  EXPECT_EQ(out.columns[2].i64[0], 3);            // count
  EXPECT_EQ(out.columns[3].i64[0], 3);            // count(*)
  EXPECT_DOUBLE_EQ(out.columns[4].f64[0], 4.0);   // avg
  EXPECT_DOUBLE_EQ(out.columns[5].f64[0], 2.0);   // min
  EXPECT_DOUBLE_EQ(out.columns[6].f64[0], 6.0);   // max
  EXPECT_EQ(out.columns[7].i64[0], 1);            // distinct k
}

TEST(HashAggTest, ScalarAggregateOnEmptyInputEmitsOneRow) {
  ExecContext ctx(nullptr);
  HashAgg agg(Src({}), {}, {AggSum(Col("v"), "s"), AggCountStar("c")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_DOUBLE_EQ(out.columns[0].f64[0], 0.0);
  EXPECT_EQ(out.columns[1].i64[0], 0);
}

TEST(HashAggTest, GroupedAggregateOnEmptyInputEmitsNoRows) {
  ExecContext ctx(nullptr);
  HashAgg agg(Src({}), {"k"}, {AggCountStar("c")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 0u);
}

TEST(HashAggTest, NullsSkipped) {
  Batch b = B({1, 1, 1}, {1.0, 2.0, 3.0});
  b.columns[1].nulls = {0, 1, 0};
  ExecContext ctx(nullptr);
  HashAgg agg(Src({b}), {"k"},
              {AggSum(Col("v"), "s"), AggCount(Col("v"), "c"),
               AggCountStar("cs"), AggAvg(Col("v"), "a")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.columns[1].f64[0], 4.0);
  EXPECT_EQ(out.columns[2].i64[0], 2);
  EXPECT_EQ(out.columns[3].i64[0], 3);
  EXPECT_DOUBLE_EQ(out.columns[4].f64[0], 2.0);
}

TEST(HashAggTest, CountDistinct) {
  ExecContext ctx(nullptr);
  HashAgg agg(Src({B({1, 1, 2, 2, 2}, {5, 5, 7, 8, 7})}), {},
              {AggCountDistinct(Col("k"), "cd")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  EXPECT_EQ(out.columns[0].i64[0], 2);
}

TEST(StreamAggTest, SortedRunsAcrossBatches) {
  ExecContext ctx(nullptr);
  StreamAgg agg(Src({B({1, 1, 2}, {1, 2, 3}), B({2, 2}, {4, 5}),
                     B({3}, {6})}),
                {"k"}, {AggSum(Col("v"), "s"), AggCountStar("c")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 3u);
  EXPECT_EQ(out.columns[0].i32[0], 1);
  EXPECT_DOUBLE_EQ(out.columns[1].f64[0], 3.0);
  EXPECT_EQ(out.columns[2].i64[1], 3);  // key 2 spans batches: 3 rows
  EXPECT_DOUBLE_EQ(out.columns[1].f64[2], 6.0);
}

TEST(StreamAggTest, SingleRowGroups) {
  ExecContext ctx(nullptr);
  StreamAgg agg(Src({B({1, 2, 3, 4}, {1, 2, 3, 4})}), {"k"},
                {AggSum(Col("v"), "s")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out.columns[0].i32[i], i + 1);
    EXPECT_DOUBLE_EQ(out.columns[1].f64[i], i + 1.0);
  }
}

TEST(SandwichAggTest, FlushesPerPartition) {
  ExecContext ctx(nullptr);
  SandwichAgg agg(Src({B({1, 2}, {1, 2}, 0), B({1}, {5}, 0),
                       B({1, 3}, {7, 9}, 4)}),
                  {"k"}, {AggSum(Col("v"), "s")});
  Batch out = CollectAll(&agg, &ctx).ValueOrDie();
  // Partition 0: keys 1 (sum 6), 2 (sum 2); partition 4: keys 1 (7), 3 (9).
  ASSERT_EQ(out.num_rows, 4u);
  EXPECT_EQ(ctx.stats()->sandwich_partitions, 2u);
  double total = 0;
  for (size_t r = 0; r < out.num_rows; ++r) total += out.columns[1].f64[r];
  EXPECT_DOUBLE_EQ(total, 24.0);
}

TEST(SandwichAggTest, TagsOutputWithItsPartition) {
  // Each partition's groups leave tagged with that partition's id, so the
  // output is itself a grouped stream a sandwich join can consume.
  ExecContext ctx(nullptr);
  SandwichAgg agg(Src({B({1, 2}, {1, 2}, 0), B({1}, {5}, 0), B({3}, {4}, 2),
                       B({1, 3}, {7, 9}, 4)}),
                  {"k"}, {AggSum(Col("v"), "s")});
  ASSERT_TRUE(agg.Open(&ctx).ok());
  std::vector<int64_t> ids;
  while (true) {
    Batch b = agg.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    ids.push_back(b.group_id);
  }
  agg.Close(&ctx);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 2, 4}));
}

TEST(SandwichAggTest, RejectsUntaggedInput) {
  ExecContext ctx(nullptr);
  SandwichAgg agg(Src({B({1}, {1})}), {"k"}, {AggSum(Col("v"), "s")});
  ASSERT_TRUE(agg.Open(&ctx).ok());
  EXPECT_FALSE(agg.Next(&ctx).ok());
}

TEST(SandwichAggTest, RejectsDescendingGroups) {
  // Partition 0 comes back after partition 4: its keys would be emitted a
  // second time, so the operator must refuse instead.
  ExecContext ctx(nullptr);
  SandwichAgg agg(Src({B({1, 2}, {1, 2}, 0), B({1}, {5}, 4),
                       B({2}, {7}, 0)}),
                  {"k"}, {AggSum(Col("v"), "s")});
  auto result = CollectAll(&agg, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal)
      << result.status().ToString();
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);
}

TEST(AggEquivalenceTest, StrategiesAgreeProperty) {
  Rng rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    // Keys ascending (valid for StreamAgg), grouped by key/8 (valid for
    // SandwichAgg since a key never spans partitions).
    std::vector<Batch> sorted_batches, grouped_batches, shuffled_batches;
    std::vector<std::pair<int32_t, double>> rows;
    int n = 50 + static_cast<int>(rng.Uniform(0, 200));
    for (int i = 0; i < n; ++i) {
      rows.push_back({static_cast<int32_t>(rng.Uniform(0, 63)),
                      static_cast<double>(rng.Uniform(-50, 50))});
    }
    std::sort(rows.begin(), rows.end());
    // Sorted batches (random cut points).
    for (size_t at = 0; at < rows.size();) {
      size_t end = std::min(rows.size(), at + 1 + rng.Next64() % 40);
      std::vector<int32_t> k;
      std::vector<double> v;
      for (size_t i = at; i < end; ++i) {
        k.push_back(rows[i].first);
        v.push_back(rows[i].second);
      }
      sorted_batches.push_back(B(k, v));
      at = end;
    }
    // Grouped batches: partition = key >> 3, cut at partition boundaries.
    for (size_t at = 0; at < rows.size();) {
      int64_t part = rows[at].first >> 3;
      size_t end = at;
      while (end < rows.size() && (rows[end].first >> 3) == part) ++end;
      std::vector<int32_t> k;
      std::vector<double> v;
      for (size_t i = at; i < end; ++i) {
        k.push_back(rows[i].first);
        v.push_back(rows[i].second);
      }
      grouped_batches.push_back(B(k, v, part));
      at = end;
    }
    shuffled_batches = sorted_batches;  // hash agg order-insensitive anyway

    // The default batch size emits each sandwich partition as one batch;
    // a batch size of 3 makes partitions span several output batches.
    for (size_t batch_size : {size_t{0}, size_t{3}}) {
      std::vector<AggSpec> specs = AllSpecs();
      ExecContext ctx(nullptr);
      if (batch_size > 0) ctx.set_batch_size(batch_size);
      std::string label = " t" + std::to_string(trial) + " batch " +
                          std::to_string(ctx.batch_size());
      HashAgg hash(Src(shuffled_batches), {"k"}, specs);
      Batch a = CollectAll(&hash, &ctx).ValueOrDie();
      StreamAgg stream(Src(sorted_batches), {"k"}, AllSpecs());
      Batch b = CollectAll(&stream, &ctx).ValueOrDie();
      SandwichAgg sandwich(Src(grouped_batches), {"k"}, AllSpecs());
      Batch c = CollectAll(&sandwich, &ctx).ValueOrDie();
      testutil::ExpectBatchesEqual(a, b, "hash-vs-stream" + label);
      testutil::ExpectBatchesEqual(a, c, "hash-vs-sandwich" + label);
    }
  }
}


// ---------------- AggregatorCore::Update ----------------
//
// The update kernels against a sequential loop written here: every kind
// over float64, int64 and int32 lanes, with and without NULLs, under a
// selection vector and over zero-copy views. Float sums must be
// bit-identical, so the rows must be folded in order.

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Batch shapes, combined as bit flags.
constexpr int kNulls = 1;
constexpr int kSel = 2;
constexpr int kViews = 4;  // views carry no NULLs

struct UpdateInput {
  // Lanes the view columns borrow; they outlive the batch.
  std::vector<double> f;
  std::vector<int64_t> l;
  std::vector<int32_t> n;
  Batch batch;
  std::vector<uint32_t> groups;  // per logical row
};

Schema UpdateSchema() {
  return Schema({{"f", TypeId::kFloat64},
                 {"l", TypeId::kInt64},
                 {"n", TypeId::kInt32}});
}

void MakeUpdateInput(Rng* rng, int shape, size_t rows, size_t num_groups,
                     UpdateInput* in) {
  std::vector<uint32_t> group_of(rows);
  for (size_t r = 0; r < rows; ++r) {
    group_of[r] = static_cast<uint32_t>(
        rng->Uniform(0, static_cast<int64_t>(num_groups) - 1));
    // Mixed magnitudes: a float sum depends on the order of its rows. Group
    // 0 holds only signed zeros, whose ties tell MIN/MAX's strict
    // comparisons apart; NaN shows up elsewhere now and then.
    double x = rng->Chance(0.3) ? (rng->Chance(0.5) ? 1e16 : -1e16)
                                : (rng->NextDouble() - 0.5) * 100.0;
    if (rng->Chance(0.02)) x = std::numeric_limits<double>::quiet_NaN();
    if (group_of[r] == 0) x = rng->Chance(0.5) ? 0.0 : -0.0;
    in->f.push_back(x);
    in->l.push_back(rng->Uniform(-1000000000000, 1000000000000));
    in->n.push_back(rng->Chance(0.2)
                        ? (rng->Chance(0.5) ? std::numeric_limits<int32_t>::min()
                                            : std::numeric_limits<int32_t>::max())
                        : static_cast<int32_t>(rng->Uniform(-50, 50)));
  }
  ColumnVector f(TypeId::kFloat64), l(TypeId::kInt64), n(TypeId::kInt32);
  if (shape & kViews) {
    f.SetView(in->f.data(), rows);
    l.SetView(in->l.data(), rows);
    n.SetView(in->n.data(), rows);
  } else {
    f.f64 = in->f;
    l.i64 = in->l;
    n.i32 = in->n;
  }
  in->batch.columns = {std::move(f), std::move(l), std::move(n)};
  in->batch.num_rows = rows;
  if (shape & kNulls) {
    for (ColumnVector& c : in->batch.columns) {
      c.nulls.assign(rows, 0);
      for (size_t r = 0; r < rows; ++r) c.nulls[r] = rng->Chance(0.25);
    }
  }
  if (shape & kSel) {
    for (uint32_t r = 0; r < rows; ++r) {
      if (rng->Chance(0.7)) in->batch.sel.push_back(r);
    }
    in->batch.num_rows = in->batch.sel.size();
  }
  for (size_t r = 0; r < in->batch.num_rows; ++r) {
    in->groups.push_back(group_of[in->batch.RowAt(r)]);
  }
}

TEST(AggTest, UpdateMatchesSequentialLoop) {
  constexpr size_t kGroups = 7;
  const std::vector<AggKind> kinds = {AggKind::kSum, AggKind::kAvg,
                                      AggKind::kMin, AggKind::kMax,
                                      AggKind::kCount};
  for (uint64_t seed : {1, 2, 3}) {
    for (int shape : {0, kNulls, kSel, kNulls | kSel, kViews, kViews | kSel}) {
      Rng rng(seed * 100 + static_cast<uint64_t>(shape));
      // Two batches: states must carry from one Update to the next.
      UpdateInput inputs[2];
      MakeUpdateInput(&rng, shape, 257, kGroups, &inputs[0]);
      MakeUpdateInput(&rng, shape, 300, kGroups, &inputs[1]);
      // Each kind over each lane: bare columns (read in place) and
      // expressions (evaluated), plus COUNT(*).
      std::vector<AggSpec> specs;
      std::vector<std::string> cols;
      for (const char* col : {"f", "l", "n"}) {
        for (AggKind kind : kinds) {
          specs.push_back(AggSpec{kind, Col(col), std::string(col)});
          cols.push_back(col);
        }
      }
      specs.push_back(AggSum(Mul(Col("f"), LitF64(1.0)), "f*1"));
      cols.push_back("f");
      specs.push_back(AggMax(Add(Col("l"), LitI64(0)), "l+0"));
      cols.push_back("l");
      specs.push_back(AggCountStar("*"));
      cols.push_back("");
      AggregatorCore core;
      ASSERT_TRUE(core.Bind(UpdateSchema(), specs).ok());
      core.EnsureGroups(kGroups);
      for (const UpdateInput& in : inputs) {
        ASSERT_TRUE(core.Update(in.batch, in.groups).ok());
      }
      std::vector<ColumnVector> out;
      core.EmitRange(0, kGroups, &out);
      ASSERT_EQ(out.size(), specs.size());

      for (size_t s = 0; s < specs.size(); ++s) {
        const std::string what = "seed " + std::to_string(seed) + " shape " +
                                 std::to_string(shape) + " spec " +
                                 std::to_string(s) + " over " + cols[s];
        const int c = cols[s].empty() ? -1 : UpdateSchema().IndexOf(cols[s]);
        const bool fp = cols[s] == "f";
        std::vector<double> fsum(kGroups, 0.0), fbest(kGroups, 0.0);
        std::vector<int64_t> isum(kGroups, 0), ibest(kGroups, 0),
            count(kGroups, 0);
        std::vector<bool> seen(kGroups, false);
        for (const UpdateInput& in : inputs) {
          for (size_t r = 0; r < in.batch.num_rows; ++r) {
            const uint32_t g = in.groups[r];
            if (c < 0) {
              ++count[g];
              continue;
            }
            const ColumnVector& v = in.batch.columns[c];
            const size_t p = in.batch.RowAt(r);
            if (v.IsNull(p)) continue;
            const double x = fp ? v.f64_data()[p]
                                : c == 1 ? static_cast<double>(v.i64_data()[p])
                                         : static_cast<double>(v.i32_data()[p]);
            const int64_t xi = c == 1 ? v.i64_data()[p]
                                      : c == 2 ? v.i32_data()[p] : 0;
            ++count[g];
            fsum[g] += x;
            isum[g] += xi;
            bool is_min = specs[s].kind == AggKind::kMin;
            if (fp) {
              if (!seen[g] || (is_min ? x < fbest[g] : x > fbest[g])) fbest[g] = x;
            } else if (!seen[g] || (is_min ? xi < ibest[g] : xi > ibest[g])) {
              ibest[g] = xi;
            }
            seen[g] = true;
          }
        }
        const ColumnVector& got = out[s];
        for (size_t g = 0; g < kGroups; ++g) {
          switch (specs[s].kind) {
            case AggKind::kSum:
              if (fp) {
                ASSERT_TRUE(SameBits(got.f64[g], fsum[g])) << what << " g" << g;
              } else {
                ASSERT_EQ(got.i64[g], isum[g]) << what << " g" << g;
              }
              break;
            case AggKind::kAvg:
              ASSERT_TRUE(SameBits(got.f64[g],
                                   count[g] == 0 ? 0.0
                                                 : fsum[g] / static_cast<double>(
                                                                 count[g])))
                  << what << " g" << g;
              break;
            case AggKind::kMin:
            case AggKind::kMax:
              if (fp) {
                ASSERT_TRUE(SameBits(got.f64[g], fbest[g])) << what << " g" << g;
              } else if (got.type == TypeId::kInt32) {
                ASSERT_EQ(got.i32[g], ibest[g]) << what << " g" << g;
              } else {
                ASSERT_EQ(got.i64[g], ibest[g]) << what << " g" << g;
              }
              break;
            case AggKind::kCount:
            case AggKind::kCountStar:
              ASSERT_EQ(got.i64[g], count[g]) << what << " g" << g;
              break;
            default:
              FAIL() << what;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
