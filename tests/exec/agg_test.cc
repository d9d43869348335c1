// Aggregation tests: every aggregate kind, plus the equivalence property
// that hash, streaming (sorted input), and sandwich (grouped input)
// aggregation agree.
#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

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

// ---- COUNT(DISTINCT) on one flat (group, value) set per spec ----

Schema DistinctSchema() {
  return Schema({{"v", TypeId::kInt64}, {"w", TypeId::kInt32}});
}

// COUNT(DISTINCT v), COUNT(DISTINCT w) and COUNT(v): two sets side by side
// and a count lane that must stay independent of them.
std::vector<AggSpec> DistinctSpecs() {
  return {AggCountDistinct(Col("v"), "dv"), AggCountDistinct(Col("w"), "dw"),
          AggCount(Col("v"), "cv")};
}

// A value drawn from edge values, a small shared domain (repeats within and
// across groups) and the full 64-bit range.
int64_t DistinctValue(Rng* rng) {
  static const int64_t kEdges[] = {std::numeric_limits<int64_t>::min(),
                                   std::numeric_limits<int64_t>::max(),
                                   0, -1, 1};
  switch (rng->Uniform(0, 9)) {
    case 0:
      return kEdges[rng->Uniform(0, 4)];
    case 1:
    case 2:
      return static_cast<int64_t>(rng->Next64());
    default:
      return rng->Uniform(-400, 400);
  }
}

struct DistinctInput {
  Batch batch;
  std::vector<uint32_t> groups;
};

// `rows` rows over groups [0, num_groups) (or the ascending run ids in
// `runs`, when given); v is NULL in about a tenth of the rows.
DistinctInput MakeDistinctInput(Rng* rng, size_t rows, uint32_t num_groups,
                                const std::vector<uint32_t>* runs = nullptr) {
  DistinctInput in;
  ColumnVector v(TypeId::kInt64), w(TypeId::kInt32);
  v.nulls.assign(rows, 0);
  for (size_t r = 0; r < rows; ++r) {
    v.i64.push_back(DistinctValue(rng));
    w.i32.push_back(static_cast<int32_t>(rng->Uniform(-50, 50)));
    if (rng->Chance(0.1)) v.nulls[r] = 1;
    in.groups.push_back(runs != nullptr
                            ? (*runs)[r]
                            : static_cast<uint32_t>(
                                  rng->Uniform(0, num_groups - 1)));
  }
  in.batch.columns = {std::move(v), std::move(w)};
  in.batch.num_rows = rows;
  return in;
}

// Reference: the distinct (group, value) pairs of each COUNT(DISTINCT) spec
// and the per-group COUNT(v).
struct DistinctRef {
  std::set<std::pair<uint32_t, int64_t>> v_pairs, w_pairs;
  std::vector<int64_t> count_v;

  void Add(const DistinctInput& in) {
    const ColumnVector& v = in.batch.columns[0];
    const ColumnVector& w = in.batch.columns[1];
    for (size_t r = 0; r < in.batch.num_rows; ++r) {
      uint32_t g = in.groups[r];
      if (count_v.size() <= g) count_v.resize(g + 1, 0);
      w_pairs.emplace(g, w.i32[r]);
      if (v.IsNull(r)) continue;
      v_pairs.emplace(g, v.i64[r]);
      ++count_v[g];
    }
  }
  static int64_t CountOf(const std::set<std::pair<uint32_t, int64_t>>& pairs,
                         uint32_t g) {
    auto lo = pairs.lower_bound({g, std::numeric_limits<int64_t>::min()});
    auto hi = pairs.upper_bound({g, std::numeric_limits<int64_t>::max()});
    return std::distance(lo, hi);
  }
};

// Every group of `core` emits the reference's counts.
void ExpectDistinctMatches(const AggregatorCore& core, const DistinctRef& ref,
                           size_t num_groups, const std::string& what) {
  std::vector<ColumnVector> out;
  core.EmitRange(0, num_groups, &out);
  ASSERT_EQ(out.size(), 3u);
  for (uint32_t g = 0; g < num_groups; ++g) {
    ASSERT_EQ(out[0].i64[g], DistinctRef::CountOf(ref.v_pairs, g))
        << what << " group " << g;
    ASSERT_EQ(out[1].i64[g], DistinctRef::CountOf(ref.w_pairs, g))
        << what << " group " << g;
    ASSERT_EQ(out[2].i64[g], g < ref.count_v.size() ? ref.count_v[g] : 0)
        << what << " group " << g;
  }
}

TEST(AggTest, CountDistinctMatchesPairSetReference) {
  for (uint64_t seed : {5, 6}) {
    Rng rng(seed);
    constexpr uint32_t kGroups = 300;
    AggregatorCore core;
    ASSERT_TRUE(core.Bind(DistinctSchema(), DistinctSpecs()).ok());
    DistinctRef ref;
    uint64_t last_bytes = core.MemoryBytes();
    // 40 batches: v's set grows from 8 slots past 2^15 (a dozen doublings).
    for (int b = 0; b < 40; ++b) {
      DistinctInput in = MakeDistinctInput(&rng, 1000, kGroups);
      core.EnsureGroups(kGroups);
      ASSERT_TRUE(core.Update(in.batch, in.groups).ok());
      ref.Add(in);
      if (b % 8 == 7) {
        ExpectDistinctMatches(core, ref, kGroups,
                              "seed " + std::to_string(seed) + " batch " +
                                  std::to_string(b));
      }
      // Slots are charged at 16 bytes each, at most 3/4 full.
      uint64_t pairs = ref.v_pairs.size() + ref.w_pairs.size();
      EXPECT_GE(core.MemoryBytes(), pairs * 16 * 4 / 3);
      EXPECT_GE(core.MemoryBytes(), last_bytes);
      last_bytes = core.MemoryBytes();
    }
    EXPECT_GT(ref.v_pairs.size(), size_t{20000});
    ExpectDistinctMatches(core, ref, kGroups, "final");
  }
}

// Partial cores over the same groups, as the morsel-parallel consume phase
// leaves them.
struct DistinctPartials {
  std::vector<AggregatorCore> cores;
  DistinctRef ref;  // the union of every partial's rows
};

void MakeDistinctPartials(uint64_t seed, size_t num_partials,
                          uint32_t num_groups, DistinctPartials* p) {
  Rng rng(seed);
  p->cores.resize(num_partials);
  for (AggregatorCore& core : p->cores) {
    ASSERT_TRUE(core.Bind(DistinctSchema(), DistinctSpecs()).ok());
    core.EnsureGroups(num_groups);
    for (int b = 0; b < 6; ++b) {
      DistinctInput in = MakeDistinctInput(&rng, 700, num_groups);
      ASSERT_TRUE(core.Update(in.batch, in.groups).ok());
      p->ref.Add(in);
    }
  }
}

// Partition `part` of `parts` owns the groups g with g % parts == part,
// renumbered in reverse so the map is not the identity; the rest map to
// kSkipGroup.
std::vector<uint32_t> SliceMap(uint32_t num_groups, uint32_t parts,
                               uint32_t part, uint32_t* owned) {
  std::vector<uint32_t> map(num_groups, AggregatorCore::kSkipGroup);
  *owned = 0;
  for (uint32_t g = 0; g < num_groups; ++g) {
    if (g % parts == part) ++*owned;
  }
  uint32_t next = *owned;
  for (uint32_t g = 0; g < num_groups; ++g) {
    if (g % parts == part) map[g] = --next;
  }
  return map;
}

// A sliced merge target emits, for each owned group, the union's counts.
void ExpectSliceMatches(const AggregatorCore& target,
                        const std::vector<uint32_t>& map,
                        const DistinctRef& ref, const std::string& what) {
  std::vector<ColumnVector> out;
  target.EmitRange(0, target.num_groups(), &out);
  for (uint32_t g = 0; g < map.size(); ++g) {
    if (map[g] == AggregatorCore::kSkipGroup) continue;
    ASSERT_EQ(out[0].i64[map[g]], DistinctRef::CountOf(ref.v_pairs, g))
        << what << " group " << g;
    ASSERT_EQ(out[1].i64[map[g]], DistinctRef::CountOf(ref.w_pairs, g))
        << what << " group " << g;
    ASSERT_EQ(out[2].i64[map[g]], ref.count_v[g]) << what << " group " << g;
  }
}

TEST(AggTest, CountDistinctMergeFromSlicedGroupMaps) {
  constexpr uint32_t kGroups = 90;
  constexpr uint32_t kParts = 3;
  DistinctPartials partials;
  MakeDistinctPartials(17, 2, kGroups, &partials);
  if (HasFatalFailure()) return;
  std::vector<std::vector<ColumnVector>> before(partials.cores.size());
  for (size_t i = 0; i < partials.cores.size(); ++i) {
    partials.cores[i].EmitRange(0, kGroups, &before[i]);
    partials.cores[i].SealForMerge();
  }
  for (uint32_t part = 0; part < kParts; ++part) {
    uint32_t owned;
    std::vector<uint32_t> map = SliceMap(kGroups, kParts, part, &owned);
    AggregatorCore target;
    ASSERT_TRUE(target.Bind(DistinctSchema(), DistinctSpecs()).ok());
    target.EnsureGroups(owned);
    for (const AggregatorCore& partial : partials.cores) {
      target.MergeFrom(partial, map);
    }
    ExpectSliceMatches(target, map, partials.ref,
                       "part " + std::to_string(part));
  }
  // Sealing keeps the partials' counts, and MergeFrom is read-only on them.
  for (size_t i = 0; i < partials.cores.size(); ++i) {
    std::vector<ColumnVector> after;
    partials.cores[i].EmitRange(0, kGroups, &after);
    for (size_t s = 0; s < after.size(); ++s) {
      EXPECT_EQ(after[s].i64, before[i][s].i64) << "partial " << i;
    }
  }
}

// Four targets merge their slices of the same shared partials at once, as
// ParallelHashAgg's radix merge does (run under TSan).
TEST(ParallelCountDistinctMergeTest, FourThreadsMergeSlicesOfSharedPartials) {
  constexpr uint32_t kGroups = 120;
  constexpr uint32_t kParts = 4;
  DistinctPartials partials;
  MakeDistinctPartials(23, 3, kGroups, &partials);
  if (HasFatalFailure()) return;
  for (AggregatorCore& partial : partials.cores) partial.SealForMerge();
  std::vector<AggregatorCore> targets(kParts);
  std::vector<std::vector<uint32_t>> maps(kParts);
  for (uint32_t part = 0; part < kParts; ++part) {
    uint32_t owned;
    maps[part] = SliceMap(kGroups, kParts, part, &owned);
    ASSERT_TRUE(targets[part].Bind(DistinctSchema(), DistinctSpecs()).ok());
    targets[part].EnsureGroups(owned);
  }
  std::vector<std::thread> threads;
  for (uint32_t part = 0; part < kParts; ++part) {
    threads.emplace_back([&, part] {
      for (const AggregatorCore& partial : partials.cores) {
        targets[part].MergeFrom(partial, maps[part]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint32_t part = 0; part < kParts; ++part) {
    ExpectSliceMatches(targets[part], maps[part], partials.ref,
                       "part " + std::to_string(part));
  }
}

TEST(AggTest, CountDistinctKeepOnlyLastGroupAndReset) {
  Rng rng(31);
  AggregatorCore core;
  ASSERT_TRUE(core.Bind(DistinctSchema(), DistinctSpecs()).ok());
  // Stream runs across batches as StreamAgg does: a batch's rows carry
  // ascending run ids, group 0 being the run carried in; every complete
  // run is checked, then only the open one is kept.
  DistinctRef run_ref;  // pairs of the runs still held, by core group
  int64_t run_left = 1;  // rows of the open run still to come
  size_t runs_checked = 0;
  for (int b = 0; b < 30; ++b) {
    std::vector<uint32_t> runs;
    uint32_t run = 0;
    for (size_t r = 0; r < 500; ++r) {
      if (run_left == 0) {
        ++run;
        // Mostly short runs, sometimes one spanning several batches.
        run_left = rng.Chance(0.05) ? 1500 : rng.Uniform(1, 40);
      }
      --run_left;
      runs.push_back(run);
    }
    DistinctInput in = MakeDistinctInput(&rng, runs.size(), 0, &runs);
    core.EnsureGroups(run + 1);
    ASSERT_TRUE(core.Update(in.batch, in.groups).ok());
    run_ref.Add(in);
    ExpectDistinctMatches(core, run_ref, run + 1,
                          "batch " + std::to_string(b));
    if (run == 0) continue;  // StreamAgg keeps a lone open run as is
    runs_checked += run;
    core.KeepOnlyLastGroup();
    ASSERT_EQ(core.num_groups(), 1u);
    DistinctRef kept;  // the last run's pairs, renumbered as group 0
    for (const auto& [g, x] : run_ref.v_pairs) {
      if (g == run) kept.v_pairs.emplace(0, x);
    }
    for (const auto& [g, x] : run_ref.w_pairs) {
      if (g == run) kept.w_pairs.emplace(0, x);
    }
    kept.count_v = {run_ref.count_v[run]};
    run_ref = std::move(kept);
    ExpectDistinctMatches(core, run_ref, 1, "kept after batch " +
                                                std::to_string(b));
  }
  EXPECT_GT(runs_checked, 100u);

  core.Reset();
  EXPECT_EQ(core.num_groups(), 0u);
  EXPECT_EQ(core.MemoryBytes(), 0u);
  DistinctInput in = MakeDistinctInput(&rng, 800, 20);
  core.EnsureGroups(20);
  ASSERT_TRUE(core.Update(in.batch, in.groups).ok());
  DistinctRef fresh;
  fresh.Add(in);
  ExpectDistinctMatches(core, fresh, 20, "after Reset");
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
