// Hash, merge, and sandwich join tests, including the key equivalence
// property: all join strategies produce the same result multiset.
#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/hash_join.h"
#include "exec/merge_join.h"
#include "exec/parallel.h"
#include "exec/sandwich_join.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

// Operator feeding pre-built batches.
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
    out.sel = src.sel;
    out.group_id = src.group_id;
    out.columns = src.columns;  // copy
    return out;
  }

 private:
  Schema schema_;
  std::vector<Batch> batches_;
  size_t at_ = 0;
};

Batch RowsBatch(std::vector<int32_t> keys, std::vector<int64_t> payloads,
                int64_t group_id = -1) {
  Batch b;
  ColumnVector k(TypeId::kInt32), p(TypeId::kInt64);
  k.i32 = std::move(keys);
  p.i64 = std::move(payloads);
  b.num_rows = k.i32.size();
  b.columns = {std::move(k), std::move(p)};
  b.group_id = group_id;
  return b;
}

Schema LeftSchema() {
  return Schema({{"lk", TypeId::kInt32}, {"lp", TypeId::kInt64}});
}
Schema RightSchema() {
  return Schema({{"rk", TypeId::kInt32}, {"rp", TypeId::kInt64}});
}

OperatorPtr Left(std::vector<Batch> b) {
  return std::make_unique<VectorSource>(LeftSchema(), std::move(b));
}
OperatorPtr Right(std::vector<Batch> b) {
  return std::make_unique<VectorSource>(RightSchema(), std::move(b));
}

TEST(HashJoinTest, Inner) {
  ExecContext ctx(nullptr);
  HashJoin join(Left({RowsBatch({1, 2, 3, 2}, {10, 20, 30, 21})}),
                Right({RowsBatch({2, 4, 2}, {200, 400, 201})}), {"lk"},
                {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  // Left rows with key 2 match two build rows each -> 4 results.
  EXPECT_EQ(out.num_rows, 4u);
  ASSERT_EQ(out.columns.size(), 4u);
  for (size_t r = 0; r < out.num_rows; ++r) {
    EXPECT_EQ(out.columns[0].i32[r], out.columns[2].i32[r]);
  }
}

TEST(HashJoinTest, LeftOuterProducesNulls) {
  ExecContext ctx(nullptr);
  HashJoin join(Left({RowsBatch({1, 2}, {10, 20})}),
                Right({RowsBatch({2}, {200})}), {"lk"}, {"rk"},
                JoinType::kLeftOuter);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 2u);
  int null_rows = 0;
  for (size_t r = 0; r < out.num_rows; ++r) {
    if (out.columns[2].IsNull(r)) {
      ++null_rows;
      EXPECT_EQ(out.columns[0].i32[r], 1);
    }
  }
  EXPECT_EQ(null_rows, 1);
}

TEST(HashJoinTest, SemiAndAnti) {
  ExecContext ctx(nullptr);
  HashJoin semi(Left({RowsBatch({1, 2, 3}, {10, 20, 30})}),
                Right({RowsBatch({2, 2, 5}, {0, 0, 0})}), {"lk"}, {"rk"},
                JoinType::kLeftSemi);
  Batch s = CollectAll(&semi, &ctx).ValueOrDie();
  ASSERT_EQ(s.num_rows, 1u);  // key 2 once, despite two matches
  EXPECT_EQ(s.columns[0].i32[0], 2);
  EXPECT_EQ(s.columns.size(), 2u);  // left columns only

  HashJoin anti(Left({RowsBatch({1, 2, 3}, {10, 20, 30})}),
                Right({RowsBatch({2}, {0})}), {"lk"}, {"rk"},
                JoinType::kLeftAnti);
  Batch a = CollectAll(&anti, &ctx).ValueOrDie();
  EXPECT_EQ(a.num_rows, 2u);
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  Batch left = RowsBatch({1, 2}, {10, 20});
  left.columns[0].nulls = {0, 1};
  Batch right = RowsBatch({2, 1}, {200, 100});
  right.columns[0].nulls = {1, 0};
  ExecContext ctx(nullptr);
  HashJoin join(Left({left}), Right({right}), {"lk"}, {"rk"},
                JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 1);
}

TEST(HashJoinTest, TracksBuildMemory) {
  ExecContext ctx(nullptr);
  std::vector<int32_t> keys(5000);
  std::vector<int64_t> vals(5000);
  std::iota(keys.begin(), keys.end(), 0);
  HashJoin join(Left({RowsBatch({1}, {1})}),
                Right({RowsBatch(keys, vals)}), {"lk"}, {"rk"},
                JoinType::kInner);
  (void)CollectAll(&join, &ctx).ValueOrDie();
  // Build side ~5000 rows * 12B plus table overhead; peak reflects it.
  EXPECT_GT(ctx.memory()->peak_bytes(), 50000u);
  EXPECT_EQ(ctx.memory()->current_bytes(), 0u);  // released on Close
}

// Build keys (kNullKey marks a NULL) split into batches of `batch_rows`;
// the payload is the row's position in the whole build.
constexpr int32_t kNullKey = std::numeric_limits<int32_t>::min();

std::vector<Batch> KeyBatches(const std::vector<int32_t>& keys,
                              size_t batch_rows, int64_t payload_base) {
  std::vector<Batch> out;
  for (size_t at = 0; at < keys.size(); at += batch_rows) {
    size_t end = std::min(keys.size(), at + batch_rows);
    std::vector<int32_t> k(keys.begin() + at, keys.begin() + end);
    std::vector<int64_t> p(end - at);
    std::iota(p.begin(), p.end(), payload_base + static_cast<int64_t>(at));
    Batch b = RowsBatch(k, p);
    b.columns[0].nulls.assign(k.size(), 0);
    for (size_t r = 0; r < k.size(); ++r) {
      if (k[r] == kNullKey) b.columns[0].nulls[r] = 1;
    }
    out.push_back(std::move(b));
  }
  return out;
}

// The join by nested loops over the keys: per probe row, matching build
// rows newest first, then NULL extension / semi / anti rows. Rows are
// (lk, lp, rk, rp) with rp = -1 for a NULL-extended row.
std::vector<std::vector<int64_t>> NestedLoopJoin(
    const std::vector<int32_t>& probe, const std::vector<int32_t>& build,
    JoinType type) {
  std::vector<std::vector<int64_t>> rows;
  for (size_t p = 0; p < probe.size(); ++p) {
    int64_t lp = 1000000 + static_cast<int64_t>(p);
    bool matched = false;
    for (size_t b = build.size(); b-- > 0;) {
      if (probe[p] == kNullKey || build[b] != probe[p]) continue;
      matched = true;
      if (type == JoinType::kInner || type == JoinType::kLeftOuter) {
        rows.push_back({probe[p], lp, build[b], static_cast<int64_t>(b)});
      }
    }
    if ((type == JoinType::kLeftOuter && !matched) ||
        (type == JoinType::kLeftSemi && matched) ||
        (type == JoinType::kLeftAnti && !matched)) {
      rows.push_back({probe[p], lp, 0, -1});
    }
  }
  return rows;
}

TEST(HashJoinTest, UniqueAndChainedBuildsJoinLikeNestedLoops) {
  // Unique build keys; the first repeat at the first, a middle and the last
  // row of the second batch; a NULL as the very first row.
  std::vector<int32_t> unique(20);
  std::iota(unique.begin(), unique.end(), 10);
  std::vector<std::pair<std::string, std::vector<int32_t>>> builds = {
      {"unique", unique}};
  for (size_t at : {8, 12, 15}) {
    std::vector<int32_t> keys = unique;
    keys[at] = keys[3];
    builds.push_back({"repeat at row " + std::to_string(at), keys});
  }
  std::vector<int32_t> null_first = unique;
  null_first[0] = kNullKey;
  builds.push_back({"NULL first", null_first});
  std::vector<int32_t> probe = {13, 9, 10, kNullKey, 29, 13, 40, 11, 18};
  for (const auto& [label, build] : builds) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                          JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      ExecContext ctx(nullptr);
      HashJoin join(Left(KeyBatches(probe, 4, 1000000)),
                    Right(KeyBatches(build, 8, 0)), {"lk"}, {"rk"}, type);
      Batch out = CollectAll(&join, &ctx).ValueOrDie();
      std::vector<std::vector<int64_t>> want =
          NestedLoopJoin(probe, build, type);
      std::string what = label + " " + JoinTypeName(type);
      ASSERT_EQ(out.num_rows, want.size()) << what;
      for (size_t r = 0; r < want.size(); ++r) {
        if (want[r][0] == kNullKey) {
          EXPECT_TRUE(out.columns[0].IsNull(r)) << what << " row " << r;
        } else {
          EXPECT_EQ(out.columns[0].i32[r], want[r][0]) << what << " row " << r;
        }
        EXPECT_EQ(out.columns[1].i64[r], want[r][1]) << what << " row " << r;
        if (out.columns.size() == 2) continue;  // semi / anti
        if (want[r][3] < 0) {
          EXPECT_TRUE(out.columns[3].IsNull(r)) << what << " row " << r;
          continue;
        }
        EXPECT_EQ(out.columns[2].i32[r], want[r][2]) << what << " row " << r;
        EXPECT_EQ(out.columns[3].i64[r], want[r][3]) << what << " row " << r;
      }
    }
  }
}

TEST(MergeJoinTest, InnerWithDuplicateProbe) {
  ExecContext ctx(nullptr);
  MergeJoin join(Left({RowsBatch({1, 1, 2, 5, 5, 9}, {0, 1, 2, 3, 4, 5})}),
                 Right({RowsBatch({1, 2, 3, 5}, {100, 200, 300, 500})}),
                 "lk", "rk");
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 5u);  // 1,1,2,5,5 match; 9 has no partner
  for (size_t r = 0; r < out.num_rows; ++r) {
    EXPECT_EQ(out.columns[0].i32[r], out.columns[2].i32[r]);
    EXPECT_EQ(out.columns[3].i64[r], out.columns[0].i32[r] * 100);
  }
}

TEST(MergeJoinTest, BatchBoundaries) {
  // Runs span batch boundaries on both sides.
  ExecContext ctx(nullptr);
  MergeJoin join(
      Left({RowsBatch({1, 3}, {0, 1}), RowsBatch({3, 7}, {2, 3})}),
      Right({RowsBatch({1, 2}, {10, 20}), RowsBatch({3, 7}, {30, 70})}),
      "lk", "rk");
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 4u);
}

TEST(SandwichJoinTest, AlignedGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1, 2}, {10, 20}, 0), RowsBatch({5}, {50}, 2)}),
      Right({RowsBatch({2, 1}, {200, 100}, 0), RowsBatch({5, 6}, {500, 600}, 2)}),
      {"lk"}, {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 3u);
}

TEST(SandwichJoinTest, MissingGroupsEitherSide) {
  ExecContext ctx(nullptr);
  // Left group 1 has no right partner; right group 3 has no left partner.
  SandwichHashJoin join(
      Left({RowsBatch({1}, {10}, 0), RowsBatch({2}, {20}, 1)}),
      Right({RowsBatch({1}, {100}, 0), RowsBatch({9}, {900}, 3)}), {"lk"},
      {"rk"}, JoinType::kInner);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 1);
}

TEST(SandwichJoinTest, AntiEmitsUnmatchedGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1}, {10}, 0), RowsBatch({2}, {20}, 1)}),
      Right({RowsBatch({1}, {100}, 0)}), {"lk"}, {"rk"},
      JoinType::kLeftAnti);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  ASSERT_EQ(out.num_rows, 1u);
  EXPECT_EQ(out.columns[0].i32[0], 2);
}

TEST(SandwichJoinTest, LeftOuterAcrossGroups) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(
      Left({RowsBatch({1, 2}, {10, 20}, 0), RowsBatch({7}, {70}, 5)}),
      Right({RowsBatch({2}, {200}, 0)}), {"lk"}, {"rk"},
      JoinType::kLeftOuter);
  Batch out = CollectAll(&join, &ctx).ValueOrDie();
  EXPECT_EQ(out.num_rows, 3u);
  int nulls = 0;
  for (size_t r = 0; r < out.num_rows; ++r) {
    if (out.columns[2].IsNull(r)) ++nulls;
  }
  EXPECT_EQ(nulls, 2);  // key 1 (group present) and key 7 (group absent)
}

TEST(SandwichJoinTest, RejectsUntaggedInput) {
  ExecContext ctx(nullptr);
  SandwichHashJoin join(Left({RowsBatch({1}, {10})}),
                        Right({RowsBatch({1}, {100}, 0)}), {"lk"}, {"rk"},
                        JoinType::kInner);
  ASSERT_TRUE(join.Open(&ctx).ok());
  auto result = join.Next(&ctx);
  EXPECT_FALSE(result.ok());
}

TEST(SandwichJoinTest, MemoryPeaksAtLargestGroup) {
  // 4 groups of build rows; sandwich peak ~ one group, hash join ~ all.
  std::vector<Batch> build_batches, probe_batches;
  for (int g = 0; g < 4; ++g) {
    std::vector<int32_t> keys(1000);
    std::vector<int64_t> vals(1000);
    std::iota(keys.begin(), keys.end(), g * 1000);
    build_batches.push_back(RowsBatch(keys, vals, g));
    probe_batches.push_back(RowsBatch({g * 1000 + 5}, {1}, g));
  }
  uint64_t sandwich_peak, hash_peak;
  {
    ExecContext ctx(nullptr);
    SandwichHashJoin join(Left(probe_batches), Right(build_batches), {"lk"},
                          {"rk"}, JoinType::kInner);
    Batch out = CollectAll(&join, &ctx).ValueOrDie();
    EXPECT_EQ(out.num_rows, 4u);
    sandwich_peak = ctx.memory()->peak_bytes();
  }
  {
    ExecContext ctx(nullptr);
    HashJoin join(Left(probe_batches), Right(build_batches), {"lk"}, {"rk"},
                  JoinType::kInner);
    Batch out = CollectAll(&join, &ctx).ValueOrDie();
    EXPECT_EQ(out.num_rows, 4u);
    hash_peak = ctx.memory()->peak_bytes();
  }
  EXPECT_LT(sandwich_peak * 2, hash_peak)
      << "sandwich=" << sandwich_peak << " hash=" << hash_peak;
}

TEST(JoinEquivalenceTest, SandwichMatchesHashJoinProperty) {
  // Random co-grouped data: results must agree across strategies.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Batch> lbatches, rbatches;
    for (int g = 0; g < 8; ++g) {
      std::vector<int32_t> lk, rk;
      std::vector<int64_t> lp, rp;
      int ln = static_cast<int>(rng.Uniform(0, 20));
      int rn = static_cast<int>(rng.Uniform(0, 20));
      for (int i = 0; i < ln; ++i) {
        lk.push_back(static_cast<int32_t>(g * 100 + rng.Uniform(0, 9)));
        lp.push_back(rng.Uniform(0, 1000));
      }
      for (int i = 0; i < rn; ++i) {
        rk.push_back(static_cast<int32_t>(g * 100 + rng.Uniform(0, 9)));
        rp.push_back(rng.Uniform(0, 1000));
      }
      if (ln) lbatches.push_back(RowsBatch(lk, lp, g));
      if (rn) rbatches.push_back(RowsBatch(rk, rp, g));
    }
    for (JoinType type : {JoinType::kInner, JoinType::kLeftSemi,
                          JoinType::kLeftAnti, JoinType::kLeftOuter}) {
      ExecContext ctx(nullptr);
      SandwichHashJoin sj(Left(lbatches), Right(rbatches), {"lk"}, {"rk"},
                          type);
      Batch a = CollectAll(&sj, &ctx).ValueOrDie();
      HashJoin hj(Left(lbatches), Right(rbatches), {"lk"}, {"rk"}, type);
      Batch b = CollectAll(&hj, &ctx).ValueOrDie();
      testutil::ExpectBatchesEqual(a, b,
                                   std::string("trial ") +
                                       std::to_string(trial) + " " +
                                       JoinTypeName(type));
    }
  }
}

// ------------------------------------------------ batch-at-a-time probing

// Random column of `n` rows: int32 keys in [lo, hi], int64 payloads or
// floats derived from the key, each NULL with probability `null_p`.
ColumnVector RandomInts(Rng* rng, TypeId type, size_t n, int64_t lo,
                        int64_t hi, double null_p) {
  ColumnVector v(type);
  for (size_t i = 0; i < n; ++i) {
    if (rng->Chance(null_p)) {
      v.AppendNull();
    } else if (type == TypeId::kInt32) {
      v.i32.push_back(static_cast<int32_t>(rng->Uniform(lo, hi)));
      if (v.HasNulls()) v.nulls.push_back(0);
    } else {
      v.i64.push_back(rng->Uniform(lo, hi));
      if (v.HasNulls()) v.nulls.push_back(0);
    }
  }
  return v;
}

// Second key column: a float derived from the first key (NULL-free), so the
// two-key join takes the byte-key path and still matches a subset.
ColumnVector KeyFloats(const ColumnVector& keys) {
  ColumnVector v(TypeId::kFloat64);
  for (size_t i = 0; i < keys.size(); ++i) {
    v.f64.push_back(static_cast<double>(keys.i32[i] % 3) * 0.5);
  }
  return v;
}

ColumnVector RandomStrings(Rng* rng, std::shared_ptr<Dictionary> dict,
                           const std::string& prefix, size_t n) {
  ColumnVector v(TypeId::kString);
  v.dict = std::move(dict);
  for (size_t i = 0; i < n; ++i) {
    v.i32.push_back(
        v.dict->GetOrAdd(prefix + std::to_string(rng->Uniform(0, 30))));
  }
  return v;
}

Schema ProbeSideSchema() {
  return Schema({{"pk", TypeId::kInt32},
                 {"pf", TypeId::kFloat64},
                 {"pv", TypeId::kInt64},
                 {"ps", TypeId::kString}});
}
Schema BuildSideSchema() {
  return Schema({{"bk", TypeId::kInt32},
                 {"bf", TypeId::kFloat64},
                 {"bv", TypeId::kInt64},
                 {"bs", TypeId::kString}});
}

// Three build batches: the second has a selection and a string dictionary
// foreign to the first and third.
std::vector<Batch> ProbeTestBuildBatches(Rng* rng) {
  auto d1 = std::make_shared<Dictionary>();
  auto d2 = std::make_shared<Dictionary>();
  std::vector<Batch> batches;
  for (int b = 0; b < 3; ++b) {
    size_t n = 300;
    Batch batch;
    ColumnVector k = RandomInts(rng, TypeId::kInt32, n, 0, 40, 0.1);
    ColumnVector f = KeyFloats(k);
    batch.columns = {std::move(k), std::move(f),
                     RandomInts(rng, TypeId::kInt64, n, -1000, 1000, 0.2),
                     RandomStrings(rng, b == 1 ? d2 : d1,
                                   b == 1 ? "s" : "t", n)};
    batch.num_rows = n;
    if (b == 1) {
      for (uint32_t r = 0; r < n; ++r) {
        if (r % 3 != 0) batch.sel.push_back(r);
      }
      batch.num_rows = batch.sel.size();
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

Batch CopyBatch(const Batch& b) {
  Batch out;
  out.columns = b.columns;
  out.num_rows = b.num_rows;
  out.sel = b.sel;
  out.group_id = b.group_id;
  return out;
}

// The row-at-a-time probe loop ProbeBatch replaced: per probe row, every
// match newest first (or one NULL-extended row), one AppendFrom per value.
Batch ReferenceProbe(const JoinHashTable& table,
                     const std::vector<std::string>& probe_keys,
                     JoinType type, const Batch& in) {
  KeyEncoder enc;
  EXPECT_TRUE(
      enc.BindProbe(ProbeSideSchema(), probe_keys, &table.encoder()).ok());
  bool emit_build = type == JoinType::kInner || type == JoinType::kLeftOuter;
  Schema schema = emit_build
                      ? Schema::Concat(ProbeSideSchema(), table.schema())
                      : ProbeSideSchema();
  Batch out;
  for (const Field& f : schema.fields()) out.columns.emplace_back(f.type);
  size_t width = in.columns.size();
  if (emit_build) {
    for (size_t c = 0; c < table.columns().size(); ++c) {
      out.columns[width + c].dict = table.columns()[c].dict;
    }
  }
  constexpr uint32_t kNoRow = 0xFFFFFFFFu;
  auto emit = [&](size_t i, uint32_t build_row) {
    for (size_t c = 0; c < width; ++c) {
      out.columns[c].AppendFrom(in.columns[c], in.RowAt(i));
    }
    for (size_t c = 0; emit_build && c < table.columns().size(); ++c) {
      if (build_row == kNoRow) {
        out.columns[width + c].AppendNull();
      } else {
        out.columns[width + c].AppendFrom(table.columns()[c], build_row);
      }
    }
    ++out.num_rows;
  };
  auto probe_row = [&](size_t i, const auto& key, bool valid) {
    bool matched = false;
    if (valid && emit_build) {
      table.ForEachMatch(key, [&](uint32_t build_row) {
        emit(i, build_row);
        matched = true;
      });
    } else if (valid) {
      matched = table.FindId(key) >= 0;
    }
    if ((type == JoinType::kLeftOuter && !matched) ||
        (type == JoinType::kLeftSemi && matched) ||
        (type == JoinType::kLeftAnti && !matched)) {
      emit(i, kNoRow);
    }
  };
  std::vector<uint8_t> valid;
  if (enc.int_path()) {
    std::vector<int64_t> keys;
    enc.EncodeInts(in, &keys, &valid);
    for (size_t i = 0; i < in.num_rows; ++i) probe_row(i, keys[i], valid[i]);
  } else {
    std::vector<std::string> keys;
    enc.EncodeBytes(in, &keys, &valid);
    for (size_t i = 0; i < in.num_rows; ++i) probe_row(i, keys[i], valid[i]);
  }
  return out;
}

// Inner-join output size by nested loops over the build batches' logical
// rows — independent of the hash table.
size_t NestedLoopMatches(const std::vector<Batch>& build, const Batch& in,
                         size_t num_keys) {
  size_t matches = 0;
  for (size_t i = 0; i < in.num_rows; ++i) {
    uint32_t p = in.RowAt(i);
    if (in.columns[0].IsNull(p)) continue;
    for (const Batch& b : build) {
      for (size_t j = 0; j < b.num_rows; ++j) {
        uint32_t r = b.RowAt(j);
        if (b.columns[0].IsNull(r)) continue;
        if (b.columns[0].i32_data()[r] != in.columns[0].i32_data()[p]) {
          continue;
        }
        if (num_keys == 2 &&
            b.columns[1].f64_data()[r] != in.columns[1].f64_data()[p]) {
          continue;
        }
        ++matches;
      }
    }
  }
  return matches;
}

// Same rows, order, values and NULL masks (values under a NULL are
// placeholders and not compared).
void ExpectIdenticalBatches(const Batch& got, const Batch& want,
                            const std::string& label) {
  ASSERT_EQ(got.num_rows, want.num_rows) << label;
  ASSERT_FALSE(got.has_sel()) << label;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << label;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnVector& g = got.columns[c];
    const ColumnVector& w = want.columns[c];
    ASSERT_EQ(g.size(), w.size()) << label << " column " << c;
    EXPECT_EQ(g.nulls, w.nulls) << label << " null mask of column " << c;
    for (size_t r = 0; r < w.size(); ++r) {
      if (w.IsNull(r)) continue;
      ASSERT_EQ(g.GetValue(r).ToString(), w.GetValue(r).ToString())
          << label << " column " << c << " row " << r;
    }
  }
}

TEST(ProbeBatchTest, MatchesRowAtATimeReference) {
  Rng rng(77);
  std::vector<Batch> build = ProbeTestBuildBatches(&rng);

  // Probe batches: owned lanes with NULLs, and zero-copy views (views carry
  // no NULLs) over lanes kept alive here.
  const size_t n = 500;
  auto probe_dict = std::make_shared<Dictionary>();
  Batch owned;
  {
    ColumnVector k = RandomInts(&rng, TypeId::kInt32, n, -5, 50, 0.1);
    ColumnVector f = KeyFloats(k);
    owned.columns = {std::move(k), std::move(f),
                     RandomInts(&rng, TypeId::kInt64, n, 0, 99, 0.15),
                     RandomStrings(&rng, probe_dict, "p", n)};
    owned.num_rows = n;
  }
  ColumnVector view_src_k = RandomInts(&rng, TypeId::kInt32, n, -5, 50, 0);
  ColumnVector view_src_f = KeyFloats(view_src_k);
  ColumnVector view_src_v = RandomInts(&rng, TypeId::kInt64, n, 0, 99, 0);
  ColumnVector view_src_s = RandomStrings(&rng, probe_dict, "p", n);
  Batch views;
  views.columns.resize(4);
  views.columns[0] = ColumnVector(TypeId::kInt32);
  views.columns[0].SetView(view_src_k.i32.data(), n);
  views.columns[1] = ColumnVector(TypeId::kFloat64);
  views.columns[1].SetView(view_src_f.f64.data(), n);
  views.columns[2] = ColumnVector(TypeId::kInt64);
  views.columns[2].SetView(view_src_v.i64.data(), n);
  views.columns[3] = ColumnVector(TypeId::kString);
  views.columns[3].dict = probe_dict;
  views.columns[3].SetView(view_src_s.i32.data(), n);
  views.num_rows = n;

  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < n; ++r) {
    if (rng.Chance(0.6)) sel.push_back(r);
  }

  const std::vector<std::pair<std::vector<std::string>,
                              std::vector<std::string>>>
      key_sets = {{{"pk"}, {"bk"}}, {{"pk", "pf"}, {"bk", "bf"}}};
  common::TaskScheduler scheduler(2);
  for (const auto& [probe_keys, build_keys] : key_sets) {
    for (bool union_build : {false, true}) {
      JoinHashTable table;
      if (union_build) {
        // ParallelHashJoin's parallel build: two clones, each emitting
        // every other build batch, drained through a ParallelUnion.
        ParallelUnion clones(
            [&](size_t i, size_t n) -> Result<OperatorPtr> {
              std::vector<Batch> share;
              for (size_t b = i; b < build.size(); b += n) {
                share.push_back(CopyBatch(build[b]));
              }
              return OperatorPtr(std::make_unique<VectorSource>(
                  BuildSideSchema(), std::move(share)));
            },
            /*num_chains=*/2, /*num_threads=*/2, &scheduler);
        ExecContext ctx(nullptr);
        TrackedMemory tracked(ctx.memory(), "test build");
        ASSERT_TRUE(
            BuildHashTable(&clones, build_keys, &ctx, &table, &tracked).ok());
        clones.Close(&ctx);
      } else {
        ASSERT_TRUE(table.Init(BuildSideSchema(), build_keys).ok());
        for (const Batch& b : build) ASSERT_TRUE(table.AddBatch(b).ok());
      }
      for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                            JoinType::kLeftSemi, JoinType::kLeftAnti}) {
        HashJoinProber prober;
        ASSERT_TRUE(
            prober.Bind(ProbeSideSchema(), probe_keys, &table, type).ok());
        for (bool use_views : {false, true}) {
          for (bool with_sel : {false, true}) {
            Batch in = CopyBatch(use_views ? views : owned);
            if (with_sel) {
              in.sel = sel;
              in.num_rows = sel.size();
            }
            std::string label =
                std::string(JoinTypeName(type)) + " keys=" +
                std::to_string(probe_keys.size()) +
                (union_build ? " union" : " serial") +
                (use_views ? " views" : " owned") +
                (with_sel ? " sel" : " dense");
            Batch want = ReferenceProbe(table, probe_keys, type, in);
            Batch got = prober.ProbeBatch(in).ValueOrDie();
            ExpectIdenticalBatches(got, want, label);
            // A recycled output batch as scratch gives the same result.
            Batch again = prober.ProbeBatch(in, std::move(got)).ValueOrDie();
            ExpectIdenticalBatches(again, want, label + " recycled");
            if (type == JoinType::kInner) {
              EXPECT_EQ(want.num_rows,
                        NestedLoopMatches(build, in, probe_keys.size()))
                  << label;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
