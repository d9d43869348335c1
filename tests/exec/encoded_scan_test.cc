// Direct execution over encoded lanes and zero-copy view emission: scans
// evaluating over encoded lanes must produce the results of the same scan
// over an identical table without them (flat evaluation), scans emitting
// views must return exactly the table's rows, and the ExecStats counters
// (encoded_spans, decodes_skipped, chunks_zero_copy) must fire exactly where
// the design says they do.
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "exec/scan.h"
#include "gtest/gtest.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

// Clustered-ish table: k arrives in runs (RLE-friendly), c is a narrow
// dict-coded tag column, v/w exercise the float and int64 kernel paths.
Table RunsTable(uint64_t rows, uint32_t zone_rows, bool encoded = true,
                uint64_t seed = 5) {
  Rng rng(seed);
  Table t("T");
  Column k(TypeId::kInt32), v(TypeId::kFloat64), s(TypeId::kString),
      w(TypeId::kInt64);
  const char* tags[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  int32_t cur = 0;
  uint64_t run_left = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    if (run_left == 0) {
      cur = static_cast<int32_t>(rng.Uniform(0, 999));
      run_left = static_cast<uint64_t>(rng.Uniform(1, 300));
    }
    --run_left;
    k.AppendInt32(cur);
    v.AppendFloat64(rng.NextDouble());
    s.AppendString(tags[rng.Uniform(0, 4)]);
    w.AppendInt64(static_cast<int64_t>(i));
  }
  t.AddColumn("k", std::move(k)).AbortIfNotOK();
  t.AddColumn("v", std::move(v)).AbortIfNotOK();
  t.AddColumn("s", std::move(s)).AbortIfNotOK();
  t.AddColumn("w", std::move(w)).AbortIfNotOK();
  t.BuildZoneMaps(zone_rows);
  if (encoded) t.BuildEncodedLanes();
  return t;
}

struct ScanRun {
  Batch result;
  ExecStats stats;
};

ScanRun RunScan(const Table& t, std::vector<ScanPredicate> preds,
                bool row_filter) {
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k", "v", "s", "w"}, std::move(preds));
  scan.EnableRowFilter(row_filter);
  ScanRun out;
  out.result = CollectAll(&scan, &ctx).ValueOrDie();
  out.stats = *ctx.stats();
  return out;
}

std::vector<ScanPredicate> KRange(int32_t lo, int32_t hi) {
  return {{"k", ValueRange{Value::Int32(lo), Value::Int32(hi)}}};
}

// EXPECT `result` (a collected scan of all four columns) to hold exactly
// the rows of `t` with k in [lo, hi], in table order.
void ExpectTableRows(const Table& t, const Batch& result, int32_t lo,
                     int32_t hi, const std::string& label) {
  ASSERT_EQ(result.columns.size(), t.num_columns()) << label;
  size_t out = 0;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    int32_t k = t.column(0).i32()[r];
    if (k < lo || k > hi) continue;
    ASSERT_LT(out, result.num_rows) << label;
    for (int c = 0; c < static_cast<int>(t.num_columns()); ++c) {
      ASSERT_EQ(result.columns[c].GetValue(out).ToString(),
                t.column(c).GetValue(r).ToString())
          << label << ": " << t.column_name(c) << " row " << r;
    }
    ++out;
  }
  EXPECT_EQ(out, result.num_rows) << label;
}

TEST(EncodedScanTest, AllEvalModesAgree) {
  Table t = RunsTable(20000, 256);
  Table flat_t = RunsTable(20000, 256, /*encoded=*/false);
  ASSERT_TRUE(t.HasEncodedLanes());
  ASSERT_FALSE(flat_t.HasEncodedLanes());
  struct Case {
    int32_t lo, hi;
  } cases[] = {{0, 0}, {0, 49}, {100, 349}, {0, 899}, {0, 999}};
  for (const Case& c : cases) {
    ScanRun flat = RunScan(flat_t, KRange(c.lo, c.hi), /*row_filter=*/true);
    ScanRun direct = RunScan(t, KRange(c.lo, c.hi), true);
    std::string label = "k in [" + std::to_string(c.lo) + "," +
                        std::to_string(c.hi) + "]";
    testutil::ExpectBatchesEqual(flat.result, direct.result,
                                 label + " direct");
    EXPECT_EQ(flat.stats.encoded_spans, 0u) << label;
    // Direct evaluation must actually have gone through the encoded lane
    // for every mixed span it evaluated (all-match zones skip evaluation,
    // and supertight ranges may zone-prune the entire table).
    if ((c.lo > 0 || c.hi < 999) && direct.stats.rows_scanned > 0) {
      EXPECT_GT(direct.stats.encoded_spans, 0u) << label;
    }
  }
}

TEST(EncodedScanTest, StringPredicateUsesEncodedVerdicts) {
  Table t = RunsTable(20000, 256);
  Table flat_t = RunsTable(20000, 256, /*encoded=*/false);
  std::vector<ScanPredicate> preds = {
      {"s", ValueRange{Value::String("beta"), Value::String("delta")}}};
  ScanRun flat = RunScan(flat_t, preds, true);
  ScanRun direct = RunScan(t, preds, true);
  testutil::ExpectBatchesEqual(flat.result, direct.result, "string verdicts");
  EXPECT_GT(direct.stats.encoded_spans, 0u);
  EXPECT_GT(direct.result.num_rows, 0u);
}

TEST(EncodedScanTest, CombinedPredicatesAgreeAcrossModes) {
  Table t = RunsTable(20000, 256);
  Table flat_t = RunsTable(20000, 256, /*encoded=*/false);
  std::vector<ScanPredicate> preds = {
      {"k", ValueRange{Value::Int32(100), Value::Int32(700)}},
      {"s", ValueRange{Value::String("beta"), Value::String("gamma")}},
      {"w", ValueRange{Value::Int64(1000), Value::Int64(15000)}}};
  ScanRun flat = RunScan(flat_t, preds, true);
  ScanRun direct = RunScan(t, preds, true);
  testutil::ExpectBatchesEqual(flat.result, direct.result, "combined direct");
}

TEST(EncodedScanTest, WorksWithoutEncodedLanes) {
  // A table that never built encodings evaluates flat.
  Table t = RunsTable(5000, 256);
  Table plain = t.Clone();
  plain.BuildZoneMaps(256);  // zone maps but no encoded lanes
  ASSERT_FALSE(plain.HasEncodedLanes());
  ScanRun flat = RunScan(plain, KRange(100, 400), true);
  ScanRun direct = RunScan(t, KRange(100, 400), true);
  testutil::ExpectBatchesEqual(flat.result, direct.result, "no encodings");
  EXPECT_EQ(flat.stats.encoded_spans, 0u);
}

TEST(ZeroCopyScanTest, UnfilteredScanEmitsViews) {
  Table t = RunsTable(20000, 256);
  ScanRun views = RunScan(t, {}, /*row_filter=*/false);
  ExpectTableRows(t, views.result, 0, 999, "unfiltered views");
  EXPECT_GT(views.stats.chunks_zero_copy, 0u);
  EXPECT_EQ(views.result.num_rows, 20000u);
}

TEST(ZeroCopyScanTest, ZoneAllMatchShortCircuitsDecode) {
  Table t = RunsTable(20000, 256);
  // A predicate the whole table satisfies: every zone proves all-match, so
  // a filtered scan never evaluates a row and emits pure views.
  ScanRun views = RunScan(t, KRange(0, 999), true);
  ExpectTableRows(t, views.result, 0, 999, "all-match views");
  EXPECT_GT(views.stats.decodes_skipped, 0u);
  EXPECT_GT(views.stats.chunks_zero_copy, 0u);
  EXPECT_EQ(views.result.num_rows, 20000u);

  // A selective predicate still filters correctly (partial chunks take the
  // copying path).
  ScanRun selective = RunScan(t, KRange(0, 99), true);
  ExpectTableRows(t, selective.result, 0, 99, "selective");
  EXPECT_GT(selective.result.num_rows, 0u);
}

TEST(ZeroCopyScanTest, ViewBatchesCompactToOwnedLanes) {
  Table t = RunsTable(4096, 512);
  ExecContext ctx(nullptr);
  SegmentScan scan(&t, {"k", "v", "w"});
  ASSERT_TRUE(scan.Open(&ctx).ok());
  bool saw_view = false;
  uint64_t rows = 0;
  while (true) {
    Batch b = scan.Next(&ctx).ValueOrDie();
    if (b.empty()) break;
    for (ColumnVector& c : b.columns) saw_view |= c.is_view();
    // Views read through the typed accessors...
    const int32_t* kd = b.columns[0].i32_data();
    for (size_t i = 0; i < b.num_rows; ++i) {
      ASSERT_EQ(kd[i], t.column(0).i32()[rows + i]);
    }
    // ...and Compact() turns them into ordinary owned lanes.
    b.Compact();
    for (ColumnVector& c : b.columns) ASSERT_FALSE(c.is_view());
    ASSERT_EQ(b.columns[0].i32.size(), b.num_rows);
    rows += b.num_rows;
  }
  scan.Close(&ctx);
  EXPECT_TRUE(saw_view);
  EXPECT_EQ(rows, 4096u);
}

TEST(ZeroCopyScanTest, StatsMergePropagatesNewCounters) {
  ExecStats a, b;
  a.decodes_skipped = 3;
  a.chunks_zero_copy = 5;
  a.encoded_spans = 7;
  b.Merge(a);
  b.Merge(a);
  EXPECT_EQ(b.decodes_skipped, 6u);
  EXPECT_EQ(b.chunks_zero_copy, 10u);
  EXPECT_EQ(b.encoded_spans, 14u);
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
