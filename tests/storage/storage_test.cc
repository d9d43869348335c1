// Columns, tables, dictionaries, values, dates, zone maps, compressed
// footprint.
#include <algorithm>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/compression/encoded_column.h"
#include "storage/table.h"
#include "storage/zonemap.h"

namespace bdcc {
namespace {

TEST(ValueTest, CompareNumericFamilies) {
  EXPECT_LT(Value::Int32(3).Compare(Value::Int64(5)), 0);
  EXPECT_EQ(Value::Int64(5).Compare(Value::Float64(5.0)), 0);
  EXPECT_GT(Value::Float64(5.5).Compare(Value::Int32(5)), 0);
  EXPECT_EQ(Value::String("abc").Compare(Value::String("abc")), 0);
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_LT(Value::Date(100).Compare(Value::Date(200)), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Date(ParseDate("1995-06-17")).ToString(), "1995-06-17");
}

TEST(DateTest, RoundTripAndArithmetic) {
  EXPECT_EQ(DaysFromCivil(1970, 1, 1), 0);
  EXPECT_EQ(DaysFromCivil(1970, 1, 2), 1);
  EXPECT_EQ(ParseDate("1992-01-01"), DaysFromCivil(1992, 1, 1));
  // TPC-H domain: 1992-01-01 .. 1998-12-31 spans 2557 days.
  EXPECT_EQ(ParseDate("1998-12-31") - ParseDate("1992-01-01"), 2556);
  for (const char* iso : {"1992-02-29", "1996-02-29", "1998-08-02",
                          "2000-12-31", "1970-01-01"}) {
    EXPECT_EQ(DateToString(ParseDate(iso)), iso);
  }
}

TEST(DictionaryTest, InternAndLookup) {
  Dictionary d;
  int32_t a = d.GetOrAdd("hello");
  int32_t b = d.GetOrAdd("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(d.GetOrAdd("hello"), a);
  EXPECT_EQ(d.Get(a), "hello");
  EXPECT_EQ(d.Find("world"), b);
  EXPECT_EQ(d.Find("absent"), -1);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.payload_bytes(), 10u);
}

TEST(DictionaryTest, LexRanks) {
  Dictionary d;
  d.GetOrAdd("zebra");
  d.GetOrAdd("apple");
  d.GetOrAdd("mango");
  const auto& ranks = d.LexRanks();
  EXPECT_EQ(ranks[0], 2);  // zebra last
  EXPECT_EQ(ranks[1], 0);  // apple first
  EXPECT_EQ(ranks[2], 1);
  d.GetOrAdd("aaa");  // invalidates; recomputed on demand
  EXPECT_EQ(d.LexRanks()[3], 0);
}

TEST(ColumnTest, TypedAppendAndGet) {
  Column c(TypeId::kFloat64);
  c.AppendFloat64(1.5);
  c.AppendFloat64(-2.5);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c.GetValue(1).AsDouble(), -2.5);

  Column s(TypeId::kString);
  s.AppendString("x");
  s.AppendString("y");
  s.AppendString("x");
  EXPECT_EQ(s.GetString(2), "x");
  EXPECT_EQ(s.i32()[0], s.i32()[2]);

  Column d(TypeId::kDate);
  d.AppendDate(ParseDate("1994-01-01"));
  EXPECT_EQ(d.GetValue(0).ToString(), "1994-01-01");
}

TEST(ColumnTest, DiskBytesAccounting) {
  Column i(TypeId::kInt32);
  for (int k = 0; k < 100; ++k) i.AppendInt32(k);
  EXPECT_EQ(i.DiskBytes(), 400u);
  Column s(TypeId::kString);
  s.AppendString("abcd");
  s.AppendString("abcd");
  EXPECT_EQ(s.DiskBytes(), 2 * 4 + 4u);  // codes + payload once
}

TEST(ColumnTest, GatherReordersAndRebuildsDictionary) {
  Column s(TypeId::kString);
  s.AppendString("a");
  s.AppendString("b");
  s.AppendString("c");
  Column g = s.Gather({2, 0, 1});
  EXPECT_EQ(g.GetString(0), "c");
  EXPECT_EQ(g.GetString(1), "a");
  EXPECT_EQ(g.GetString(2), "b");
  // Dictionary rebuilt in first-occurrence order (payload locality).
  EXPECT_EQ(g.i32()[0], 0);
  EXPECT_NE(g.dict().get(), s.dict().get());
}

TEST(TableTest, AddColumnValidations) {
  Table t("T");
  Column a(TypeId::kInt32);
  a.AppendInt32(1);
  ASSERT_TRUE(t.AddColumn("a", std::move(a)).ok());
  Column dup(TypeId::kInt32);
  dup.AppendInt32(2);
  EXPECT_EQ(t.AddColumn("a", std::move(dup)).code(),
            StatusCode::kAlreadyExists);
  Column wrong_len(TypeId::kInt32);
  wrong_len.AppendInt32(1);
  wrong_len.AppendInt32(2);
  EXPECT_FALSE(t.AddColumn("b", std::move(wrong_len)).ok());
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.ColumnIndex("zz").ok());
}

TEST(TableTest, PermutationAndClone) {
  Table t("T");
  Column a(TypeId::kInt32), s(TypeId::kString);
  for (int i = 0; i < 4; ++i) {
    a.AppendInt32(i);
    s.AppendString(std::string(1, static_cast<char>('a' + i)));
  }
  ASSERT_TRUE(t.AddColumn("a", std::move(a)).ok());
  ASSERT_TRUE(t.AddColumn("s", std::move(s)).ok());
  Table p = t.ApplyPermutation({3, 2, 1, 0});
  EXPECT_EQ(p.column(0).i32()[0], 3);
  EXPECT_EQ(p.column(1).GetValue(0).AsString(), "d");
  Table c = t.Clone();
  EXPECT_EQ(c.num_rows(), 4u);
  EXPECT_EQ(c.column(0).i32()[2], 2);
}

TEST(TableTest, AppendRowsFrom) {
  Table t("T");
  Column a(TypeId::kInt64);
  for (int i = 0; i < 5; ++i) a.AppendInt64(i * 10);
  ASSERT_TRUE(t.AddColumn("a", std::move(a)).ok());
  t.AppendRowsFrom(t, 1, 3);  // self-append is allowed
  EXPECT_EQ(t.num_rows(), 7u);
  EXPECT_EQ(t.column(0).i64()[5], 10);
  EXPECT_EQ(t.column(0).i64()[6], 20);
}

TEST(ZoneMapTest, BuildAndPrune) {
  Column c(TypeId::kInt32);
  for (int i = 0; i < 100; ++i) c.AppendInt32(i);
  ZoneMap zm = ZoneMap::Build(c, 10);
  EXPECT_EQ(zm.num_zones(), 10u);
  EXPECT_EQ(zm.ZoneMin(3).AsInt64(), 30);
  EXPECT_EQ(zm.ZoneMax(3).AsInt64(), 39);
  ValueRange r;
  r.lo = Value::Int32(35);
  r.hi = Value::Int32(36);
  EXPECT_TRUE(zm.MayMatch(3, r));
  EXPECT_FALSE(zm.MayMatch(2, r));
  EXPECT_FALSE(zm.MayMatch(4, r));
  ValueRange unbounded;
  EXPECT_TRUE(zm.MayMatch(0, unbounded));
}

TEST(ZoneMapTest, StringsAndPartialZones) {
  Column c(TypeId::kString);
  for (const char* v : {"apple", "pear", "fig"}) c.AppendString(v);
  ZoneMap zm = ZoneMap::Build(c, 2);
  EXPECT_EQ(zm.num_zones(), 2u);
  EXPECT_EQ(zm.ZoneMin(0).AsString(), "apple");
  EXPECT_EQ(zm.ZoneMax(0).AsString(), "pear");
  EXPECT_EQ(zm.ZoneMin(1).AsString(), "fig");
  ValueRange r;
  r.lo = Value::String("aaa");
  r.hi = Value::String("b");
  EXPECT_TRUE(zm.MayMatch(0, r));
  EXPECT_FALSE(zm.MayMatch(1, r));
}

TEST(ZoneMapTest, ClusteringMakesZonesSelectiveProperty) {
  // The paper's MinMax argument: same data, clustered vs random order.
  Rng rng(8);
  std::vector<int32_t> values(10000);
  for (auto& v : values) v = static_cast<int32_t>(rng.Uniform(0, 9999));
  Column random_col(TypeId::kInt32);
  for (int32_t v : values) random_col.AppendInt32(v);
  std::sort(values.begin(), values.end());
  Column sorted_col(TypeId::kInt32);
  for (int32_t v : values) sorted_col.AppendInt32(v);

  ZoneMap zr = ZoneMap::Build(random_col, 100);
  ZoneMap zs = ZoneMap::Build(sorted_col, 100);
  ValueRange r;
  r.lo = Value::Int32(1000);
  r.hi = Value::Int32(1999);
  int random_hits = 0, sorted_hits = 0;
  for (uint64_t z = 0; z < zr.num_zones(); ++z) {
    random_hits += zr.MayMatch(z, r);
    sorted_hits += zs.MayMatch(z, r);
  }
  EXPECT_EQ(random_hits, 100);       // random order: every zone matches
  EXPECT_LT(sorted_hits, 15);        // clustered: ~10% of zones
}

TEST(CodecTest, PicksBestPerBlock) {
  using compression::FootprintBytes;
  // Runs -> RLE beats raw by far, read off the built lane or sized without
  // one.
  Column runs(TypeId::kInt32);
  for (int i = 0; i < 20000; ++i) runs.AppendInt32(i / 1000);
  EXPECT_LT(FootprintBytes(runs) * 10, runs.DiskBytes());
  runs.BuildEncoded(1024);
  EXPECT_LT(FootprintBytes(runs) * 10, runs.DiskBytes());

  Column noise(TypeId::kFloat64);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) noise.AppendFloat64(rng.NextDouble());
  EXPECT_EQ(FootprintBytes(noise), noise.DiskBytes());  // no float codec
}

TEST(CodecTest, SizingWithoutLaneMatchesBuiltLane) {
  // A column with no lane is sized by the same chooser the lane builder
  // runs, so both paths report the same bytes at the same block size.
  Rng rng(7);
  Column c(TypeId::kInt32);
  for (int i = 0; i < 9000; ++i) {
    int32_t v = i < 3000   ? i / 500
                : i < 6000 ? static_cast<int32_t>(rng.Uniform(0, 200))
                           : static_cast<int32_t>(rng.Next64());
    c.AppendInt32(v);
  }
  uint64_t sized = compression::FootprintBytes(c, 1024);
  c.BuildEncoded(1024);
  EXPECT_EQ(compression::FootprintBytes(c, 1024), sized);
  EXPECT_EQ(c.encoded()->encoded_bytes(), sized);
}

TEST(CodecTest, StringColumnsAddDictionaryPayload) {
  Column s(TypeId::kString);
  for (int i = 0; i < 1000; ++i) s.AppendString(i % 2 ? "yes" : "no");
  // Codes are a 2-value alternation: RLE won't help, bitpack will (1 bit
  // per row: 125 bytes), plus the 5-byte payload counted once.
  EXPECT_EQ(compression::FootprintBytes(s), 125u + 5u);
  s.BuildEncoded(1024);
  EXPECT_EQ(compression::FootprintBytes(s), 125u + 5u);
  EXPECT_LT(compression::FootprintBytes(s), s.DiskBytes());
}

TEST(CodecTest, ClusteringImprovesCompressionProperty) {
  // The evaluation's storage argument: BDCC reordering keeps (or improves)
  // compressed size because clustered columns become locally homogeneous.
  Rng rng(6);
  Column random_col(TypeId::kInt32);
  std::vector<int32_t> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<int32_t>(rng.Uniform(0, 31)));
  }
  for (int32_t v : values) random_col.AppendInt32(v);
  std::sort(values.begin(), values.end());
  Column clustered_col(TypeId::kInt32);
  for (int32_t v : values) clustered_col.AppendInt32(v);
  random_col.BuildEncoded(1024);
  clustered_col.BuildEncoded(1024);
  EXPECT_LT(compression::FootprintBytes(clustered_col) * 5,
            compression::FootprintBytes(random_col));
}

TEST(CodecTest, SortedInt64UnderHalfOfRaw) {
  // The shape of BDCC's `_bdcc_` key: sorted int64 with large values and
  // small gaps. It has no executable lane; the same per-block rule sizes it.
  Rng rng(9);
  Column key(TypeId::kInt64);
  int64_t at = int64_t{1} << 40;
  for (int i = 0; i < 50000; ++i) {
    at += static_cast<int64_t>(rng.Uniform(0, 20));
    key.AppendInt64(at);
  }
  EXPECT_EQ(key.encoded(), nullptr);
  EXPECT_LT(compression::FootprintBytes(key, 1024) * 2, key.DiskBytes());
}

}  // namespace
}  // namespace bdcc
