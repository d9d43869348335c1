#include "catalog/catalog.h"

#include "catalog/ddl_parser.h"
#include "catalog/schema_graph.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "tpch/tpch_schema.h"

namespace bdcc {
namespace catalog {
namespace {

TEST(CatalogTest, TableAndFkValidation) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable({"A", {{"a", TypeId::kInt32}}, {"a"}}).ok());
  ASSERT_TRUE(cat.AddTable({"B", {{"b", TypeId::kInt32}}, {}}).ok());
  EXPECT_FALSE(cat.AddTable({"A", {}, {}}).ok());  // duplicate
  EXPECT_TRUE(cat.AddForeignKey({"FK", "B", {"b"}, "A", {"a"}}).ok());
  EXPECT_FALSE(cat.AddForeignKey({"FK", "B", {"b"}, "A", {"a"}}).ok());
  EXPECT_FALSE(cat.AddForeignKey({"F2", "B", {"zz"}, "A", {"a"}}).ok());
  EXPECT_FALSE(cat.AddForeignKey({"F3", "B", {"b"}, "A", {"a", "a"}}).ok());
  EXPECT_TRUE(cat.GetForeignKey("FK").ok());
  EXPECT_FALSE(cat.GetForeignKey("NOPE").ok());
  EXPECT_EQ(cat.ForeignKeysFrom("B").size(), 1u);
  EXPECT_EQ(cat.ForeignKeysTo("A").size(), 1u);
}

TEST(CatalogTest, RejectsUndeclaredKeyAndDuplicateColumns) {
  Catalog cat;
  EXPECT_TRUE(cat.AddTable({"P", {{"a", TypeId::kInt32}}, {"b"}})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      cat.AddTable({"D", {{"a", TypeId::kInt32}, {"a", TypeId::kDate}}, {}})
          .IsInvalidArgument());
  EXPECT_TRUE(ParseDdl("CREATE TABLE t (a INT, PRIMARY KEY (b));", &cat)
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseDdl("CREATE TABLE u (a INT, a BIGINT);", &cat)
                  .IsInvalidArgument());
  EXPECT_TRUE(cat.tables().empty());  // nothing rejected was registered
  EXPECT_TRUE(ParseDdl("CREATE TABLE v (a INT, b INT, PRIMARY KEY (b, a));",
                       &cat)
                  .ok());
}

TEST(CatalogTest, IndexHintsAndFkMatching) {
  Catalog cat;
  ASSERT_TRUE(
      cat.AddTable({"A", {{"a", TypeId::kInt32}, {"x", TypeId::kDate}}, {"a"}})
          .ok());
  ASSERT_TRUE(cat.AddTable({"B", {{"b", TypeId::kInt32}}, {}}).ok());
  ASSERT_TRUE(cat.AddForeignKey({"FK", "B", {"b"}, "A", {"a"}}).ok());
  ASSERT_TRUE(cat.AddIndex({"x_idx", "A", {"x"}}).ok());
  ASSERT_TRUE(cat.AddIndex({"b_idx", "B", {"b"}}).ok());
  EXPECT_FALSE(cat.AddIndex({"bad", "A", {"zzz"}}).ok());

  const IndexHint* x_idx = cat.IndexesOn("A")[0];
  EXPECT_EQ(cat.IndexMatchesForeignKey(*x_idx), nullptr);
  const IndexHint* b_idx = cat.IndexesOn("B")[0];
  const ForeignKey* fk = cat.IndexMatchesForeignKey(*b_idx);
  ASSERT_NE(fk, nullptr);
  EXPECT_EQ(fk->id, "FK");
}

TEST(DdlParserTest, ParsesTpchSchema) {
  Catalog cat = tpch::MakeTpchCatalog(true).ValueOrDie();
  EXPECT_EQ(cat.tables().size(), 8u);
  EXPECT_EQ(cat.foreign_keys().size(), 10u);
  EXPECT_EQ(cat.indexes().size(), 11u);

  const TableDef* li = cat.GetTable("LINEITEM").ValueOrDie();
  EXPECT_EQ(li->columns.size(), 16u);
  EXPECT_EQ(li->primary_key,
            (std::vector<std::string>{"l_orderkey", "l_linenumber"}));
  EXPECT_EQ(li->ColumnType("l_shipdate").ValueOrDie(), TypeId::kDate);
  EXPECT_EQ(li->ColumnType("l_quantity").ValueOrDie(), TypeId::kFloat64);
  EXPECT_EQ(li->ColumnType("l_comment").ValueOrDie(), TypeId::kString);

  const ForeignKey* fk = cat.GetForeignKey("FK_L_PS").ValueOrDie();
  EXPECT_EQ(fk->from_columns,
            (std::vector<std::string>{"l_partkey", "l_suppkey"}));
  EXPECT_EQ(fk->to_table, "PARTSUPP");
}

TEST(DdlParserTest, SyntaxErrors) {
  Catalog cat;
  EXPECT_FALSE(ParseDdl("CREATE TABLE t (a INT;", &cat).ok());
  EXPECT_FALSE(ParseDdl("CREATE VIEW v AS SELECT 1;", &cat).ok());
  EXPECT_FALSE(ParseDdl("CREATE TABLE t (a WIBBLE);", &cat).ok());
  Catalog cat2;
  EXPECT_FALSE(
      ParseDdl("CREATE INDEX i ON missing (a);", &cat2).ok());
}

// Seeded byte-level mutations of the TPC-H DDL (deletions, duplications,
// swaps and truncations): every parse must return a Status rather than
// crash, and a catalog that parses OK must only name declared key columns.
TEST(DdlParserTest, SeededMutationsReturnStatus) {
  const std::string ddl = tpch::TpchTableDdl();
  Rng rng(20240917);
  int parsed_ok = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string m = ddl;
    for (int edits = static_cast<int>(rng.Uniform(1, 3)); edits > 0;
         --edits) {
      size_t at = static_cast<size_t>(rng.Uniform(0, m.size() - 1));
      size_t len = static_cast<size_t>(rng.Uniform(1, 8));
      switch (rng.Uniform(0, 3)) {
        case 0:  // delete a short run
          m.erase(at, len);
          break;
        case 1:  // duplicate a short run in place
          m.insert(at, m.substr(at, len));
          break;
        case 2: {  // swap two bytes
          size_t other = static_cast<size_t>(rng.Uniform(0, m.size() - 1));
          std::swap(m[at], m[other]);
          break;
        }
        default:  // truncate
          m.resize(at);
          break;
      }
      if (m.empty()) break;
    }
    Catalog cat;
    Status st = ParseDdl(m, &cat);
    if (!st.ok()) continue;
    ++parsed_ok;
    for (const TableDef& t : cat.tables()) {
      for (const std::string& c : t.primary_key) {
        EXPECT_TRUE(t.HasColumn(c)) << t.name << " pk " << c << "\n" << m;
      }
    }
    for (const ForeignKey& fk : cat.foreign_keys()) {
      const TableDef* from = cat.GetTable(fk.from_table).ValueOrDie();
      const TableDef* to = cat.GetTable(fk.to_table).ValueOrDie();
      for (const std::string& c : fk.from_columns) {
        EXPECT_TRUE(from->HasColumn(c)) << fk.id << " " << c << "\n" << m;
      }
      for (const std::string& c : fk.to_columns) {
        EXPECT_TRUE(to->HasColumn(c)) << fk.id << " " << c << "\n" << m;
      }
    }
  }
  // Truncations at statement boundaries and edits inside comments or
  // names leave valid DDL behind, so some mutants must parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST(DdlParserTest, CommentsAndCase) {
  Catalog cat;
  ASSERT_TRUE(ParseDdl(R"(
    -- a comment
    create table T (
      a int not null,  -- trailing comment
      b decimal(15,2),
      primary key (a)
    );
  )",
                       &cat)
                  .ok());
  EXPECT_EQ(cat.GetTable("T").ValueOrDie()->columns.size(), 2u);
  EXPECT_EQ(cat.GetTable("T").ValueOrDie()->ColumnType("b").ValueOrDie(),
            TypeId::kFloat64);
}

TEST(SchemaGraphTest, TpchTopologicalOrder) {
  Catalog cat = tpch::MakeTpchCatalog(false).ValueOrDie();
  SchemaGraph graph(&cat);
  EXPECT_TRUE(graph.IsDag());
  auto order = graph.TopologicalFromLeaves().ValueOrDie();
  ASSERT_EQ(order.size(), 8u);
  auto pos = [&](const std::string& t) {
    return std::find(order.begin(), order.end(), t) - order.begin();
  };
  // Referenced tables come before referencing tables.
  EXPECT_LT(pos("REGION"), pos("NATION"));
  EXPECT_LT(pos("NATION"), pos("SUPPLIER"));
  EXPECT_LT(pos("NATION"), pos("CUSTOMER"));
  EXPECT_LT(pos("CUSTOMER"), pos("ORDERS"));
  EXPECT_LT(pos("ORDERS"), pos("LINEITEM"));
  EXPECT_LT(pos("PART"), pos("PARTSUPP"));
  EXPECT_LT(pos("PARTSUPP"), pos("LINEITEM"));
  // Leaves: tables with no outgoing FK.
  auto leaves = graph.Leaves();
  EXPECT_EQ(leaves.size(), 2u);  // REGION, PART
}

TEST(SchemaGraphTest, DetectsCycles) {
  Catalog cat;
  ASSERT_TRUE(cat.AddTable({"A", {{"a", TypeId::kInt32}}, {}}).ok());
  ASSERT_TRUE(cat.AddTable({"B", {{"b", TypeId::kInt32}}, {}}).ok());
  ASSERT_TRUE(cat.AddForeignKey({"F1", "A", {"a"}, "B", {"b"}}).ok());
  ASSERT_TRUE(cat.AddForeignKey({"F2", "B", {"b"}, "A", {"a"}}).ok());
  SchemaGraph graph(&cat);
  EXPECT_FALSE(graph.IsDag());
  EXPECT_FALSE(graph.TopologicalFromLeaves().ok());
}

}  // namespace
}  // namespace catalog
}  // namespace bdcc
