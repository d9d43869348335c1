// Encoded lanes of the real TPC-H tables, under every scheme: each
// i32-backed column carries a lane that covers the table, is aligned with
// its zone maps (the scan clips spans at zone boundaries and relies on
// never straddling an encoded block), decodes back to the flat lane, and
// never reports a compressed footprint above the uncompressed one.
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/compression/encoded_column.h"
#include "tpch/tpch_db.h"

namespace bdcc {
namespace tpch {
namespace {

class LaneInvariantTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchDbOptions options;
    options.scale_factor = 0.005;
    options.attach_buffer_pools = false;
    db_ = TpchDb::Create(options).ValueOrDie().release();
  }
  static void TearDownTestSuite() { delete db_; }
  static TpchDb* db_;
};

TpchDb* LaneInvariantTest::db_ = nullptr;

TEST_F(LaneInvariantTest, EncodedLanesMatchFlatLanes) {
  int lanes_checked = 0;
  for (opt::Scheme scheme :
       {opt::Scheme::kPlain, opt::Scheme::kPk, opt::Scheme::kBdcc}) {
    for (const char* name : {"REGION", "NATION", "SUPPLIER", "CUSTOMER",
                             "PART", "PARTSUPP", "ORDERS", "LINEITEM"}) {
      const Table* t = db_->db(scheme).storage(name);
      ASSERT_NE(t, nullptr) << name;
      ASSERT_TRUE(t->HasZoneMaps()) << name;
      for (size_t c = 0; c < t->num_columns(); ++c) {
        const Column& col = t->column(static_cast<int>(c));
        std::string where = opt::SchemeName(scheme) + std::string(" ") +
                            name + "." + t->column_name(static_cast<int>(c));
        EXPECT_LE(compression::FootprintBytes(col, t->zone_rows()),
                  col.DiskBytes())
            << where;
        if (col.type() == TypeId::kInt64 || col.type() == TypeId::kFloat64) {
          EXPECT_EQ(col.encoded(), nullptr) << where;
          continue;
        }
        const compression::EncodedLane* enc = col.encoded();
        ASSERT_NE(enc, nullptr) << where;
        ASSERT_EQ(enc->rows(), t->num_rows()) << where;
        EXPECT_EQ(enc->block_rows(), t->zone_rows()) << where;
        const std::vector<int32_t>& flat = col.i32();
        std::vector<int32_t> decoded(flat.size());
        enc->DecodeSpan(flat.data(), 0, flat.size(), decoded.data());
        ASSERT_EQ(decoded, flat) << where;
        ++lanes_checked;
      }
    }
  }
  EXPECT_GT(lanes_checked, 100);
}

}  // namespace
}  // namespace tpch
}  // namespace bdcc
