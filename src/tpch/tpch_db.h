// The three physical TPC-H databases of the paper's evaluation: Plain
// (no indexing), PK (primary-key ordered; merge joins), and BDCC (the
// advisor's co-clustered design). All are built from the same generated
// rows, each with its own simulated device + buffer pool.
#ifndef BDCC_TPCH_TPCH_DB_H_
#define BDCC_TPCH_TPCH_DB_H_

#include <map>
#include <memory>
#include <string>

#include "advisor/advisor.h"
#include "io/buffer_pool.h"
#include "opt/physical_db.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"

namespace bdcc {
namespace tpch {

struct TpchDbOptions {
  double scale_factor = 0.01;
  uint64_t seed = 42;
  uint32_t zone_rows = 1024;
  advisor::AdvisorOptions advisor;
  io::DeviceProfile device = io::DeviceProfile::SsdRaid0();
  uint64_t buffer_pool_bytes = 4ull << 30;  // paper: 4GB buffer space
  bool attach_buffer_pools = true;
  /// Which schemes to materialize (BDCC only, all three, ...).
  bool build_plain = true;
  bool build_pk = true;
  bool build_bdcc = true;
};

/// \brief Owns the generated rows, the catalog, and up to three physical
/// designs, each implementing opt::PhysicalDb.
class TpchDb {
 public:
  static Result<std::unique_ptr<TpchDb>> Create(const TpchDbOptions& options);
  ~TpchDb();  // out-of-line: PhysicalDbImpl is incomplete here

  const catalog::Catalog& schema_catalog() const { return catalog_; }
  const advisor::SchemaDesign& design() const { return design_; }
  const TpchDbOptions& options() const { return options_; }

  const opt::PhysicalDb& plain() const;
  const opt::PhysicalDb& pk() const;
  const opt::PhysicalDb& bdcc() const;
  const opt::PhysicalDb& db(opt::Scheme scheme) const;

  const std::map<std::string, BdccTable>& bdcc_tables() const {
    return bdcc_tables_;
  }

  /// Device/pool of a scheme (simulated I/O accounting).
  io::DeviceModel* device(opt::Scheme scheme);
  io::BufferPool* pool(opt::Scheme scheme);
  /// Drop cached pages & I/O stats of every scheme (cold-run setup).
  void ResetIo();

  /// Total uncompressed bytes of a scheme's tables (Table::DiskBytes; the
  /// buffer pool's page counts are derived from the same figure). The
  /// compressed footprint is compression::FootprintBytes per column.
  uint64_t DiskBytes(opt::Scheme scheme) const;

 private:
  TpchDb() = default;

  TpchDbOptions options_;
  catalog::Catalog catalog_;
  advisor::SchemaDesign design_;

  std::map<std::string, Table> plain_tables_;
  std::map<std::string, Table> pk_tables_;
  std::map<std::string, BdccTable> bdcc_tables_;
  std::map<std::string, Table> bdcc_extra_;  // tables the advisor left plain

  struct SchemeIo {
    std::unique_ptr<io::DeviceModel> device;
    std::unique_ptr<io::BufferPool> pool;
  };
  SchemeIo io_[3];

  class PhysicalDbImpl;
  std::unique_ptr<PhysicalDbImpl> plain_db_, pk_db_, bdcc_db_;
};

}  // namespace tpch
}  // namespace bdcc

#endif  // BDCC_TPCH_TPCH_DB_H_
