// The planner's view of one physical design of a database.
#ifndef BDCC_OPT_PHYSICAL_DB_H_
#define BDCC_OPT_PHYSICAL_DB_H_

#include <memory>
#include <string>

#include "bdcc/bdcc_table.h"
#include "catalog/catalog.h"
#include "storage/table.h"

namespace bdcc {

namespace delta {
struct TableSnapshot;
}  // namespace delta

namespace opt {

enum class Scheme { kPlain = 0, kPk = 1, kBdcc = 2 };

const char* SchemeName(Scheme scheme);

/// \brief One physical instantiation of a schema (Plain, PK or BDCC), plus
/// the catalog. The same logical plans compile against any of them.
class PhysicalDb {
 public:
  virtual ~PhysicalDb() = default;

  virtual Scheme scheme() const = 0;
  virtual const catalog::Catalog& schema_catalog() const = 0;

  /// Row storage of `table` (always available; for the BDCC scheme this is
  /// the clustered table's data). Null if the table is unknown.
  virtual const Table* storage(const std::string& table) const = 0;

  /// BDCC metadata for `table`; null unless scheme()==kBdcc and the advisor
  /// clustered it (e.g. REGION stays unclustered).
  virtual const BdccTable* bdcc(const std::string& table) const = 0;

  /// Column the stored table is physically sorted on ("" if none). Under
  /// the PK scheme this is the first primary-key column.
  virtual std::string sorted_on(const std::string& table) const = 0;

  /// True when `table`'s primary key is exactly this single column
  /// (merge-join uniqueness precondition).
  virtual bool unique_key(const std::string& table,
                          const std::string& column) const = 0;

  /// Pinned snapshot of `table` when it is live (taking online appends);
  /// null for static tables (the default). When non-null, bdcc(table) and
  /// storage(table) must return the snapshot's base version, and the
  /// planner scans the chunks' group slices beside the base's group ranges
  /// (see src/delta/snapshot_db.h). Compiled plans copy the returned shared_ptr
  /// into their scan leaves, so they stay consistent even if the db is
  /// refreshed to a newer epoch while they run.
  virtual std::shared_ptr<const delta::TableSnapshot> snapshot(
      const std::string& table) const {
    (void)table;
    return nullptr;
  }
};

}  // namespace opt
}  // namespace bdcc

#endif  // BDCC_OPT_PHYSICAL_DB_H_
