// Logical schema catalog: table definitions, primary/foreign keys, and the
// CREATE INDEX declarations that Algorithm 2 treats as BDCC hints.
#ifndef BDCC_CATALOG_CATALOG_H_
#define BDCC_CATALOG_CATALOG_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/types.h"

namespace bdcc {
namespace catalog {

struct ColumnDef {
  std::string name;
  TypeId type = TypeId::kInt64;
};

/// Declared foreign key with an identifier usable in dimension paths
/// (the paper's FK_Ti_Tj notation, e.g. "FK_L_O").
struct ForeignKey {
  std::string id;
  std::string from_table;
  std::vector<std::string> from_columns;
  std::string to_table;
  std::vector<std::string> to_columns;
};

/// CREATE INDEX declaration; interpreted by Algorithm 2 as a schema hint.
struct IndexHint {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
};

struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<std::string> primary_key;

  bool HasColumn(const std::string& col) const;
  Result<TypeId> ColumnType(const std::string& col) const;
};

/// \brief Mutable schema catalog.
class Catalog {
 public:
  Status AddTable(TableDef def);
  Status AddForeignKey(ForeignKey fk);
  Status AddIndex(IndexHint idx);

  Result<const TableDef*> GetTable(const std::string& name) const;
  Result<const ForeignKey*> GetForeignKey(const std::string& id) const;

  const std::vector<TableDef>& tables() const { return tables_; }
  const std::vector<ForeignKey>& foreign_keys() const { return fks_; }
  const std::vector<IndexHint>& indexes() const { return indexes_; }

  /// FKs declared on `table` (outgoing), in declaration order.
  std::vector<const ForeignKey*> ForeignKeysFrom(const std::string& table) const;
  /// FKs referencing `table` (incoming).
  std::vector<const ForeignKey*> ForeignKeysTo(const std::string& table) const;
  /// Index hints declared on `table`, in declaration order.
  std::vector<const IndexHint*> IndexesOn(const std::string& table) const;

  /// Whether index columns exactly match an outgoing FK's source columns;
  /// returns that FK or nullptr. (Algorithm 2(i) checks this.)
  const ForeignKey* IndexMatchesForeignKey(const IndexHint& idx) const;

 private:
  std::vector<TableDef> tables_;
  std::vector<ForeignKey> fks_;
  std::vector<IndexHint> indexes_;
  std::unordered_map<std::string, size_t> table_by_name_;
  std::unordered_map<std::string, size_t> fk_by_id_;
};

}  // namespace catalog
}  // namespace bdcc

#endif  // BDCC_CATALOG_CATALOG_H_
