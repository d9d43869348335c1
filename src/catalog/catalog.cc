#include "catalog/catalog.h"

#include <algorithm>
#include <unordered_set>

namespace bdcc {
namespace catalog {

bool TableDef::HasColumn(const std::string& col) const {
  return std::any_of(columns.begin(), columns.end(),
                     [&](const ColumnDef& c) { return c.name == col; });
}

Result<TypeId> TableDef::ColumnType(const std::string& col) const {
  for (const ColumnDef& c : columns) {
    if (c.name == col) return c.type;
  }
  return Status::NotFound("no column " + col + " in " + name);
}

Status Catalog::AddTable(TableDef def) {
  if (table_by_name_.count(def.name)) {
    return Status::AlreadyExists("table " + def.name);
  }
  std::unordered_set<std::string> names;
  for (const ColumnDef& c : def.columns) {
    if (!names.insert(c.name).second) {
      return Status::InvalidArgument("table " + def.name +
                                     ": duplicate column " + c.name);
    }
  }
  for (const std::string& c : def.primary_key) {
    if (!names.count(c)) {
      return Status::InvalidArgument("table " + def.name +
                                     ": primary key names no column " + c);
    }
  }
  table_by_name_[def.name] = tables_.size();
  tables_.push_back(std::move(def));
  return Status::OK();
}

Status Catalog::AddForeignKey(ForeignKey fk) {
  if (fk_by_id_.count(fk.id)) {
    return Status::AlreadyExists("foreign key " + fk.id);
  }
  BDCC_ASSIGN_OR_RETURN(const TableDef* from, GetTable(fk.from_table));
  BDCC_ASSIGN_OR_RETURN(const TableDef* to, GetTable(fk.to_table));
  if (fk.from_columns.empty() ||
      fk.from_columns.size() != fk.to_columns.size()) {
    return Status::InvalidArgument("foreign key " + fk.id +
                                   " column count mismatch");
  }
  for (const std::string& c : fk.from_columns) {
    if (!from->HasColumn(c)) {
      return Status::NotFound("fk " + fk.id + ": no column " + c + " in " +
                              fk.from_table);
    }
  }
  for (const std::string& c : fk.to_columns) {
    if (!to->HasColumn(c)) {
      return Status::NotFound("fk " + fk.id + ": no column " + c + " in " +
                              fk.to_table);
    }
  }
  fk_by_id_[fk.id] = fks_.size();
  fks_.push_back(std::move(fk));
  return Status::OK();
}

Status Catalog::AddIndex(IndexHint idx) {
  BDCC_ASSIGN_OR_RETURN(const TableDef* t, GetTable(idx.table));
  for (const std::string& c : idx.columns) {
    if (!t->HasColumn(c)) {
      return Status::NotFound("index " + idx.name + ": no column " + c +
                              " in " + idx.table);
    }
  }
  indexes_.push_back(std::move(idx));
  return Status::OK();
}

Result<const TableDef*> Catalog::GetTable(const std::string& name) const {
  auto it = table_by_name_.find(name);
  if (it == table_by_name_.end()) {
    return Status::NotFound("no table " + name);
  }
  return &tables_[it->second];
}

Result<const ForeignKey*> Catalog::GetForeignKey(const std::string& id) const {
  auto it = fk_by_id_.find(id);
  if (it == fk_by_id_.end()) {
    return Status::NotFound("no foreign key " + id);
  }
  return &fks_[it->second];
}

std::vector<const ForeignKey*> Catalog::ForeignKeysFrom(
    const std::string& table) const {
  std::vector<const ForeignKey*> out;
  for (const ForeignKey& fk : fks_) {
    if (fk.from_table == table) out.push_back(&fk);
  }
  return out;
}

std::vector<const ForeignKey*> Catalog::ForeignKeysTo(
    const std::string& table) const {
  std::vector<const ForeignKey*> out;
  for (const ForeignKey& fk : fks_) {
    if (fk.to_table == table) out.push_back(&fk);
  }
  return out;
}

std::vector<const IndexHint*> Catalog::IndexesOn(
    const std::string& table) const {
  std::vector<const IndexHint*> out;
  for (const IndexHint& idx : indexes_) {
    if (idx.table == table) out.push_back(&idx);
  }
  return out;
}

const ForeignKey* Catalog::IndexMatchesForeignKey(const IndexHint& idx) const {
  for (const ForeignKey& fk : fks_) {
    if (fk.from_table == idx.table && fk.from_columns == idx.columns) {
      return &fk;
    }
  }
  return nullptr;
}

}  // namespace catalog
}  // namespace bdcc
