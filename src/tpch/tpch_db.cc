#include "tpch/tpch_db.h"

#include <algorithm>
#include <numeric>

namespace bdcc {
namespace tpch {

namespace {

// Resolver over a map of tables plus the catalog's FKs.
class MapResolver : public TableResolver {
 public:
  MapResolver(const std::map<std::string, Table>* tables,
              const catalog::Catalog* catalog)
      : tables_(tables), catalog_(catalog) {}

  Result<const Table*> GetTable(const std::string& name) const override {
    auto it = tables_->find(name);
    if (it == tables_->end()) return Status::NotFound("no table " + name);
    return &it->second;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return catalog_->GetForeignKey(id);
  }

 private:
  const std::map<std::string, Table>* tables_;
  const catalog::Catalog* catalog_;
};

std::map<std::string, Table> CloneAll(const std::map<std::string, Table>& in) {
  std::map<std::string, Table> out;
  for (const auto& [name, table] : in) {
    out.emplace(name, table.Clone());
  }
  return out;
}

}  // namespace

class TpchDb::PhysicalDbImpl : public opt::PhysicalDb {
 public:
  PhysicalDbImpl(opt::Scheme scheme, const TpchDb* owner)
      : scheme_(scheme), owner_(owner) {}

  opt::Scheme scheme() const override { return scheme_; }
  const catalog::Catalog& schema_catalog() const override {
    return owner_->catalog_;
  }

  const Table* storage(const std::string& table) const override {
    switch (scheme_) {
      case opt::Scheme::kPlain: {
        auto it = owner_->plain_tables_.find(table);
        return it == owner_->plain_tables_.end() ? nullptr : &it->second;
      }
      case opt::Scheme::kPk: {
        auto it = owner_->pk_tables_.find(table);
        return it == owner_->pk_tables_.end() ? nullptr : &it->second;
      }
      case opt::Scheme::kBdcc: {
        auto it = owner_->bdcc_tables_.find(table);
        if (it != owner_->bdcc_tables_.end()) return &it->second.data();
        auto it2 = owner_->bdcc_extra_.find(table);
        return it2 == owner_->bdcc_extra_.end() ? nullptr : &it2->second;
      }
    }
    return nullptr;
  }

  const BdccTable* bdcc(const std::string& table) const override {
    if (scheme_ != opt::Scheme::kBdcc) return nullptr;
    auto it = owner_->bdcc_tables_.find(table);
    return it == owner_->bdcc_tables_.end() ? nullptr : &it->second;
  }

  std::string sorted_on(const std::string& table) const override {
    if (scheme_ != opt::Scheme::kPk) return "";
    auto def = owner_->catalog_.GetTable(table);
    if (!def.ok() || def.value()->primary_key.empty()) return "";
    return def.value()->primary_key[0];
  }

  bool unique_key(const std::string& table,
                  const std::string& column) const override {
    auto def = owner_->catalog_.GetTable(table);
    return def.ok() && def.value()->primary_key.size() == 1 &&
           def.value()->primary_key[0] == column;
  }

 private:
  opt::Scheme scheme_;
  const TpchDb* owner_;
};

Result<std::unique_ptr<TpchDb>> TpchDb::Create(const TpchDbOptions& options) {
  std::unique_ptr<TpchDb> db(new TpchDb());
  db->options_ = options;
  BDCC_ASSIGN_OR_RETURN(db->catalog_, MakeTpchCatalog(/*with_hints=*/true));

  DbgenOptions gen;
  gen.scale_factor = options.scale_factor;
  gen.seed = options.seed;
  using TableMap = std::map<std::string, Table>;
  BDCC_ASSIGN_OR_RETURN(TableMap base, GenerateTpch(gen));

  for (int s = 0; s < 3; ++s) {
    db->io_[s].device = std::make_unique<io::DeviceModel>(options.device);
    db->io_[s].pool = std::make_unique<io::BufferPool>(
        db->io_[s].device.get(), options.buffer_pool_bytes);
  }

  // ---- Plain: insertion order. ----
  if (options.build_plain) {
    db->plain_tables_ = CloneAll(base);
    for (auto& [name, table] : db->plain_tables_) {
      table.BuildZoneMaps(options.zone_rows);
      table.BuildEncodedLanes();
      if (options.attach_buffer_pools) {
        table.RegisterWithBufferPool(
            db->io_[static_cast<int>(opt::Scheme::kPlain)].pool.get());
      }
    }
  }

  // ---- PK: sorted on the primary key. ----
  if (options.build_pk) {
    db->pk_tables_ = CloneAll(base);
    for (auto& [name, table] : db->pk_tables_) {
      auto def_result = db->catalog_.GetTable(name);
      if (def_result.ok() && !def_result.value()->primary_key.empty()) {
        // dbgen emits rows in PK order already, but sort defensively so the
        // PK scheme's merge-join precondition never silently depends on
        // generator internals.
        const std::vector<std::string>& pk = def_result.value()->primary_key;
        std::vector<int> key_idx;
        for (const std::string& k : pk) {
          BDCC_ASSIGN_OR_RETURN(int idx, table.ColumnIndex(k));
          key_idx.push_back(idx);
        }
        std::vector<uint32_t> perm(table.num_rows());
        std::iota(perm.begin(), perm.end(), 0);
        std::stable_sort(perm.begin(), perm.end(),
                         [&](uint32_t a, uint32_t b) {
                           for (int idx : key_idx) {
                             const Column& c = table.column(idx);
                             Value va = c.GetValue(a), vb = c.GetValue(b);
                             int cmp = va.Compare(vb);
                             if (cmp != 0) return cmp < 0;
                           }
                           return false;
                         });
        table = table.ApplyPermutation(perm);
      }
      table.BuildZoneMaps(options.zone_rows);
      table.BuildEncodedLanes();
      if (options.attach_buffer_pools) {
        table.RegisterWithBufferPool(
            db->io_[static_cast<int>(opt::Scheme::kPk)].pool.get());
      }
    }
  }

  // ---- BDCC: Algorithm 2. ----
  if (options.build_bdcc) {
    MapResolver resolver(&base, &db->catalog_);
    advisor::AdvisorOptions adv = options.advisor;
    adv.build.zone_rows = options.zone_rows;
    BDCC_ASSIGN_OR_RETURN(db->design_,
                          advisor::DesignSchema(db->catalog_, resolver, adv));
    std::map<std::string, Table> sources = CloneAll(base);
    BDCC_ASSIGN_OR_RETURN(
        db->bdcc_tables_,
        advisor::BuildDesignedTables(db->design_, std::move(sources), resolver,
                                     adv));
    // Tables the design left unclustered stay plain.
    for (const auto& [name, table] : base) {
      if (db->bdcc_tables_.count(name) == 0) {
        Table clone = table.Clone();
        clone.BuildZoneMaps(options.zone_rows);
        clone.BuildEncodedLanes();
        db->bdcc_extra_.emplace(name, std::move(clone));
      }
    }
    if (options.attach_buffer_pools) {
      io::BufferPool* pool =
          db->io_[static_cast<int>(opt::Scheme::kBdcc)].pool.get();
      for (auto& [name, table] : db->bdcc_tables_) {
        table.mutable_data().RegisterWithBufferPool(pool);
      }
      for (auto& [name, table] : db->bdcc_extra_) {
        table.RegisterWithBufferPool(pool);
      }
    }
  }

  db->plain_db_ =
      std::make_unique<PhysicalDbImpl>(opt::Scheme::kPlain, db.get());
  db->pk_db_ = std::make_unique<PhysicalDbImpl>(opt::Scheme::kPk, db.get());
  db->bdcc_db_ =
      std::make_unique<PhysicalDbImpl>(opt::Scheme::kBdcc, db.get());
  return db;
}

TpchDb::~TpchDb() = default;

const opt::PhysicalDb& TpchDb::plain() const { return *plain_db_; }
const opt::PhysicalDb& TpchDb::pk() const { return *pk_db_; }
const opt::PhysicalDb& TpchDb::bdcc() const { return *bdcc_db_; }

const opt::PhysicalDb& TpchDb::db(opt::Scheme scheme) const {
  switch (scheme) {
    case opt::Scheme::kPlain:
      return *plain_db_;
    case opt::Scheme::kPk:
      return *pk_db_;
    case opt::Scheme::kBdcc:
      return *bdcc_db_;
  }
  return *plain_db_;
}

io::DeviceModel* TpchDb::device(opt::Scheme scheme) {
  return io_[static_cast<int>(scheme)].device.get();
}

io::BufferPool* TpchDb::pool(opt::Scheme scheme) {
  return io_[static_cast<int>(scheme)].pool.get();
}

void TpchDb::ResetIo() {
  for (int s = 0; s < 3; ++s) {
    if (io_[s].pool) {
      io_[s].pool->Clear();
      io_[s].pool->ResetStats();
    }
    if (io_[s].device) io_[s].device->ResetStats();
  }
}

uint64_t TpchDb::DiskBytes(opt::Scheme scheme) const {
  uint64_t total = 0;
  auto add_table = [&](const Table& t) { total += t.DiskBytes(); };
  switch (scheme) {
    case opt::Scheme::kPlain:
      for (const auto& [n, t] : plain_tables_) add_table(t);
      break;
    case opt::Scheme::kPk:
      for (const auto& [n, t] : pk_tables_) add_table(t);
      break;
    case opt::Scheme::kBdcc:
      for (const auto& [n, t] : bdcc_tables_) add_table(t.data());
      for (const auto& [n, t] : bdcc_extra_) add_table(t);
      break;
  }
  return total;
}

}  // namespace tpch
}  // namespace bdcc
