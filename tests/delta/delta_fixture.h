// Shared fixture for the delta subsystem tests: a 64-bin dimension over a
// small fact table (with a low-cardinality string column so chunk-local
// dictionaries get exercised, and a high-cardinality one whose strings
// batches partly share, so merges remap codes across sources and grow
// dictionaries), an optional local dimension on the fact table's own
// column, plus batch generators and a resolver.
#ifndef BDCC_TESTS_DELTA_DELTA_FIXTURE_H_
#define BDCC_TESTS_DELTA_DELTA_FIXTURE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bdcc/bdcc_table.h"
#include "bdcc/binning.h"
#include "catalog/catalog.h"
#include "common/rng.h"
#include "gtest/gtest.h"

namespace bdcc {
namespace delta {

class DeltaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.AddTable({"DIM", {{"d_key", TypeId::kInt32}}, {"d_key"}})
        .AbortIfNotOK();
    catalog_
        .AddTable({"F",
                   {{"f_d", TypeId::kInt32},
                    {"f_payload", TypeId::kInt64},
                    {"f_tag", TypeId::kString},
                    {"f_note", TypeId::kString},
                    {"f_local", TypeId::kInt32}},
                   {}})
        .AbortIfNotOK();
    catalog_.AddForeignKey({"FK_F_D", "F", {"f_d"}, "DIM", {"d_key"}})
        .AbortIfNotOK();
    Table dim("DIM");
    Column dk(TypeId::kInt32);
    for (int i = 0; i < 64; ++i) dk.AppendInt32(i);
    dim.AddColumn("d_key", std::move(dk)).AbortIfNotOK();
    tables_.emplace("DIM", std::move(dim));

    tables_.emplace("F", MakeRows(0, 5000));
    dimension_ = std::make_shared<const Dimension>(
        binning::CreateRangeDimension("D", "DIM", "d_key", 0, 63, 6)
            .ValueOrDie());
    local_dimension_ = std::make_shared<const Dimension>(
        binning::CreateRangeDimension("D_LOCAL", "F", "f_local", 0, 63, 6)
            .ValueOrDie());
  }

  // Deterministic batch of `n` fact rows; distinct seeds give distinct
  // payloads. Tag strings rotate through 8 values per seed, so every batch
  // interns a partially-disjoint dictionary. Notes take one of 6000 values
  // by (seed, row): the base's 5000 and a batch's are mostly distinct
  // within each and partly shared between them. The base (seed 0) holds the
  // lower half of f_local's domain and every other batch the upper half, so
  // a batch binned from the stored rows' values gets wrong keys.
  Table MakeRows(int64_t seed, int n) const {
    Rng rng(100 + seed);
    Table f("F");
    Column fd(TypeId::kInt32), payload(TypeId::kInt64), tag(TypeId::kString);
    Column note(TypeId::kString), local(TypeId::kInt32);
    const int64_t local_lo = seed == 0 ? 0 : 32;
    for (int i = 0; i < n; ++i) {
      fd.AppendInt32(static_cast<int32_t>(rng.Uniform(0, 63)));
      payload.AppendInt64(seed * 1000000 + i);
      tag.AppendString("tag_" + std::to_string(seed % 3) + "_" +
                       std::to_string(i % 8));
      note.AppendString("note " + std::to_string((seed * 1009 + i) % 6000));
      local.AppendInt32(
          static_cast<int32_t>(rng.Uniform(local_lo, local_lo + 31)));
    }
    f.AddColumn("f_d", std::move(fd)).AbortIfNotOK();
    f.AddColumn("f_payload", std::move(payload)).AbortIfNotOK();
    f.AddColumn("f_tag", std::move(tag)).AbortIfNotOK();
    f.AddColumn("f_note", std::move(note)).AbortIfNotOK();
    f.AddColumn("f_local", std::move(local)).AbortIfNotOK();
    return f;
  }

  class Resolver : public TableResolver {
   public:
    Resolver(const std::map<std::string, Table>* t, const catalog::Catalog* c)
        : t_(t), c_(c) {}
    Result<const Table*> GetTable(const std::string& name) const override {
      auto it = t_->find(name);
      if (it == t_->end()) return Status::NotFound(name);
      return &it->second;
    }
    Result<const catalog::ForeignKey*> GetForeignKey(
        const std::string& id) const override {
      return c_->GetForeignKey(id);
    }

   private:
    const std::map<std::string, Table>* t_;
    const catalog::Catalog* c_;
  };

  // The BDCC table over `source` (stored F's rows by default): clustered on
  // D through FK_F_D, and with `local_use` also on D_LOCAL, whose path is
  // empty (it bins F's own f_local).
  BdccTable Build(const Table& source, bool local_use = false) const {
    return BuildOver(source, local_use, tables_);
  }

  // A from-scratch build of `all` whose resolver's F is `all` itself: the
  // oracle for appends, whatever a build does with a local use's host table.
  BdccTable Rebuild(const Table& all, bool local_use) const {
    std::map<std::string, Table> tables;
    tables.emplace("DIM", tables_.at("DIM").Clone());
    tables.emplace("F", all.Clone());
    return BuildOver(all, local_use, tables);
  }

  catalog::Catalog catalog_;
  std::map<std::string, Table> tables_;
  DimensionPtr dimension_;
  DimensionPtr local_dimension_;

 private:
  BdccTable BuildOver(const Table& source, bool local_use,
                      const std::map<std::string, Table>& tables) const {
    std::vector<DimensionUse> uses(1);
    uses[0].dimension = dimension_;
    uses[0].path.fk_ids = {"FK_F_D"};
    if (local_use) {
      uses.emplace_back();
      uses.back().dimension = local_dimension_;
    }
    Resolver resolver(&tables, &catalog_);
    BdccBuildOptions options;
    options.tuning.efficient_access_bytes = 256;
    return BuildBdccTable(source.Clone(), uses, resolver, options)
        .ValueOrDie();
  }
};

}  // namespace delta
}  // namespace bdcc

#endif  // BDCC_TESTS_DELTA_DELTA_FIXTURE_H_
