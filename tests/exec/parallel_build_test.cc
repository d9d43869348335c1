// Parallel hash-join build vs. the serial build: a ParallelHashJoin whose
// build input is partitioned over N scan clones, drained through a
// ParallelUnion into the one table, returns what HashJoin returns across
// every KeyEncoder mode (raw int, dictionary-code string, packed pair,
// packed pair with a string, tagged bytes), NULL keys on both sides, all
// four join types, clone counts {2, 4}, and build batches with mixed
// dictionaries. Suite name contains "Parallel" so the CI TSan job picks it
// up.
#include <memory>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "exec/hash_join.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace bdcc {
namespace exec {
namespace {

// Emits (copies of) prepared batches; clone (i, n) of the factory variant
// emits the strided subset j % n == i, mimicking morsel-restricted scans.
class VectorSource : public Operator {
 public:
  VectorSource(std::shared_ptr<const std::vector<Batch>> batches,
               Schema schema, size_t offset = 0, size_t stride = 1)
      : batches_(std::move(batches)),
        schema_(std::move(schema)),
        offset_(offset),
        stride_(stride) {}

  const Schema& schema() const override { return schema_; }
  Status Open(ExecContext* ctx) override {
    cursor_ = offset_;
    return Status::OK();
  }
  Result<Batch> Next(ExecContext* ctx) override {
    if (cursor_ >= batches_->size()) return Batch::Empty();
    Batch out;
    const Batch& src = (*batches_)[cursor_];
    out.num_rows = src.num_rows;
    out.sel = src.sel;
    out.group_id = src.group_id;
    out.columns = src.columns;  // copy; dictionaries stay shared
    cursor_ += stride_;
    return out;
  }

 private:
  std::shared_ptr<const std::vector<Batch>> batches_;
  Schema schema_;
  size_t offset_, stride_, cursor_ = 0;
};

struct TestInput {
  Schema build_schema, probe_schema;
  std::shared_ptr<const std::vector<Batch>> build, probe;
  std::vector<std::string> build_keys, probe_keys;
};

ColumnVector MakeCol(TypeId type, const std::vector<int64_t>& values,
                     const std::vector<uint8_t>& nulls,
                     const std::shared_ptr<Dictionary>& dict = nullptr) {
  ColumnVector c(type);
  c.dict = dict;
  for (int64_t v : values) {
    switch (type) {
      case TypeId::kInt64:
        c.i64.push_back(v);
        break;
      case TypeId::kFloat64:
        c.f64.push_back(static_cast<double>(v) * 1.5);
        break;
      default:
        c.i32.push_back(static_cast<int32_t>(v));
        break;
    }
  }
  c.nulls = nulls;
  return c;
}

// Key columns cycle over a small domain so chains have real duplicates;
// every 11th build key and every 7th probe key is NULL.
TestInput MakeInput(const std::vector<TypeId>& key_types, size_t build_rows,
                    size_t probe_rows, size_t batch_rows) {
  TestInput in;
  auto dict = std::make_shared<Dictionary>();
  for (int i = 0; i < 40; ++i) dict->GetOrAdd("str_" + std::to_string(i));

  std::vector<Field> bf, pf;
  for (size_t k = 0; k < key_types.size(); ++k) {
    bf.push_back(Field{"bk" + std::to_string(k), key_types[k]});
    pf.push_back(Field{"pk" + std::to_string(k), key_types[k]});
    in.build_keys.push_back(bf.back().name);
    in.probe_keys.push_back(pf.back().name);
  }
  bf.push_back(Field{"bpay", TypeId::kInt64});
  pf.push_back(Field{"ppay", TypeId::kInt64});
  in.build_schema = Schema(bf);
  in.probe_schema = Schema(pf);

  auto make_batches = [&](size_t rows, size_t null_every, bool build) {
    auto out = std::make_shared<std::vector<Batch>>();
    for (size_t begin = 0; begin < rows; begin += batch_rows) {
      size_t n = std::min(batch_rows, rows - begin);
      Batch b;
      b.num_rows = n;
      for (size_t k = 0; k < key_types.size(); ++k) {
        std::vector<int64_t> vals;
        std::vector<uint8_t> nulls;
        bool has_null = false;
        for (size_t r = 0; r < n; ++r) {
          size_t global = begin + r;
          // Distinct cycles per key column; strings stay inside the dict.
          int64_t v = static_cast<int64_t>((global * (k + 3)) % 37);
          vals.push_back(v);
          bool is_null = (global + k) % null_every == 0;
          nulls.push_back(is_null ? 1 : 0);
          has_null |= is_null;
        }
        if (!has_null) nulls.clear();
        b.columns.push_back(MakeCol(
            key_types[k], vals, nulls,
            key_types[k] == TypeId::kString ? dict : nullptr));
      }
      std::vector<int64_t> pay;
      for (size_t r = 0; r < n; ++r) {
        pay.push_back(static_cast<int64_t>((begin + r) * (build ? 1 : -1)));
      }
      b.columns.push_back(MakeCol(TypeId::kInt64, pay, {}));
      out->push_back(std::move(b));
    }
    return out;
  };
  in.build = make_batches(build_rows, 11, true);
  in.probe = make_batches(probe_rows, 7, false);
  return in;
}

Batch RunSerial(const TestInput& in, JoinType type) {
  ExecContext ctx(nullptr);
  HashJoin join(
      std::make_unique<VectorSource>(in.probe, in.probe_schema),
      std::make_unique<VectorSource>(in.build, in.build_schema),
      in.probe_keys, in.build_keys, type);
  return CollectAll(&join, &ctx).ValueOrDie();
}

Batch RunParallel(const TestInput& in, JoinType type, size_t clones,
                  common::TaskScheduler* scheduler) {
  ExecContext ctx(nullptr);
  auto source = [](std::shared_ptr<const std::vector<Batch>> batches,
                   Schema schema) -> ChainFactory {
    return [batches, schema](size_t i, size_t n) -> Result<OperatorPtr> {
      return OperatorPtr(
          std::make_unique<VectorSource>(batches, schema, i, n));
    };
  };
  ParallelHashJoin join(
      source(in.probe, in.probe_schema), clones,
      std::make_unique<ParallelUnion>(source(in.build, in.build_schema),
                                      clones, clones, scheduler),
      in.probe_keys, in.build_keys, type, scheduler);
  return CollectAll(&join, &ctx).ValueOrDie();
}

void CheckAllJoinTypes(const TestInput& in, const std::string& label) {
  common::TaskScheduler scheduler(3);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    Batch expect = RunSerial(in, type);
    for (size_t clones : {size_t{2}, size_t{4}}) {
      Batch got = RunParallel(in, type, clones, &scheduler);
      testutil::ExpectBatchesEqual(expect, got,
                                   label + " " + JoinTypeName(type) +
                                       " clones=" + std::to_string(clones));
    }
  }
}

void CheckAllJoinTypes(const std::vector<TypeId>& key_types,
                       const std::string& label) {
  CheckAllJoinTypes(MakeInput(key_types, 3000, 5000, 256), label);
}

TEST(ParallelPartitionedBuildTest, IntKeyMatchesSerial) {
  CheckAllJoinTypes({TypeId::kInt32}, "int key");
}

TEST(ParallelPartitionedBuildTest, Int64KeyMatchesSerial) {
  CheckAllJoinTypes({TypeId::kInt64}, "int64 key");
}

TEST(ParallelPartitionedBuildTest, StringKeyMatchesSerial) {
  CheckAllJoinTypes({TypeId::kString}, "string key");
}

TEST(ParallelPartitionedBuildTest, PackedIntPairMatchesSerial) {
  CheckAllJoinTypes({TypeId::kInt32, TypeId::kInt32}, "packed int pair");
}

TEST(ParallelPartitionedBuildTest, PackedStringIntMatchesSerial) {
  CheckAllJoinTypes({TypeId::kString, TypeId::kInt32}, "packed string+int");
}

TEST(ParallelPartitionedBuildTest, ByteKeysMatchSerial) {
  CheckAllJoinTypes({TypeId::kInt32, TypeId::kInt64, TypeId::kString},
                    "tagged byte keys");
}

// Heterogeneous dictionaries across build batches, so the clones hand the
// serial build strings from two dictionaries with different code orders.
TEST(ParallelPartitionedBuildTest, MixedDictionariesMatchSerial) {
  TestInput in = MakeInput({TypeId::kString}, 1500, 2500, 128);
  // Re-dictionary every other build batch: same strings, fresh Dictionary
  // objects with a different code order.
  auto mixed = std::make_shared<std::vector<Batch>>(*in.build);
  for (size_t j = 1; j < mixed->size(); j += 2) {
    Batch& b = (*mixed)[j];
    ColumnVector& key = b.columns[0];
    auto fresh = std::make_shared<Dictionary>();
    for (int i = 39; i >= 0; --i) fresh->GetOrAdd("str_" + std::to_string(i));
    for (int32_t& code : key.i32) {
      code = fresh->Find(key.dict->Get(code));
    }
    key.dict = fresh;
  }
  in.build = mixed;
  CheckAllJoinTypes(in, "mixed dictionaries");
}

}  // namespace
}  // namespace exec
}  // namespace bdcc
