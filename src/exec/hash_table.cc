#include "exec/hash_table.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/bits.h"

namespace bdcc {
namespace exec {

uint64_t ColumnVectorBytes(const ColumnVector& v) {
  return v.i32.capacity() * 4 + v.i64.capacity() * 8 + v.f64.capacity() * 8 +
         v.nulls.capacity();
}

// ---------------- KeyEncoder ----------------

namespace {

bool ExtractableTo32(TypeId t) {
  return IsI32Backed(t) || t == TypeId::kString;
}

}  // namespace

Status KeyEncoder::Bind(const Schema& schema,
                        const std::vector<std::string>& key_cols) {
  indices_.clear();
  types_.clear();
  probe_of_ = nullptr;
  for (const std::string& name : key_cols) {
    BDCC_ASSIGN_OR_RETURN(int idx, schema.Require(name));
    indices_.push_back(idx);
    types_.push_back(schema.field(idx).type);
  }
  spaces_.assign(indices_.size(), StringSpace{});
  caches_.assign(indices_.size(), TranslateCache{});
  if (indices_.size() == 1 && types_[0] != TypeId::kString &&
      types_[0] != TypeId::kFloat64) {
    mode_ = Mode::kInt;
  } else if (indices_.size() == 1 && types_[0] == TypeId::kString) {
    mode_ = Mode::kCode;
  } else if (indices_.size() == 2 && ExtractableTo32(types_[0]) &&
             ExtractableTo32(types_[1])) {
    mode_ = Mode::kPacked;
  } else {
    mode_ = Mode::kBytes;
  }
  return Status::OK();
}

Status KeyEncoder::BindProbe(const Schema& schema,
                             const std::vector<std::string>& key_cols,
                             const KeyEncoder* build) {
  BDCC_RETURN_NOT_OK(Bind(schema, key_cols));
  if (mode_ != build->mode_ || types_.size() != build->types_.size()) {
    return Status::InvalidArgument("join key types incompatible across sides");
  }
  // Same mode is not enough on multi-key paths: a packed raw-i32 key
  // position must not pair with a string position whose packed bits are
  // dictionary codes, or equal bit patterns would join unrelated values.
  for (size_t k = 0; k < types_.size(); ++k) {
    if ((types_[k] == TypeId::kString) != (build->types_[k] == TypeId::kString)) {
      return Status::InvalidArgument(
          "join key types incompatible across sides");
    }
  }
  probe_of_ = build;
  return Status::OK();
}

size_t KeyEncoder::SpaceVersion(size_t k) const {
  const StringSpace& sp = TargetSpace(k);
  return (sp.canon != nullptr ? static_cast<size_t>(sp.canon->size()) : 0) +
         sp.side.size();
}

uint32_t KeyEncoder::StringSlot(size_t k, const std::shared_ptr<Dictionary>& src,
                                int32_t code) const {
  if (probe_of_ == nullptr && spaces_[k].canon == nullptr) {
    // Adopt the first dictionary seen as the canonical space.
    spaces_[k].canon = src;
  }
  const StringSpace& sp = TargetSpace(k);
  if (sp.canon.get() == src.get()) return static_cast<uint32_t>(code);
  if (sp.canon == nullptr) return kMissSlot;  // empty build side
  // Translate through the per-batch cache; invalidated when the source
  // dictionary or the canonical space changed since it was filled.
  TranslateCache& cache = caches_[k];
  size_t version = SpaceVersion(k);
  if (cache.src != src || cache.src_size != static_cast<size_t>(src->size()) ||
      cache.space_version != version) {
    cache.src = src;
    cache.src_size = static_cast<size_t>(src->size());
    cache.space_version = version;
    cache.slot.assign(cache.src_size, kUnresolved);
  }
  int64_t& slot = cache.slot[code];
  if (slot != kUnresolved) return static_cast<uint32_t>(slot);
  std::string_view s = src->Get(code);
  int32_t canon_code = sp.canon->Find(s);
  if (canon_code >= 0) {
    slot = canon_code;
  } else if (probe_of_ != nullptr) {
    auto it = sp.side.find(std::string(s));
    slot = it != sp.side.end() ? it->second : kMissSlot;
  } else {
    auto [it, inserted] = spaces_[k].side.emplace(
        std::string(s), kSideBase + static_cast<uint32_t>(sp.side.size()));
    slot = it->second;
    if (inserted) cache.space_version = SpaceVersion(k);
  }
  return static_cast<uint32_t>(slot);
}

uint32_t KeyEncoder::SlotOf(size_t k, const ColumnVector& col,
                            size_t row) const {
  if (types_[k] == TypeId::kString) {
    return StringSlot(k, col.dict, col.i32_data()[row]);
  }
  return static_cast<uint32_t>(col.i32_data()[row]);
}

void KeyEncoder::EncodeIntsImpl(const ColumnVector* const* cols,
                                size_t num_rows, const uint32_t* sel,
                                std::vector<int64_t>* keys,
                                std::vector<uint8_t>* valid) const {
  BDCC_CHECK(mode_ != Mode::kBytes);
  keys->resize(num_rows);
  valid->assign(num_rows, 1);
  switch (mode_) {
    case Mode::kInt: {
      const ColumnVector& col = *cols[0];
      if (col.type == TypeId::kInt64) {
        const int64_t* lane = col.i64_data();
        for (size_t i = 0; i < num_rows; ++i) {
          (*keys)[i] = lane[sel != nullptr ? sel[i] : i];
        }
      } else {
        const int32_t* lane = col.i32_data();
        for (size_t i = 0; i < num_rows; ++i) {
          (*keys)[i] = lane[sel != nullptr ? sel[i] : i];
        }
      }
      if (col.HasNulls()) {
        for (size_t i = 0; i < num_rows; ++i) {
          if (col.nulls[sel != nullptr ? sel[i] : i]) (*valid)[i] = 0;
        }
      }
      break;
    }
    case Mode::kCode: {
      const ColumnVector& col = *cols[0];
      for (size_t i = 0; i < num_rows; ++i) {
        size_t row = sel != nullptr ? sel[i] : i;
        if (col.IsNull(row)) {
          (*valid)[i] = 0;
          (*keys)[i] = 0;
          continue;
        }
        uint32_t slot = StringSlot(0, col.dict, col.i32_data()[row]);
        (*keys)[i] = slot == kMissSlot ? -1 : static_cast<int64_t>(slot);
      }
      break;
    }
    case Mode::kPacked: {
      const ColumnVector& c0 = *cols[0];
      const ColumnVector& c1 = *cols[1];
      for (size_t i = 0; i < num_rows; ++i) {
        size_t row = sel != nullptr ? sel[i] : i;
        if (c0.IsNull(row) || c1.IsNull(row)) {
          (*valid)[i] = 0;
          (*keys)[i] = 0;
          continue;
        }
        uint64_t s0 = SlotOf(0, c0, row);
        uint64_t s1 = SlotOf(1, c1, row);
        (*keys)[i] = static_cast<int64_t>((s0 << 32) | s1);
      }
      break;
    }
    case Mode::kBytes:
      break;  // unreachable (checked above)
  }
}

bool KeyEncoder::AppendBytesRow(const ColumnVector* const* cols, size_t row,
                                std::string* key) const {
  bool all_present = true;
  for (size_t k = 0; k < indices_.size(); ++k) {
    const ColumnVector& col = *cols[k];
    // Per-column presence tag: NULL-bearing composite keys stay distinct
    // and group exactly ((1, NULL) != (2, NULL) but NULLs equal NULLs).
    if (col.IsNull(row)) {
      all_present = false;
      key->push_back('\0');
      continue;
    }
    key->push_back('\1');
    switch (col.type) {
      case TypeId::kString: {
        std::string_view s = col.GetString(row);
        uint32_t len = static_cast<uint32_t>(s.size());
        key->append(reinterpret_cast<const char*>(&len), 4);
        key->append(s.data(), s.size());
        break;
      }
      case TypeId::kFloat64: {
        double d = col.f64_data()[row];
        key->append(reinterpret_cast<const char*>(&d), 8);
        break;
      }
      case TypeId::kInt64: {
        int64_t v = col.i64_data()[row];
        key->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
      default: {
        int32_t v = col.i32_data()[row];
        key->append(reinterpret_cast<const char*>(&v), 4);
        break;
      }
    }
  }
  return all_present;
}

void KeyEncoder::EncodeBytesImpl(const ColumnVector* const* cols,
                                 size_t num_rows, const uint32_t* sel,
                                 std::vector<std::string>* keys,
                                 std::vector<uint8_t>* valid) const {
  keys->assign(num_rows, std::string());
  valid->assign(num_rows, 1);
  for (size_t i = 0; i < num_rows; ++i) {
    size_t row = sel != nullptr ? sel[i] : i;
    if (!AppendBytesRow(cols, row, &(*keys)[i])) (*valid)[i] = 0;
  }
}

// Per-batch encode calls are hot (every probe/consume); gather the key
// column pointers into a caller-provided stack buffer, falling back to the
// heap only for improbably wide keys.
const ColumnVector* const* KeyEncoder::GatherCols(
    const Batch& batch, const ColumnVector* inline_buf[kInlineKeyCols],
    std::vector<const ColumnVector*>* overflow) const {
  const ColumnVector** cols = inline_buf;
  if (indices_.size() > kInlineKeyCols) {
    overflow->resize(indices_.size());
    cols = overflow->data();
  }
  for (size_t k = 0; k < indices_.size(); ++k) {
    cols[k] = &batch.columns[indices_[k]];
  }
  return cols;
}

void KeyEncoder::EncodeInts(const Batch& batch, std::vector<int64_t>* keys,
                            std::vector<uint8_t>* valid) const {
  const ColumnVector* inline_buf[kInlineKeyCols];
  std::vector<const ColumnVector*> overflow;
  EncodeIntsImpl(GatherCols(batch, inline_buf, &overflow), batch.num_rows,
                 batch.has_sel() ? batch.sel.data() : nullptr, keys, valid);
}

void KeyEncoder::EncodeBytes(const Batch& batch, std::vector<std::string>* keys,
                             std::vector<uint8_t>* valid) const {
  const ColumnVector* inline_buf[kInlineKeyCols];
  std::vector<const ColumnVector*> overflow;
  EncodeBytesImpl(GatherCols(batch, inline_buf, &overflow), batch.num_rows,
                  batch.has_sel() ? batch.sel.data() : nullptr, keys, valid);
}

void KeyEncoder::EncodeIntsCols(const std::vector<ColumnVector>& key_cols,
                                size_t num_rows, std::vector<int64_t>* keys,
                                std::vector<uint8_t>* valid) const {
  std::vector<const ColumnVector*> cols(key_cols.size());
  for (size_t k = 0; k < key_cols.size(); ++k) cols[k] = &key_cols[k];
  EncodeIntsImpl(cols.data(), num_rows, nullptr, keys, valid);
}

void KeyEncoder::EncodeBytesCols(const std::vector<ColumnVector>& key_cols,
                                 size_t num_rows,
                                 std::vector<std::string>* keys,
                                 std::vector<uint8_t>* valid) const {
  std::vector<const ColumnVector*> cols(key_cols.size());
  for (size_t k = 0; k < key_cols.size(); ++k) cols[k] = &key_cols[k];
  EncodeBytesImpl(cols.data(), num_rows, nullptr, keys, valid);
}

std::string KeyEncoder::EncodeBytesRow(const Batch& batch,
                                       size_t logical_row) const {
  const ColumnVector* inline_buf[kInlineKeyCols];
  std::vector<const ColumnVector*> overflow;
  std::string key;
  AppendBytesRow(GatherCols(batch, inline_buf, &overflow),
                 batch.RowAt(logical_row), &key);
  return key;
}

std::string KeyEncoder::EncodeBytesRowCols(
    const std::vector<ColumnVector>& key_cols, size_t row) const {
  std::vector<const ColumnVector*> cols(key_cols.size());
  for (size_t k = 0; k < key_cols.size(); ++k) cols[k] = &key_cols[k];
  std::string key;
  AppendBytesRow(cols.data(), row, &key);
  return key;
}

namespace {

// Group-id assignment core shared by the batch and key-columns variants:
// `encode_*` produce the per-row keys, `byte_key(i)` the exact fallback
// for NULL-bearing packed tuples.
template <typename EncodeInts, typename EncodeBytes, typename ByteKey>
void AssignGroupsImpl(const KeyEncoder& encoder, DenseKeyMap* key_map,
                      size_t num_rows,
                      std::vector<uint32_t>* group_of_row,
                      const std::function<void(size_t)>& on_new_group,
                      EncodeInts encode_ints, EncodeBytes encode_bytes,
                      ByteKey byte_key) {
  group_of_row->resize(num_rows);
  bool inserted;
  if (encoder.int_path()) {
    std::vector<int64_t> keys;
    std::vector<uint8_t> valid;
    encode_ints(&keys, &valid);
    for (size_t i = 0; i < num_rows; ++i) {
      int64_t gid;
      if (!valid[i]) {
        // SQL GROUP BY: NULLs group with NULLs. Single keys use the
        // dedicated null group; packed tuples need the exact byte key so
        // distinct non-null parts stay distinct.
        gid = encoder.num_keys() == 1
                  ? key_map->NullId(&inserted)
                  : key_map->FindOrInsert(byte_key(i), &inserted);
      } else {
        gid = key_map->FindOrInsert(keys[i], &inserted);
      }
      if (inserted) on_new_group(i);
      (*group_of_row)[i] = static_cast<uint32_t>(gid);
    }
  } else {
    // Byte keys are complete even for NULL-bearing tuples (per-column null
    // tags), so they group exactly without special casing.
    std::vector<std::string> keys;
    std::vector<uint8_t> valid;
    encode_bytes(&keys, &valid);
    for (size_t i = 0; i < num_rows; ++i) {
      int64_t gid = key_map->FindOrInsert(keys[i], &inserted);
      if (inserted) on_new_group(i);
      (*group_of_row)[i] = static_cast<uint32_t>(gid);
    }
  }
}

}  // namespace

void EncodeAndAssignGroups(const KeyEncoder& encoder, DenseKeyMap* key_map,
                           const Batch& batch,
                           std::vector<uint32_t>* group_of_row,
                           const std::function<void(size_t)>& on_new_group) {
  AssignGroupsImpl(
      encoder, key_map, batch.num_rows, group_of_row, on_new_group,
      [&](std::vector<int64_t>* k, std::vector<uint8_t>* v) {
        encoder.EncodeInts(batch, k, v);
      },
      [&](std::vector<std::string>* k, std::vector<uint8_t>* v) {
        encoder.EncodeBytes(batch, k, v);
      },
      [&](size_t i) { return encoder.EncodeBytesRow(batch, i); });
}

void EncodeAndAssignGroupsCols(const KeyEncoder& encoder,
                               DenseKeyMap* key_map,
                               const std::vector<ColumnVector>& key_cols,
                               size_t num_rows,
                               std::vector<uint32_t>* group_of_row,
                               const std::function<void(size_t)>& on_new_group) {
  AssignGroupsImpl(
      encoder, key_map, num_rows, group_of_row, on_new_group,
      [&](std::vector<int64_t>* k, std::vector<uint8_t>* v) {
        encoder.EncodeIntsCols(key_cols, num_rows, k, v);
      },
      [&](std::vector<std::string>* k, std::vector<uint8_t>* v) {
        encoder.EncodeBytesCols(key_cols, num_rows, k, v);
      },
      [&](size_t i) { return encoder.EncodeBytesRowCols(key_cols, i); });
}

// ---------------- DenseKeyMap ----------------

int64_t DenseKeyMap::Find(const std::string& key) const {
  auto it = bytes_map_.find(key);
  return it == bytes_map_.end() ? -1 : it->second;
}

void DenseKeyMap::FindBatch(const int64_t* keys, size_t n,
                            int64_t* ids) const {
  if (int_size_ == 0) {
    std::fill(ids, ids + n, -1);
    return;
  }
  // ids[i] holds key i's home slot until its lookup overwrites it.
  for (size_t i = 0; i < n; ++i) {
    ids[i] = static_cast<int64_t>(HashKey64(static_cast<uint64_t>(keys[i])) &
                                  mask_);
  }
  for (size_t i = 0; i < std::min(n, kPrefetchDistance); ++i) {
    __builtin_prefetch(&slots_[static_cast<size_t>(ids[i])]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n) {
      __builtin_prefetch(
          &slots_[static_cast<size_t>(ids[i + kPrefetchDistance])]);
    }
    ids[i] = FindFrom(keys[i], static_cast<size_t>(ids[i]));
  }
}

int64_t DenseKeyMap::FindOrInsert(int64_t key, bool* out_inserted) {
  if (slots_.empty()) Rehash(kMinSlots);
  size_t i = HashKey64(static_cast<uint64_t>(key)) & mask_;
  for (;; i = (i + 1) & mask_) {
    const Slot& s = slots_[i];
    if (s.id < 0) break;
    if (s.key == key) {
      *out_inserted = false;
      return s.id;
    }
  }
  // Miss: keep the load factor at or below 3/4, then claim the first empty
  // slot on the key's (possibly re-homed) probe path.
  if (OverLoaded(int_size_ + 1, slots_.size())) {
    Rehash(slots_.size() * 2);
    i = HashKey64(static_cast<uint64_t>(key)) & mask_;
    while (slots_[i].id >= 0) i = (i + 1) & mask_;
  }
  int64_t id = NextId();
  slots_[i] = Slot{key, id};
  ++int_size_;
  *out_inserted = true;
  return id;
}

int64_t DenseKeyMap::FindOrInsert(const std::string& key, bool* out_inserted) {
  auto [it, inserted] = bytes_map_.emplace(key, NextId());
  *out_inserted = inserted;
  if (inserted) bytes_key_payload_ += key.size();
  return it->second;
}

void DenseKeyMap::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{0, -1});
  mask_ = capacity - 1;
  for (const Slot& s : old) {
    if (s.id < 0) continue;
    size_t i = HashKey64(static_cast<uint64_t>(s.key)) & mask_;
    while (slots_[i].id >= 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

int64_t DenseKeyMap::NullId(bool* out_inserted) {
  *out_inserted = null_id_ < 0;
  if (null_id_ < 0) null_id_ = NextId();
  return null_id_;
}

uint64_t DenseKeyMap::MemoryBytes() const {
  // Slot array capacity; byte keys (the generic path, or NULL-bearing
  // packed tuples in int mode) add buckets + nodes + key payload.
  return slots_.capacity() * kSlotBytes + bytes_map_.bucket_count() * 8 +
         bytes_map_.size() * 48 + bytes_key_payload_;
}

void DenseKeyMap::Clear() {
  if (int_size_ > 0) std::fill(slots_.begin(), slots_.end(), Slot{0, -1});
  int_size_ = 0;
  bytes_map_.clear();
  null_id_ = -1;
  bytes_key_payload_ = 0;
}

// ---------------- JoinHashTable ----------------

uint64_t HashKeyBytes(std::string_view s) {
  // FNV-1a, then one splitmix round so the *high* bits (the radix) mix.
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return HashKey64(h);
}

Status JoinHashTable::Init(const Schema& build_schema,
                           const std::vector<std::string>& key_cols) {
  schema_ = build_schema;
  BDCC_RETURN_NOT_OK(encoder_.Bind(build_schema, key_cols));
  columns_.clear();
  for (const Field& f : build_schema.fields()) columns_.emplace_back(f.type);
  Clear();
  return Status::OK();
}

Status JoinHashTable::AddBatch(const Batch& batch) {
  // Materialize the batch's logical rows: one bulk gather per column.
  const uint32_t* rows = batch.sel.data();
  std::vector<uint32_t> identity;
  if (!batch.has_sel()) {
    identity.resize(batch.num_rows);
    for (size_t r = 0; r < batch.num_rows; ++r) {
      identity[r] = static_cast<uint32_t>(r);
    }
    rows = identity.data();
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendGather(batch.columns[c], rows, batch.num_rows);
  }
  // Index rows under their keys; NULL keys never match.
  auto link_all = [&](const auto& keys, const std::vector<uint8_t>& valid) {
    for (size_t r = 0; r < batch.num_rows; ++r) {
      uint32_t row = static_cast<uint32_t>(num_rows_++);
      int64_t id = -1;
      bool inserted = false;
      if (valid[r]) id = key_ids_.FindOrInsert(keys[r], &inserted);
      if (!chained_) {
        if (inserted) continue;  // a fresh key's id is its row
        ChainRowsSoFar(row);
      }
      if (id < 0) {
        next_.push_back(kEnd);
        continue;
      }
      if (static_cast<size_t>(id) >= heads_.size()) {
        heads_.resize(id + 1, kEnd);
      }
      next_.push_back(heads_[id]);
      heads_[id] = row;
    }
  };
  std::vector<uint8_t> valid;
  if (encoder_.int_path()) {
    std::vector<int64_t> keys;
    encoder_.EncodeInts(batch, &keys, &valid);
    link_all(keys, valid);
  } else {
    std::vector<std::string> keys;
    encoder_.EncodeBytes(batch, &keys, &valid);
    link_all(keys, valid);
  }
  column_bytes_ = 0;
  for (const ColumnVector& c : columns_) column_bytes_ += ColumnVectorBytes(c);
  return Status::OK();
}

void JoinHashTable::ChainRowsSoFar(uint32_t rows) {
  // Power-of-two capacities, as if both arrays had grown row by row since
  // the first: later doublings then reach exactly the same sizes.
  const size_t capacity = size_t{1} << bits::CeilLog2(rows);
  heads_.reserve(capacity);
  next_.reserve(capacity);
  heads_.resize(rows);
  std::iota(heads_.begin(), heads_.end(), 0u);
  next_.assign(rows, kEnd);
  chained_ = true;
}

uint64_t JoinHashTable::MemoryBytes() const {
  return column_bytes_ + heads_.capacity() * 4 + next_.capacity() * 4 +
         key_ids_.MemoryBytes();
}

void JoinHashTable::Clear() {
  for (ColumnVector& c : columns_) {
    ColumnVector fresh(c.type);
    fresh.dict = std::move(c.dict);
    c = std::move(fresh);
  }
  key_ids_ = DenseKeyMap();
  num_rows_ = 0;
  chained_ = false;
  heads_ = std::vector<uint32_t>();
  next_ = std::vector<uint32_t>();
  column_bytes_ = 0;
}

}  // namespace exec
}  // namespace bdcc
