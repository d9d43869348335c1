// Insertion-ordered string dictionary with an order-preserving view.
#ifndef BDCC_STORAGE_DICTIONARY_H_
#define BDCC_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/macros.h"

namespace bdcc {

/// \brief Maps strings to dense int32 codes (insertion order).
///
/// Columns of TypeId::kString store codes; the dictionary owns the bytes.
/// BDCC dimensions on string keys need *value order*, which insertion codes
/// do not provide — LexRanks() supplies the permutation lazily.
///
/// The index is one open-addressing array (linear probing, power-of-two
/// capacity, at most half full) of {hash, code} slots: no node per string,
/// a probe compares the cached hash before any bytes, and growth re-slots
/// codes by their cached hashes without touching a payload. A dictionary no
/// longer written to may be read (Find, Get) from any number of threads.
class Dictionary {
 public:
  Dictionary() = default;
  BDCC_DISALLOW_COPY_AND_ASSIGN(Dictionary);

  /// Intern `s`, returning its code (existing or fresh).
  int32_t GetOrAdd(std::string_view s);

  /// Code of `s` or -1 if absent.
  int32_t Find(std::string_view s) const;

  std::string_view Get(int32_t code) const {
    BDCC_CHECK(code >= 0 && static_cast<size_t>(code) < entries_.size());
    return entries_[static_cast<size_t>(code)];
  }

  int32_t size() const { return static_cast<int32_t>(entries_.size()); }

  /// Total bytes of string payload (for disk-size accounting).
  uint64_t payload_bytes() const { return payload_bytes_; }

  /// \brief rank[code] = position of the string in lexicographic order.
  /// Recomputed when the dictionary grew since the last call.
  const std::vector<int32_t>& LexRanks() const;

 private:
  struct Slot {
    uint32_t hash = 0;
    int32_t code = -1;  // -1: empty
  };

  // Double the slot array and re-slot every code by its cached hash.
  void Grow();

  Arena arena_;
  std::vector<std::string_view> entries_;
  std::vector<Slot> slots_;  // size 0 or a power of two
  uint64_t payload_bytes_ = 0;
  mutable std::vector<int32_t> lex_ranks_;
  mutable size_t ranks_valid_for_ = 0;
};

}  // namespace bdcc

#endif  // BDCC_STORAGE_DICTIONARY_H_
