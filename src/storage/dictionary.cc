#include "storage/dictionary.h"

#include <algorithm>
#include <functional>
#include <numeric>

namespace bdcc {

namespace {

uint32_t HashOf(std::string_view s) {
  uint64_t h = std::hash<std::string_view>{}(s);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace

int32_t Dictionary::GetOrAdd(std::string_view s) {
  if (slots_.empty()) Grow();
  const uint32_t hash = HashOf(s);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code < 0) break;
    if (slot.hash == hash && entries_[static_cast<size_t>(slot.code)] == s) {
      return slot.code;
    }
  }
  std::string_view stored = arena_.Intern(s);
  int32_t code = static_cast<int32_t>(entries_.size());
  entries_.push_back(stored);
  slots_[i] = Slot{hash, code};
  payload_bytes_ += stored.size();
  if (entries_.size() * 2 > slots_.size()) Grow();
  return code;
}

int32_t Dictionary::Find(std::string_view s) const {
  if (slots_.empty()) return -1;
  const uint32_t hash = HashOf(s);
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.code < 0) return -1;
    if (slot.hash == hash && entries_[static_cast<size_t>(slot.code)] == s) {
      return slot.code;
    }
  }
}

void Dictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.code < 0) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].code >= 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

const std::vector<int32_t>& Dictionary::LexRanks() const {
  if (ranks_valid_for_ != entries_.size()) {
    std::vector<int32_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return entries_[static_cast<size_t>(a)] <
             entries_[static_cast<size_t>(b)];
    });
    lex_ranks_.assign(entries_.size(), 0);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      lex_ranks_[static_cast<size_t>(order[rank])] =
          static_cast<int32_t>(rank);
    }
    ranks_valid_for_ = entries_.size();
  }
  return lex_ranks_;
}

}  // namespace bdcc
