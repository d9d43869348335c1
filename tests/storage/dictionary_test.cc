// Dictionary index: a differential check against std::unordered_map over
// about a million interns, and concurrent reads of a frozen dictionary (the
// TSan job runs DictionaryConcurrency by name).
#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/dictionary.h"

namespace bdcc {
namespace {

// Random strings of 0..20 bytes over a small alphabet with a NUL and a high
// byte, so the pool holds empty strings, embedded NULs, duplicates and many
// shared prefixes.
std::vector<std::string> StringPool(uint64_t seed, size_t n) {
  static const char kAlphabet[] = {'\0', 'a', 'b', 'c', '\xff', ' ', 'x', 'y'};
  Rng rng(seed);
  std::vector<std::string> pool(n);
  for (std::string& s : pool) {
    s.resize(static_cast<size_t>(rng.Uniform(0, 20)));
    for (char& c : s) c = kAlphabet[rng.Uniform(0, 7)];
  }
  return pool;
}

TEST(DictionaryTest, MatchesUnorderedMapDifferential) {
  const std::vector<std::string> pool = StringPool(41, 200000);
  Dictionary dict;
  std::unordered_map<std::string, int32_t> reference;
  std::vector<const std::string*> inserted;  // insertion order
  uint64_t payload = 0;
  Rng rng(42);
  for (int call = 0; call < 1000000; ++call) {
    const std::string& s =
        pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))];
    auto [it, fresh] =
        reference.emplace(s, static_cast<int32_t>(reference.size()));
    if (fresh) {
      inserted.push_back(&it->first);
      payload += s.size();
    }
    ASSERT_EQ(dict.GetOrAdd(s), it->second) << "call " << call;
  }
  ASSERT_GT(reference.size(), 100000u);  // grown many times over

  // Codes are dense in insertion order, and every string finds its code.
  ASSERT_EQ(dict.size(), static_cast<int32_t>(inserted.size()));
  for (size_t code = 0; code < inserted.size(); ++code) {
    ASSERT_EQ(dict.Get(static_cast<int32_t>(code)), *inserted[code]);
    ASSERT_EQ(dict.Find(*inserted[code]), static_cast<int32_t>(code));
  }
  EXPECT_EQ(dict.payload_bytes(), payload);

  // Absent strings: longer than any pooled one, or pooled ones never drawn.
  int absent = 0;
  for (const std::string& s : StringPool(43, 20000)) {
    std::string probe = reference.count(s) ? s + std::string(21, 'z') : s;
    ASSERT_EQ(reference.count(probe), 0u);
    EXPECT_EQ(dict.Find(probe), -1);
    ++absent;
  }
  EXPECT_EQ(absent, 20000);
  EXPECT_EQ(dict.size(), static_cast<int32_t>(inserted.size()));
}

TEST(DictionaryConcurrency, FrozenFindFromFourThreads) {
  const std::vector<std::string> pool = StringPool(51, 50000);
  Dictionary dict;
  std::vector<int32_t> code_of(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) code_of[i] = dict.GetOrAdd(pool[i]);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t k = 0; k < pool.size(); ++k) {
        size_t i = (k * 7 + static_cast<size_t>(t) * 12289) % pool.size();
        if (dict.Find(pool[i]) != code_of[i]) ++mismatches;
        if (dict.Get(code_of[i]) != pool[i]) ++mismatches;
        if (dict.Find(pool[i] + std::string(21, 'z')) != -1) ++mismatches;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace bdcc
