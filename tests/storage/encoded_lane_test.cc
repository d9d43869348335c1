// EncodedLane property tests: per-block codec choice, DecodeSpan round-trip
// against the flat lane, and RangeMask/VerdictMask equality with a scalar
// reference over adversarial lane shapes (constant blocks, max-length runs,
// alternating values, ragged tails, extreme int32 bounds, empty lanes).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/compression/encoded_column.h"

namespace bdcc {
namespace compression {
namespace {

constexpr int32_t kI32Min = std::numeric_limits<int32_t>::min();
constexpr int32_t kI32Max = std::numeric_limits<int32_t>::max();

using Verdict = EncodedLane::SpanVerdict;

// The lane shapes the codecs care about.
std::vector<int32_t> ConstantLane(size_t n, int32_t v) {
  return std::vector<int32_t>(n, v);
}
std::vector<int32_t> RunsLane(size_t n, Rng* rng, int max_run,
                              int32_t lo, int32_t hi) {
  std::vector<int32_t> lane;
  lane.reserve(n);
  while (lane.size() < n) {
    int32_t v = static_cast<int32_t>(rng->Uniform(lo, hi));
    size_t run = static_cast<size_t>(rng->Uniform(1, max_run));
    for (size_t i = 0; i < run && lane.size() < n; ++i) lane.push_back(v);
  }
  return lane;
}
std::vector<int32_t> AlternatingLane(size_t n, int32_t a, int32_t b) {
  std::vector<int32_t> lane(n);
  for (size_t i = 0; i < n; ++i) lane[i] = (i & 1) ? b : a;
  return lane;
}
std::vector<int32_t> RandomLane(size_t n, Rng* rng, int32_t lo, int32_t hi) {
  std::vector<int32_t> lane(n);
  for (size_t i = 0; i < n; ++i) {
    lane[i] = static_cast<int32_t>(rng->Uniform(lo, hi));
  }
  return lane;
}

struct NamedLane {
  const char* name;
  std::vector<int32_t> lane;
};

std::vector<NamedLane> AdversarialLanes() {
  Rng rng(41);
  std::vector<NamedLane> lanes;
  lanes.push_back({"empty", {}});
  lanes.push_back({"single", {42}});
  lanes.push_back({"constant_small", ConstantLane(100, 7)});
  lanes.push_back({"constant_blocks", ConstantLane(5000, -3)});
  lanes.push_back({"constant_int32_min", ConstantLane(1500, kI32Min)});
  lanes.push_back({"constant_int32_max", ConstantLane(1500, kI32Max)});
  // One run spanning several blocks: run length maxes out at the block
  // boundary, so prefix ends hit their largest representable values.
  lanes.push_back({"max_run_length", ConstantLane(3 * 1024 + 17, 99)});
  lanes.push_back({"alternating", AlternatingLane(2048, 5, 6)});
  lanes.push_back({"alternating_extremes",
                   AlternatingLane(1000, kI32Min, kI32Max)});
  lanes.push_back({"long_runs", RunsLane(6000, &rng, 400, -50, 50)});
  lanes.push_back({"short_runs", RunsLane(3000, &rng, 4, 0, 10)});
  lanes.push_back({"narrow_random", RandomLane(4000, &rng, 100, 160)});
  lanes.push_back({"wide_random", RandomLane(4000, &rng, kI32Min, kI32Max)});
  lanes.push_back({"negative_narrow", RandomLane(2000, &rng, -2000, -1990)});
  // Ragged tail: not a multiple of any block size we test with.
  lanes.push_back({"ragged", RandomLane(1031, &rng, 0, 7)});
  return lanes;
}

// Scalar reference for RangeMask.
std::vector<uint8_t> RefRangeMask(const std::vector<int32_t>& lane,
                                  uint64_t begin, uint64_t end, int32_t lo,
                                  int32_t hi,
                                  const std::vector<uint8_t>& init) {
  std::vector<uint8_t> mask = init;
  for (uint64_t i = begin; i < end; ++i) {
    uint8_t pass = lane[i] >= lo && lane[i] <= hi;
    mask[i - begin] = mask[i - begin] & pass;
  }
  return mask;
}

void CheckVerdictConsistent(Verdict v, const std::vector<uint8_t>& init,
                            const std::vector<uint8_t>& mask,
                            const std::vector<int32_t>& lane, uint64_t begin,
                            int32_t lo, int32_t hi, const char* name) {
  size_t n = mask.size();
  if (v == Verdict::kAllPass) {
    // All-pass means the predicate changed nothing.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mask[i], init[i]) << name << " i=" << i;
      ASSERT_TRUE(lane[begin + i] >= lo && lane[begin + i] <= hi)
          << name << " claims all-pass but row " << begin + i << " fails";
    }
  } else if (v == Verdict::kNonePass) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mask[i], 0) << name << " i=" << i;
      ASSERT_FALSE(lane[begin + i] >= lo && lane[begin + i] <= hi)
          << name << " claims none-pass but row " << begin + i << " passes";
    }
  }
}

TEST(EncodedLaneTest, CodecChoiceMatchesLaneShape) {
  const uint32_t block = 1024;
  {
    std::vector<int32_t> lane = ConstantLane(5000, -3);
    EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), block);
    EXPECT_GE(enc.blocks_by_codec()[static_cast<int>(Codec::kRle)], 4u);
    EXPECT_LT(enc.encoded_bytes(), lane.size() * 4);
  }
  {
    Rng rng(43);
    std::vector<int32_t> lane = RandomLane(5000, &rng, 100, 160);
    EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), block);
    EXPECT_GE(enc.blocks_by_codec()[static_cast<int>(Codec::kBitPack)], 4u);
    EXPECT_LT(enc.encoded_bytes(), lane.size() * 4);
  }
  {
    Rng rng(47);
    std::vector<int32_t> lane = RandomLane(5000, &rng, kI32Min, kI32Max);
    EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), block);
    EXPECT_GE(enc.blocks_by_codec()[static_cast<int>(Codec::kRaw)], 4u);
  }
  {
    EncodedLane enc = EncodedLane::Build(nullptr, 0, block);
    EXPECT_TRUE(enc.empty());
    EXPECT_EQ(enc.rows(), 0u);
  }
}

// Decodes the whole lane and random unaligned spans (including empty ones)
// and checks each against the flat lane, and that nothing past the span is
// written.
void CheckDecodeSpans(const std::string& name,
                      const std::vector<int32_t>& lane, uint32_t block,
                      Rng* rng) {
  EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), block);
  ASSERT_EQ(enc.rows(), lane.size()) << name;
  uint64_t rows = lane.size();
  std::vector<std::pair<uint64_t, uint64_t>> spans = {{0, rows}};
  for (int s = 0; s < 12 && rows > 0; ++s) {
    uint64_t a = rng->Uniform(0, rows - 1);
    uint64_t b = rng->Uniform(0, rows);
    spans.push_back({std::min(a, b), std::max(a, b)});
  }
  for (auto [begin, end] : spans) {
    std::vector<int32_t> out(end - begin + 1, -12345);
    enc.DecodeSpan(lane.data(), begin, end, out.data());
    for (uint64_t i = begin; i < end; ++i) {
      ASSERT_EQ(out[i - begin], lane[i])
          << name << " block=" << block << " span=[" << begin << "," << end
          << ") row=" << i;
    }
    EXPECT_EQ(out[end - begin], -12345) << name << ": overwrote past n";
  }
}

TEST(EncodedLaneTest, DecodeSpanRoundTrips) {
  Rng rng(53);
  for (const NamedLane& nl : AdversarialLanes()) {
    for (uint32_t block : {64u, 1024u}) {
      CheckDecodeSpans(nl.name, nl.lane, block, &rng);
    }
  }
}

// Every FOR-bitpack width: each 64-row block spans exactly
// [base, base + 2^width - 1] (base negative for odd widths), so every block
// packs at that width and must decode back to the flat lane.
TEST(BitPackTest, RoundTripAcrossWidths) {
  Rng rng(4);
  for (int width = 1; width <= EncodedLane::kMaxPackWidth; ++width) {
    const int64_t span = (int64_t{1} << width) - 1;
    const int32_t base = static_cast<int32_t>(width % 2 ? -span / 2 : 7);
    std::vector<int32_t> lane(64 * 5 + 9);
    for (size_t i = 0; i < lane.size(); ++i) {
      int64_t off = i % 64 == 0   ? 0
                    : i % 64 == 1 ? span
                                  : rng.Uniform(0, span);
      lane[i] = static_cast<int32_t>(base + off);
    }
    for (uint32_t block : {64u, 1024u}) {
      EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), block);
      EXPECT_EQ(enc.blocks_by_codec()[static_cast<int>(Codec::kBitPack)],
                (lane.size() + block - 1) / block)
          << "width " << width << " block=" << block;
      CheckDecodeSpans("for_width_" + std::to_string(width), lane, block,
                       &rng);
    }
  }
}

TEST(EncodedLaneTest, RangeMaskMatchesScalarReference) {
  Rng rng(59);
  for (const NamedLane& nl : AdversarialLanes()) {
    uint64_t rows = nl.lane.size();
    for (uint32_t block : {64u, 1024u}) {
      EncodedLane enc =
          EncodedLane::Build(nl.lane.data(), nl.lane.size(), block);
      std::vector<std::pair<uint64_t, uint64_t>> spans = {{0, rows}};
      for (int s = 0; s < 8 && rows > 0; ++s) {
        uint64_t a = rng.Uniform(0, rows - 1);
        uint64_t b = rng.Uniform(0, rows);
        spans.push_back({std::min(a, b), std::max(a, b)});
      }
      for (auto [begin, end] : spans) {
        size_t n = end - begin;
        // Bounds chosen to exercise all-pass, none-pass, and mixed.
        struct B { int32_t lo, hi; };
        std::vector<B> bounds = {{kI32Min, kI32Max},
                                 {0, 0},
                                 {kI32Max, kI32Max},
                                 {kI32Min, kI32Min},
                                 {-10, 10},
                                 {100, 130}};
        if (n > 0) {
          int32_t sample = nl.lane[begin + n / 2];
          bounds.push_back({sample, sample});
          bounds.push_back({sample, kI32Max});
          bounds.push_back({kI32Min, sample});
        }
        for (const B& b : bounds) {
          // Pre-ANDed mask: predicates must compose.
          std::vector<uint8_t> init(n);
          for (size_t i = 0; i < n; ++i) init[i] = rng.Uniform(0, 1);
          std::vector<uint8_t> want =
              RefRangeMask(nl.lane, begin, end, b.lo, b.hi, init);
          std::vector<uint8_t> got = init;
          Verdict v = enc.RangeMask(nl.lane.data(), begin, end, b.lo, b.hi,
                                    got.data());
          ASSERT_EQ(got, want)
              << nl.name << " block=" << block << " span=[" << begin << ","
              << end << ") lo=" << b.lo << " hi=" << b.hi;
          CheckVerdictConsistent(v, init, got, nl.lane, begin, b.lo, b.hi,
                                 nl.name);
        }
      }
    }
  }
}

TEST(EncodedLaneTest, RangeMaskVerdictsOnUniformSpans) {
  std::vector<int32_t> lane = ConstantLane(2048, 50);
  EncodedLane enc = EncodedLane::Build(lane.data(), lane.size(), 1024);
  std::vector<uint8_t> mask(2048, 1);
  EXPECT_EQ(enc.RangeMask(lane.data(), 0, 2048, 0, 100, mask.data()),
            Verdict::kAllPass);
  EXPECT_EQ(enc.RangeMask(lane.data(), 0, 2048, 60, 100, mask.data()),
            Verdict::kNonePass);
}

TEST(EncodedLaneTest, VerdictMaskMatchesScalarReference) {
  Rng rng(61);
  const size_t num_codes = 23;
  for (uint32_t block : {64u, 1024u}) {
    // Dict-code-shaped lanes: every value in [0, num_codes).
    std::vector<NamedLane> lanes;
    lanes.push_back({"code_runs", RunsLane(4000, &rng, 300, 0, num_codes - 1)});
    lanes.push_back({"code_random", RandomLane(4000, &rng, 0, num_codes - 1)});
    lanes.push_back({"code_constant", ConstantLane(3000, 17)});
    lanes.push_back({"code_empty", {}});
    for (const NamedLane& nl : lanes) {
      EncodedLane enc =
          EncodedLane::Build(nl.lane.data(), nl.lane.size(), block);
      uint64_t rows = nl.lane.size();
      std::vector<std::pair<uint64_t, uint64_t>> spans = {{0, rows}};
      for (int s = 0; s < 6 && rows > 0; ++s) {
        uint64_t a = rng.Uniform(0, rows - 1);
        uint64_t b = rng.Uniform(0, rows);
        spans.push_back({std::min(a, b), std::max(a, b)});
      }
      // ok tables: empty, full, one code, random.
      std::vector<std::vector<uint8_t>> tables;
      tables.emplace_back(num_codes, 0);
      tables.emplace_back(num_codes, 1);
      std::vector<uint8_t> one(num_codes, 0);
      one[17] = 1;
      tables.push_back(one);
      std::vector<uint8_t> rnd(num_codes);
      for (auto& x : rnd) x = rng.Uniform(0, 1);
      tables.push_back(rnd);
      for (auto [begin, end] : spans) {
        size_t n = end - begin;
        for (const std::vector<uint8_t>& ok : tables) {
          std::vector<uint8_t> init(n);
          for (size_t i = 0; i < n; ++i) init[i] = rng.Uniform(0, 1);
          std::vector<uint8_t> want = init;
          for (uint64_t i = begin; i < end; ++i) {
            want[i - begin] = want[i - begin] & ok[nl.lane[i]];
          }
          std::vector<uint8_t> got = init;
          Verdict v = enc.VerdictMask(nl.lane.data(), begin, end, ok.data(),
                                      num_codes, got.data());
          ASSERT_EQ(got, want) << nl.name << " block=" << block << " span=["
                               << begin << "," << end << ")";
          if (v == Verdict::kNonePass) {
            for (size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], 0);
          }
          if (v == Verdict::kAllPass) {
            for (size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], init[i]);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace compression
}  // namespace bdcc
