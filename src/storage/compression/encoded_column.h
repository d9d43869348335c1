// The compression stack ("automatic compression" in the paper's setup):
// a per-block encoded mirror of an int32 storage lane, and the footprint
// accounting read off it.
//
// Every block of block_rows values takes one codec from {raw, RLE,
// FOR-bitpack}, whichever encodes it in the fewest bytes; one function in
// encoded_column.cc makes that choice, for both readers of it:
//  - direct execution: range/equality sargs evaluate over the encoded form
//    (one comparison per RLE run, unpack-compare in registers for
//    bit-packed blocks, per-code verdict tables over dict-code lanes)
//    without ever decoding the chunk to a flat scratch buffer;
//  - footprint: FootprintBytes reports what a column costs compressed,
//    which is how the paper's "BDCC does not inflate storage" claim is
//    checked (bench/compression_ablation).
//
// The flat lane stays the source of truth for row emission and gathers —
// an EncodedLane is an auxiliary access path, like a zone map. Raw blocks
// store nothing and evaluate over the flat lane the caller passes in.
//
// Build after the table layout is final (like BuildZoneMaps); mutating the
// column afterwards leaves the encoding stale.
#ifndef BDCC_STORAGE_COMPRESSION_ENCODED_COLUMN_H_
#define BDCC_STORAGE_COMPRESSION_ENCODED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdcc {

class Column;

namespace compression {

enum class Codec : uint8_t { kRaw = 0, kRle = 1, kBitPack = 2 };
inline constexpr int kNumCodecs = 3;

class EncodedLane {
 public:
  static constexpr uint32_t kDefaultBlockRows = 4096;
  /// Bit-pack is only chosen when the frame-of-reference width fits packed
  /// values in a positive int32 (so SIMD signed compares apply unchanged).
  static constexpr int kMaxPackWidth = 30;

  /// Summary of one predicate over one span: lets callers skip per-row
  /// work when the encoding proves the span uniform.
  enum class SpanVerdict { kMixed, kAllPass, kNonePass };

  EncodedLane() = default;

  /// Encode lane[0..rows) in blocks of block_rows (last block ragged).
  static EncodedLane Build(const int32_t* lane, uint64_t rows,
                           uint32_t block_rows = kDefaultBlockRows);

  uint64_t rows() const { return rows_; }
  uint32_t block_rows() const { return block_rows_; }
  bool empty() const { return rows_ == 0; }
  /// Histogram of per-block codec choices, indexed by Codec.
  const uint64_t* blocks_by_codec() const { return blocks_by_codec_; }
  /// Bytes of the encoded payload (RLE pairs + packed bits; raw counts 4/row).
  uint64_t encoded_bytes() const { return encoded_bytes_; }

  /// mask[i] &= (lo <= lane[begin+i] <= hi) for i in [0, end-begin),
  /// evaluated over the encoded blocks. `flat` is the whole flat lane (raw
  /// blocks read it directly). Returns what this predicate alone proved
  /// about the span.
  SpanVerdict RangeMask(const int32_t* flat, uint64_t begin, uint64_t end,
                        int32_t lo, int32_t hi, uint8_t* mask) const;

  /// mask[i] &= ok[lane[begin+i]] — dict-code verdict table of size
  /// num_codes (all lane values must be in [0, num_codes)).
  SpanVerdict VerdictMask(const int32_t* flat, uint64_t begin, uint64_t end,
                          const uint8_t* ok, size_t num_codes,
                          uint8_t* mask) const;

  /// Decode rows [begin, end) into out — the flat-decode baseline path
  /// (bench comparison; raw blocks copy from `flat`).
  void DecodeSpan(const int32_t* flat, uint64_t begin, uint64_t end,
                  int32_t* out) const;

 private:
  struct Block {
    Codec codec = Codec::kRaw;
    uint64_t row_begin = 0;
    uint64_t row_end = 0;
    // kRle: runs as (value, inclusive-exclusive end) with block-relative
    // prefix ends; run r covers [r == 0 ? 0 : ends[r-1], ends[r]).
    std::vector<int32_t> rle_values;
    std::vector<uint32_t> rle_ends;
    // kBitPack: frame-of-reference base + LSB-first packed (lane - base),
    // padded so 8-byte window loads never overrun.
    int32_t for_base = 0;
    int bit_width = 0;
    std::vector<uint8_t> packed;
  };

  template <typename Eval>
  SpanVerdict EvalBlocks(uint64_t begin, uint64_t end, uint8_t* mask,
                         Eval&& eval) const;

  /// fn(offset, length, value) for each RLE run of `b` clipped to rows
  /// [s, e); offsets are relative to s.
  template <typename Fn>
  static void ForEachRun(const Block& b, uint64_t s, uint64_t e, Fn&& fn);

  uint64_t rows_ = 0;
  uint32_t block_rows_ = kDefaultBlockRows;
  uint64_t blocks_by_codec_[kNumCodecs] = {0, 0, 0};
  uint64_t encoded_bytes_ = 0;
  std::vector<Block> blocks_;
};

/// \brief Compressed footprint of `column` under the per-block chooser.
///
/// An i32-backed column with an encoded lane contributes the lane's
/// encoded_bytes(); a string column adds its dictionary payload once. A
/// column without a lane (int64, or an i32 lane never encoded) is sized by
/// the same rule over blocks of `block_rows` values without building
/// anything. float64 has no codec and counts raw. Never exceeds
/// column.DiskBytes().
uint64_t FootprintBytes(const Column& column,
                        uint32_t block_rows = EncodedLane::kDefaultBlockRows);

}  // namespace compression
}  // namespace bdcc

#endif  // BDCC_STORAGE_COMPRESSION_ENCODED_COLUMN_H_
