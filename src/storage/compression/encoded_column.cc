#include "storage/compression/encoded_column.h"

#include <algorithm>
#include <cstring>

#include "common/bits.h"
#include "common/macros.h"
#include "exec/kernels/kernels.h"
#include "storage/column.h"

namespace bdcc {
namespace compression {

namespace {

// 8-byte window loads in Unpack may start at the last payload byte.
constexpr size_t kPackPad = 8;
constexpr size_t kUnpackChunk = 128;

size_t BitPackedSize(size_t count, int bit_width) {
  return (count * static_cast<size_t>(bit_width) + 7) / 8;
}

// LSB-first pack of (v[i] - base) at `width` bits, plus kPackPad zero
// bytes. width <= kMaxPackWidth, so a value shifted by up to 7 bits fits
// one 8-byte window.
std::vector<uint8_t> BitPack(const int32_t* v, size_t count, int32_t base,
                             int width) {
  std::vector<uint8_t> out(BitPackedSize(count, width) + kPackPad, 0);
  uint64_t bitpos = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t w;
    std::memcpy(&w, out.data() + (bitpos >> 3), 8);
    w |= static_cast<uint64_t>(static_cast<int64_t>(v[i]) - base)
         << (bitpos & 7);
    std::memcpy(out.data() + (bitpos >> 3), &w, 8);
    bitpos += static_cast<uint64_t>(width);
  }
  return out;
}

// Unpack count values starting at value index start_idx, adding `base`.
void Unpack(const uint8_t* packed, uint64_t start_idx, size_t count,
            int width, int32_t base, int32_t* out) {
  uint64_t bitpos = start_idx * static_cast<uint64_t>(width);
  const uint64_t low = bits::LowMask(width);
  for (size_t i = 0; i < count; ++i) {
    uint64_t w;
    std::memcpy(&w, packed + (bitpos >> 3), 8);
    out[i] = base + static_cast<int32_t>((w >> (bitpos & 7)) & low);
    bitpos += static_cast<uint64_t>(width);
  }
}

// What the codec chooser needs to know about one block.
struct BlockShape {
  size_t rows = 0;
  size_t runs = 0;
  int64_t min = 0;
  int64_t max = 0;
};

// One pass over a non-empty block: run count for RLE, min/max for the
// FOR-bitpack width.
template <typename T>
BlockShape ShapeOf(const T* v, size_t n) {
  BlockShape s{n, 1, v[0], v[0]};
  for (size_t i = 1; i < n; ++i) {
    s.runs += v[i] != v[i - 1];
    s.min = std::min<int64_t>(s.min, v[i]);
    s.max = std::max<int64_t>(s.max, v[i]);
  }
  return s;
}

struct CodecChoice {
  Codec codec = Codec::kRaw;
  int bit_width = 0;  // kBitPack only
  size_t bytes = 0;
};

// The one per-block codec chooser: raw, RLE as (value, uint32 run end)
// pairs, or FOR-bitpack when the block's range fits kMaxPackWidth bits —
// whichever is smallest, ties going to the earlier. `value_bytes` is the
// lane's width (4 for i32 lanes, 8 for int64).
CodecChoice ChooseCodec(const BlockShape& s, size_t value_bytes) {
  CodecChoice c{Codec::kRaw, 0, s.rows * value_bytes};
  size_t rle = s.runs * (value_bytes + 4);
  if (rle < c.bytes) c = {Codec::kRle, 0, rle};
  uint64_t range = static_cast<uint64_t>(s.max) - static_cast<uint64_t>(s.min);
  if (range < (uint64_t{1} << EncodedLane::kMaxPackWidth)) {
    int width = std::max(1, bits::CeilLog2(range + 1));
    size_t packed = BitPackedSize(s.rows, width);
    if (packed < c.bytes) c = {Codec::kBitPack, width, packed};
  }
  return c;
}

// Footprint of a lane with no EncodedLane: the chooser's bytes per block.
template <typename T>
uint64_t SizeBlocks(const std::vector<T>& lane, uint32_t block_rows) {
  uint64_t bytes = 0;
  for (uint64_t at = 0; at < lane.size(); at += block_rows) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(block_rows, lane.size() - at));
    bytes += ChooseCodec(ShapeOf(lane.data() + at, n), sizeof(T)).bytes;
  }
  return bytes;
}

using SpanVerdict = EncodedLane::SpanVerdict;

SpanVerdict VerdictOf(uint64_t pass, uint64_t total) {
  if (pass == total) return SpanVerdict::kAllPass;
  if (pass == 0) return SpanVerdict::kNonePass;
  return SpanVerdict::kMixed;
}

}  // namespace

EncodedLane EncodedLane::Build(const int32_t* lane, uint64_t rows,
                               uint32_t block_rows) {
  BDCC_CHECK(block_rows > 0);
  EncodedLane out;
  out.rows_ = rows;
  out.block_rows_ = block_rows;
  out.blocks_.reserve(static_cast<size_t>((rows + block_rows - 1) /
                                          block_rows));
  for (uint64_t at = 0; at < rows; at += block_rows) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(block_rows, rows - at));
    const int32_t* v = lane + at;
    BlockShape shape = ShapeOf(v, n);
    CodecChoice choice = ChooseCodec(shape, sizeof(int32_t));

    Block b;
    b.codec = choice.codec;
    b.row_begin = at;
    b.row_end = at + n;
    switch (b.codec) {
      case Codec::kRle: {
        b.rle_values.reserve(shape.runs);
        b.rle_ends.reserve(shape.runs);
        size_t i = 0;
        while (i < n) {
          size_t j = i + 1;
          while (j < n && v[j] == v[i]) ++j;
          b.rle_values.push_back(v[i]);
          b.rle_ends.push_back(static_cast<uint32_t>(j));
          i = j;
        }
        break;
      }
      case Codec::kBitPack:
        b.for_base = static_cast<int32_t>(shape.min);
        b.bit_width = choice.bit_width;
        b.packed = BitPack(v, n, b.for_base, b.bit_width);
        break;
      default:
        break;  // raw: evaluate over the flat lane
    }
    out.blocks_by_codec_[static_cast<int>(b.codec)]++;
    out.encoded_bytes_ += choice.bytes;
    out.blocks_.push_back(std::move(b));
  }
  return out;
}

template <typename Eval>
SpanVerdict EncodedLane::EvalBlocks(uint64_t begin, uint64_t end,
                                    uint8_t* mask, Eval&& eval) const {
  BDCC_CHECK(end <= rows_ && begin <= end);
  bool all_pass = true, none_pass = true;
  uint64_t bi = begin / block_rows_;
  for (uint64_t cur = begin; cur < end;) {
    const Block& blk = blocks_[bi];
    uint64_t e = std::min<uint64_t>(end, blk.row_end);
    SpanVerdict v = eval(blk, cur, e, mask + (cur - begin));
    all_pass &= v == SpanVerdict::kAllPass;
    none_pass &= v == SpanVerdict::kNonePass;
    cur = e;
    ++bi;
  }
  if (all_pass && begin < end) return SpanVerdict::kAllPass;
  if (none_pass && begin < end) return SpanVerdict::kNonePass;
  return SpanVerdict::kMixed;
}

template <typename Fn>
inline void EncodedLane::ForEachRun(const Block& b, uint64_t s, uint64_t e,
                                    Fn&& fn) {
  uint32_t rs = static_cast<uint32_t>(s - b.row_begin);
  uint32_t re = static_cast<uint32_t>(e - b.row_begin);
  size_t r = std::upper_bound(b.rle_ends.begin(), b.rle_ends.end(), rs) -
             b.rle_ends.begin();
  for (uint32_t cur = rs; cur < re; ++r) {
    uint32_t run_end = std::min(b.rle_ends[r], re);
    fn(size_t{cur - rs}, size_t{run_end - cur}, b.rle_values[r]);
    cur = run_end;
  }
}

SpanVerdict EncodedLane::RangeMask(const int32_t* flat, uint64_t begin,
                                   uint64_t end, int32_t lo, int32_t hi,
                                   uint8_t* mask) const {
  return EvalBlocks(
      begin, end, mask,
      [&](const Block& b, uint64_t s, uint64_t e,
          uint8_t* seg) -> SpanVerdict {
        size_t len = static_cast<size_t>(e - s);
        switch (b.codec) {
          case Codec::kRle: {
            // One comparison per run; failing runs zero their mask span
            // wholesale (run-granular selection).
            uint64_t pass = 0;
            ForEachRun(b, s, e, [&](size_t at, size_t n, int32_t val) {
              if (val >= lo && val <= hi) {
                pass += n;
              } else {
                std::memset(seg + at, 0, n);
              }
            });
            return VerdictOf(pass, len);
          }
          case Codec::kBitPack: {
            // Compare in the packed (frame-of-reference) domain.
            int64_t pl = static_cast<int64_t>(lo) - b.for_base;
            int64_t ph = static_cast<int64_t>(hi) - b.for_base;
            int64_t pmax = (int64_t{1} << b.bit_width) - 1;
            if (ph < 0 || pl > pmax) {
              std::memset(seg, 0, len);
              return SpanVerdict::kNonePass;
            }
            if (pl <= 0 && ph >= pmax) return SpanVerdict::kAllPass;
            int32_t plo = static_cast<int32_t>(std::max<int64_t>(pl, 0));
            int32_t phi = static_cast<int32_t>(std::min(ph, pmax));
            int32_t buf[kUnpackChunk];
            uint64_t idx0 = s - b.row_begin;
            for (size_t off = 0; off < len; off += kUnpackChunk) {
              size_t m = std::min(kUnpackChunk, len - off);
              Unpack(b.packed.data(), idx0 + off, m, b.bit_width, 0, buf);
              exec::kernels::RangeMaskI32(buf, m, plo, phi, seg + off);
            }
            return SpanVerdict::kMixed;
          }
          default:
            exec::kernels::RangeMaskI32(flat + s, len, lo, hi, seg);
            return SpanVerdict::kMixed;
        }
      });
}

SpanVerdict EncodedLane::VerdictMask(const int32_t* flat, uint64_t begin,
                                     uint64_t end, const uint8_t* ok,
                                     size_t num_codes, uint8_t* mask) const {
  return EvalBlocks(
      begin, end, mask,
      [&](const Block& b, uint64_t s, uint64_t e,
          uint8_t* seg) -> SpanVerdict {
        size_t len = static_cast<size_t>(e - s);
        switch (b.codec) {
          case Codec::kRle: {
            uint64_t pass = 0;
            ForEachRun(b, s, e, [&](size_t at, size_t n, int32_t val) {
              uint32_t code = static_cast<uint32_t>(val);
              if (code < num_codes && ok[code]) {
                pass += n;
              } else {
                std::memset(seg + at, 0, n);
              }
            });
            return VerdictOf(pass, len);
          }
          case Codec::kBitPack: {
            int32_t buf[kUnpackChunk];
            uint64_t idx0 = s - b.row_begin;
            for (size_t off = 0; off < len; off += kUnpackChunk) {
              size_t m = std::min(kUnpackChunk, len - off);
              Unpack(b.packed.data(), idx0 + off, m, b.bit_width,
                     b.for_base, buf);
              for (size_t j = 0; j < m; ++j) {
                uint32_t code = static_cast<uint32_t>(buf[j]);
                seg[off + j] &=
                    code < num_codes ? ok[code] : uint8_t{0};
              }
            }
            return SpanVerdict::kMixed;
          }
          default:
            exec::kernels::VerdictMaskI32(flat + s, len, ok, seg);
            return SpanVerdict::kMixed;
        }
      });
}

void EncodedLane::DecodeSpan(const int32_t* flat, uint64_t begin,
                             uint64_t end, int32_t* out) const {
  BDCC_CHECK(end <= rows_ && begin <= end);
  uint64_t bi = begin / block_rows_;
  for (uint64_t cur = begin; cur < end;) {
    const Block& b = blocks_[bi];
    uint64_t e = std::min<uint64_t>(end, b.row_end);
    size_t len = static_cast<size_t>(e - cur);
    int32_t* dst = out + (cur - begin);
    switch (b.codec) {
      case Codec::kRle:
        ForEachRun(b, cur, e, [&](size_t at, size_t n, int32_t val) {
          std::fill_n(dst + at, n, val);
        });
        break;
      case Codec::kBitPack:
        Unpack(b.packed.data(), cur - b.row_begin, len, b.bit_width,
               b.for_base, dst);
        break;
      default:
        std::memcpy(dst, flat + cur, len * 4);
        break;
    }
    cur = e;
    ++bi;
  }
}

uint64_t FootprintBytes(const Column& column, uint32_t block_rows) {
  switch (column.type()) {
    case TypeId::kInt64:
      return SizeBlocks(column.i64(), block_rows);
    case TypeId::kFloat64:
      return column.DiskBytes();  // no float codec
    default:
      break;
  }
  uint64_t bytes = column.encoded() != nullptr
                       ? column.encoded()->encoded_bytes()
                       : SizeBlocks(column.i32(), block_rows);
  if (column.type() == TypeId::kString) {
    bytes += column.dict()->payload_bytes();
  }
  return bytes;
}

}  // namespace compression
}  // namespace bdcc
