// Storage-footprint ablation and CI gate on the paper's storage shape. The
// paper notes "all three schemes use automatic compression, take roughly
// 55GB on disk" — i.e. BDCC's reordering does not inflate storage. This
// bench reads the compressed footprint of the Plain and BDCC layouts off
// the encoded lanes TpchDb built (compression::FootprintBytes: per-block
// raw / RLE / FOR-bitpack, the same choice the scan executes on), prints
// per-table ratios and each scheme's per-codec block totals, and exits
// non-zero when BDCC/plain leaves [0.90, 1.10].
#include <cstdio>

#include "bench/bench_util.h"
#include "storage/compression/encoded_column.h"

using namespace bdcc;         // NOLINT
using namespace bdcc::bench;  // NOLINT

namespace {

constexpr double kMinRatio = 0.90;
constexpr double kMaxRatio = 1.10;

struct Footprint {
  uint64_t raw = 0;
  uint64_t compressed = 0;
  uint64_t blocks_by_codec[compression::kNumCodecs] = {0, 0, 0};

  Footprint& operator+=(const Footprint& o) {
    raw += o.raw;
    compressed += o.compressed;
    for (int k = 0; k < compression::kNumCodecs; ++k) {
      blocks_by_codec[k] += o.blocks_by_codec[k];
    }
    return *this;
  }
};

Footprint Measure(const Table& t) {
  Footprint f;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(static_cast<int>(c));
    f.raw += col.DiskBytes();
    f.compressed += compression::FootprintBytes(col, t.zone_rows());
    if (col.encoded() == nullptr) continue;
    for (int k = 0; k < compression::kNumCodecs; ++k) {
      f.blocks_by_codec[k] += col.encoded()->blocks_by_codec()[k];
    }
  }
  return f;
}

void PrintBlocks(const char* scheme, const Footprint& f) {
  using compression::Codec;
  uint64_t raw = f.blocks_by_codec[static_cast<int>(Codec::kRaw)];
  uint64_t rle = f.blocks_by_codec[static_cast<int>(Codec::kRle)];
  uint64_t bitpack = f.blocks_by_codec[static_cast<int>(Codec::kBitPack)];
  std::printf("blocks_by_codec %-5s raw=%llu rle=%llu bitpack=%llu\n",
              scheme, static_cast<unsigned long long>(raw),
              static_cast<unsigned long long>(rle),
              static_cast<unsigned long long>(bitpack));
  JsonLine("compression_ablation_blocks")
      .Str("scheme", scheme)
      .Num("raw_blocks", static_cast<double>(raw))
      .Num("rle_blocks", static_cast<double>(rle))
      .Num("bitpack_blocks", static_cast<double>(bitpack))
      .Num("compressed_bytes", static_cast<double>(f.compressed))
      .Emit();
}

}  // namespace

int main() {
  double sf = BenchScaleFactor(0.02);
  std::printf("== Storage footprint: plain vs BDCC, automatic compression "
              "(SF %.3f) ==\n\n",
              sf);
  tpch::TpchDbOptions options;
  options.scale_factor = sf;
  options.build_pk = false;
  auto db = tpch::TpchDb::Create(options).ValueOrDie();

  std::printf("%-10s | %10s %12s %12s | ratio plain  ratio bdcc\n", "table",
              "raw", "plain-comp", "bdcc-comp");
  Footprint plain_total, bdcc_total;
  for (const auto& [name, bt] : db->bdcc_tables()) {
    Footprint fp = Measure(*db->plain().storage(name));
    Footprint fb = Measure(bt.data());
    plain_total += fp;
    bdcc_total += fb;
    std::printf("%-10s | %10s %12s %12s | %10.2fx %10.2fx\n", name.c_str(),
                HumanBytes(fp.raw).c_str(), HumanBytes(fp.compressed).c_str(),
                HumanBytes(fb.compressed).c_str(),
                double(fp.raw) / double(fp.compressed),
                double(fb.raw) / double(fb.compressed));
    JsonLine("compression_ablation")
        .Str("table", name)
        .Num("raw_bytes", static_cast<double>(fp.raw))
        .Num("plain_compressed_bytes", static_cast<double>(fp.compressed))
        .Num("bdcc_compressed_bytes", static_cast<double>(fb.compressed))
        .Emit();
  }
  std::printf("-----------+\n");
  std::printf("%-10s | %10s %12s %12s |\n\n", "total",
              HumanBytes(plain_total.raw).c_str(),
              HumanBytes(plain_total.compressed).c_str(),
              HumanBytes(bdcc_total.compressed).c_str());
  PrintBlocks("plain", plain_total);
  PrintBlocks("bdcc", bdcc_total);

  double ratio = double(bdcc_total.compressed) / double(plain_total.compressed);
  bool ok = ratio >= kMinRatio && ratio <= kMaxRatio;
  std::printf(
      "\nshape check: BDCC compressed size within ±10%% of plain "
      "(paper: both ~55GB at SF100). measured bdcc/plain = %.3f -> %s\n"
      "(the BDCC layout additionally stores the sorted int64 _bdcc_ key "
      "column, sized by the same per-block rule)\n",
      ratio, ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
