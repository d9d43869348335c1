#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>

#include "advisor/advisor.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"

namespace bdcc {
namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

// ------------------------------------------------------------ host speed --

namespace {

volatile uint64_t g_probe_sink;

}  // namespace

double ProbeMs() {
  constexpr size_t kKeys = 1 << 16;
  const Clock::time_point start = Clock::now();
  std::vector<uint64_t> keys(kKeys);
  Rng rng(7);
  for (uint64_t& k : keys) k = rng.Next() >> 20;
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(kKeys);
  for (uint64_t k : keys) table[k % (kKeys / 2)] += k;
  uint64_t sum = sorted[kKeys / 2];
  for (uint64_t k : keys) {
    auto it = table.find(k % kKeys);
    if (it != table.end()) sum += it->second;
  }
  g_probe_sink = sum;
  return MsSince(start);
}

void SampleHost(int n, std::vector<double>* samples) {
  for (int i = 0; i < n; ++i) samples->push_back(ProbeMs());
}

double HostScale(const std::vector<double>& samples) {
  return samples.empty() ? 1.0 : kProbeReferenceMs / Median(samples);
}

// ----------------------------------------------------------------- trace --

namespace {

thread_local std::vector<uint64_t> t_open_spans;

uint32_t ThreadTag() {
  static std::mutex mu;
  static std::map<std::thread::id, uint32_t> tags;
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = tags.emplace(std::this_thread::get_id(),
                                     static_cast<uint32_t>(tags.size() + 1));
  return it->second;
}

}  // namespace

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent, uint64_t request,
                    Attrs attrs, uint64_t id) {
  Event e;
  e.name = name;
  e.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  e.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  e.id = id != 0 ? id : NextId();
  e.parent = parent;
  e.request = request;
  e.tid = ThreadTag();
  e.attrs = std::move(attrs);
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

std::map<std::string, size_t> Tracer::CountByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, size_t> out;
  for (const Event& e : events_) ++out[e.name];
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fprintf(f,
                 "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu",
                 JsonString(e.name).c_str(), e.tid, e.start_us, e.dur_us,
                 static_cast<unsigned long long>(e.id),
                 static_cast<unsigned long long>(e.parent),
                 static_cast<unsigned long long>(e.request));
    for (const auto& [k, v] : e.attrs) {
      std::fprintf(f, ",%s:%s", JsonString(k).c_str(), JsonString(v).c_str());
    }
    std::fprintf(f, "}}%s\n", i + 1 < events_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, uint64_t request, Tracer::Attrs attrs)
    : name_(name), request_(request) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return;
  id_ = tracer.NextId();
  parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  attrs_ = std::move(attrs);
  t_open_spans.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  Clock::time_point end = Clock::now();
  t_open_spans.pop_back();
  GlobalTracer().Record(name_, start_, end, parent_, request_,
                        std::move(attrs_), id_);
}

// ----------------------------------------------------------- fingerprint --

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  return h ^ (h >> 33);
}

}  // namespace

Fingerprint FingerprintOf(const exec::Batch& batch) {
  Fingerprint fp;
  fp.rows = batch.num_rows;
  std::vector<int> float_cols;
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    if (batch.columns[c].type == TypeId::kFloat64) {
      float_cols.push_back(static_cast<int>(c));
    }
  }
  fp.weighted.assign(float_cols.size(), 0.0);
  fp.magnitude.assign(float_cols.size(), 0.0);
  for (size_t i = 0; i < batch.num_rows; ++i) {
    const uint32_t row = batch.RowAt(i);
    uint64_t h = 0x1234567;
    for (const exec::ColumnVector& col : batch.columns) {
      if (col.IsNull(row)) {
        h = Mix(h, 0xdeadbeef);
        continue;
      }
      switch (col.type) {
        case TypeId::kFloat64:
          break;
        case TypeId::kInt64:
          h = Mix(h, static_cast<uint64_t>(col.i64_data()[row]));
          break;
        case TypeId::kString:
          h = Mix(h, std::hash<std::string_view>()(col.GetString(row)));
          break;
        default:
          h = Mix(h, static_cast<uint64_t>(col.i32_data()[row]));
      }
    }
    fp.key_hash += Mix(h, 0x51);
    // Weight in [1, 2): ties each float to its row's key columns.
    const double w = 1.0 + static_cast<double>(h >> 11) * 0x1.0p-53;
    for (size_t k = 0; k < float_cols.size(); ++k) {
      const exec::ColumnVector& col = batch.columns[float_cols[k]];
      const double v = col.IsNull(row) ? 0.0 : col.f64_data()[row];
      fp.weighted[k] += v * w;
      fp.magnitude[k] += std::fabs(v * w);
    }
  }
  return fp;
}

bool Fingerprint::Matches(const Fingerprint& other, double rel_tol) const {
  if (rows != other.rows || key_hash != other.key_hash ||
      weighted.size() != other.weighted.size()) {
    return false;
  }
  for (size_t k = 0; k < weighted.size(); ++k) {
    double scale = std::max(magnitude[k], other.magnitude[k]);
    if (std::fabs(weighted[k] - other.weighted[k]) > rel_tol * scale + 1e-9) {
      return false;
    }
  }
  return true;
}

std::string Fingerprint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "rows=%llu key=%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(key_hash));
  std::string out = buf;
  for (double w : weighted) {
    std::snprintf(buf, sizeof(buf), " %.9g", w);
    out += buf;
  }
  return out;
}

// ----------------------------------------------------------------- setup --

std::unique_ptr<tpch::TpchDb> BuildDb(
    const Args& args, tpch::TpchDbOptions options, Report* report,
    const std::function<void(tpch::TpchDb*)>& after_build) {
  options.scale_factor = kScaleFactor;
  options.seed = args.seed;
  std::vector<double> setup_s;
  std::unique_ptr<tpch::TpchDb> db;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();  // one database alive at a time
    std::vector<double> probes;
    SampleHost(kSetupProbes, &probes);
    Clock::time_point start = Clock::now();
    auto result = tpch::TpchDb::Create(options);
    if (!result.ok()) {
      report->Fail("TpchDb::Create: " + result.status().ToString());
      return nullptr;
    }
    db = std::move(result).value();
    if (after_build) after_build(db.get());
    const double seconds = MsSince(start) / 1000.0;
    SampleHost(kSetupProbes, &probes);
    setup_s.push_back(seconds * HostScale(probes));
  }
  report->metrics["setup_s"] = Median(setup_s);
  report->info["setup_builds"] = std::to_string(setup_s.size());
  return db;
}

namespace {

class MapResolver : public TableResolver {
 public:
  MapResolver(const std::map<std::string, Table>* tables,
              const catalog::Catalog* catalog)
      : tables_(tables), catalog_(catalog) {}
  Result<const Table*> GetTable(const std::string& name) const override {
    auto it = tables_->find(name);
    if (it == tables_->end()) return Status::NotFound(name);
    return &it->second;
  }
  Result<const catalog::ForeignKey*> GetForeignKey(
      const std::string& id) const override {
    return catalog_->GetForeignKey(id);
  }

 private:
  const std::map<std::string, Table>* tables_;
  const catalog::Catalog* catalog_;
};

double TimedStep(const char* name, const std::function<void()>& fn,
                 Tracer::Attrs attrs = {}) {
  Span span(name, 0, std::move(attrs));
  Clock::time_point start = Clock::now();
  fn();
  return MsSince(start) / 1000.0;
}

}  // namespace

void TraceSetupSteps(const tpch::TpchDb& db, Report* report) {
  const tpch::TpchDbOptions& options = db.options();
  Span root("setup.steps");
  catalog::Catalog catalog = tpch::MakeTpchCatalog(true).ValueOrDie();
  std::map<std::string, Table> base;
  tpch::DbgenOptions gen;
  gen.scale_factor = options.scale_factor;
  gen.seed = options.seed;
  report->metrics["tpch.dbgen_s"] = TimedStep("tpch.GenerateTpch", [&] {
    base = tpch::GenerateTpch(gen).ValueOrDie();
  });

  // The plain copy: zone maps, then encoded lanes (the timed part).
  double encode_s = 0;
  uint64_t plain_bytes = 0;
  for (const auto& [name, table] : base) {
    Table copy = table.Clone();
    copy.BuildZoneMaps(options.zone_rows);
    encode_s += TimedStep("storage.BuildEncodedLanes",
                          [&] { copy.BuildEncodedLanes(); }, {{"table", name}});
    plain_bytes += copy.DiskBytes();
  }

  MapResolver resolver(&base, &catalog);
  advisor::AdvisorOptions adv = options.advisor;
  adv.build.zone_rows = options.zone_rows;
  advisor::SchemaDesign design;
  report->metrics["advisor.design_s"] =
      TimedStep("advisor.DesignSchema", [&] {
        design = advisor::DesignSchema(catalog, resolver, adv).ValueOrDie();
      });
  std::map<std::string, Table> sources;
  for (const auto& [name, table] : base) sources.emplace(name, table.Clone());
  std::map<std::string, BdccTable> built;
  report->metrics["bdcc.build_s"] =
      TimedStep("advisor.BuildDesignedTables", [&] {
        built = advisor::BuildDesignedTables(design, std::move(sources),
                                             resolver, adv)
                    .ValueOrDie();
      });
  uint64_t bdcc_bytes = 0;
  for (const auto& [name, table] : built) {
    bdcc_bytes += table.data().DiskBytes();
  }
  // Tables the design left unclustered stay plain in the BDCC scheme.
  for (const auto& [name, table] : base) {
    if (built.count(name) != 0) continue;
    Table copy = table.Clone();
    copy.BuildZoneMaps(options.zone_rows);
    encode_s += TimedStep("storage.BuildEncodedLanes",
                          [&] { copy.BuildEncodedLanes(); }, {{"table", name}});
    bdcc_bytes += copy.DiskBytes();
  }
  report->metrics["storage.encode_s"] = encode_s;
  report->metrics["storage.disk_mb.plain"] = plain_bytes / 1048576.0;
  report->metrics["storage.disk_mb.bdcc"] = bdcc_bytes / 1048576.0;
}

}  // namespace perfbench
}  // namespace bdcc
