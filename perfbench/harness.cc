// perfbench_harness: end-to-end and per-layer benchmark of libdatalogo.
//
// Drives the public calls datalogo_cli makes — ParseProgram +
// ValidateProgram → LoadTsv → Engine ctor → SemiNaive/Naive → DumpTsv,
// plus Engine::Update — and times each call from outside the library.
// Inputs are generated from --seed and handed to the library as TSV text
// only. One client, closed loop: an operation is issued after the previous
// one completes. The engine runs at its defaults and the harness starts no
// threads. Every operation is checked against an independent oracle outside
// the timed region.
//
//   perfbench_harness --workload apsp_dense|triangle_join|apsp_churn
//       --seed N --seconds S --trace 0|1 [--trace-out FILE]
//       --n N --m M --weight-max W
//
// Workloads:
//   apsp_dense     APSP over Trop+ by SemiNaive, one batch job per operation
//   triangle_join  directed triangles over N by Naive, one batch job per op
//   apsp_churn     APSP over Trop+ on a warm engine; one Engine::Update batch
//                  (1% of the live edges deleted, as many inserted) per op
//
// Untraced runs (--trace 0) report the end-to-end metrics: the median and
// tail latency of one operation, set-up time and peak RSS, with times at
// reference host speed (see RefKernel). Traced runs
// (--trace 1) record a span around every library call (spans of one
// operation share an op id), alternate traced and untraced operations to
// measure the tracing overhead, write the spans to --trace-out at exit and
// report per-layer times and the engine's counters. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"

namespace {

using namespace datalogo;

constexpr int kMaxSteps = 100000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Sec(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  int n = 0;
  int m = 0;
  int weight_max = 100;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--n") {
      a->n = std::atoi(v);
    } else if (flag == "--m") {
      a->m = std::atoi(v);
    } else if (flag == "--weight-max") {
      a->weight_max = std::atoi(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "every flag takes one value\n");
    return false;
  }
  const long long pairs = static_cast<long long>(a->n) * (a->n - 1);
  if (a->n < 2 || a->m < 1 || a->m > pairs / 2 || a->weight_max < 1 ||
      !(a->seconds > 0)) {
    std::fprintf(stderr, "bad workload sizes\n");
    return false;
  }
  return true;
}

// ------------------------------------------------------ input generation

/// splitmix64: a fixed, portable stream, so one seed gives the same inputs
/// under every standard library.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
};

struct WEdge {
  int u;
  int v;
  uint64_t w;
};

uint64_t EdgeKey(int u, int v) {
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
}

/// m distinct directed edges without self-loops, weights in [1, w_max].
std::vector<WEdge> RandomEdges(int n, int m, int w_max, Rng* rng) {
  std::vector<WEdge> edges;
  std::unordered_set<uint64_t> seen;
  edges.reserve(m);
  while (static_cast<int>(edges.size()) < m) {
    const int u = static_cast<int>(rng->Below(n));
    const int v = static_cast<int>(rng->Below(n));
    if (u == v || !seen.insert(EdgeKey(u, v)).second) continue;
    edges.push_back({u, v, 1 + rng->Below(w_max)});
  }
  return edges;
}

std::string EdgeTsv(const std::vector<WEdge>& edges, const char* prefix) {
  std::string out;
  for (const WEdge& e : edges) {
    out += prefix + std::to_string(e.u) + '\t' + prefix +
           std::to_string(e.v) + '\t' + std::to_string(e.w) + '\n';
  }
  return out;
}

uint64_t Fnv1a(std::string_view text, uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : text) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

const char kApspProgram[] =
    "edb E/2.\n"
    "idb T/2.\n"
    "T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).\n";

const char kTriangleProgram[] =
    "edb E/2.\n"
    "idb Tri/3.\n"
    "Tri(X,Y,Z) :- E(X,Y) * E(Y,Z) * E(Z,X).\n";

// --------------------------------------------------------------- oracles

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Floyd–Warshall over non-empty paths: with an infinite diagonal, d[i][i]
/// ends as the lightest cycle through i, matching T's least fixpoint.
std::vector<double> ShortestPaths(int n, const std::vector<WEdge>& edges) {
  std::vector<double> d(static_cast<std::size_t>(n) * n, kInf);
  for (const WEdge& e : edges) {
    double& cell = d[static_cast<std::size_t>(e.u) * n + e.v];
    cell = std::min(cell, static_cast<double>(e.w));
  }
  for (int k = 0; k < n; ++k) {
    const double* dk = &d[static_cast<std::size_t>(k) * n];
    for (int i = 0; i < n; ++i) {
      double* di = &d[static_cast<std::size_t>(i) * n];
      const double dik = di[k];
      if (dik == kInf) continue;
      for (int j = 0; j < n; ++j) di[j] = std::min(di[j], dik + dk[j]);
    }
  }
  return d;
}

std::size_t FiniteCount(const std::vector<double>& d) {
  return static_cast<std::size_t>(
      std::count_if(d.begin(), d.end(), [](double x) { return x != kInf; }));
}

/// Splits one TSV line into its tab-separated fields.
std::vector<std::string_view> Fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      out.push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool ParseLong(std::string_view s, long long* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtoll(buf.c_str(), &end, 10);
  return *end == '\0';
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return *end == '\0';
}

/// Calls fn(line) for every non-empty line of `text`.
template <typename Fn>
bool ForEachLine(const std::string& text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    if (nl > pos && !fn(std::string_view(text).substr(pos, nl - pos))) {
      return false;
    }
    pos = nl + 1;
  }
  return true;
}

/// The dumped T table equals the shortest-path matrix exactly: every row
/// is a finite entry, and every finite entry appears once.
bool CheckApspDump(const std::string& dump, int n,
                   const std::vector<double>& d) {
  std::vector<uint8_t> seen(d.size(), 0);
  std::size_t rows = 0;
  const bool ok = ForEachLine(dump, [&](std::string_view line) {
    const auto f = Fields(line);
    long long u = 0, v = 0;
    double val = 0;
    if (f.size() != 3 || !ParseLong(f[0], &u) || !ParseLong(f[1], &v) ||
        !ParseDouble(f[2], &val) || u < 0 || v < 0 || u >= n || v >= n) {
      return false;
    }
    const std::size_t cell = static_cast<std::size_t>(u) * n + v;
    if (seen[cell] || d[cell] != val) return false;
    seen[cell] = 1;
    ++rows;
    return true;
  });
  return ok && rows == FiniteCount(d);
}

/// The maintained T relation equals the shortest-path matrix exactly.
bool CheckApspRelation(const Relation<TropS>& t, const Domain& dom, int n,
                       const std::vector<double>& d) {
  if (t.support_size() != FiniteCount(d)) return false;
  bool ok = true;
  t.ForEachRow([&](uint32_t row) {
    const auto u = dom.AsInt(t.Cell(row, 0));
    const auto v = dom.AsInt(t.Cell(row, 1));
    if (!u || !v || *u < 0 || *v < 0 || *u >= n || *v >= n ||
        d[static_cast<std::size_t>(*u) * n + *v] != t.ValueAt(row)) {
      ok = false;
    }
  });
  return ok;
}

struct TriRow {
  int x, y, z;
  uint64_t value;
  auto operator<=>(const TriRow&) const = default;
};

/// Brute-force sum-product over adjacency maps: each directed 3-cycle
/// (x, y, z) carries w(x,y)·w(y,z)·w(z,x).
std::vector<TriRow> BruteForceTriangles(int n,
                                        const std::vector<WEdge>& edges) {
  std::vector<std::vector<std::pair<int, uint64_t>>> out(n);
  std::unordered_map<uint64_t, uint64_t> weight;
  for (const WEdge& e : edges) {
    out[e.u].push_back({e.v, e.w});
    weight[EdgeKey(e.u, e.v)] = e.w;
  }
  std::vector<TriRow> rows;
  for (const WEdge& xy : edges) {
    for (const auto& [z, wyz] : out[xy.v]) {
      auto zx = weight.find(EdgeKey(z, xy.u));
      if (zx != weight.end()) {
        rows.push_back({xy.u, xy.v, z, xy.w * wyz * zx->second});
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool ParseUserId(std::string_view s, int* out) {
  constexpr std::string_view kPrefix = "user_";
  long long id = 0;
  if (s.substr(0, kPrefix.size()) != kPrefix ||
      !ParseLong(s.substr(kPrefix.size()), &id) || id < 0 ||
      id > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(id);
  return true;
}

bool CheckTriangleDump(const std::string& dump,
                       const std::vector<TriRow>& expected) {
  std::vector<TriRow> got;
  const bool ok = ForEachLine(dump, [&](std::string_view line) {
    const auto f = Fields(line);
    TriRow r{};
    long long v = 0;
    if (f.size() != 4 || !ParseUserId(f[0], &r.x) ||
        !ParseUserId(f[1], &r.y) || !ParseUserId(f[2], &r.z) ||
        !ParseLong(f[3], &v) || v < 0) {
      return false;
    }
    r.value = static_cast<uint64_t>(v);
    got.push_back(r);
    return true;
  });
  std::sort(got.begin(), got.end());
  return ok && got == expected;
}

// --------------------------------------------------------------- tracing

/// One timed interval. Child spans name their op span as parent; an op
/// span has parent -1. Spans of one operation share `op`.
struct Span {
  const char* name;
  int op;
  int parent;
  int64_t start_ns;
  int64_t end_ns;
};

/// In-memory span recorder. Inactive (the default, and every --trace 0
/// run) it reads no clock and stores nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Whether spans of the current operation are being recorded.
  bool active() const { return active_; }

  /// Starts operation `op`; it is traced iff tracing is enabled and
  /// `traced` holds. Ops are not nested.
  void BeginOp(int op, bool traced) {
    op_ = op;
    active_ = enabled_ && traced;
    op_span_ = -1;
    if (active_) {
      op_span_ = static_cast<int>(spans_.size());
      spans_.push_back({"op", op, -1, 0, 0});
    }
  }
  /// Closes the current op with the harness's own end-to-end timestamps.
  void EndOp(const char* name, int64_t start_ns, int64_t end_ns) {
    if (active_) spans_[op_span_] = {name, op_, -1, start_ns, end_ns};
    active_ = false;
  }
  void RecordChild(const char* name, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, op_, op_span_, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"op\":%d,\"parent\":%d,\"name\":\"%s\","
                   "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
                   i, s.op, s.parent, s.name, s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  bool active_ = false;
  int op_ = -1;
  int op_span_ = -1;
  std::vector<Span> spans_;
};

/// Records a child span of the current op over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), name_(name), start_(t->active() ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (t_->active()) t_->RecordChild(name_, start_, NowNs());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  const char* name_;
  int64_t start_;
};

struct TraceSummary {
  std::map<std::string, std::vector<double>> child_s;  // per name, per op
  std::vector<double> traced_op_s;  // ops named op_name only
  double max_unspanned_frac = 0;    // over every op
};

TraceSummary Summarize(const Tracer& tr, const char* op_name) {
  TraceSummary out;
  std::map<int, double> covered;  // op span index -> summed child seconds
  for (const Span& s : tr.spans()) {
    if (s.parent < 0) continue;
    const double d = Sec(s.end_ns - s.start_ns);
    out.child_s[s.name].push_back(d);
    covered[s.parent] += d;
  }
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    const double op = Sec(spans[i].end_ns - spans[i].start_ns);
    if (std::strcmp(spans[i].name, op_name) == 0) {
      out.traced_op_s.push_back(op);
    }
    if (op > 0) {
      out.max_unspanned_frac = std::max(
          out.max_unspanned_frac, 1.0 - covered[static_cast<int>(i)] / op);
    }
  }
  return out;
}

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The highest nearest-rank percentile with at least ten samples beyond
/// it: the 11th-largest sample. With ten samples or fewer, the maximum.
struct Tail {
  double value = 0;
  double percentile = 100;
  int beyond = 0;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > 10 ? n - 10 : n;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  t.beyond = static_cast<int>(n - rank);
  return t;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------- memory, host speed

std::optional<double> StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return std::nullopt;
}

/// Peak resident memory of the measured work alone: the high-water mark
/// is reset (/proc/self/clear_refs, value 5) once inputs and oracle are
/// built, and the resident set at that moment is subtracted, so neither
/// the generator nor the oracle masks changes in engine memory.
class MemoryScope {
 public:
  MemoryScope() {
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    bool reset = f != nullptr && std::fputs("5", f) >= 0;
    if (f != nullptr) reset = std::fclose(f) == 0 && reset;
    if (!reset) std::fprintf(stderr, "peak RSS not reset: whole process\n");
    base_kb_ = reset ? StatusKb("VmRSS").value_or(0) : 0;
  }
  double PeakGrowthMb() const {
    return (StatusKb("VmHWM").value_or(0) - base_kb_) / 1024.0;
  }

 private:
  double base_kb_ = 0;
};

/// Fixed memory-bound reference work, run right after every operation,
/// outside its timed region: 2^20 independent random 8-byte reads from a
/// 16 MiB table. On a host whose caches and memory bandwidth are shared
/// with other tenants, their load moves op times by tens of percent, in
/// bursts and over minutes, and this kernel slows in step. End-to-end
/// times are therefore reported at reference host speed: each op's wall
/// time t becomes t · kNominalS / r, with r the kernel time measured right
/// after it. Per-layer times use the run's median r. Raw wall medians are
/// printed alongside, and host.ref_s reports the median r.
class RefKernel {
 public:
  static constexpr double kNominalS = 0.010;

  RefKernel() : table_(kWords) {
    for (std::size_t i = 0; i < kWords; ++i) table_[i] = i * 0x9e3779b9ULL;
  }

  /// Runs the kernel once; records and returns its time in seconds.
  double Run() {
    Rng rng{0x5eed};
    uint64_t acc = 0;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kReads; ++i) acc += table_[rng.Next() & (kWords - 1)];
    samples_.push_back(Sec(NowNs() - t0));
    sink_ = sink_ + acc;
    return samples_.back();
  }

  double MedianS() const { return Median(samples_); }
  /// Multiplier from wall seconds to reference-host seconds.
  double Scale() const {
    const double m = MedianS();
    return m > 0 ? kNominalS / m : 1.0;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 21;
  static constexpr int kReads = 1 << 20;
  std::vector<uint64_t> table_;
  std::vector<double> samples_;
  volatile uint64_t sink_ = 0;
};

// --------------------------------------------------------------- reports

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Samples of one run: wall seconds, and the same scaled to reference host
/// speed by the kernel run that followed each (see RefKernel).
struct Samples {
  std::vector<double> op_s, op_ref_s;
  std::vector<double> setup_s, setup_ref_s;
  std::vector<double> untraced_op_s;  // traced runs alternate
  void AddOp(double wall, double ref) {
    op_s.push_back(wall);
    op_ref_s.push_back(wall * RefKernel::kNominalS / ref);
  }
  void AddSetup(double wall, double ref) {
    setup_s.push_back(wall);
    setup_ref_s.push_back(wall * RefKernel::kNominalS / ref);
  }
};

/// Engine counters, read through the public getters.
struct Counters {
  uint64_t steps = 0;
  uint64_t work = 0;
  uint64_t derived_rows = 0;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t idb_builds = 0;
  uint64_t idb_hits = 0;
  uint64_t hash_probes = 0;
  uint64_t direct_probes = 0;
  uint64_t incremental_appends = 0;
  uint64_t edb_scan_rows = 0;
  uint64_t join_batched_rows = 0;
  uint64_t values_batched = 0;
};

template <typename E>
void ReadIndexCounters(const E& engine, Counters* c) {
  c->index_builds = engine.index_builds();
  c->index_hits = engine.index_hits();
  c->idb_builds = engine.idb_index_builds();
  c->idb_hits = engine.idb_index_hits();
  c->hash_probes = engine.hash_probes();
  c->direct_probes = engine.direct_probes();
  c->incremental_appends = engine.idx_incremental_appends();
  c->edb_scan_rows = engine.edb_index_scan_rows();
  c->join_batched_rows = engine.join_batched_rows();
  c->values_batched = engine.values_batched();
}

/// Figures of one workload that are not engine counters. The update
/// fields stay zero on the batch workloads, the dump fields on apsp_churn.
struct LayerFigures {
  Counters counters;
  uint64_t loaded_rows = 0;
  uint64_t dumped_rows = 0;
  uint64_t dump_bytes = 0;
  uint64_t update_rounds = 0;
  uint64_t update_work = 0;
  uint64_t update_deleted_rederived = 0;
  int update_batches = 0;
  std::vector<double> recompute_s;
  uint64_t recompute_work = 0;
  const char* op_name = "job";  // op spans the overhead is judged on
};

/// Appends every per-layer metric, in the order BENCHMARK.json lists them.
/// Times are in reference-host seconds (see RefKernel); a layer a
/// workload does not exercise reports 0.
void AddLayerMetrics(const Tracer& tr, const LayerFigures& f,
                     const Samples& s, const RefKernel& ref, Report* r) {
  const TraceSummary ts = Summarize(tr, f.op_name);
  const double scale = ref.Scale();
  std::printf("# layer self time over %zu traced ops (median wall s)\n",
              ts.traced_op_s.size());
  for (const auto& [name, samples] : ts.child_s) {
    std::printf("#   %-18s %.6f  (n=%zu)\n", name.c_str(), Median(samples),
                samples.size());
  }
  auto med = [&](const char* name) {
    auto it = ts.child_s.find(name);
    return it == ts.child_s.end() ? 0.0 : Median(it->second) * scale;
  };
  const Counters& c = f.counters;
  const double load_s = med("io.load");
  const double dump_s = med("io.dump");
  const double eval_s = med("engine.eval");
  r->Add("parser.parse_s", med("parser.parse"), "s");
  r->Add("io.load_s", load_s, "s");
  r->Add("io.load_rows_per_s", Ratio(f.loaded_rows, load_s), "1/s");
  r->Add("io.dump_s", dump_s, "s");
  r->Add("io.dump_rows_per_s", Ratio(f.dumped_rows, dump_s), "1/s");
  r->Add("io.dump_bytes", f.dump_bytes, "bytes");
  r->Add("engine.compile_s", med("engine.compile"), "s");
  r->Add("engine.eval_s", eval_s, "s");
  r->Add("engine.teardown_s", med("engine.teardown"), "s");
  r->Add("engine.steps", c.steps, "count");
  r->Add("engine.work", c.work, "count");
  r->Add("engine.work_per_s", Ratio(c.work, eval_s), "1/s");
  r->Add("engine.derived_rows", c.derived_rows, "count");
  r->Add("index.builds", c.index_builds, "count");
  r->Add("index.hits", c.index_hits, "count");
  r->Add("index.hit_ratio",
         Ratio(c.index_hits, c.index_hits + c.index_builds), "ratio");
  r->Add("index.idb_builds", c.idb_builds, "count");
  r->Add("index.idb_hits", c.idb_hits, "count");
  r->Add("index.hash_probes", c.hash_probes, "count");
  r->Add("index.direct_probes", c.direct_probes, "count");
  r->Add("index.incremental_appends", c.incremental_appends, "count");
  r->Add("index.edb_scan_rows", c.edb_scan_rows, "count");
  r->Add("kernel.join_batched_rows", c.join_batched_rows, "count");
  r->Add("kernel.values_batched", c.values_batched, "count");
  r->Add("update.rounds", f.update_rounds, "count");
  r->Add("update.work", f.update_work, "count");
  r->Add("update.deleted_rederived", f.update_deleted_rederived, "count");
  r->Add("update.apply_s", med("update.apply"), "s");
  r->Add("update.recompute_s", Median(f.recompute_s) * scale, "s");
  r->Add("update.recompute_work", f.recompute_work, "count");
  r->Add("update.work_vs_recompute",
         f.update_batches > 0
             ? Ratio(static_cast<double>(f.update_work) / f.update_batches,
                     f.recompute_work)
             : 0.0,
         "ratio");
  r->Add("trace.unspanned_frac", ts.max_unspanned_frac, "ratio");
  const double untraced = Median(s.untraced_op_s);
  r->Add("trace.overhead_frac",
         untraced > 0 ? Median(ts.traced_op_s) / untraced - 1.0 : 0.0, "ratio");
  r->Add("host.ref_s", ref.MedianS(), "s");
}

void AddEndToEnd(const Samples& s, const RefKernel& ref,
                 const MemoryScope& mem, Report* r) {
  const Tail tail = TailOf(s.op_ref_s);
  std::printf("# op samples=%zu tail=p%.2f (%d samples beyond) "
              "setup samples=%zu\n",
              s.op_s.size(), tail.percentile, tail.beyond, s.setup_s.size());
  std::printf("# wall: op p50 %.6f s, op tail %.6f s, setup %.6f s; "
              "reference kernel median %.6f s\n",
              Median(s.op_s), TailOf(s.op_s).value, Median(s.setup_s),
              ref.MedianS());
  r->Add("op_p50_s", Median(s.op_ref_s), "s");
  r->Add("op_tail_s", tail.value, "s");
  r->Add("setup_s", Median(s.setup_ref_s), "s");
  r->Add("peak_rss_mb", mem.PeakGrowthMb(), "MB");
}

// ------------------------------------------------------- batch workloads

/// One batch job's output and timestamps.
struct JobOut {
  bool ok = false;
  int64_t start_ns = 0;
  int64_t setup_end_ns = 0;
  int64_t end_ns = 0;
  std::string dump;
  Counters counters;
  uint64_t loaded_rows = 0;
};

/// Runs one CLI-shaped job: parse + validate, load E from TSV, compile,
/// evaluate, dump every IDB table, free everything.
template <NaturallyOrderedSemiring P, typename ParseFn>
JobOut RunJob(const std::string& program_text, const std::string& tsv,
              bool seminaive, ParseFn&& parse_value, Tracer* tr) {
  JobOut out;
  out.start_ns = NowNs();
  auto dom = std::make_unique<Domain>();
  std::unique_ptr<Program> prog;
  {
    ScopedSpan s(tr, "parser.parse");
    auto parsed = ParseProgram(program_text, dom.get());
    if (!parsed.ok() || !ValidateProgram(parsed.value()).ok()) return out;
    prog = std::make_unique<Program>(std::move(parsed).value());
  }
  const int e = prog->FindPredicate("E");
  auto edb = std::make_unique<EdbInstance<P>>(*prog);
  {
    ScopedSpan s(tr, "io.load");
    if (!LoadTsv<P>(tsv, dom.get(), &edb->pops(e), parse_value).ok()) {
      return out;
    }
  }
  std::unique_ptr<Engine<P>> engine;
  {
    ScopedSpan s(tr, "engine.compile");
    engine = std::make_unique<Engine<P>>(*prog, *edb);
  }
  out.setup_end_ns = NowNs();
  std::optional<EvalResult<P>> result;
  {
    ScopedSpan s(tr, "engine.eval");
    if constexpr (CompleteDistributiveDioid<P>) {
      if (seminaive) {
        result.emplace(engine->SemiNaive(kMaxSteps));
      } else {
        result.emplace(engine->Naive(kMaxSteps));
      }
    } else {
      result.emplace(engine->Naive(kMaxSteps));
    }
  }
  {
    ScopedSpan s(tr, "io.dump");
    for (int pred : prog->IdbPredicates()) {
      out.dump += DumpTsv(result->idb.idb(pred), *dom);
    }
  }
  out.ok = result->converged;
  out.loaded_rows = edb->pops(e).support_size();
  out.counters.steps = static_cast<uint64_t>(result->steps);
  out.counters.work = result->work;
  out.counters.derived_rows = result->idb.TotalSupport();
  ReadIndexCounters(*engine, &out.counters);
  {
    ScopedSpan s(tr, "engine.teardown");
    result.reset();
    engine.reset();
    edb.reset();
    prog.reset();
    dom.reset();
  }
  out.end_ns = NowNs();
  return out;
}

/// Closed loop of batch jobs for `seconds`, after one warm-up job. Every
/// job is checked by `check(dump)`; counters come from the first measured
/// job (all jobs read the same input).
template <NaturallyOrderedSemiring P, typename ParseFn>
Report RunBatchWorkload(const Args& a, const std::string& program_text,
                        const std::string& tsv, bool seminaive,
                        ParseFn parse_value,
                        const std::function<bool(const std::string&)>& check,
                        Tracer* tr) {
  Report r;
  Samples s;
  LayerFigures f;
  RefKernel ref;
  const MemoryScope mem;
  int64_t deadline = 0;
  for (int op = 0;; ++op) {
    if (op == 1) deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
    if (op > 1 && NowNs() >= deadline) break;
    const bool traced = op % 2 == 1;  // alternate to measure the overhead
    tr->BeginOp(op, traced);
    JobOut job = RunJob<P>(program_text, tsv, seminaive, parse_value, tr);
    tr->EndOp("job", job.start_ns, job.end_ns);
    ++r.attempted;
    if (!job.ok || !check(job.dump)) {
      ++r.failed;
      std::fprintf(stderr, "job %d failed its oracle\n", op);
    }
    if (op == 0) continue;  // warm-up: checked, not timed
    const double ref_s = ref.Run();
    if (op == 1) {
      f.counters = job.counters;
      f.loaded_rows = job.loaded_rows;
      f.dumped_rows = job.counters.derived_rows;
      f.dump_bytes = job.dump.size();
    }
    const double total = Sec(job.end_ns - job.start_ns);
    s.AddOp(total, ref_s);
    s.AddSetup(Sec(job.setup_end_ns - job.start_ns), ref_s);
    if (!traced) s.untraced_op_s.push_back(total);
  }
  if (a.trace) {
    AddLayerMetrics(*tr, f, s, ref, &r);
  } else {
    AddEndToEnd(s, ref, mem, &r);
  }
  return r;
}

Report RunApspDense(const Args& a, Tracer* tr) {
  Rng rng{a.seed};
  const std::vector<WEdge> edges = RandomEdges(a.n, a.m, a.weight_max, &rng);
  const std::string tsv = EdgeTsv(edges, "");
  std::printf("# input_fingerprint=%016" PRIx64 "\n",
              Fnv1a(tsv, Fnv1a(kApspProgram)));
  const std::vector<double> d = ShortestPaths(a.n, edges);
  auto check = [&](const std::string& dump) {
    return CheckApspDump(dump, a.n, d);
  };
  return RunBatchWorkload<TropS>(a, kApspProgram, tsv, /*seminaive=*/true,
                                 ParseDoubleValue, check, tr);
}

Report RunTriangleJoin(const Args& a, Tracer* tr) {
  Rng rng{a.seed};
  const std::vector<WEdge> edges = RandomEdges(a.n, a.m, a.weight_max, &rng);
  const std::string tsv = EdgeTsv(edges, "user_");
  std::printf("# input_fingerprint=%016" PRIx64 "\n",
              Fnv1a(tsv, Fnv1a(kTriangleProgram)));
  const std::vector<TriRow> expected = BruteForceTriangles(a.n, edges);
  std::printf("# triangles=%zu\n", expected.size());
  auto check = [&](const std::string& dump) {
    return CheckTriangleDump(dump, expected);
  };
  return RunBatchWorkload<NatS>(a, kTriangleProgram, tsv, /*seminaive=*/false,
                                ParseUintValue, check, tr);
}

// ------------------------------------------------------- update workload

/// A warm APSP service: everything Engine::Update needs, kept alive across
/// batches (the engine points at prog and edb).
struct Service {
  std::unique_ptr<Domain> dom;
  std::unique_ptr<Program> prog;
  std::unique_ptr<EdbInstance<TropS>> edb;
  std::unique_ptr<Engine<TropS>> engine;
  std::unique_ptr<IdbInstance<TropS>> idb;
  int e = -1;
  int t = -1;
  uint64_t loaded_rows = 0;
  Counters counters;  // of the initial fixpoint
  bool converged = false;
};

/// Set-up as the service pays it: parse, load, compile, initial fixpoint.
std::unique_ptr<Service> SetUpService(const std::string& tsv, Tracer* tr) {
  auto s = std::make_unique<Service>();
  s->dom = std::make_unique<Domain>();
  {
    ScopedSpan span(tr, "parser.parse");
    auto parsed = ParseProgram(kApspProgram, s->dom.get());
    if (!parsed.ok() || !ValidateProgram(parsed.value()).ok()) return nullptr;
    s->prog = std::make_unique<Program>(std::move(parsed).value());
  }
  s->e = s->prog->FindPredicate("E");
  s->t = s->prog->FindPredicate("T");
  s->edb = std::make_unique<EdbInstance<TropS>>(*s->prog);
  {
    ScopedSpan span(tr, "io.load");
    if (!LoadTsv<TropS>(tsv, s->dom.get(), &s->edb->pops(s->e),
                        ParseDoubleValue)
             .ok()) {
      return nullptr;
    }
  }
  {
    ScopedSpan span(tr, "engine.compile");
    s->engine = std::make_unique<Engine<TropS>>(*s->prog, *s->edb);
  }
  {
    ScopedSpan span(tr, "engine.eval");
    EvalResult<TropS> res = s->engine->SemiNaive(kMaxSteps);
    s->idb = std::make_unique<IdbInstance<TropS>>(*s->prog);
    s->idb->TakeContentsFrom(&res.idb);
    s->converged = res.converged;
    s->counters.steps = static_cast<uint64_t>(res.steps);
    s->counters.work = res.work;
  }
  s->loaded_rows = s->edb->pops(s->e).support_size();
  s->counters.derived_rows = s->idb->TotalSupport();
  return s;
}

/// The harness's own copy of the live edge set, for the oracle and for
/// drawing the next batch.
struct EdgeMirror {
  int n;
  std::vector<WEdge> edges;
  std::unordered_map<uint64_t, std::size_t> pos;  // EdgeKey -> index

  EdgeMirror(int n_, std::vector<WEdge> e) : n(n_), edges(std::move(e)) {
    for (std::size_t i = 0; i < edges.size(); ++i) {
      pos[EdgeKey(edges[i].u, edges[i].v)] = i;
    }
  }
  void Remove(std::size_t i) {
    pos.erase(EdgeKey(edges[i].u, edges[i].v));
    if (i + 1 != edges.size()) {
      edges[i] = edges.back();
      pos[EdgeKey(edges[i].u, edges[i].v)] = i;
    }
    edges.pop_back();
  }
  void Insert(const WEdge& e) {
    pos[EdgeKey(e.u, e.v)] = edges.size();
    edges.push_back(e);
  }
};

/// Draws the next batch in the update-file grammar of datalogo_cli: k
/// uniformly random live edges deleted, k fresh non-edges inserted (k is
/// 1% of the live edges, at least one). Applies it to `mirror`.
std::string NextBatch(int w_max, EdgeMirror* mirror, Rng* rng) {
  const std::size_t k = std::max<std::size_t>(1, mirror->edges.size() / 100);
  std::string text;
  std::unordered_set<uint64_t> deleted;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t at = rng->Below(mirror->edges.size());
    const WEdge gone = mirror->edges[at];
    deleted.insert(EdgeKey(gone.u, gone.v));
    text += "- E " + std::to_string(gone.u) + ' ' + std::to_string(gone.v) +
            '\n';
    mirror->Remove(at);
  }
  for (std::size_t i = 0; i < k;) {
    const int u = static_cast<int>(rng->Below(mirror->n));
    const int v = static_cast<int>(rng->Below(mirror->n));
    const uint64_t key = EdgeKey(u, v);
    if (u == v || mirror->pos.count(key) || deleted.count(key)) continue;
    const WEdge e{u, v, 1 + rng->Below(w_max)};
    text += "+ E " + std::to_string(u) + ' ' + std::to_string(v) + ' ' +
            std::to_string(e.w) + '\n';
    mirror->Insert(e);
    ++i;
  }
  return text;
}

/// Parses a batch written by NextBatch into an EdbDelta, as datalogo_cli
/// does for --update: tokens are interned through the program's Domain.
bool ParseBatch(const std::string& text, Service* s, EdbDelta<TropS>* out) {
  return ForEachLine(text, [&](std::string_view line) {
    const std::vector<std::string> toks =
        io_internal::SplitLine(std::string(line));
    const bool add = !toks.empty() && toks[0] == "+";
    if (toks.size() != (add ? 5u : 4u) || toks[1] != "E") return false;
    Tuple t;
    for (int i = 2; i < 4; ++i) {
      ConstId id = 0;
      if (!io_internal::TryInternToken(toks[i], s->dom.get(), &id)) {
        return false;
      }
      t.push_back(id);
    }
    if (!add) {
      out->Delete(s->e, std::move(t));
      return true;
    }
    double w = 0;
    if (!ParseDoubleValue(toks[4], &w)) return false;
    out->Add(s->e, std::move(t), w);
    return true;
  });
}

/// Cold recompute of the service's current EDB on a fresh engine: the
/// cost Update competes with, and the cross-check of the maintained IDB.
struct Recompute {
  bool equal = false;
  double seconds = 0;
  uint64_t work = 0;
};

Recompute ColdRecompute(const Service& s) {
  Recompute rc;
  EdbInstance<TropS> cold(*s.prog);
  cold.pops(s.e) = s.edb->pops(s.e);
  const int64_t t0 = NowNs();
  Engine<TropS> engine(*s.prog, cold);
  EvalResult<TropS> res = engine.SemiNaive(kMaxSteps);
  rc.seconds = Sec(NowNs() - t0);
  rc.work = res.work;
  rc.equal = res.converged && res.idb.Equals(*s.idb);
  return rc;
}

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;
// Every kCheckEvery-th batch, and at the end of the stream, the maintained
// IDB is compared with a cold recompute. The first such point also pins
// the counters, over a prefix of the stream that does not depend on how
// many batches fit in the run.
constexpr int kCheckEvery = 16;

Report RunApspChurn(const Args& a, Tracer* tr) {
  Report r;
  Rng rng{a.seed};
  std::vector<WEdge> initial = RandomEdges(a.n, a.m, a.weight_max, &rng);
  const std::string tsv = EdgeTsv(initial, "");
  const std::vector<double> d0 = ShortestPaths(a.n, initial);
  EdgeMirror mirror(a.n, std::move(initial));
  uint64_t fingerprint = Fnv1a(tsv, Fnv1a(kApspProgram));

  Samples s;
  LayerFigures f;
  f.op_name = "update";
  RefKernel ref;
  const MemoryScope mem;
  int op = 0;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < kSetups; ++i, ++op) {
    svc.reset();  // the previous set-up is freed outside the timed region
    tr->BeginOp(op, /*traced=*/i % 2 == 0);
    const int64_t t0 = NowNs();
    svc = SetUpService(tsv, tr);
    const int64_t t1 = NowNs();
    tr->EndOp("setup", t0, t1);
    s.AddSetup(Sec(t1 - t0), ref.Run());
    ++r.attempted;
    if (!svc || !svc->converged ||
        !CheckApspRelation(svc->idb->idb(svc->t), *svc->dom, a.n, d0)) {
      ++r.failed;
      std::fprintf(stderr, "set-up %d failed its oracle\n", i);
      if (!svc) return r;  // nothing to serve updates with
    }
  }
  f.counters = svc->counters;
  f.loaded_rows = svc->loaded_rows;

  uint64_t rounds = 0, work = 0, rederived = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  int batch = 0;
  for (; batch < kCheckEvery || NowNs() < deadline; ++batch, ++op) {
    const std::string text = NextBatch(a.weight_max, &mirror, &rng);
    if (batch == 0) fingerprint = Fnv1a(text, fingerprint);
    const bool traced = batch % 2 == 0;
    tr->BeginOp(op, traced);
    const int64_t t0 = NowNs();
    UpdateResult ur;
    bool parsed = false;
    {
      EdbDelta<TropS> delta;
      {
        ScopedSpan span(tr, "io.batch_parse");
        parsed = ParseBatch(text, svc.get(), &delta);
      }
      if (parsed) {
        ScopedSpan span(tr, "update.apply");
        ur = svc->engine->Update(delta, svc->edb.get(), svc->idb.get(),
                                 kMaxSteps);
      }
    }
    const int64_t t1 = NowNs();
    tr->EndOp("update", t0, t1);
    s.AddOp(Sec(t1 - t0), ref.Run());
    if (!traced) s.untraced_op_s.push_back(Sec(t1 - t0));

    ++r.attempted;
    bool ok = parsed && ur.converged &&
              CheckApspRelation(svc->idb->idb(svc->t), *svc->dom, a.n,
                                ShortestPaths(a.n, mirror.edges));
    rounds += static_cast<uint64_t>(ur.rounds);
    work += ur.work;
    rederived += ur.deleted_rederived;
    if ((batch + 1) % kCheckEvery == 0) {
      const Recompute rc = ColdRecompute(*svc);
      ok = ok && rc.equal;
      f.recompute_s.push_back(rc.seconds);
      if (batch + 1 == kCheckEvery) {
        f.update_rounds = rounds;
        f.update_work = work;
        f.update_deleted_rederived = rederived;
        f.update_batches = kCheckEvery;
        f.recompute_work = rc.work;
        ReadIndexCounters(*svc->engine, &f.counters);
      }
    }
    if (!ok) {
      ++r.failed;
      std::fprintf(stderr, "update batch %d failed its oracle\n", batch);
    }
  }
  // The end of the stream is always cross-checked against a cold run.
  if (batch % kCheckEvery != 0) {
    const Recompute rc = ColdRecompute(*svc);
    f.recompute_s.push_back(rc.seconds);
    if (!rc.equal) {
      ++r.failed;
      std::fprintf(stderr, "maintained IDB differs from a cold recompute\n");
    }
  }
  std::printf("# input_fingerprint=%016" PRIx64 "\n", fingerprint);
  std::printf("# batches=%d live_edges=%zu\n", batch, mirror.edges.size());
  if (a.trace) {
    AddLayerMetrics(*tr, f, s, ref, &r);
  } else {
    AddEndToEnd(s, ref, mem, &r);
  }
  return r;
}

// ---------------------------------------------------------------- output

void PrintResult(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              r.failed == 0 && r.attempted > 0 ? "true" : "false",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return 2;
  Tracer tr(a.trace);
  Report r;
  if (a.workload == "apsp_dense") {
    r = RunApspDense(a, &tr);
  } else if (a.workload == "triangle_join") {
    r = RunTriangleJoin(a, &tr);
  } else if (a.workload == "apsp_churn") {
    r = RunApspChurn(a, &tr);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (a.trace && !a.trace_out.empty() && !tr.WriteJsonl(a.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    return 1;
  }
  if (r.metrics.empty()) return 1;  // a run that could not start
  PrintResult(r);
  return 0;
}
