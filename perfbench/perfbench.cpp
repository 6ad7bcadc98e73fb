// End-to-end benchmark for dlouvain (see perfbench/README.md).
//
// One process runs one workload at one seed:
//
//   dlouvain_perfbench --workload oneshot-rmat16 --seed 3 --seconds 10 --trace 0
//
// Workloads drive the public API the way each kind of user does: one-shot
// solves along the CLI path (.dlel file -> verified CSR -> Plan::run),
// streaming Session::update batches, and service jobs framed over a Unix
// socket to an in-process JobScheduler + ServiceEndpoint. Inputs are
// generated from --seed; the program receives nothing else.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the timed loop
// twice (untraced, then traced), records spans around the calls this file
// makes into each module, reads the counters and breakdown that Result
// already carries, runs the per-layer probes, and reports the per-layer
// metrics plus the tracing overhead. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; lines before it are readable
// notes. --describe-inputs prints only the fingerprints of the generated
// inputs (no program call), so a test can check what the program received.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "comm/world.hpp"
#include "dlouvain.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/binary_io.hpp"
#include "graph/csr.hpp"
#include "louvain/modularity.hpp"
#include "quality/nmi.hpp"
#include "service/endpoint.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/prng.hpp"

namespace {

using namespace dlouvain;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 4;           // ranks x 1 thread: one rank per core
// setup_s is the median of at least kSetupReps set-ups, repeated until
// kSetupMinSeconds have been spent so that cheap set-ups get more samples.
constexpr int kSetupReps = 3;
constexpr int kSetupMaxReps = 15;
constexpr double kSetupMinSeconds = 3.0;
constexpr int kStreamBatch = 32;    // changes per EdgeBatch (half remove, half add)
constexpr int kStreamMinUpdates = 100;  // p90 needs >= 10 samples beyond it
constexpr int kServiceGraphs = 4;   // first-seen jobs (misses) per round
constexpr int kServiceHitsPerGraph = 4;
constexpr int kServiceRanks = 2;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---- metric catalog ------------------------------------------------------
// Must match BENCHMARK.json (test_perfbench.py checks both directions).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"op_p50_ms", "ms"},       {"ops_per_s", "1/s"},
    {"modularity", "Q"},   {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"api.run_s", "s"},
    {"api.outside_engine_s", "s"},
    {"api.update_s", "s"},
    {"api.update_outside_engine_s", "s"},
    {"api.open_s", "s"},
    {"warmup_s", "s"},
    {"graph.verify_crc_s", "s"},
    {"graph.read_s", "s"},
    {"graph.build_csr_s", "s"},
    {"graph.arcs", "count"},
    {"gen.generate_s", "s"},
    {"gen.write_dlel_s", "s"},
    {"core.engine_s", "s"},
    {"core.rebuild_s", "s"},
    {"core.compute_s", "s"},
    {"core.ghost_exchange_s", "s"},
    {"core.community_info_s", "s"},
    {"core.delta_exchange_s", "s"},
    {"core.allreduce_s", "s"},
    {"core.comm_hidden_s", "s"},
    {"core.phase0_s", "s"},
    {"core.later_phases_s", "s"},
    {"core.phases", "count"},
    {"core.iterations", "count"},
    {"core.load_lambda_max", "ratio"},
    {"core.p1_s", "s"},
    {"stream.vertices_reactivated", "count"},
    {"stream.reconverge_iterations", "count"},
    {"stream.fallbacks", "count"},
    {"stream.update_p90_ms", "ms"},
    {"comm.messages", "count"},
    {"comm.bytes", "B"},
    {"comm.bytes_per_arc", "B"},
    {"comm.duplicates_dropped", "count"},
    {"comm.retransmits", "count"},
    {"comm.alltoallv_mb_s", "MB/s"},
    {"comm.alltoallv_msg_bytes", "B"},
    {"util.crc32_mb_s", "MB/s"},
    {"util.crc32_buffer_mb", "MB"},
    {"util.llc_mb", "MB"},
    {"louvain.modularity_check_s", "s"},
    {"louvain.serial_s", "s"},
    {"louvain.serial_modularity", "Q"},
    {"quality.nmi", "ratio"},
    {"service.encode_frame_s", "s"},
    {"service.decode_frame_s", "s"},
    {"service.frame_mb", "MB"},
    {"service.miss_engine_s", "s"},
    {"service.miss_p50_ms", "ms"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"service.queue_depth_max", "count"},
    {"self.bench_s", "s"},
    {"self.graph_s", "s"},
    {"self.api_s", "s"},
    {"self.core_s", "s"},
    {"self.louvain_s", "s"},
    {"self.service_s", "s"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.traced_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
};

// Per-layer metrics only one kind of workload produces; the others report
// them as n/a.
const std::vector<const char*> kStreamOnly = {
    "stream.vertices_reactivated", "stream.reconverge_iterations", "stream.fallbacks",
    "stream.update_p90_ms", "api.update_s", "api.update_outside_engine_s", "api.open_s"};
const std::vector<const char*> kServiceOnly = {
    "service.encode_frame_s", "service.decode_frame_s", "service.frame_mb",
    "service.miss_engine_s",  "service.miss_p50_ms",    "service.cache_hits",
    "service.cache_misses",   "service.hit_ratio",      "service.rejected",
    "service.queue_depth_max"};
const std::vector<const char*> kOneshotOnly = {
    "louvain.serial_s", "louvain.serial_modularity", "core.p1_s", "api.run_s",
    "api.outside_engine_s", "graph.verify_crc_s", "graph.read_s", "gen.write_dlel_s"};

// ---- result assembly -----------------------------------------------------

struct Report {
  bool correct{true};
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::map<std::string, double> values;
  std::map<std::string, std::string> not_applicable;  // metric -> reason
  std::vector<std::string> notes;

  void set(const std::string& name, double v) { values[name] = v; }
  void na(const std::vector<const char*>& names, const std::string& why) {
    for (const char* name : names) not_applicable[name] = why;
  }
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    notes.push_back("FAILED: " + why);
  }
};

std::string fmt_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prints the notes, then the one-line JSON result with exactly the catalog
/// metrics of the mode. Returns false (print nothing) when a value is
/// missing without a stated reason or is not finite.
bool emit(Report& r, bool trace) {
  std::string metrics;
  std::vector<std::string> missing;
  auto add = [&](const MetricDef& def) {
    auto it = r.values.find(def.name);
    double v = 0;
    if (it != r.values.end()) {
      v = it->second;
    } else if (r.not_applicable.count(def.name) == 0) {
      missing.push_back(def.name);
      return;
    }
    if (!std::isfinite(v)) {
      missing.push_back(std::string(def.name) + " (not finite)");
      return;
    }
    if (!metrics.empty()) metrics += ',';
    metrics.append("\"").append(def.name).append("\":{\"value\":").append(fmt_number(v));
    metrics.append(",\"unit\":\"").append(def.unit).append("\"}");
  };
  if (trace) {
    for (const auto& def : kPerLayer) add(def);
  } else {
    for (const auto& def : kEndToEnd) add(def);
  }
  if (!missing.empty()) {
    for (const auto& m : missing) std::cerr << "perfbench: no value for " << m << '\n';
    return false;
  }
  for (const auto& note : r.notes) std::cout << note << '\n';
  if (trace) {
    for (const auto& [name, why] : r.not_applicable)
      if (r.values.count(name) == 0)
        std::cout << "n/a (reported as 0): " << name << " -- " << why << '\n';
  }
  std::cout << "{\"correct\":" << (r.correct && r.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
            << ",\"metrics\":{" << metrics << "}}" << std::endl;
  return true;
}

// ---- tracing -------------------------------------------------------------
// Spans live in memory and are written out at the end as Chrome trace_event
// JSON (the format Plan::trace emits). A span's layer is its name up to the
// first '.', or "bench" for the operation's root span. Spans recorded here
// wrap calls made by this file only; nothing is traced inside the program.

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* t, int idx) : t_(t), idx_(idx) {}
    ~Scope() {
      if (idx_ >= 0) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_;
  };

  void enable() {
    on_ = true;
    epoch_ = Clock::now();
  }
  [[nodiscard]] bool on() const { return on_; }

  /// Starts a new operation; its spans share the returned id.
  std::int64_t begin_op() { return ++op_; }

  [[nodiscard]] Scope span(const char* name) {
    if (!on_) return Scope(this, -1);
    spans_.push_back(Span{name, op_, current_, ns(), -1});
    current_ = static_cast<int>(spans_.size()) - 1;
    return Scope(this, current_);
  }

  /// Re-attributes `seconds` of `from`'s self time to `to` (e.g. the engine
  /// seconds Result reports move from the api span's self time to core).
  void transfer(const std::string& from, const std::string& to, double seconds) {
    if (!on_) return;
    adjust_[from] -= seconds;
    adjust_[to] += seconds;
  }

  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_)
      if (name == s.name) out.push_back(static_cast<double>(s.t1 - s.t0) * 1e-9);
    return out;
  }

  /// Self seconds per layer, summed over all traced operations.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const auto& s : spans_)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.t1 - s.t0) * 1e-9;
    std::map<std::string, double> self = adjust_;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      self[layer_of(s)] += static_cast<double>(s.t1 - s.t0) * 1e-9 - child[i];
    }
    return self;
  }

  [[nodiscard]] std::int64_t ops_traced() const {
    std::unordered_set<std::int64_t> ops;
    for (const auto& s : spans_) ops.insert(s.op);
    return static_cast<std::int64_t>(ops.size());
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  void write_chrome(const std::string& path, const std::string& process) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0,"
        << "\"args\":{\"name\":\"" << process << "\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      out << ",{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s)
          << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":" << s.t0 / 1000
          << ",\"dur\":" << (s.t1 - s.t0) / 1000 << ",\"args\":{\"op\":" << s.op
          << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "]}";
  }

 private:
  struct Span {
    const char* name;
    std::int64_t op;
    int parent;
    std::int64_t t0;
    std::int64_t t1;
  };

  static std::string layer_of(const Span& s) {
    const char* dot = std::strchr(s.name, '.');
    return dot == nullptr ? std::string("bench") : std::string(s.name, dot);
  }

  [[nodiscard]] std::int64_t ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

  void close(int idx) {
    auto& s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = ns();
    current_ = s.parent;
  }

  bool on_{false};
  Clock::time_point epoch_{};
  std::int64_t op_{0};
  int current_{-1};
  std::vector<Span> spans_;
  std::map<std::string, double> adjust_;
};

const char* const kSelfLayers[] = {"bench", "graph", "api", "core", "louvain", "service"};

/// Reports self time per layer (mean per traced operation) and the tracing
/// overhead: traced minus untraced median operation latency.
void report_tracing(Report& rep, const Tracer& tracer, const std::vector<double>& untraced_ms,
                    const std::vector<double>& traced_ms) {
  const auto self = tracer.self_seconds();
  const double ops = static_cast<double>(std::max<std::int64_t>(1, tracer.ops_traced()));
  for (const char* layer : kSelfLayers) {
    auto it = self.find(layer);
    rep.set(std::string("self.") + layer + "_s", it == self.end() ? 0.0 : it->second / ops);
  }
  rep.set("trace.untraced_p50_ms", median(untraced_ms));
  rep.set("trace.traced_p50_ms", median(traced_ms));
  rep.set("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
  rep.set("trace.spans", static_cast<double>(tracer.size()));
  rep.notes.push_back("tracing: " + std::to_string(untraced_ms.size()) + " untraced / " +
                      std::to_string(traced_ms.size()) + " traced ops, p50 " +
                      fmt_number(median(untraced_ms)) + " vs " + fmt_number(median(traced_ms)) +
                      " ms");
}

// ---- shared per-layer readers ----------------------------------------------

/// Per-solve layer samples from one distributed Result.
void sample_dist(std::map<std::string, std::vector<double>>& s, const Result& r) {
  const auto& d = *r.distributed;
  s["core.engine_s"].push_back(d.seconds);
  s["core.rebuild_s"].push_back(d.breakdown.rebuild);
  s["core.compute_s"].push_back(d.breakdown.compute);
  s["core.ghost_exchange_s"].push_back(d.breakdown.ghost_exchange);
  s["core.community_info_s"].push_back(d.breakdown.community_info);
  s["core.delta_exchange_s"].push_back(d.breakdown.delta_exchange);
  s["core.allreduce_s"].push_back(d.breakdown.allreduce);
  s["core.comm_hidden_s"].push_back(d.breakdown.comm_hidden);
  double phase0 = 0, later = 0, lambda = 1.0;
  for (std::size_t i = 0; i < d.phase_telemetry.size(); ++i) {
    (i == 0 ? phase0 : later) += d.phase_telemetry[i].seconds;
    lambda = std::max(lambda, d.phase_telemetry[i].load_lambda);
  }
  s["core.phase0_s"].push_back(phase0);
  s["core.later_phases_s"].push_back(later);
  s["core.load_lambda_max"].push_back(lambda);
}

/// Deterministic counters of one distributed Result.
void set_dist_counters(Report& rep, const Result& r, double arcs) {
  const auto& d = *r.distributed;
  rep.set("core.phases", d.phases);
  rep.set("core.iterations", static_cast<double>(d.total_iterations));
  rep.set("comm.messages", static_cast<double>(d.messages));
  rep.set("comm.bytes", static_cast<double>(d.bytes));
  rep.set("comm.bytes_per_arc", static_cast<double>(d.bytes) / arcs);
  rep.set("comm.duplicates_dropped",
          static_cast<double>(d.counters[util::Counter::kDuplicatesDropped]));
  rep.set("comm.retransmits", static_cast<double>(r.recovery.retransmits));
}

void set_medians(Report& rep, const std::map<std::string, std::vector<double>>& samples) {
  for (const auto& [name, v] : samples) rep.set(name, median(v));
}

/// util layer: table CRC32 throughput on a buffer sized against the
/// last-level cache (both sizes reported).
void probe_crc32(Report& rep, std::uint64_t seed) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t llc_bytes = llc > 0 ? static_cast<std::size_t>(llc) : (32u << 20);
  const std::size_t cap = std::size_t{512} << 20;
  const std::size_t bytes = std::min(4 * llc_bytes, cap);
  std::vector<std::uint64_t> buf(bytes / 8);
  util::Xoshiro256StarStar rng(seed);
  for (auto& w : buf) w = rng();
  const auto t0 = Clock::now();
  const std::uint32_t crc = util::crc32(buf.data(), buf.size() * 8);
  const double t = seconds_since(t0);
  rep.set("util.crc32_mb_s", static_cast<double>(bytes) / 1e6 / t);
  rep.set("util.crc32_buffer_mb", static_cast<double>(bytes) / 1e6);
  rep.set("util.llc_mb", static_cast<double>(llc_bytes) / 1e6);
  rep.notes.push_back("util.crc32: " + fmt_number(static_cast<double>(bytes) / 1e6) +
                      " MB buffer, LLC " + fmt_number(static_cast<double>(llc_bytes) / 1e6) +
                      " MB" + (bytes < 4 * llc_bytes ? " (buffer capped at 512 MiB)" : "") +
                      ", crc " + std::to_string(crc));
}

/// comm layer from outside: comm::run(4) + Comm::alltoallv with every peer
/// slot carrying `msg_bytes`, the workload's mean message size.
void probe_alltoallv(Report& rep, double msg_bytes) {
  const std::size_t words = std::max<std::size_t>(1, static_cast<std::size_t>(msg_bytes / 8));
  const int rounds = static_cast<int>(std::clamp(200e6 / (words * 8.0 * kRanks * kRanks), 20.0, 5000.0));
  double elapsed = 0;
  comm::run(kRanks, [&](comm::Comm& c) {
    std::vector<std::vector<std::uint64_t>> outbox(kRanks, std::vector<std::uint64_t>(words, 1));
    c.barrier();
    const auto t0 = Clock::now();
    for (int i = 0; i < rounds; ++i) {
      auto in = c.alltoallv(outbox);
      outbox.swap(in);
    }
    c.barrier();
    if (c.is_root()) elapsed = seconds_since(t0);
  });
  const double moved = static_cast<double>(words) * 8.0 * kRanks * (kRanks - 1) * rounds;
  rep.set("comm.alltoallv_mb_s", moved / 1e6 / elapsed);
  rep.set("comm.alltoallv_msg_bytes", static_cast<double>(words * 8));
}

/// The oracle: modularity recomputed from scratch on `g` must match `r`.
bool modularity_matches(const graph::Csr& g, const Result& r, double& recomputed) {
  if (static_cast<VertexId>(r.community.size()) != g.num_vertices()) return false;
  recomputed = louvain::modularity(g, r.community);
  return std::abs(recomputed - r.modularity) <= 1e-9 * std::max(1.0, std::abs(recomputed));
}

std::uint64_t fingerprint_edges(const std::vector<Edge>& edges) {
  std::uint64_t h = 0x5eed;
  for (const auto& e : edges) {
    std::uint64_t wbits;
    std::memcpy(&wbits, &e.weight, sizeof wbits);
    h = util::hash_combine(h, util::hash_combine(util::hash_combine(
                                  static_cast<std::uint64_t>(e.src),
                                  static_cast<std::uint64_t>(e.dst)), wbits));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string trace_out;
  bool describe_inputs{false};
};

/// Repeats `once` (which returns its seconds) as kSetupReps/kSetupMinSeconds
/// ask; returns the median.
template <typename Op>
double repeated_setup(Op&& once) {
  std::vector<double> t;
  while (static_cast<int>(t.size()) < kSetupReps ||
         (sum(t) < kSetupMinSeconds && static_cast<int>(t.size()) < kSetupMaxReps))
    t.push_back(once());
  return median(t);
}

/// Runs `op` until at least `seconds` have passed and `min_ops` ran.
template <typename Op>
void timed_loop(double seconds, int min_ops, Op&& op) {
  const auto t0 = Clock::now();
  for (int n = 0; n < min_ops || seconds_since(t0) < seconds; ++n) op();
}

// ---- one-shot: the CLI path ------------------------------------------------

// Graphs are fixed instances -- as `dlouvain_gen` builds them with its
// default seed -- because solve cost differs a lot between generator seeds
// (RMAT-16 runs 20 to 41 iterations across seeds). The run seed shapes what
// the program is handed instead: the record order and orientation of the
// .dlel, the batch sequence of the stream and the job sequence of the service.
constexpr std::uint64_t kGraphSeed = 42;

gen::GeneratedGraph make_oneshot_graph(const std::string& workload, std::uint64_t seed) {
  gen::GeneratedGraph g;
  if (workload == "oneshot-rmat16") {
    gen::RmatParams p;
    p.scale = 16;
    p.edges_per_vertex = 8;
    p.seed = kGraphSeed;
    g = gen::rmat(p);
  } else {
    g = gen::banded(200000, 5);
  }
  // Seeded shuffle and orientation: the same graph, a different file.
  util::Xoshiro256StarStar rng(seed);
  for (std::size_t i = g.edges.size(); i > 1; --i) {
    std::swap(g.edges[i - 1], g.edges[rng.next_below(i)]);
    if (rng() & 1) std::swap(g.edges[i - 1].src, g.edges[i - 1].dst);
  }
  return g;
}

const char* const kDlel = "graph.dlel";

/// The .dlel's own CRC32 footer: the CRC of its header and records.
std::string dlel_crc(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::streamoff>(in.tellg());
  std::uint32_t footer = 0;
  in.seekg(size - static_cast<std::streamoff>(sizeof footer));
  in.read(reinterpret_cast<char*>(&footer), sizeof footer);
  if (!in) throw std::runtime_error("cannot read " + path);
  return hex(footer);
}

int run_oneshot(const Options& opt) {
  Report rep;
  Tracer tracer;
  std::map<std::string, std::vector<double>> layer;

  // Set-up: generate and write the .dlel, several times; keep the last.
  const double setup_s = repeated_setup([&] {
    const auto t0 = Clock::now();
    auto t = Clock::now();
    const auto g = make_oneshot_graph(opt.workload, opt.seed);
    layer["gen.generate_s"].push_back(seconds_since(t));
    t = Clock::now();
    graph::write_binary(kDlel, g.num_vertices, g.edges);
    layer["gen.write_dlel_s"].push_back(seconds_since(t));
    return seconds_since(t0);
  });
  const std::string inputs = "{\"dlel_crc32\":\"" + dlel_crc(kDlel) + "\"}";
  if (opt.describe_inputs) {
    std::cout << inputs << std::endl;
    return 0;
  }
  rep.notes.push_back("inputs: " + inputs);

  const auto plan = Plan::distributed(kRanks).threads(1);
  graph::Csr csr;
  Result last;

  // One solve along the CLI path; returns its wall seconds (file -> Result).
  auto solve = [&]() -> double {
    tracer.begin_op();
    auto root = tracer.span("solve");
    const auto t0 = Clock::now();
    bool crc_ok = false;
    {
      auto s = tracer.span("graph.verify_crc");
      crc_ok = graph::verify_binary_crc(kDlel);
    }
    if (!crc_ok) throw std::runtime_error("graph.dlel failed its CRC check");
    graph::BinaryHeader header;
    std::vector<Edge> edges;
    {
      auto s = tracer.span("graph.read");
      header = graph::read_binary_header(kDlel);
      edges = graph::read_binary_slice(kDlel, 0, header.num_edges);
    }
    {
      auto s = tracer.span("graph.build_csr");
      csr = graph::from_edges(header.num_vertices, edges);
    }
    {
      auto s = tracer.span("api.run");
      last = plan.run(csr);
    }
    const double wall = seconds_since(t0);
    tracer.transfer("api", "core", last.seconds);
    {
      auto s = tracer.span("louvain.modularity_check");
      double q = 0;
      if (!modularity_matches(csr, last, q))
        rep.fail("solve: reported Q " + fmt_number(last.modularity) + " != recomputed " +
                 fmt_number(q));
    }
    return wall;
  };

  auto attempt = [&](std::vector<double>& walls) {
    ++rep.attempted;
    try {
      walls.push_back(solve());
    } catch (const std::exception& e) {
      rep.fail(std::string("solve threw: ") + e.what());
    }
  };

  {
    const auto t0 = Clock::now();
    std::vector<double> ignored;
    attempt(ignored);  // untimed warm-up
    layer["warmup_s"].push_back(seconds_since(t0));
  }

  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> untraced;
  timed_loop(loop_s, 5, [&] { attempt(untraced); });
  const double modularity = last.modularity;

  if (!opt.trace) {
    rep.set("setup_s", setup_s);
    rep.set("op_p50_ms", median(untraced) * 1e3);
    rep.set("ops_per_s", 1.0 / median(untraced));
    rep.set("modularity", modularity);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.notes.push_back("solve_s p50 " + fmt_number(median(untraced)) + " s over " +
                        std::to_string(untraced.size()) + " solves (CLI path, " +
                        std::to_string(kRanks) + " ranks x 1 thread)");
    return emit(rep, false) ? 0 : 1;
  }

  // Traced half: spans around every module call, plus Result's breakdown.
  tracer.enable();
  std::vector<double> traced;
  timed_loop(loop_s, 5, [&] {
    attempt(traced);
    if (!last.distributed) return;
    sample_dist(layer, last);
    layer["api.outside_engine_s"].push_back(tracer.durations("api.run").back() - last.seconds);
  });
  for (const char* name : {"api.run", "graph.verify_crc", "graph.read", "graph.build_csr",
                           "louvain.modularity_check"}) {
    std::string key = std::string(name) + "_s";
    layer[key] = tracer.durations(name);
  }
  for (auto& ms : untraced) ms *= 1e3;
  for (auto& ms : traced) ms *= 1e3;
  report_tracing(rep, tracer, untraced, traced);
  set_medians(rep, layer);
  rep.set("graph.arcs", static_cast<double>(csr.num_arcs()));
  if (last.distributed) set_dist_counters(rep, last, static_cast<double>(csr.num_arcs()));

  // Probes outside the timed loops.
  probe_crc32(rep, opt.seed);
  probe_alltoallv(rep, last.distributed && last.distributed->messages > 0
                           ? static_cast<double>(last.distributed->bytes) /
                                 static_cast<double>(last.distributed->messages)
                           : 1024.0);
  {
    const auto t0 = Clock::now();
    const auto serial = Plan::serial().run(csr);
    rep.set("louvain.serial_s", seconds_since(t0));
    rep.set("louvain.serial_modularity", serial.modularity);
  }
  {
    const auto t0 = Clock::now();
    const auto p1 = Plan::distributed(1).threads(1).run(csr);
    rep.set("core.p1_s", seconds_since(t0));
    rep.notes.push_back("core.p1: Q " + fmt_number(p1.modularity));
  }

  rep.na(kStreamOnly, "one-shot workload: no Session");
  rep.na({"quality.nmi"}, "no planted ground truth for this generator");
  rep.na(kServiceOnly, "one-shot workload does not go through service/");
  rep.notes.push_back("solve_s p50 untraced " + fmt_number(median(untraced) / 1e3) + " s, Q " +
                      fmt_number(modularity));
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out, "perfbench " + opt.workload);
  return emit(rep, true) ? 0 : 1;
}

// ---- streaming: Session::update ---------------------------------------------

gen::GeneratedGraph make_lfr(VertexId n, std::uint64_t seed) {
  // Parameters of `dlouvain_gen --family lfr --n <n> --mu 0.2`.
  gen::LfrParams p;
  p.num_vertices = n;
  p.avg_degree = 20;
  p.max_degree = 60;
  p.mu = 0.2;
  p.max_community = std::max<VertexId>(40, n / 20);
  p.seed = seed;
  return gen::lfr(p);
}

/// The benchmark's own copy of the evolving edge list: the source of every
/// batch and the graph the final modularity oracle is computed on.
class EdgeMirror {
 public:
  EdgeMirror(VertexId n, const std::vector<Edge>& edges) : n_(n) {
    for (const auto& e : edges) add(e.src, e.dst, e.weight);
  }

  /// Half removals of existing edges, half additions between uniform
  /// endpoints (never an edge this batch removes).
  EdgeBatch make_batch(util::Xoshiro256StarStar& rng, int size) const {
    EdgeBatch batch;
    std::unordered_set<std::uint64_t> removed;
    while (static_cast<int>(removed.size()) < size / 2) {
      const auto& [u, v] = list_[rng.next_below(list_.size())];
      if (removed.insert(key(u, v)).second) batch.remove(u, v);
    }
    for (int added = 0; added < size - size / 2;) {
      const auto u = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n_)));
      const auto v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n_)));
      if (u == v || removed.count(key(u, v)) != 0) continue;
      batch.add(u, v, 1.0);
      ++added;
    }
    return batch;
  }

  void apply(const EdgeBatch& batch) {
    for (const auto& c : batch.changes())
      if (c.remove) erase(c.u, c.v);
    for (const auto& c : batch.changes())
      if (!c.remove) add(c.u, c.v, c.weight);
  }

  [[nodiscard]] graph::Csr csr() const {
    std::vector<Edge> edges;
    edges.reserve(list_.size());
    for (const auto& [u, v] : list_) edges.push_back(Edge{u, v, index_.at(key(u, v)).second});
    return graph::from_edges(n_, edges);
  }

 private:
  static std::uint64_t key(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
  }
  void add(VertexId u, VertexId v, Weight w) {
    auto [it, inserted] = index_.try_emplace(key(u, v), list_.size(), w);
    if (inserted)
      list_.emplace_back(std::min(u, v), std::max(u, v));
    else
      it->second.second += w;
  }
  void erase(VertexId u, VertexId v) {
    auto it = index_.find(key(u, v));
    const std::size_t pos = it->second.first;
    const auto moved = list_.back();
    list_[pos] = moved;
    index_[key(moved.first, moved.second)].first = pos;
    list_.pop_back();
    index_.erase(it);
  }

  VertexId n_;
  std::vector<std::pair<VertexId, VertexId>> list_;
  std::unordered_map<std::uint64_t, std::pair<std::size_t, Weight>> index_;
};

std::uint64_t fingerprint_batch(std::uint64_t h, const EdgeBatch& batch) {
  for (const auto& c : batch.changes()) {
    std::uint64_t wbits;
    std::memcpy(&wbits, &c.weight, sizeof wbits);
    h = util::hash_combine(h, util::hash_combine(
                                  util::hash_combine(static_cast<std::uint64_t>(c.u),
                                                     static_cast<std::uint64_t>(c.v)),
                                  wbits ^ (c.remove ? 1 : 0)));
  }
  return h;
}

int run_stream(const Options& opt) {
  constexpr VertexId kN = 100000;
  Report rep;
  Tracer tracer;
  std::map<std::string, std::vector<double>> layer;

  const auto plan = Plan::distributed(kRanks).threads(1);
  gen::GeneratedGraph g;
  std::optional<Session> session;
  double setup_s = 0;
  if (!opt.describe_inputs) setup_s = repeated_setup([&] {
    session.reset();
    const auto t0 = Clock::now();
    auto t = Clock::now();
    g = make_lfr(kN, kGraphSeed);
    layer["gen.generate_s"].push_back(seconds_since(t));
    t = Clock::now();
    const auto csr = graph::from_edges(g.num_vertices, g.edges);
    layer["graph.build_csr_s"].push_back(seconds_since(t));
    t = Clock::now();
    session.emplace(plan.open(csr));
    layer["api.open_s"].push_back(seconds_since(t));
    return seconds_since(t0);
  });
  if (opt.describe_inputs) g = make_lfr(kN, kGraphSeed);

  EdgeMirror mirror(g.num_vertices, g.edges);
  util::Xoshiro256StarStar rng(util::hash_combine(opt.seed, 0xba7c4));
  std::uint64_t batch_fp = 0x5eed;
  auto inputs = [&] {
    return "{\"graph\":\"" + hex(fingerprint_edges(g.edges)) + "\",\"batches_" +
           std::to_string(kStreamMinUpdates) + "\":\"" + hex(batch_fp) + "\"}";
  };
  if (opt.describe_inputs) {
    for (int i = 0; i < kStreamMinUpdates; ++i) {
      const auto batch = mirror.make_batch(rng, kStreamBatch);
      batch_fp = fingerprint_batch(batch_fp, batch);
      mirror.apply(batch);
    }
    std::cout << inputs() << std::endl;
    return 0;
  }
  if (!session->result().distributed) throw std::runtime_error("stream: no distributed result");
  const std::vector<CommunityId> opening = session->result().community;

  // Counters are averaged over the first kStreamMinUpdates updates and Q is
  // read after the last of them, so both are fixed by the seed, not by time.
  int updates = 0;
  double q_at_min = 0;
  std::map<std::string, double> first_sums;
  auto update = [&](std::vector<double>& walls) {
    const auto batch = mirror.make_batch(rng, kStreamBatch);
    ++rep.attempted;
    tracer.begin_op();
    UpdateStats stats;
    double wall = 0;
    try {
      auto root = tracer.span("update");
      const auto t0 = Clock::now();
      {
        auto s = tracer.span("api.update");
        stats = session->update(batch);
      }
      wall = seconds_since(t0);
    } catch (const std::exception& e) {
      rep.fail(std::string("update threw: ") + e.what());
      return;
    }
    mirror.apply(batch);
    ++updates;
    walls.push_back(wall);
    const auto& r = session->result();
    tracer.transfer("api", "core", r.distributed->seconds);
    if (tracer.on()) {
      sample_dist(layer, r);
      layer["api.update_outside_engine_s"].push_back(wall - r.distributed->seconds);
    }
    if (updates <= kStreamMinUpdates) {
      batch_fp = fingerprint_batch(batch_fp, batch);
      first_sums["stream.vertices_reactivated"] += static_cast<double>(stats.vertices_reactivated);
      first_sums["stream.reconverge_iterations"] += static_cast<double>(stats.reconverge_iterations);
      first_sums["stream.fallbacks"] += stats.fell_back_to_full ? 1 : 0;
      first_sums["core.phases"] += r.distributed->phases;
      first_sums["core.iterations"] += static_cast<double>(r.distributed->total_iterations);
      first_sums["comm.messages"] += static_cast<double>(r.distributed->messages);
      first_sums["comm.bytes"] += static_cast<double>(r.distributed->bytes);
      first_sums["comm.duplicates_dropped"] +=
          static_cast<double>(r.distributed->counters[util::Counter::kDuplicatesDropped]);
      first_sums["comm.retransmits"] += static_cast<double>(r.recovery.retransmits);
      if (updates == kStreamMinUpdates) q_at_min = r.modularity;
    }
  };

  {
    const auto t0 = Clock::now();
    std::vector<double> ignored;
    update(ignored);  // untimed warm-up (counts towards the fixed first 100)
    layer["warmup_s"].push_back(seconds_since(t0));
  }
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> untraced;
  timed_loop(loop_s, opt.trace ? 0 : kStreamMinUpdates, [&] { update(untraced); });
  std::vector<double> traced;
  if (opt.trace) {
    tracer.enable();
    timed_loop(loop_s, 0, [&] { update(traced); });
    while (updates < kStreamMinUpdates) update(traced);
  }
  rep.notes.push_back("inputs: " + inputs());

  // Oracle: modularity of the final assignment on the mirror's edge list.
  {
    const auto t0 = Clock::now();
    const auto final_csr = mirror.csr();
    double q = 0;
    ++rep.attempted;
    if (!modularity_matches(final_csr, session->result(), q))
      rep.fail("stream: final Q " + fmt_number(session->result().modularity) +
               " != recomputed on the mirror " + fmt_number(q));
    layer["louvain.modularity_check_s"].push_back(seconds_since(t0));
    rep.notes.push_back("stream oracle: Q " + fmt_number(session->result().modularity) +
                        " after " + std::to_string(updates) + " updates, recomputed " +
                        fmt_number(q));
  }

  if (!opt.trace) {
    rep.set("setup_s", setup_s);
    rep.set("op_p50_ms", median(untraced) * 1e3);
    rep.set("ops_per_s", 1.0 / median(untraced));
    rep.set("modularity", q_at_min);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.notes.push_back("update_p50_ms " + fmt_number(median(untraced) * 1e3) +
                        ", update_p90_ms " + fmt_number(quantile(untraced, 0.9) * 1e3) + " over " +
                        std::to_string(untraced.size()) + " updates of " +
                        std::to_string(kStreamBatch) + " changes");
    return emit(rep, false) ? 0 : 1;
  }

  layer["api.update_s"] = tracer.durations("api.update");
  rep.set("stream.update_p90_ms", quantile(untraced, 0.9) * 1e3);
  for (auto& ms : untraced) ms *= 1e3;
  for (auto& ms : traced) ms *= 1e3;
  report_tracing(rep, tracer, untraced, traced);
  set_medians(rep, layer);
  for (const auto& [name, total] : first_sums)
    rep.set(name, name == "stream.fallbacks" ? total : total / kStreamMinUpdates);
  const double arcs = 2.0 * static_cast<double>(g.edges.size());
  rep.set("graph.arcs", arcs);
  rep.set("comm.bytes_per_arc", first_sums["comm.bytes"] / kStreamMinUpdates / arcs);
  rep.set("quality.nmi", quality::normalized_mutual_information(opening, g.ground_truth));

  probe_crc32(rep, opt.seed);
  probe_alltoallv(rep, first_sums["comm.messages"] > 0
                           ? first_sums["comm.bytes"] / first_sums["comm.messages"]
                           : 1024.0);
  rep.na(kOneshotOnly, "the stream opens its session from memory; no .dlel, no one-shot solve");
  rep.na(kServiceOnly, "streaming workload does not go through service/");
  rep.notes.push_back("stream: " + std::to_string(updates) + " updates in all");
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out, "perfbench " + opt.workload);
  return emit(rep, true) ? 0 : 1;
}

// ---- service: dlouvaind frames over a Unix socket ----------------------------

double json_value(const std::string& doc, const std::string& key, std::size_t from = 0) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = doc.find(pat, from);
  if (pos == std::string::npos) throw std::runtime_error("manifest has no " + key);
  const char* p = doc.c_str() + pos + pat.size();
  if (std::strncmp(p, "true", 4) == 0) return 1;
  if (std::strncmp(p, "false", 5) == 0) return 0;
  return std::strtod(p, nullptr);
}

constexpr const char* kServiceKey = ",\"service\":";

struct ServiceJobs {
  std::vector<std::vector<std::byte>> payloads;  // one kSubmit payload per graph
  std::vector<int> sequence;                     // graph index per call, per round
};

ServiceJobs make_service_jobs(std::uint64_t seed) {
  ServiceJobs jobs;
  for (int j = 0; j < kServiceGraphs; ++j) {
    const auto g = make_lfr(20000, kGraphSeed + static_cast<std::uint64_t>(j));
    const auto csr = graph::from_edges(g.num_vertices, g.edges);
    service::JobRequest req;
    req.config.ranks = kServiceRanks;
    req.config.threads = 1;
    req.num_vertices = csr.num_vertices();
    req.edges = service::canonical_edges(csr);
    jobs.payloads.push_back(service::encode_job_request(req));
  }
  // Each graph's first call is a miss; the hits after it repeat graphs
  // already seen, drawn from the seed.
  util::Xoshiro256StarStar rng(util::hash_combine(seed, 0x5e41c));
  for (int j = 0; j < kServiceGraphs; ++j) {
    jobs.sequence.push_back(j);
    for (int h = 0; h < kServiceHitsPerGraph; ++h)
      jobs.sequence.push_back(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(j + 1))));
  }
  return jobs;
}

int run_service(const Options& opt) {
  Report rep;
  Tracer tracer;
  std::map<std::string, std::vector<double>> layer;
  const std::string sock = "svc.sock";

  ServiceJobs jobs;
  double setup_s = 0;
  if (!opt.describe_inputs) setup_s = repeated_setup([&] {
    const auto t0 = Clock::now();
    auto t = Clock::now();
    jobs = make_service_jobs(opt.seed);
    layer["gen.generate_s"].push_back(seconds_since(t));
    service::JobScheduler scheduler;
    service::ServiceEndpoint endpoint(service::EndpointOptions{sock}, scheduler);
    endpoint.start();
    auto client = service::ServiceClient::connect_unix(sock);
    return seconds_since(t0);
  });
  if (opt.describe_inputs) jobs = make_service_jobs(opt.seed);
  std::string inputs = "{\"payload_crc32\":[";
  for (std::size_t j = 0; j < jobs.payloads.size(); ++j)
    inputs.append(j ? ",\"" : "\"").append(hex(util::crc32(jobs.payloads[j]))).append("\"");
  inputs += "],\"sequence\":[";
  for (std::size_t k = 0; k < jobs.sequence.size(); ++k)
    inputs.append(k ? "," : "").append(std::to_string(jobs.sequence[k]));
  inputs += "]}";
  if (opt.describe_inputs) {
    std::cout << inputs << std::endl;
    return 0;
  }
  rep.notes.push_back("inputs: " + inputs);

  std::vector<double> modularity(kServiceGraphs, 0.0);
  double queue_depth_max = 0;
  std::map<std::string, double> counters;  // deterministic per-miss counters, per graph 0

  // One closed-loop round on a fresh scheduler: every call waits for its
  // reply before the next is sent. Returns the round's jobs per second.
  auto round = [&](std::vector<double>& hit_ms, std::vector<double>& miss_ms) -> double {
    double busy = 0;
    service::JobScheduler scheduler;
    service::ServiceEndpoint endpoint(service::EndpointOptions{sock}, scheduler);
    endpoint.start();
    auto client = service::ServiceClient::connect_unix(sock);
    std::vector<std::string> miss_prefix(kServiceGraphs);
    for (const int j : jobs.sequence) {
      const bool expect_hit = !miss_prefix[static_cast<std::size_t>(j)].empty();
      ++rep.attempted;
      tracer.begin_op();
      service::Frame reply;
      double wall = 0;
      try {
        auto root = tracer.span("job");
        const auto t0 = Clock::now();
        {
          auto s = tracer.span("service.call");
          reply = client.call(service::FrameType::kSubmit, jobs.payloads[static_cast<std::size_t>(j)]);
        }
        wall = seconds_since(t0);
        busy += wall;
      } catch (const std::exception& e) {
        rep.fail(std::string("service call threw: ") + e.what());
        continue;
      }
      if (reply.type != service::FrameType::kManifest) {
        rep.fail("reply is not kManifest");
        continue;
      }
      const std::string body(reinterpret_cast<const char*>(reply.payload.data()), reply.payload.size());
      const auto svc = body.rfind(kServiceKey);
      if (svc == std::string::npos) {
        rep.fail("manifest has no service section");
        continue;
      }
      const bool hit = json_value(body, "cache_hit", svc) != 0;
      queue_depth_max = std::max(queue_depth_max, json_value(body, "queue_depth", svc));
      const std::string prefix = body.substr(0, svc);
      if (hit != expect_hit) {
        rep.fail(std::string("expected a cache ") + (expect_hit ? "hit" : "miss"));
        continue;
      }
      if (hit) {
        if (prefix != miss_prefix[static_cast<std::size_t>(j)]) {
          rep.fail("hit manifest differs from its miss outside the service section");
          continue;
        }
        hit_ms.push_back(wall * 1e3);
        continue;
      }
      miss_prefix[static_cast<std::size_t>(j)] = prefix;
      miss_ms.push_back(wall * 1e3);
      modularity[static_cast<std::size_t>(j)] = json_value(body, "modularity");
      layer["service.miss_engine_s"].push_back(json_value(body, "seconds"));
      if (j == 0) {
        counters["core.phases"] = json_value(body, "phases");
        counters["core.iterations"] = json_value(body, "total_iterations");
        counters["comm.messages"] = json_value(body, "messages");
        counters["comm.bytes"] = json_value(body, "bytes");
        counters["comm.duplicates_dropped"] = json_value(body, "comm.duplicates_dropped");
        counters["comm.retransmits"] = json_value(body, "retransmits", body.find("\"ladder\":"));
      }
      if (tracer.on()) {
        const auto bd = body.find("\"breakdown\":");
        layer["core.engine_s"].push_back(json_value(body, "seconds"));
        for (const char* b : {"rebuild", "compute", "ghost_exchange", "community_info",
                              "delta_exchange", "allreduce", "comm_hidden"})
          layer[std::string("core.") + b + "_s"].push_back(json_value(body, b, bd));
        double phase0 = 0, later = 0, lambda = 1.0;
        const std::string phase_key = "{\"phase\":";
        bool first = true;
        for (auto at = body.find(phase_key, body.find("\"phases_detail\":"));
             at != std::string::npos; at = body.find(phase_key, at + 1), first = false) {
          (first ? phase0 : later) += json_value(body, "seconds", at);
          lambda = std::max(lambda, json_value(body, "load_lambda", at));
        }
        layer["core.phase0_s"].push_back(phase0);
        layer["core.later_phases_s"].push_back(later);
        layer["core.load_lambda_max"].push_back(lambda);
        tracer.transfer("service", "core", json_value(body, "seconds"));
      }
    }
    const auto stats = client.call(service::FrameType::kStats);
    const std::string body(reinterpret_cast<const char*>(stats.payload.data()), stats.payload.size());
    ++rep.attempted;
    const double hits = json_value(body, "cache_hits"), misses = json_value(body, "cache_misses");
    const double want_hits = static_cast<double>(jobs.sequence.size() - kServiceGraphs);
    if (stats.type != service::FrameType::kStatsReply || hits != want_hits ||
        misses != kServiceGraphs || json_value(body, "rejected") != 0)
      rep.fail("kStats: " + body);
    counters["service.cache_hits"] += hits;
    counters["service.cache_misses"] += misses;
    counters["service.rejected"] += json_value(body, "rejected");
    queue_depth_max = std::max(queue_depth_max, json_value(body, "queue_depth"));
    return busy > 0 ? static_cast<double>(jobs.sequence.size()) / busy : 0.0;
  };

  {
    const auto t0 = Clock::now();
    std::vector<double> hit, miss;
    round(hit, miss);  // untimed warm-up
    layer["warmup_s"].push_back(seconds_since(t0));
  }
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> hit_ms, miss_ms, round_rate;
  timed_loop(loop_s, 2, [&] { round_rate.push_back(round(hit_ms, miss_ms)); });
  double q = 0;
  for (double x : modularity) q += x / kServiceGraphs;

  if (!opt.trace) {
    rep.set("setup_s", setup_s);
    rep.set("op_p50_ms", median(hit_ms));
    rep.set("ops_per_s", median(round_rate));
    rep.set("modularity", q);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.notes.push_back("hit_p50_ms " + fmt_number(median(hit_ms)) + " (n=" +
                        std::to_string(hit_ms.size()) + "), miss_p50_ms " +
                        fmt_number(median(miss_ms)) + " (n=" + std::to_string(miss_ms.size()) +
                        "), jobs_per_s " + fmt_number(rep.values["ops_per_s"]) +
                        " (1 client, closed loop, " + std::to_string(kServiceRanks) + " ranks/job)");
    return emit(rep, false) ? 0 : 1;
  }

  counters.clear();
  tracer.enable();
  std::vector<double> traced_hit, traced_miss;
  timed_loop(loop_s, 2, [&] { round(traced_hit, traced_miss); });
  report_tracing(rep, tracer, hit_ms, traced_hit);
  rep.notes.push_back("service: mean Q of the " + std::to_string(kServiceGraphs) +
                      " distinct jobs " + fmt_number(q));
  set_medians(rep, layer);
  for (const auto& [name, v] : counters) rep.set(name, v);
  rep.set("service.hit_ratio", counters["service.cache_hits"] /
                                   (counters["service.cache_hits"] + counters["service.cache_misses"]));
  rep.set("service.queue_depth_max", queue_depth_max);
  rep.set("service.miss_p50_ms", median(miss_ms));
  rep.set("comm.bytes_per_arc", 0);
  {
    // Frame codec on the job payloads, outside the socket path.
    std::vector<double> enc, dec, mb;
    for (const auto& payload : jobs.payloads) {
      auto t = Clock::now();
      const auto frame = service::encode_frame(service::FrameType::kSubmit, payload);
      enc.push_back(seconds_since(t));
      t = Clock::now();
      std::size_t consumed = 0;
      const auto back = service::decode_frame(frame, consumed);
      dec.push_back(seconds_since(t));
      if (back.payload.size() != payload.size()) rep.fail("decode_frame lost bytes");
      mb.push_back(static_cast<double>(frame.size()) / 1e6);
    }
    rep.set("service.encode_frame_s", median(enc));
    rep.set("service.decode_frame_s", median(dec));
    rep.set("service.frame_mb", median(mb));
  }
  {
    // Arc count of graph 0, as the service builds it from the request.
    const auto req = service::decode_job_request(jobs.payloads[0]);
    const double arcs = static_cast<double>(graph::from_edges(req.num_vertices, req.edges).num_arcs());
    rep.set("graph.arcs", arcs);
    rep.set("comm.bytes_per_arc", counters["comm.bytes"] / arcs);
  }
  probe_crc32(rep, opt.seed);
  probe_alltoallv(rep, counters["comm.messages"] > 0
                           ? counters["comm.bytes"] / counters["comm.messages"]
                           : 1024.0);
  rep.na(kOneshotOnly, "runs inside the daemon or on the one-shot inputs only");
  rep.na(kStreamOnly, "service workload submits one-shot jobs");
  rep.na({"graph.build_csr_s", "louvain.modularity_check_s"},
         "runs inside the daemon; the client sees only the manifest");
  rep.na({"quality.nmi"}, "the manifest carries no assignment");
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out, "perfbench " + opt.workload);
  return emit(rep, true) ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") opt.workload = next();
    else if (a == "--seed") opt.seed = std::stoull(next());
    else if (a == "--seconds") opt.seconds = std::stod(next());
    else if (a == "--trace") opt.trace = next() != "0";
    else if (a == "--trace-out") opt.trace_out = next();
    else if (a == "--describe-inputs") opt.describe_inputs = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  return !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: dlouvain_perfbench --workload <name> --seed <n> --seconds <s> "
                   "--trace <0|1> [--trace-out file] [--describe-inputs]\n";
      return 2;
    }
    if (opt.workload == "oneshot-rmat16" || opt.workload == "oneshot-mesh200k")
      return run_oneshot(opt);
    if (opt.workload == "stream-lfr100k") return run_stream(opt);
    if (opt.workload == "service-lfr20k") return run_service(opt);
    std::cerr << "perfbench: unknown workload " << opt.workload << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
