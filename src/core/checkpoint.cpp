#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "graph/binary_io.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace dlouvain::core {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kMetaMagic = 0x444c434b4d455431ULL;   // "DLCKMET1"
constexpr std::uint64_t kChainMagic = 0x444c434b43484e31ULL;  // "DLCKCHN1"
constexpr std::uint64_t kCountersMagic = 0x444c434b43545231ULL;  // "DLCKCTR1"
// v2 (ISSUE 4): adds the sibling counters.bin file. The meta.bin field
// layout is unchanged, so v1 checkpoints stay readable -- they simply have
// no counters file and resume with zero restored counters.
// v3: meta.bin appends the active vertex-range ownership map (the coarse
// graph's partition split points), so a same-p resume reads its partition
// instead of re-deriving it; resuming onto the wrong partition at the same
// p would silently change sweep orders. Coarse graphs are always built on
// the even-vertices split, so the recorded map is that split. v1/v2
// checkpoints (no map) resume on the even-vertices split too.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

// ---- CRC-sealed little record files ------------------------------------

/// Append-only buffer writer; write() seals the file with a trailing CRC32.
class ByteWriter {
 public:
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_i32(std::int32_t v) { put_raw(&v, sizeof v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u8(std::uint8_t v) { put_raw(&v, sizeof v); }
  void put_f64_bits(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  void write(const fs::path& path) const {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) throw std::runtime_error("checkpoint: cannot create " + path.string());
    file.write(reinterpret_cast<const char*>(buffer_.data()),
               static_cast<std::streamsize>(buffer_.size()));
    const std::uint32_t crc = util::crc32(buffer_.data(), buffer_.size());
    file.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    if (!file) throw std::runtime_error("checkpoint: write failed for " + path.string());
  }

 private:
  void put_raw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }
  std::vector<std::byte> buffer_;
};

/// Whole-file reader that verifies the trailing CRC32 before any field is
/// parsed. `ok()` is false (never throws) on missing/short/corrupt files so
/// validation can fall back to an older checkpoint.
class ByteReader {
 public:
  explicit ByteReader(const fs::path& path) {
    std::ifstream file(path, std::ios::binary);
    if (!file) return;
    buffer_.assign(std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>());
    if (buffer_.size() < sizeof(std::uint32_t)) return;
    std::uint32_t stored = 0;
    std::memcpy(&stored, buffer_.data() + buffer_.size() - sizeof stored, sizeof stored);
    buffer_.resize(buffer_.size() - sizeof stored);
    ok_ = stored == util::crc32(buffer_.data(), buffer_.size());
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }

  std::uint64_t get_u64() { return get_raw<std::uint64_t>(); }
  std::int64_t get_i64() { return get_raw<std::int64_t>(); }
  std::int32_t get_i32() { return get_raw<std::int32_t>(); }
  std::uint32_t get_u32() { return get_raw<std::uint32_t>(); }
  std::uint8_t get_u8() { return get_raw<std::uint8_t>(); }
  double get_f64_bits() { return std::bit_cast<double>(get_u64()); }

 private:
  template <typename T>
  T get_raw() {
    if (cursor_ + sizeof(T) > buffer_.size()) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, buffer_.data() + cursor_, sizeof v);
    cursor_ += sizeof v;
    return v;
  }
  std::vector<char> buffer_;
  std::size_t cursor_{0};
  bool ok_{false};
};

// ---- checkpoint pieces --------------------------------------------------

struct MetaInfo {
  int ranks{0};
  VertexId orig_global_n{0};
  CheckpointState state;
  std::uint64_t fingerprint{0};
  /// v3: the coarse graph's partition split points (ranks+1 entries), the
  /// EXPLICIT ownership map. Empty for v1/v2 checkpoints.
  std::vector<VertexId> starts;
};

std::optional<MetaInfo> read_meta(const fs::path& path) {
  ByteReader in(path);
  if (!in.ok()) return std::nullopt;
  if (in.get_u64() != kMetaMagic) return std::nullopt;
  const std::uint32_t version = in.get_u32();
  if (version < kMinVersion || version > kVersion) return std::nullopt;
  MetaInfo meta;
  meta.ranks = in.get_i32();
  meta.state.next_phase = in.get_i32();
  meta.state.phases_done = in.get_i32();
  meta.state.iterations_done = in.get_i64();
  meta.orig_global_n = in.get_i64();
  meta.state.prev_outer_mod = in.get_f64_bits();
  meta.state.forced_final = in.get_u8() != 0;
  meta.fingerprint = in.get_u64();
  if (!in.ok() || meta.ranks <= 0 || meta.state.next_phase < 0 || meta.orig_global_n < 0)
    return std::nullopt;
  if (version >= 3) {
    const std::int64_t count = in.get_i64();
    if (!in.ok() || count != meta.ranks + 1) return std::nullopt;
    meta.starts.resize(static_cast<std::size_t>(count));
    for (auto& s : meta.starts) s = in.get_i64();
    if (!in.ok() || meta.starts.front() != 0) return std::nullopt;
    for (std::size_t i = 1; i < meta.starts.size(); ++i) {
      if (meta.starts[i] < meta.starts[i - 1]) return std::nullopt;
    }
  }
  return meta;
}

std::optional<std::vector<VertexId>> read_chain(const fs::path& path) {
  ByteReader in(path);
  if (!in.ok()) return std::nullopt;
  if (in.get_u64() != kChainMagic) return std::nullopt;
  const std::int64_t n = in.get_i64();
  if (!in.ok() || n < 0) return std::nullopt;
  std::vector<VertexId> chain(static_cast<std::size_t>(n));
  for (auto& v : chain) v = in.get_i64();
  if (!in.ok()) return std::nullopt;
  return chain;
}

/// Best-effort read of the v2 counters sidecar: zeros (never nullopt-like
/// failure) when the file is absent, short or corrupt, so a v1 checkpoint or
/// a damaged sidecar degrades to "no restored counters" instead of refusing
/// to resume.
RunCounters read_counters(const fs::path& path) {
  ByteReader in(path);
  if (!in.ok()) return {};
  if (in.get_u64() != kCountersMagic) return {};
  RunCounters c;
  c.seconds = in.get_f64_bits();
  c.messages = in.get_i64();
  c.bytes = in.get_i64();
  if (!in.ok() || c.messages < 0 || c.bytes < 0) return {};
  return c;
}

bool graph_file_valid(const fs::path& path) {
  try {
    return graph::verify_binary_crc(path.string());
  } catch (const std::exception&) {
    return false;
  }
}

/// Phase indices of `dir`'s phase_<k> subdirectories, newest first. Does not
/// validate contents.
std::vector<int> candidate_phases(const std::string& dir) {
  std::vector<int> phases;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr std::string_view prefix = "phase_";
    if (name.rfind(prefix, 0) != 0) continue;
    int k = -1;
    const auto* begin = name.data() + prefix.size();
    const auto* end = name.data() + name.size();
    if (std::from_chars(begin, end, k).ptr != end || k < 0) continue;
    phases.push_back(k);
  }
  std::sort(phases.rbegin(), phases.rend());
  return phases;
}

fs::path phase_dir(const std::string& dir, int phase) {
  return fs::path(dir) / ("phase_" + std::to_string(phase));
}

/// Full structural validation (meta + chain CRCs, graph file CRC).
std::optional<MetaInfo> validate_checkpoint(const std::string& dir, int phase) {
  const fs::path base = phase_dir(dir, phase);
  auto meta = read_meta(base / "meta.bin");
  if (!meta) return std::nullopt;
  ByteReader chain_probe(base / "chain.bin");
  if (!chain_probe.ok()) return std::nullopt;
  if (!graph_file_valid(base / "graph.dlel")) return std::nullopt;
  return meta;
}

}  // namespace

std::uint64_t config_fingerprint(const DistConfig& cfg) {
  // Only fields that change the trajectory of the run; telemetry/threading
  // knobs are deliberately absent (results are identical across them). The
  // constant 1 stands where the retired sparse-vs-dense ghost-exchange
  // topology switch used to be mixed (its default), so fingerprints of
  // existing checkpoints stay valid.
  std::uint64_t h = 0x646c6f75636b7074ULL;  // "dlouckpt"
  const auto mix = [&h](std::uint64_t v) { h = util::hash_combine(h, v); };
  const auto mix_f = [&](double v) { mix(std::bit_cast<std::uint64_t>(v)); };

  mix(cfg.base.seed);
  mix_f(cfg.base.threshold);
  mix(static_cast<std::uint64_t>(cfg.base.max_phases));
  mix(static_cast<std::uint64_t>(cfg.base.max_iterations_per_phase));
  mix_f(cfg.base.resolution);
  mix(cfg.base.early_termination ? 1 : 0);
  mix_f(cfg.base.et_alpha);
  mix_f(cfg.base.et_inactive_cutoff);
  mix(cfg.base.vertex_following ? 1 : 0);
  mix(static_cast<std::uint64_t>(cfg.variant));
  mix(cfg.add_threshold_cycling ? 1 : 0);
  for (const double tau : cfg.cycle_thresholds) mix_f(tau);
  for (const int len : cfg.cycle_lengths) mix(static_cast<std::uint64_t>(len));
  mix_f(cfg.etc_exit_fraction);
  mix(1);
  mix(cfg.use_coloring ? 1 : 0);
  return h;
}

void checkpoint_save(comm::Comm& comm, const std::string& dir,
                     const graph::DistGraph& g, std::span<const VertexId> orig_to_cur,
                     VertexId orig_global_n, const CheckpointState& state,
                     std::uint64_t fingerprint) {
  // All comm traffic below (chain gather, barriers, collective graph write)
  // is checkpoint I/O, not algorithm work: reclassify it so Result::messages
  // and Result::bytes mean the same thing with and without checkpointing.
  const util::TrafficReclassScope reclass(comm.counters(),
                                          util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
  // Rank-order concatenation of the per-rank slices IS the global array
  // (the chain lives on contiguous partitions).
  const auto chain = comm.gatherv<VertexId>(
      std::vector<VertexId>(orig_to_cur.begin(), orig_to_cur.end()), 0);

  const fs::path tmp = fs::path(dir) / (".tmp_phase_" + std::to_string(state.next_phase));
  if (comm.rank() == 0) {
    fs::create_directories(dir);
    fs::remove_all(tmp);
    fs::create_directories(tmp);
  }
  comm.barrier();  // tmp dir exists before the collective graph write

  graph::write_distributed(comm, g, (tmp / "graph.dlel").string());

  if (comm.rank() == 0) {
    ByteWriter meta;
    meta.put_u64(kMetaMagic);
    meta.put_u32(kVersion);
    meta.put_i32(comm.size());
    meta.put_i32(state.next_phase);
    meta.put_i32(state.phases_done);
    meta.put_i64(state.iterations_done);
    meta.put_i64(orig_global_n);
    meta.put_f64_bits(state.prev_outer_mod);
    meta.put_u8(state.forced_final ? 1 : 0);
    meta.put_u64(fingerprint);
    // v3: the ACTIVE ownership map (split points of the coarse graph's
    // partition, identical on every rank).
    const auto& starts = g.partition().starts();
    meta.put_i64(static_cast<std::int64_t>(starts.size()));
    for (const VertexId s : starts) meta.put_i64(s);
    meta.write(tmp / "meta.bin");

    ByteWriter chain_out;
    chain_out.put_u64(kChainMagic);
    chain_out.put_i64(static_cast<std::int64_t>(chain.size()));
    for (const VertexId v : chain) chain_out.put_i64(v);
    chain_out.write(tmp / "chain.bin");

    ByteWriter counters_out;
    counters_out.put_u64(kCountersMagic);
    counters_out.put_f64_bits(state.counters.seconds);
    counters_out.put_i64(state.counters.messages);
    counters_out.put_i64(state.counters.bytes);
    counters_out.write(tmp / "counters.bin");

    // Commit: tmp -> phase_<k>, then drop superseded checkpoints. A crash
    // before the rename leaves the previous checkpoint untouched.
    const fs::path final_dir = phase_dir(dir, state.next_phase);
    fs::remove_all(final_dir);
    fs::rename(tmp, final_dir);
    {
      std::ofstream latest(fs::path(dir) / "LATEST", std::ios::trunc);
      latest << final_dir.filename().string() << '\n';
    }
    for (const int k : candidate_phases(dir)) {
      if (k != state.next_phase) fs::remove_all(phase_dir(dir, k));
    }

    std::error_code ec;
    std::int64_t file_bytes = 0;
    for (const auto& entry : fs::directory_iterator(final_dir, ec)) {
      if (entry.is_regular_file(ec))
        file_bytes += static_cast<std::int64_t>(entry.file_size(ec));
    }
    comm.counters()[util::Counter::kCheckpointFileBytes] += file_bytes;
  }
  comm.barrier();  // checkpoint committed before any rank proceeds
}

std::optional<ResumedState> checkpoint_load(comm::Comm& comm, const std::string& dir,
                                            std::uint64_t fingerprint) {
  // Load traffic is checkpoint I/O, same as save (see checkpoint_save).
  const util::TrafficReclassScope reclass(comm.counters(),
                                          util::Counter::kCheckpointMessages,
                                          util::Counter::kCheckpointBytes);
  // Rank 0 picks the newest structurally-valid checkpoint; everyone agrees
  // on the verdict before any collective I/O.
  enum : std::int64_t { kNone = 0, kOk = 1, kConfigMismatch = 2 };
  std::vector<std::int64_t> header(11, 0);
  std::vector<VertexId> stored_starts;  // v3 ownership map; empty for v1/v2
  if (comm.rank() == 0) {
    for (const int k : candidate_phases(dir)) {
      const auto meta = validate_checkpoint(dir, k);
      if (!meta) continue;  // corrupt/incomplete: fall back to an older one
      if (meta->fingerprint != fingerprint) {
        header[0] = kConfigMismatch;
        break;
      }
      stored_starts = meta->starts;
      const RunCounters counters = read_counters(phase_dir(dir, k) / "counters.bin");
      header = {kOk,
                k,
                meta->state.next_phase,
                meta->state.phases_done,
                meta->state.iterations_done,
                meta->orig_global_n,
                static_cast<std::int64_t>(
                    std::bit_cast<std::uint64_t>(meta->state.prev_outer_mod)),
                meta->state.forced_final ? 1 : 0,
                static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(counters.seconds)),
                counters.messages,
                counters.bytes};
      break;
    }
  }
  header = comm.broadcast(std::move(header));
  stored_starts = comm.broadcast(std::move(stored_starts));

  if (header[0] == kConfigMismatch)
    throw std::runtime_error(
        "checkpoint_load: checkpoint in " + dir +
        " was written with a different configuration; refusing to resume "
        "(delete the directory to start fresh)");
  if (header[0] == kNone) return std::nullopt;

  const int chosen = static_cast<int>(header[1]);
  ResumedState resumed;
  resumed.state.next_phase = static_cast<int>(header[2]);
  resumed.state.phases_done = static_cast<int>(header[3]);
  resumed.state.iterations_done = header[4];
  resumed.orig_global_n = header[5];
  resumed.state.prev_outer_mod =
      std::bit_cast<double>(static_cast<std::uint64_t>(header[6]));
  resumed.state.forced_final = header[7] != 0;
  resumed.state.counters.seconds =
      std::bit_cast<double>(static_cast<std::uint64_t>(header[8]));
  resumed.state.counters.messages = header[9];
  resumed.state.counters.bytes = header[10];

  // Coarse-graph partition: v3 checkpoints carry the active ownership map
  // explicitly. Same rank count -> load onto the recorded map, reproducing
  // the exact partition. Different rank count, or a v1/v2 checkpoint with no
  // map -> even-vertices split (different-p resume was never bitwise anyway;
  // see the determinism contract in checkpoint.hpp).
  const fs::path graph_path = phase_dir(dir, chosen) / "graph.dlel";
  if (static_cast<int>(stored_starts.size()) == comm.size() + 1) {
    resumed.graph = graph::load_distributed(
        comm, graph_path.string(), graph::Partition1D(std::move(stored_starts)));
  } else {
    resumed.graph = graph::load_distributed(comm, graph_path.string(),
                                            graph::PartitionKind::kEvenVertices);
  }

  // Chain: rank 0 rereads, everyone takes its contiguous slice. Slice
  // boundaries only need to concatenate in rank order; the even split works
  // at any rank count.
  std::vector<VertexId> chain;
  if (comm.rank() == 0) {
    auto loaded = read_chain(phase_dir(dir, chosen) / "chain.bin");
    if (!loaded || static_cast<VertexId>(loaded->size()) != resumed.orig_global_n)
      throw std::runtime_error("checkpoint_load: chain.bin of " + dir +
                               " changed underneath us");
    chain = std::move(*loaded);
  }
  chain = comm.broadcast(std::move(chain));
  const auto part = graph::partition_even_vertices(resumed.orig_global_n, comm.size());
  resumed.orig_to_cur.assign(
      chain.begin() + part.begin(comm.rank()), chain.begin() + part.end(comm.rank()));
  return resumed;
}

std::optional<int> checkpoint_latest_phase(const std::string& dir) {
  for (const int k : candidate_phases(dir)) {
    if (validate_checkpoint(dir, k)) return k;
  }
  return std::nullopt;
}

std::optional<RunCounters> checkpoint_latest_counters(const std::string& dir) {
  for (const int k : candidate_phases(dir)) {
    if (validate_checkpoint(dir, k))
      return read_counters(phase_dir(dir, k) / "counters.bin");
  }
  return std::nullopt;
}

// ---- checkpoint directory ownership ------------------------------------

namespace {

/// Is the pid named in a LOCK line still running? EPERM means "alive but
/// not ours", which still counts as alive; only a confirmed ESRCH (or an
/// unparseable line, which we treat as live to stay safe) frees the lock.
bool lock_owner_alive(const std::string& line) {
  const std::string_view prefix = "pid ";
  if (line.rfind(prefix, 0) != 0) return true;
  int pid = 0;
  const char* first = line.data() + prefix.size();
  const auto [ptr, ec] = std::from_chars(first, line.data() + line.size(), pid);
  if (ec != std::errc{} || ptr == first || pid <= 0) return true;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH;
}

}  // namespace

CheckpointDirLock::CheckpointDirLock(std::string dir, std::string owner_tag) {
  fs::create_directories(dir);
  const fs::path path = fs::path(dir) / "LOCK";
  owner_line_ = "pid " + std::to_string(static_cast<long>(::getpid())) +
                " session " + std::move(owner_tag);
  // O_EXCL creation is the atomic claim; a stale lock (holder pid gone) is
  // unlinked and re-raced -- if two reclaimers race, one loses the O_EXCL
  // and re-reads the winner's fresh line.
  for (int attempt = 0; attempt < 16; ++attempt) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      const auto written =
          ::write(fd, owner_line_.data(), owner_line_.size());
      ::close(fd);
      if (written != static_cast<ssize_t>(owner_line_.size())) {
        ::unlink(path.c_str());
        throw std::runtime_error("checkpoint: cannot write " + path.string());
      }
      path_ = path.string();
      return;
    }
    if (errno != EEXIST)
      throw std::runtime_error("checkpoint: cannot create " + path.string());
    std::string holder;
    {
      std::ifstream in(path);
      std::getline(in, holder);
    }
    // A vanished or empty file means the holder released (or is mid-write)
    // between our open and read; retry the claim.
    if (!holder.empty() && lock_owner_alive(holder))
      throw CheckpointDirBusy(holder, dir);
    ::unlink(path.c_str());
  }
  throw std::runtime_error("checkpoint: could not claim " + path.string() +
                           " (lock churn)");
}

CheckpointDirLock::~CheckpointDirLock() { release(); }

CheckpointDirLock::CheckpointDirLock(CheckpointDirLock&& other) noexcept
    : path_(std::move(other.path_)), owner_line_(std::move(other.owner_line_)) {
  other.path_.clear();
}

CheckpointDirLock& CheckpointDirLock::operator=(CheckpointDirLock&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    owner_line_ = std::move(other.owner_line_);
    other.path_.clear();
  }
  return *this;
}

void CheckpointDirLock::release() noexcept {
  if (!path_.empty()) ::unlink(path_.c_str());
  path_.clear();
}

}  // namespace dlouvain::core
