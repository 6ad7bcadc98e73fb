// Comm: the per-rank communicator handle -- the project's MPI_COMM_WORLD.
//
// Point-to-point operations are buffered (a send copies the payload into the
// destination mailbox and returns immediately, like an eager-protocol
// MPI_Send), and receives match on (source, tag) with per-pair FIFO order.
//
// Collectives are implemented ON TOP of point-to-point messages, the way an
// MPI library implements them over its transport. They must be invoked by
// all ranks of the world in the same order -- the same usage contract MPI
// imposes. Reduction folds always run in rank order 0..p-1 on every rank, so
// floating-point collective results are bitwise identical across ranks.
//
// Tag space: user tags must be >= 0; negative tags are reserved for the
// collective implementations.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/async.hpp"
#include "comm/fault.hpp"
#include "comm/message.hpp"
#include "comm/world.hpp"

namespace dlouvain::comm {

namespace internal_tags {
// Distinct bases keep different collective kinds from ever cross-matching,
// which makes protocol bugs loud instead of silently reordering data.
inline constexpr Tag kBarrierBase = -1000;  // kBarrierBase - round
inline constexpr Tag kBcast = -2000;
inline constexpr Tag kAllgather = -3000;
inline constexpr Tag kGather = -4000;
inline constexpr Tag kAlltoallv = -5000;
inline constexpr Tag kScan = -6000;
inline constexpr Tag kNeighbor = -7000;
inline constexpr Tag kAlltoall = -7300;
inline constexpr Tag kAllreduceVec = -7500;
}  // namespace internal_tags

class Comm {
 public:
  Comm(World& world, Rank rank) : world_(&world), rank_(rank) {}

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept {
    return group_.empty() ? world_->size() : static_cast<int>(group_.size());
  }
  [[nodiscard]] bool is_root() const noexcept { return rank_ == 0; }
  [[nodiscard]] World& world() const noexcept { return *world_; }

  /// This rank's counter block (keyed by WORLD rank, so split children keep
  /// counting into the same block as their parent rank). Only call from the
  /// owning rank's thread -- the block is deliberately not atomic.
  [[nodiscard]] util::CounterBlock& counters() {
    return world_->counters(to_world(rank_));
  }
  /// This rank's trace ring, or nullptr when tracing is off.
  [[nodiscard]] util::TraceBuffer* trace() const {
    return world_->trace(to_world(rank_));
  }

  /// Crash trigger for deterministic fault injection: algorithm code calls
  /// this at well-defined progress points ({phase, iteration}); if the
  /// world's FaultPlan pins a crash of this rank there, the rank dies.
  /// Transient crashes throw RankCrashed (retryable at the same world
  /// size); permanent kills record the death in the world's heartbeat lane
  /// and throw RankDead, the rung-2 verdict that tells the recovery driver
  /// to shrink rather than retry. No-op (one atomic-free null check)
  /// without injection.
  void fault_point(int phase, int iteration = 0) {
    auto* injector = world_->injector();
    if (injector == nullptr) return;
    switch (injector->should_crash(rank_, phase, iteration)) {
      case FaultInjector::CrashKind::kNone:
        return;
      case FaultInjector::CrashKind::kTransient:
        throw RankCrashed("rank " + std::to_string(rank_) +
                          ": injected crash at phase " + std::to_string(phase) +
                          ", iteration " + std::to_string(iteration));
      case FaultInjector::CrashKind::kPermanent:
        world_->declare_dead(to_world(rank_));
        throw RankDead(to_world(rank_),
                       "rank " + std::to_string(rank_) +
                           ": injected permanent death at phase " +
                           std::to_string(phase) + ", iteration " +
                           std::to_string(iteration));
    }
  }

  // --- point to point -------------------------------------------------

  /// Buffered send of raw bytes. `dst` is a rank of THIS communicator; the
  /// message is stamped with the sender's rank in this communicator and the
  /// communicator's context, so traffic never crosses between a parent and
  /// its split children.
  void send_bytes(Rank dst, Tag tag, std::vector<std::byte> payload) {
    check_rank(dst);
    // Plain increments into the SENDER's block: send_bytes always runs on
    // the sending rank's thread (single-writer contract, util/metrics.hpp).
    util::CounterBlock& ctr = world_->counters(to_world(rank_));
    ctr[util::Counter::kMessages] += 1;
    ctr[util::Counter::kBytes] += static_cast<std::int64_t>(payload.size());
    // Every send doubles as this rank's heartbeat for the rung-2 lane.
    world_->beat(to_world(rank_));
    world_->mailbox(to_world(dst)).put(Message{rank_, pack_tag(tag), std::move(payload)});
  }

  /// Blocking receive of raw bytes from (src, tag); src in this communicator.
  std::vector<std::byte> recv_bytes(Rank src, Tag tag) {
    check_rank(src);
    return world_->mailbox(to_world(rank_)).get(src, pack_tag(tag)).payload;
  }

  /// Typed buffered send of a contiguous range. The payload slab is
  /// recycled through the world's BufferPool (the typed receive paths hand
  /// it back after unpacking), so steady-state typed traffic allocates
  /// nothing.
  template <typename T>
  void send(Rank dst, Tag tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "message elements must be trivially copyable");
    std::vector<std::byte> bytes = world_->pool().acquire(data.size_bytes());
    if (!bytes.empty()) std::memcpy(bytes.data(), data.data(), bytes.size());
    send_bytes(dst, tag, std::move(bytes));
  }

  template <typename T>
  void send(Rank dst, Tag tag, const std::vector<T>& data) {
    send<T>(dst, tag, std::span<const T>(data));
  }

  /// Typed send of a single value.
  template <typename T>
  void send_value(Rank dst, Tag tag, const T& value) {
    send<T>(dst, tag, std::span<const T>(&value, 1));
  }

  /// Typed blocking receive. Returns the payload slab to the BufferPool
  /// after unpacking (the other half of send's pooled path).
  template <typename T>
  std::vector<T> recv(Rank src, Tag tag) {
    auto bytes = recv_bytes(src, tag);
    auto data = from_bytes<T>(bytes);
    world_->pool().release(std::move(bytes));
    return data;
  }

  /// Typed blocking receive of exactly one value.
  template <typename T>
  T recv_value(Rank src, Tag tag) {
    auto data = recv<T>(src, tag);
    if (data.size() != 1) throw std::logic_error("recv_value: payload is not one element");
    return data[0];
  }

  /// Combined exchange (MPI_Sendrecv): ship `data` to `dst` and return what
  /// `src` shipped here under the same tag. Deadlock-free because sends are
  /// buffered; provided so exchange patterns read as one operation.
  template <typename T>
  std::vector<T> sendrecv(Rank dst, Rank src, Tag tag, std::span<const T> data) {
    send<T>(dst, tag, data);
    return recv<T>(src, tag);
  }

  template <typename T>
  std::vector<T> sendrecv(Rank dst, Rank src, Tag tag, const std::vector<T>& data) {
    return sendrecv<T>(dst, src, tag, std::span<const T>(data));
  }

  // --- nonblocking point to point ---------------------------------------

  /// Post a nonblocking receive for (src, tag). Complete via the handle's
  /// test()/wait()/take<T>() or the free wait_any/wait_all (async.hpp).
  [[nodiscard]] RecvHandle irecv(Rank src, Tag tag) {
    check_rank(src);
    return RecvHandle(world_->mailbox(to_world(rank_)), &world_->pool(), src,
                      pack_tag(tag));
  }

  /// Nonblocking typed send. The transport is eager (the payload is
  /// buffered into the destination mailbox before this returns), so the
  /// handle is born complete -- provided for API symmetry with irecv.
  template <typename T>
  SendHandle isend(Rank dst, Tag tag, std::span<const T> data) {
    send<T>(dst, tag, data);
    return {};
  }

  template <typename T>
  SendHandle isend(Rank dst, Tag tag, const std::vector<T>& data) {
    return isend<T>(dst, tag, std::span<const T>(data));
  }

  // --- collectives ------------------------------------------------------

  /// Dissemination barrier: O(p log p) messages, round-tagged.
  void barrier() {
    const int p = size();
    int round = 0;
    for (int step = 1; step < p; step <<= 1, ++round) {
      const Rank to = static_cast<Rank>((rank_ + step) % p);
      const Rank from = static_cast<Rank>((rank_ - step + p) % p);
      const Tag tag = internal_tags::kBarrierBase - round;
      send_bytes(to, tag, {});
      (void)recv_bytes(from, tag);
    }
  }

  /// Root's buffer is distributed to every rank; all ranks return it.
  /// Canonical binomial tree (O(log p) rounds): with virtual ranks placing
  /// the root at 0, rank vr receives from vr minus its lowest set bit, then
  /// forwards to vr + mask for every mask below that bit.
  template <typename T>
  std::vector<T> broadcast(std::vector<T> data, Rank root = 0) {
    check_rank(root);
    const int p = size();
    const int vr = (rank_ - root + p) % p;

    int mask = 1;
    while (mask < p) {
      if (vr & mask) {
        const Rank parent = static_cast<Rank>((vr - mask + root) % p);
        data = recv<T>(parent, internal_tags::kBcast);
        break;
      }
      mask <<= 1;
    }
    mask >>= 1;
    while (mask > 0) {
      if (vr + mask < p) {
        const Rank child = static_cast<Rank>((vr + mask + root) % p);
        send<T>(child, internal_tags::kBcast, data);
      }
      mask >>= 1;
    }
    return data;
  }

  /// Gather one value per rank; every rank returns the rank-indexed vector.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send_value<T>(r, internal_tags::kAllgather, value);
    }
    std::vector<T> out(static_cast<std::size_t>(size()));
    out[static_cast<std::size_t>(rank_)] = value;
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) out[static_cast<std::size_t>(r)] = recv_value<T>(r, internal_tags::kAllgather);
    }
    return out;
  }

  /// Gather variable-length buffers; every rank returns the concatenation in
  /// rank order. If `counts` is non-null it receives each rank's length.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local,
                            std::vector<std::size_t>* counts = nullptr) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send<T>(r, internal_tags::kAllgather, local);
    }
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(size()));
    parts[static_cast<std::size_t>(rank_)].assign(local.begin(), local.end());
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) parts[static_cast<std::size_t>(r)] = recv<T>(r, internal_tags::kAllgather);
    }
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    out.reserve(total);
    if (counts) counts->clear();
    for (const auto& part : parts) {
      if (counts) counts->push_back(part.size());
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  }

  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& local,
                            std::vector<std::size_t>* counts = nullptr) {
    return allgatherv<T>(std::span<const T>(local), counts);
  }

  /// Gather variable-length buffers at `root`; non-roots return empty.
  /// Receives land in rank order, so each part is appended straight into
  /// its rank-ordered position -- one pass, no staging copy.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, Rank root = 0) {
    check_rank(root);
    if (rank_ != root) {
      send<T>(root, internal_tags::kGather, local);
      return {};
    }
    std::vector<T> ordered;
    for (Rank r = 0; r < size(); ++r) {
      if (r == root) {
        ordered.insert(ordered.end(), local.begin(), local.end());
      } else {
        const auto part = recv<T>(r, internal_tags::kGather);
        ordered.insert(ordered.end(), part.begin(), part.end());
      }
    }
    return ordered;
  }

  template <typename T>
  std::vector<T> gatherv(const std::vector<T>& local, Rank root = 0) {
    return gatherv<T>(std::span<const T>(local), root);
  }

  /// Generic all-reduce: every rank folds contributions in rank order with
  /// `op`, so all ranks compute the identical result.
  template <typename T, typename Op>
  T allreduce(const T& local, Op op) {
    const auto contributions = allgather(local);
    T acc = contributions[0];
    for (std::size_t i = 1; i < contributions.size(); ++i) acc = op(acc, contributions[i]);
    return acc;
  }

  template <typename T>
  T allreduce_sum(const T& local) {
    return allreduce(local, [](const T& a, const T& b) { return a + b; });
  }

  template <typename T>
  T allreduce_max(const T& local) {
    return allreduce(local, [](const T& a, const T& b) { return a < b ? b : a; });
  }

  template <typename T>
  T allreduce_min(const T& local) {
    return allreduce(local, [](const T& a, const T& b) { return b < a ? b : a; });
  }

  /// Logical AND across ranks (termination votes).
  bool allreduce_land(bool local) {
    return allreduce_min<int>(local ? 1 : 0) != 0;
  }

  /// Element-wise sum of equal-length vectors across ranks. Each peer's
  /// contribution is streamed through the fold as it is received instead of
  /// materializing the p*n allgatherv concatenation, so peak memory is O(n)
  /// rather than O(p*n). The fold stays in rank order 0..p-1, so the result
  /// is still bitwise identical on every rank.
  template <typename T>
  std::vector<T> allreduce_sum_vec(const std::vector<T>& local) {
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) send<T>(r, internal_tags::kAllreduceVec, local);
    }
    std::vector<T> out(local.size(), T{});
    for (Rank r = 0; r < size(); ++r) {
      if (r == rank_) {
        for (std::size_t i = 0; i < local.size(); ++i) out[i] += local[i];
      } else {
        const auto part = recv<T>(r, internal_tags::kAllreduceVec);
        if (part.size() != local.size())
          throw std::logic_error("allreduce_sum_vec: mismatched vector lengths");
        for (std::size_t i = 0; i < local.size(); ++i) out[i] += part[i];
      }
    }
    return out;
  }

  /// Exclusive prefix sum: rank r returns sum of ranks [0, r). Rank 0 gets T{}.
  /// This is the paper's "parallel prefix sum" used for global community
  /// renumbering (graph reconstruction step 3).
  template <typename T>
  T exscan_sum(const T& local) {
    const auto contributions = allgather(local);
    T acc{};
    for (Rank r = 0; r < rank_; ++r) acc += contributions[static_cast<std::size_t>(r)];
    return acc;
  }

  /// Inclusive prefix sum: rank r returns sum of ranks [0, r].
  template <typename T>
  T scan_sum(const T& local) {
    return exscan_sum(local) + local;
  }

  /// Personalized all-to-all of variable-length buffers: outbox[r] goes to
  /// rank r; the result's slot [r] holds what rank r sent here. The self
  /// slot is moved through directly without touching the mailbox; the other
  /// replies are drained in arrival order, not rank order.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>> outbox) {
    if (outbox.size() != static_cast<std::size_t>(size()))
      throw std::logic_error("alltoallv: outbox must have one slot per rank");
    std::vector<Rank> peers;
    peers.reserve(static_cast<std::size_t>(size()) - 1);
    for (Rank r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      send<T>(r, internal_tags::kAlltoallv, outbox[static_cast<std::size_t>(r)]);
      peers.push_back(r);
    }
    auto received = recv_in_arrival_order<T>(peers, internal_tags::kAlltoallv);
    std::vector<std::vector<T>> inbox(static_cast<std::size_t>(size()));
    inbox[static_cast<std::size_t>(rank_)] = std::move(outbox[static_cast<std::size_t>(rank_)]);
    for (std::size_t i = 0; i < peers.size(); ++i)
      inbox[static_cast<std::size_t>(peers[i])] = std::move(received[i]);
    return inbox;
  }

  /// Sparse personalized exchange over a fixed neighbourhood -- the analogue
  /// of MPI-3's MPI_Neighbor_alltoallv, which the paper names as the planned
  /// scalability upgrade over dense all-to-all (Section VI). `neighbors`
  /// lists the peer ranks this rank exchanges with (sorted, no self); the
  /// neighbourhood must be SYMMETRIC across the world (if r lists s, s lists
  /// r), which holds for the ghost-exchange topology of a symmetric graph.
  /// outbox[i] goes to neighbors[i]; the result's slot [i] holds what
  /// neighbors[i] sent here, drained in arrival order. Message count is
  /// O(sum of degrees) instead of O(p^2).
  template <typename T>
  std::vector<std::vector<T>> neighbor_alltoallv(std::span<const Rank> neighbors,
                                                 std::vector<std::vector<T>> outbox) {
    if (outbox.size() != neighbors.size())
      throw std::logic_error("neighbor_alltoallv: one outbox slot per neighbour");
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      if (neighbors[i] == rank_)
        throw std::logic_error("neighbor_alltoallv: self must not be listed");
      send<T>(neighbors[i], internal_tags::kNeighbor, outbox[i]);
    }
    return recv_in_arrival_order<T>(neighbors, internal_tags::kNeighbor);
  }

  /// Fixed all-to-all: one element to/from each rank. Ships flat
  /// one-element payloads directly -- no per-rank vector staging.
  template <typename T>
  std::vector<T> alltoall(const std::vector<T>& out) {
    if (out.size() != static_cast<std::size_t>(size()))
      throw std::logic_error("alltoall: need exactly one element per rank");
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_)
        send<T>(r, internal_tags::kAlltoall,
                std::span<const T>(&out[static_cast<std::size_t>(r)], 1));
    }
    std::vector<T> in(static_cast<std::size_t>(size()));
    in[static_cast<std::size_t>(rank_)] = out[static_cast<std::size_t>(rank_)];
    for (Rank r = 0; r < size(); ++r) {
      if (r != rank_) in[static_cast<std::size_t>(r)] = recv_value<T>(r, internal_tags::kAlltoall);
    }
    return in;
  }

  // --- sub-communicators -------------------------------------------------

  /// MPI_Comm_split: collective over THIS communicator. Ranks passing the
  /// same `color` form a new communicator, ordered by (key, old rank). The
  /// child gets its own context, so its traffic (including collectives)
  /// never matches the parent's or a sibling's. Returns a fully usable Comm.
  ///
  /// Limits: nesting depth and split count are bounded by the context space
  /// (~2^14 distinct communicators per world); user tags must stay below
  /// kMaxUserTag.
  Comm split(int color, int key = 0) {
    struct Entry {
      int color;
      int key;
      Rank old_rank;
    };
    const auto entries = allgather(Entry{color, key, rank_});

    // Deterministic context for each (split call, color): contexts are
    // allocated in sorted-distinct-color order on every member identically.
    std::vector<int> colors;
    for (const auto& e : entries) colors.push_back(e.color);
    std::sort(colors.begin(), colors.end());
    colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
    const auto color_index = static_cast<int>(
        std::lower_bound(colors.begin(), colors.end(), color) - colors.begin());

    Comm child(*world_, 0);
    child.context_ = next_context_base_ + color_index;
    if (child.context_ >= kMaxContexts)
      throw std::logic_error("Comm::split: context space exhausted");
    next_context_base_ += static_cast<int>(colors.size());

    // Group members ordered by (key, old rank); translate to world ranks.
    std::vector<Entry> members;
    for (const auto& e : entries) {
      if (e.color == color) members.push_back(e);
    }
    std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
      return a.key != b.key ? a.key < b.key : a.old_rank < b.old_rank;
    });
    child.group_.reserve(members.size());
    for (const auto& e : members) {
      if (e.old_rank == rank_) child.rank_ = static_cast<Rank>(child.group_.size());
      child.group_.push_back(to_world(e.old_rank));
    }
    child.next_context_base_ = child.context_ * kContextBranch + 1;
    return child;
  }

 private:
  // Tag packing: the wire tag encodes (context, logical tag) so communicators
  // are isolated. Logical tags live in [kMinInternalTag, kMaxUserTag).
  static constexpr Tag kMinInternalTag = -8192;
  static constexpr Tag kMaxUserTag = 1 << 16;
  static constexpr int kContextBranch = 16;
  static constexpr int kMaxContexts = 1 << 14;

  [[nodiscard]] Tag pack_tag(Tag tag) const {
    if (tag < kMinInternalTag || tag >= kMaxUserTag)
      throw std::out_of_range("tag outside [internal, 65536)");
    return context_ * (kMaxUserTag - kMinInternalTag) + (tag - kMinInternalTag);
  }

  /// Communicator rank -> world rank.
  [[nodiscard]] Rank to_world(Rank r) const {
    return group_.empty() ? r : group_[static_cast<std::size_t>(r)];
  }

  void check_rank(Rank r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("rank out of range");
  }

  /// Post one receive per peer on `tag`, then drain them in ARRIVAL order
  /// (whichever peer buffer lands first is unpacked first -- no head-of-line
  /// blocking on the slowest peer). Slot [i] holds what peers[i] sent.
  template <typename T>
  std::vector<std::vector<T>> recv_in_arrival_order(std::span<const Rank> peers, Tag tag) {
    std::vector<RecvHandle> handles;
    handles.reserve(peers.size());
    for (const Rank r : peers) handles.push_back(irecv(r, tag));
    std::vector<RecvHandle*> pending;
    pending.reserve(handles.size());
    for (auto& h : handles) pending.push_back(&h);
    std::vector<std::vector<T>> inbox(peers.size());
    while (!pending.empty()) {
      const std::size_t i = wait_any(std::span<RecvHandle* const>(pending));
      inbox[static_cast<std::size_t>(pending[i] - handles.data())] =
          pending[i]->template take<T>();
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return inbox;
  }

  World* world_;
  Rank rank_;
  int context_{0};
  int next_context_base_{1};       ///< next child context allocation base
  std::vector<Rank> group_;        ///< world rank per communicator rank; empty = world
};

}  // namespace dlouvain::comm
