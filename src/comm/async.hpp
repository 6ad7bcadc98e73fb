// Awaitable handles for nonblocking point-to-point operations (ISSUE 5).
//
// The in-process transport is eager: a send deposits its payload in the
// destination mailbox and returns, so SendHandle is trivially complete at
// creation (exactly like an MPI eager-protocol MPI_Isend of a small
// message). The interesting half is RecvHandle: a posted receive that has
// not yet matched. test() polls without blocking, wait() blocks, and the
// free functions wait_any / wait_all drive a SET of posted receives to
// completion in ARRIVAL order via Mailbox::get_any -- the progress engine
// behind the collectives' arrival-order draining.
//
// Handles are created by Comm::irecv / Comm::isend (comm.hpp); they carry
// pre-packed wire tags, so user code never constructs them directly.
//
// Interplay with the ARQ layer (mailbox.cpp, docs/FAULT_TOLERANCE.md rung 1):
// handles need no retransmit logic of their own. A RecvHandle only observes
// messages the mailbox DELIVERS, and delivery already sits downstream of the
// per-stream sequence check, the CRC check, and the NACK/retransmit repair --
// so a posted receive over a lossy wire simply completes later (after the
// backoff) with the clean payload, in unchanged per-(src, tag) FIFO order.
// If repair fails (retry budget exhausted, rank declared dead), wait()/test()
// surface the escalated CommFailure/RankDead exactly like a blocking receive.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"

namespace dlouvain::comm {

/// A posted nonblocking receive. Movable, not copyable; one message per
/// handle. Completion is observed via test()/wait()/wait_any; the payload is
/// consumed exactly once with take<T>(), which recycles the slab through the
/// world's BufferPool.
class RecvHandle {
 public:
  RecvHandle() = default;
  /// `packed_tag` is the wire tag (Comm::pack_tag output); `src` is the
  /// sender's rank in the posting communicator, which is what messages are
  /// stamped with.
  RecvHandle(Mailbox& mailbox, BufferPool* pool, Rank src, Tag packed_tag)
      : mailbox_(&mailbox), pool_(pool), src_(src), tag_(packed_tag) {}

  RecvHandle(RecvHandle&&) = default;
  RecvHandle& operator=(RecvHandle&&) = default;
  RecvHandle(const RecvHandle&) = delete;
  RecvHandle& operator=(const RecvHandle&) = delete;

  [[nodiscard]] bool valid() const noexcept { return mailbox_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Nonblocking completion probe (MPI_Test): true once the message has been
  /// pulled out of the mailbox. Throws WorldAborted if the world aborted.
  bool test() {
    if (done_) return true;
    require_valid("test");
    if (auto msg = mailbox_->try_get(src_, tag_)) {
      msg_ = std::move(*msg);
      done_ = true;
    }
    return done_;
  }

  /// Block until the message arrives (MPI_Wait). Idempotent.
  void wait() {
    if (done_) return;
    require_valid("wait");
    msg_ = mailbox_->get(src_, tag_);
    done_ = true;
  }

  /// Complete (blocking if needed) and consume the payload as typed data;
  /// the slab goes back to the pool. Call at most once.
  template <typename T>
  std::vector<T> take() {
    wait();
    auto data = from_bytes<T>(msg_.payload);
    if (pool_ != nullptr) pool_->release(std::move(msg_.payload));
    msg_.payload = {};
    return data;
  }

 private:
  void require_valid(const char* who) const {
    if (!valid())
      throw std::logic_error(std::string("RecvHandle::") + who + ": empty handle");
  }

  friend std::size_t wait_any(std::span<RecvHandle* const> handles);

  Mailbox* mailbox_{nullptr};
  BufferPool* pool_{nullptr};
  Rank src_{-1};
  Tag tag_{0};
  bool done_{false};
  Message msg_{};
};

/// Handle for a nonblocking send. The transport is eager (buffered into the
/// destination mailbox before isend returns), so the handle is born
/// complete; it exists so call sites read like their MPI counterparts.
class SendHandle {
 public:
  [[nodiscard]] bool done() const noexcept { return true; }
  bool test() const noexcept { return true; }  // NOLINT(modernize-use-nodiscard)
  void wait() const noexcept {}
};

/// Block until any one of `handles` completes and return its index.
/// Already-completed handles win immediately (lowest index first); otherwise
/// whichever pending message is delivered first by arrival order wins. All
/// pending handles must target the same mailbox (one rank's posted
/// receives). If several handles want the same (src, tag) stream, the
/// earliest in span order matches first.
inline std::size_t wait_any(std::span<RecvHandle* const> handles) {
  if (handles.empty()) throw std::logic_error("wait_any: no handles");
  Mailbox* mailbox = nullptr;
  std::vector<Mailbox::Want> wants;
  std::vector<std::size_t> owner;  // handle index per want
  for (std::size_t i = 0; i < handles.size(); ++i) {
    RecvHandle* h = handles[i];
    if (h == nullptr || !h->valid())
      throw std::logic_error("wait_any: null or empty handle");
    if (h->done()) return i;
    if (mailbox == nullptr) {
      mailbox = h->mailbox_;
    } else if (mailbox != h->mailbox_) {
      throw std::logic_error("wait_any: handles must share one mailbox");
    }
    wants.push_back({h->src_, h->tag_});
    owner.push_back(i);
  }
  auto [msg, want_index] = mailbox->get_any(wants);
  RecvHandle* h = handles[owner[want_index]];
  h->msg_ = std::move(msg);
  h->done_ = true;
  return owner[want_index];
}

/// Drive every handle to completion, draining messages in arrival order.
inline void wait_all(std::span<RecvHandle* const> handles) {
  std::size_t remaining = 0;
  for (RecvHandle* h : handles) {
    if (h == nullptr || !h->valid()) throw std::logic_error("wait_all: null or empty handle");
    if (!h->done()) ++remaining;
  }
  std::vector<RecvHandle*> pending;
  pending.reserve(remaining);
  for (RecvHandle* h : handles) {
    if (!h->done()) pending.push_back(h);
  }
  while (!pending.empty()) {
    const std::size_t i = wait_any(pending);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace dlouvain::comm
