// Concurrent object representation (Figure 2).
//
// An object is: a state-variable box (the user's struct, placed immediately
// after the header), a message queue (buffered MsgFrames), and a VFTP —
// the pointer to the virtual function table of its current mode. The header
// additionally carries one continuation word (the blocked heap frame, or
// the lazy-init creation arguments before the first message), the
// scheduling-queue and live-list links, and the home node. The header is
// exactly one 64-byte cache line; the class comes from the VFTP, and the
// blocked-only words (resume entry, awaited reply box) ride in a trailer
// behind the spilled heap frame.
#pragma once

#include <cstddef>

#include "core/frame.hpp"
#include "core/reply.hpp"
#include "core/types.hpp"
#include "core/vft.hpp"
#include "util/intrusive_list.hpp"

namespace abcl::core {

enum class SchedState : std::uint8_t {
  kNone = 0,
  kQueuedNext,    // scheduled to process the next buffered message
  kQueuedResume,  // scheduled to resume a preempted/yielded context
};

// The words only a blocked object needs, stored behind its spilled heap
// frame (at ctx_trailer_offset(frame->bytes)), so CtxFrameBase::bytes and
// the migration blob keep the frame's own size.
struct CtxTrailer {
  ResumeFn resume_entry = nullptr;
  // Reply box this object is registered on while blocked (await or hybrid
  // await-or-select). Cleared on resume; if the select alternative won, the
  // box registration is cancelled so a later reply simply fills the box.
  ReplyBox* awaiting_box = nullptr;
};

constexpr std::size_t ctx_trailer_offset(std::size_t frame_bytes) {
  return (frame_bytes + alignof(CtxTrailer) - 1) / alignof(CtxTrailer) *
         alignof(CtxTrailer);
}
// Pool bytes of a spilled frame of `frame_bytes`, trailer included.
constexpr std::size_t ctx_alloc_bytes(std::size_t frame_bytes) {
  return ctx_trailer_offset(frame_bytes) + sizeof(CtxTrailer);
}
inline CtxTrailer* ctx_trailer(CtxFrameBase* f) {
  void* p = reinterpret_cast<std::byte*>(f) + ctx_trailer_offset(f->bytes);
  return static_cast<CtxTrailer*>(p);
}

struct ObjectHeader {
  const Vft* vftp = nullptr;

  util::IntrusiveFifo<MsgFrame, &MsgFrame::next> mq;

 private:
  // blocked_frame() while initialized, pending_init() while needs_init: an
  // object never blocks before its lazy init has run, so one word serves
  // both. Read it only through the accessors, which check needs_init.
  void* cont_ = nullptr;

 public:
  // Node-wise scheduling queue membership (at most one item per object).
  ObjectHeader* sched_next = nullptr;

  // Node-local live-object list (O(1) unlink for retirement); live_pprev
  // is null at the head (NodeRuntime::link_live).
  ObjectHeader* live_next = nullptr;
  ObjectHeader** live_pprev = nullptr;

  NodeId home = -1;
  SchedState sched_state = SchedState::kNone;
  Mode mode = Mode::kFault;
  std::uint8_t alloc_size_class = 0;  // pool class of header+state chunk
  bool needs_init : 1 = false;  // state variables not yet constructed (lazy init)
  bool retired : 1 = false;     // app asked to reclaim after the current method

  // The class, read from the current table; null while a fault-mode chunk
  // or a migration stub (both point at the shared fault table).
  const ClassInfo* cls() const { return vftp->cls; }

  // Saved continuation when blocked (waiting mode) or preempted.
  CtxFrameBase* blocked_frame() const {
    return needs_init ? nullptr : static_cast<CtxFrameBase*>(cont_);
  }
  void set_blocked_frame(CtxFrameBase* f) {
    ABCL_DCHECK(!needs_init);
    cont_ = f;
  }
  // Lazily-initialized local creation: the creation arguments, kept until
  // the first message triggers state-variable initialization.
  MsgFrame* pending_init() const {
    return needs_init ? static_cast<MsgFrame*>(cont_) : nullptr;
  }
  void set_pending_init(MsgFrame* f) {
    ABCL_DCHECK(needs_init);
    cont_ = f;
  }

  // Blocked-only words; null unless a heap frame is saved.
  ResumeFn resume_entry() const {
    CtxFrameBase* f = blocked_frame();
    return f != nullptr ? ctx_trailer(f)->resume_entry : nullptr;
  }
  ReplyBox* awaiting_box() const {
    CtxFrameBase* f = blocked_frame();
    return f != nullptr ? ctx_trailer(f)->awaiting_box : nullptr;
  }

  void* state() {
    return reinterpret_cast<std::byte*>(this) + state_offset();
  }
  const void* state() const {
    return reinterpret_cast<const std::byte*>(this) + state_offset();
  }

  template <class T>
  T* state_as() {
    return static_cast<T*>(state());
  }

  // State storage begins at a fixed 16-byte-aligned offset past the header,
  // so `(node, pointer)` mail addresses can be formatted as chunks before
  // the class (and hence the state layout) is known — the remote-creation
  // pre-initialization requires exactly this (Section 5.2).
  static constexpr std::size_t state_offset() {
    return (sizeof_header_rounded());
  }

  bool is_idle_receiver() const {
    return mode == Mode::kDormant || mode == Mode::kUninitialized;
  }

 private:
  static constexpr std::size_t sizeof_header_rounded();
};

// One cache line: a 56-B N-queens node then fits the 128-B slab class.
static_assert(sizeof(ObjectHeader) == 64, "ObjectHeader must stay 64 bytes");

// Defined after the class is complete.
constexpr std::size_t ObjectHeader::sizeof_header_rounded() {
  constexpr std::size_t kAlign = 16;
  return (sizeof(ObjectHeader) + kAlign - 1) / kAlign * kAlign;
}

// Total allocation size for an object of a class with `state_bytes` state.
inline std::size_t object_alloc_bytes(std::size_t state_bytes) {
  return ObjectHeader::state_offset() + (state_bytes == 0 ? 1 : state_bytes);
}

}  // namespace abcl::core
