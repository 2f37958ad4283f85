// Concurrent object representation (Figure 2).
//
// An object is: a state-variable box (the user's struct, placed immediately
// after the header), a message queue (buffered MsgFrames), and a VFTP —
// the pointer to the virtual function table of its current mode. The header
// additionally carries the blocked continuation (heap frame + resume entry)
// and the intrusive scheduling-queue link.
#pragma once

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

struct ObjectHeader {
  const Vft* vftp = nullptr;
  const ClassInfo* cls = nullptr;  // null while a fault-mode chunk
  NodeId home = -1;

  util::IntrusiveFifo<MsgFrame, &MsgFrame::next> mq;

  // Saved continuation when blocked (waiting mode) or preempted.
  CtxFrameBase* blocked_frame = nullptr;
  ResumeFn resume_entry = nullptr;

  // Reply box this object is registered on while blocked (await or hybrid
  // await-or-select). Cleared on resume; if the select alternative won, the
  // box registration is cancelled so a later reply simply fills the box.
  ReplyBox* awaiting_box = nullptr;

  // Lazily-initialized local creation: the creation arguments, kept until
  // the first message triggers state-variable initialization.
  MsgFrame* pending_init = nullptr;

  // Node-wise scheduling queue membership (at most one item per object).
  ObjectHeader* sched_next = nullptr;
  SchedState sched_state = SchedState::kNone;

  // Node-local live-object list (O(1) unlink for retirement); live_pprev
  // is null at the head (NodeRuntime::link_live).
  ObjectHeader* live_next = nullptr;
  ObjectHeader** live_pprev = nullptr;

  Mode mode = Mode::kFault;
  bool needs_init = false;   // state variables not yet constructed (lazy init)
  bool retired = false;      // app asked to reclaim after the current method
  std::uint16_t alloc_size_class = 0;  // pool class of header+state chunk

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
