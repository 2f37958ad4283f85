// Generated method entries (what the ABCL compiler emits as C functions).
//
// Every method of every class is represented by a *frame type* FrameT — a
// trivially-copyable struct deriving CtxFrameBase that holds the message
// arguments, the persistent locals and the continuation pc — plus two
// static functions:
//
//    static void  init(FrameT&, const MsgView&);   // land the arguments
//    static Status run(NodeRuntime&, T&, FrameT&); // the body state machine
//
// method_entry<T, FrameT> is the dormant-table entry: it switches the VFTP
// to the active (queuing) table, runs the body with the frame as a plain
// stack object, and on completion runs the method epilogue. If the body
// blocks, the frame is lazily spilled to the heap (one memcpy — the paper's
// context save) and the object transitions to waiting mode.
#pragma once

#include <cstring>
#include <type_traits>

#include "core/node_runtime.hpp"

namespace abcl::core {

template <class T, class FrameT>
Status run_frame(NodeRuntime& rt, ObjectHeader* o, FrameT& f, bool on_stack);

// Continuation entry stored in the blocked frame's CtxTrailer while blocked.
template <class T, class FrameT>
Status resume_frame(NodeRuntime& rt, ObjectHeader* o) {
  auto* f = static_cast<FrameT*>(o->blocked_frame());
  o->set_blocked_frame(nullptr);
  // If the object was also registered on a reply box (await / hybrid
  // await-or-select) and something else resumed it, cancel the
  // registration: a later reply then simply fills the box.
  CtxTrailer* tr = ctx_trailer(f);
  if (ReplyBox* b = tr->awaiting_box) {
    tr->awaiting_box = nullptr;
    if (b->state == ReplyBox::State::kWaiting && b->waiter == o) {
      b->state = ReplyBox::State::kEmpty;
      b->waiter = nullptr;
    }
  }
  rt.charge(rt.cost_model().ctx_restore);
  rt.stats().resumes += 1;
  rt.trace(sim::TraceEv::kResume, o->cls()->id);
  return run_frame<T, FrameT>(rt, o, *f, /*on_stack=*/false);
}

template <class T, class FrameT>
Status run_frame(NodeRuntime& rt, ObjectHeader* o, FrameT& f, bool on_stack) {
  static_assert(std::is_trivially_copyable_v<FrameT>,
                "method frames are spilled by memcpy; keep them trivially copyable");
  static_assert(std::is_base_of_v<CtxFrameBase, FrameT>,
                "method frames must derive core::CtxFrameBase");

  o->vftp = &o->cls()->active;
  o->mode = Mode::kActive;

  ObjectHeader* prev = rt.current_object();
  rt.set_current_object(o);
  Status s = FrameT::run(rt, *o->template state_as<T>(), f);
  rt.set_current_object(prev);

  if (s == Status::kDone) {
    if (!on_stack) rt.free_ctx_frame(&f);
    rt.method_epilogue(o);
    return s;
  }

  // Blocked: lazily move the stack frame to the heap (first block only).
  FrameT* hf;
  if (on_stack) {
    rt.charge(rt.cost_model().ctx_save);
    hf = rt.alloc_ctx_frame<FrameT>();
    std::memcpy(static_cast<void*>(hf), static_cast<const void*>(&f),
                sizeof(FrameT));
    hf->bytes = sizeof(FrameT);
  } else {
    hf = &f;
  }
  rt.commit_block(o, hf, &resume_frame<T, FrameT>);
  return Status::kBlocked;
}

// The dormant-table entry for a method: invoked directly by a local sender
// (stack scheduling) or by the scheduler when dispatching a buffered
// message.
template <class T, class FrameT>
Status method_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m) {
  if (!rt.cost_model().opt.elide_vftp_switch) {
    rt.charge(rt.cost_model().vftp_switch);
  }
  FrameT f{};
  f.pc = 0;
  FrameT::init(f, m);
  return run_frame<T, FrameT>(rt, o, f, /*on_stack=*/true);
}

}  // namespace abcl::core
