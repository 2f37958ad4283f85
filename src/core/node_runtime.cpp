#include "core/node_runtime.hpp"

#include <algorithm>
#include <cstring>

namespace abcl::core {

namespace {

// Packets a quantum polls at most before it runs its scheduler.
constexpr int kMaxPacketsPerQuantum = 32;

std::uint8_t object_size_class(const ClassInfo& cls) {
  return static_cast<std::uint8_t>(
      util::SlabAllocator::size_class(object_alloc_bytes(cls.state_bytes)));
}

}  // namespace

NodeRuntime::NodeRuntime(NodeId id, Program& prog, net::Network& net,
                         const sim::CostModel& cm, Config cfg)
    : id_(id),
      prog_(&prog),
      net_(&net),
      cm_(&cm),
      cfg_(cfg),
      arena_(64u << 10, cfg.reserved_arena ? cfg.arena_base : 0),
      pool_(arena_),
      rng_(cfg.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(id) + 1) {
  ABCL_CHECK_MSG(prog.finalized(), "Program must be finalized before nodes start");
}

NodeRuntime::~NodeRuntime() {
  for (ObjectHeader* o = live_head_; o != nullptr; o = o->live_next) {
    const ClassInfo* cls = o->cls();
    if (cls != nullptr && !o->needs_init && cls->destruct != nullptr) {
      cls->destruct(o->state());
    }
  }
  // Slab memory dies with the arena.
}

// ----------------------------------------------------------------------------
// sim::NodeExec
// ----------------------------------------------------------------------------

bool NodeRuntime::runnable() const {
  return !sched_.empty() || net_->next_arrival(id_) <= clock_;
}

void NodeRuntime::advance_clock(sim::Instr t) {
  ABCL_DCHECK(t >= clock_);
  stats_.idle_instr += t - clock_;
  clock_ = t;
}

void NodeRuntime::step() {
  deliveries_this_quantum_ = 0;
  quantum_start_clock_ = clock_;
  ++quanta_run_;
  stats_.sched_depth.add(sched_.size());
  trace(sim::TraceEv::kQuantum, sched_.size());

  // Poll against the quantum-start clock, not the growing clock_: a packet
  // that arrives mid-quantum (while handlers charge instructions) is picked
  // up by a later quantum. This makes a quantum's inputs a pure function of
  // the pre-quantum state, which is what lets the host-parallel driver run
  // whole lookahead windows of quanta concurrently yet bit-identically.
  // Each handler runs on the pool slot the packet landed in; the slot goes
  // back to the pool once the handler returns.
  bool dup = false;
  for (int handled = 0; handled < kMaxPacketsPerQuantum; ++handled) {
    net::Packet* slot = net_->poll(id_, quantum_start_clock_, &dup);
    if (slot == nullptr) break;
    const net::Packet& pkt = *slot;
    charge(cm_->recv_handler);
    if (dup) {
      // A retransmitted or network-duplicated copy, marked at commit: the
      // receiver still burns handler instructions recognizing it (the real
      // cost of at-least-once delivery) but must not dispatch — and it
      // contributes nothing to the delivery stats, which count logical
      // messages.
      trace(sim::TraceEv::kFaultDup, pkt.handler);
    } else {
      stats_.remote_recv += 1;
      // Send -> dispatch latency in simulated instrs: the wire plus however
      // long the packet sat deliverable in the receive queue. The dispatch
      // instant includes the just-charged handler cost, matching the
      // paper's "receiver instructions" accounting.
      auto cat = static_cast<int>(prog_->am().entry(pkt.handler).category);
      stats_.msg_latency[cat].add(
          static_cast<std::uint64_t>(clock_ - pkt.send_time));
      trace(sim::TraceEv::kRecvRemote, pkt.handler);
      if (pkt.retries != 0) trace(sim::TraceEv::kFaultRetry, pkt.retries);
      prog_->am().dispatch(pkt.handler, this, pkt);
    }
    net_->release(id_, slot);
  }

  // Shed check before the dispatch: the decision reads the run-queue depth
  // the quantum started with (pure function of pre-quantum state, like the
  // poll loop above).
  if (cfg_.migration.enabled) maybe_shed();

  if (ObjectHeader* o = sched_.pop()) run_sched_item(o);

  if (cfg_.gossip_interval != 0 && quanta_run_ % cfg_.gossip_interval == 0) {
    gossip_load_now();
  }
}

// ----------------------------------------------------------------------------
// Local delivery and scheduling
// ----------------------------------------------------------------------------

Status NodeRuntime::deliver_local(ObjectHeader* o, const MsgView& m) {
  charge(cm_->lookup_call);
  ++deliveries_this_quantum_;

  // Migration stubs intercept before any dispatch: a forwarding stub
  // bounces the message toward the object's new home (the loop walks local
  // chains — an object that migrated away and later back through here), an
  // in-transit stub buffers it until kMigrateDone flushes the inbox.
  while (o->mode == Mode::kForwarding) {
    auto it = stubs_.find(o);
    ABCL_CHECK(it != stubs_.end());
    stats_.migration_forwards += 1;
    trace(sim::TraceEv::kForward, m.pattern);
    const MailAddr fwd = it->second.fwd;
    if (fwd.node == id_) {
      o = fwd.ptr;
      continue;
    }
    remote_send(fwd, m.pattern, m.args, m.nargs, m.reply);
    return Status::kDone;
  }
  if (o->mode == Mode::kMigrating) {
    queue_message(o, m);
    return Status::kDone;
  }

  if (cfg_.policy == SchedPolicy::kNaive) {
    naive_local_send(o, m);
    return Status::kDone;
  }

  if (call_depth_ >= cfg_.max_call_depth) {
    // Preemption of the direct-call cascade: the receiver is handled as if
    // it were active — buffer and round-trip the scheduling queue — so the
    // C++ stack stays bounded. FIFO per sender is preserved because the
    // object is switched to active mode (later sends buffer behind).
    if (o->is_idle_receiver()) {
      stats_.forced_buffer_depth += 1;
      queue_message(o, m);
      o->vftp = &o->cls()->active;
      o->mode = Mode::kActive;
      charge(cm_->sched_enqueue);
      stats_.sched_enqueues += 1;
      sched_.push(o, SchedState::kQueuedNext);
      return Status::kDone;
    }
    if (o->mode == Mode::kWaiting && o->vftp->wait_site >= 0 &&
        o->vftp->entry(m.pattern) == &select_restore_entry) {
      stats_.forced_buffer_depth += 1;
      queue_message(o, m);
      if (o->sched_state == SchedState::kNone) {
        charge(cm_->sched_enqueue);
        stats_.sched_enqueues += 1;
        sched_.push(o, SchedState::kQueuedNext);
      }
      return Status::kDone;
    }
    // Other cases (queuing entries) do not recurse into user code.
  }

  ++call_depth_;
  Status s = o->vftp->entry(m.pattern)(*this, o, m);
  --call_depth_;
  return s;
}

Status NodeRuntime::dispatch_body(ObjectHeader* o, const MsgView& m) {
  if (o->needs_init) return lazy_init_entry(*this, o, m);
  return o->cls()->dormant.entry(m.pattern)(*this, o, m);
}

void NodeRuntime::queue_message(ObjectHeader* o, const MsgView& m) {
  charge(cm_->frame_alloc + cm_->msg_store + cm_->mq_enqueue);
  MsgFrame* f = alloc_msg_frame();
  f->pattern = m.pattern;
  f->nargs = m.nargs;
  f->reply = m.reply;
  for (int i = 0; i < m.nargs; ++i) f->args[i] = m.args[i];
  o->mq.push_back(f);
}

void NodeRuntime::naive_local_send(ObjectHeader* o, const MsgView& m) {
  queue_message(o, m);
  bool should_sched = false;
  if (o->is_idle_receiver()) {
    should_sched = true;
  } else if (o->mode == Mode::kWaiting && o->vftp->wait_site >= 0) {
    const WaitSite& ws =
        *o->cls()->wait_sites[static_cast<std::size_t>(o->vftp->wait_site)];
    should_sched = ws.find(m.pattern) != nullptr;
  }
  if (should_sched && o->sched_state == SchedState::kNone) {
    charge(cm_->sched_enqueue);
    stats_.sched_enqueues += 1;
    sched_.push(o, SchedState::kQueuedNext);
  }
}

void NodeRuntime::run_sched_item(ObjectHeader* o) {
  SchedState kind = o->sched_state;
  o->sched_state = SchedState::kNone;
  charge(cm_->sched_dispatch);
  stats_.sched_dispatches += 1;

  if (kind == SchedState::kQueuedResume) {
    ABCL_CHECK(o->mode == Mode::kWaiting && o->blocked_frame() != nullptr);
    ++call_depth_;
    o->resume_entry()(*this, o);
    --call_depth_;
    return;
  }

  ABCL_DCHECK(kind == SchedState::kQueuedNext);
  if (o->mode == Mode::kWaiting) {
    // A reply may have been delivered while this item was pending (hybrid
    // wait under the naive policy / at the depth bound): the box is full
    // and the object must resume through it.
    ReplyBox* box = o->awaiting_box();
    if (box != nullptr && box->state == ReplyBox::State::kFull) {
      ++call_depth_;
      o->resume_entry()(*this, o);
      --call_depth_;
      return;
    }
    // Selective-reception retry after a depth-forced buffer: scan for an
    // accepted message; reply waits are resumed by the reply box instead.
    if (o->vftp->wait_site < 0) return;
    const WaitSite& ws =
        *o->cls()->wait_sites[static_cast<std::size_t>(o->vftp->wait_site)];
    MsgFrame* mf = o->mq.remove_first_if(
        [&](MsgFrame& f) { return ws.find(f.pattern) != nullptr; });
    if (mf == nullptr) return;
    const WaitSite::Accept* a = ws.find(mf->pattern);
    CtxFrameBase* hf = o->blocked_frame();
    a->copy_in(hf, MsgView::of_frame(*mf));
    hf->pc = a->resume_pc;
    free_msg_frame(mf);
    stats_.local_to_waiting_hit += 1;
    ++call_depth_;
    o->resume_entry()(*this, o);
    --call_depth_;
    return;
  }

  MsgFrame* mf = o->mq.pop_front();
  if (mf == nullptr) {
    if (o->mode == Mode::kActive) {
      o->vftp = o->needs_init ? &o->cls()->lazy_init : &o->cls()->dormant;
      o->mode = Mode::kDormant;
      maybe_retire(o);
    }
    return;
  }
  MsgView m = MsgView::of_frame(*mf);
  ++call_depth_;
  dispatch_body(o, m);
  --call_depth_;
  free_msg_frame(mf);
}

void NodeRuntime::method_epilogue(ObjectHeader* o) {
  if (!cm_->opt.elide_mq_check) charge(cm_->mq_check);
  if (!cm_->opt.elide_poll) charge(cm_->poll_remote);
  if (!o->mq.empty()) {
    if (o->sched_state == SchedState::kNone) {
      charge(cm_->sched_enqueue);
      stats_.sched_enqueues += 1;
      sched_.push(o, SchedState::kQueuedNext);
    }
    // VFTP stays the active (queuing) table until the queue drains.
  } else {
    if (!cm_->opt.elide_vftp_switch) charge(cm_->vftp_switch);
    o->vftp = o->needs_init ? &o->cls()->lazy_init : &o->cls()->dormant;
    o->mode = Mode::kDormant;
    maybe_retire(o);
  }
  charge(cm_->stack_return);
}

void NodeRuntime::commit_block(ObjectHeader* o, CtxFrameBase* hf, ResumeFn resume) {
  trace(sim::TraceEv::kBlock, static_cast<std::uint64_t>(block_reason_.kind));
  const ClassInfo& cls = *o->cls();
  o->set_blocked_frame(hf);
  CtxTrailer* tr = ctx_trailer(hf);
  *tr = CtxTrailer{resume, nullptr};
  switch (block_reason_.kind) {
    case BlockReason::Kind::kAwait: {
      stats_.blocks_await += 1;
      ReplyBox* b = block_reason_.box;
      ABCL_CHECK(b != nullptr && b->state == ReplyBox::State::kEmpty);
      b->state = ReplyBox::State::kWaiting;
      b->waiter = o;
      tr->awaiting_box = b;
      o->vftp = &cls.active;  // all entries queue while awaiting a reply
      o->mode = Mode::kWaiting;
      break;
    }
    case BlockReason::Kind::kAwaitSelect: {
      stats_.blocks_await += 1;
      stats_.blocks_select += 1;
      ReplyBox* b = block_reason_.box;
      ABCL_CHECK(b != nullptr && b->state == ReplyBox::State::kEmpty);
      ABCL_CHECK(block_reason_.site >= 0 &&
                 static_cast<std::size_t>(block_reason_.site) <
                     cls.wait_sites.size());
      b->state = ReplyBox::State::kWaiting;
      b->waiter = o;
      tr->awaiting_box = b;
      // Accepted patterns restore directly; everything else queues; the
      // reply resumes through the box — whichever comes first wins.
      o->vftp =
          &cls.wait_sites[static_cast<std::size_t>(block_reason_.site)]->vft;
      o->mode = Mode::kWaiting;
      break;
    }
    case BlockReason::Kind::kSelect: {
      stats_.blocks_select += 1;
      ABCL_CHECK(block_reason_.site >= 0 &&
                 static_cast<std::size_t>(block_reason_.site) <
                     cls.wait_sites.size());
      o->vftp =
          &cls.wait_sites[static_cast<std::size_t>(block_reason_.site)]->vft;
      o->mode = Mode::kWaiting;
      break;
    }
    case BlockReason::Kind::kYield: {
      stats_.yields += 1;
      o->vftp = &cls.active;
      o->mode = Mode::kWaiting;
      charge(cm_->sched_enqueue);
      stats_.sched_enqueues += 1;
      sched_.push(o, SchedState::kQueuedResume);
      break;
    }
    case BlockReason::Kind::kNone:
      ABCL_CHECK_MSG(false, "method returned kBlocked without a block reason");
  }
  block_reason_ = {};
}

void NodeRuntime::resume_object(ObjectHeader* o) {
  ABCL_CHECK(o->mode == Mode::kWaiting && o->blocked_frame() != nullptr);
  if (cfg_.policy == SchedPolicy::kStack && call_depth_ < cfg_.max_call_depth) {
    ++call_depth_;
    o->resume_entry()(*this, o);
    --call_depth_;
  } else if (o->sched_state == SchedState::kNone) {
    charge(cm_->sched_enqueue);
    stats_.sched_enqueues += 1;
    sched_.push(o, SchedState::kQueuedResume);
  }
  // else: a kQueuedNext item is already pending for this object; it will
  // observe the (now full) reply box and resume through it.
}

// ----------------------------------------------------------------------------
// Blocking protocol
// ----------------------------------------------------------------------------

Status NodeRuntime::block_await(const NowCall& c) {
  ABCL_CHECK(c.box != nullptr);
  block_reason_ = BlockReason{BlockReason::Kind::kAwait, c.box, -1};
  return Status::kBlocked;
}

Status NodeRuntime::block_select(std::int32_t site) {
  block_reason_ = BlockReason{BlockReason::Kind::kSelect, nullptr, site};
  return Status::kBlocked;
}

Status NodeRuntime::block_await_select(const NowCall& c, std::int32_t site) {
  ABCL_CHECK(c.box != nullptr);
  block_reason_ = BlockReason{BlockReason::Kind::kAwaitSelect, c.box, site};
  return Status::kBlocked;
}

Status NodeRuntime::block_yield() {
  block_reason_ = BlockReason{BlockReason::Kind::kYield, nullptr, -1};
  return Status::kBlocked;
}

std::uint16_t NodeRuntime::select_try(std::int32_t site, void* frame) {
  ObjectHeader* o = cur_obj_;
  ABCL_CHECK(o != nullptr && site >= 0 &&
             static_cast<std::size_t>(site) < o->cls()->wait_sites.size());
  const WaitSite& ws = *o->cls()->wait_sites[static_cast<std::size_t>(site)];
  std::uint32_t scanned = 0;
  MsgFrame* mf = o->mq.remove_first_if([&](MsgFrame& f) {
    ++scanned;
    return ws.find(f.pattern) != nullptr;
  });
  charge(static_cast<sim::Instr>(scanned) * cm_->select_scan_per_msg);
  if (mf == nullptr) return kPcBlocked;
  const WaitSite::Accept* a = ws.find(mf->pattern);
  a->copy_in(frame, MsgView::of_frame(*mf));
  free_msg_frame(mf);
  return a->resume_pc;
}

// ----------------------------------------------------------------------------
// Sends and replies
// ----------------------------------------------------------------------------

void NodeRuntime::send_past(MailAddr t, PatternId p, const Word* args, int nargs) {
  ABCL_CHECK(!t.is_nil());
  if (!route_send(t, p, args, nargs, kNilReply)) return;  // held during a flush
  if (!cm_->opt.elide_locality_check) charge(cm_->locality_check);
  if (t.node == id_) {
    stats_.local_sends += 1;
    if (t.ptr->is_idle_receiver()) {
      stats_.local_to_dormant += 1;
    } else if (t.ptr->mode == Mode::kActive) {
      stats_.local_to_active += 1;
    }
    MsgView m{p, static_cast<std::uint8_t>(nargs), args, kNilReply};
    deliver_local(t.ptr, m);
  } else {
    remote_send(t, p, args, nargs, kNilReply);
  }
}

NowCall NodeRuntime::send_now(MailAddr t, PatternId p, const Word* args,
                              int nargs) {
  ABCL_CHECK(!t.is_nil());
  charge(cm_->reply_box_alloc);
  ReplyBox* box = alloc_reply_box();
  ReplyDest rd{id_, box};
  // Held-during-flush messages carry the reply dest with them; the box is
  // already allocated, so the caller's NowCall stays valid either way.
  if (!route_send(t, p, args, nargs, rd)) return NowCall{box};
  if (!cm_->opt.elide_locality_check) charge(cm_->locality_check);
  if (t.node == id_) {
    stats_.local_sends += 1;
    if (t.ptr->is_idle_receiver()) {
      stats_.local_to_dormant += 1;
    } else if (t.ptr->mode == Mode::kActive) {
      stats_.local_to_active += 1;
    }
    MsgView m{p, static_cast<std::uint8_t>(nargs), args, rd};
    deliver_local(t.ptr, m);
  } else {
    remote_send(t, p, args, nargs, rd);
  }
  return NowCall{box};
}

void NodeRuntime::remote_send(MailAddr t, PatternId p, const Word* args,
                              int nargs, const ReplyDest& rd) {
  charge(cm_->send_setup);
  stats_.remote_sends += 1;
  trace(sim::TraceEv::kSendRemote, p);
  net::Packet* pkt = net_->open(id_, t.node, prog_->h_obj_msg(p), clock_);
  pkt->push(t.word_ptr());
  pkt->push(rd.word_node());
  pkt->push(rd.word_box());
  for (int i = 0; i < nargs; ++i) pkt->push(args[i]);
  net_->send(pkt, net::AmCategory::kObjectMessage);
}

void NodeRuntime::reply(const ReplyDest& rd, const Word* vals, int n) {
  ABCL_CHECK(!rd.is_nil());
  ABCL_CHECK(n >= 0 && n <= kMaxReplyWords);
  stats_.replies_sent += 1;
  if (rd.node == id_) {
    deliver_reply_local(rd.box, vals, n);
    return;
  }
  charge(cm_->send_setup);
  stats_.remote_sends += 1;
  net::Packet* pkt = net_->open(id_, rd.node, prog_->h_reply(), clock_);
  pkt->push(rd.word_box());
  for (int i = 0; i < n; ++i) pkt->push(vals[i]);
  net_->send(pkt, net::AmCategory::kObjectMessage);
}

void NodeRuntime::deliver_reply_local(ReplyBox* b, const Word* vals, int n) {
  ABCL_CHECK(b != nullptr);
  switch (b->state) {
    case ReplyBox::State::kEmpty:
      b->store(vals, n);
      b->state = ReplyBox::State::kFull;
      break;
    case ReplyBox::State::kWaiting: {
      ObjectHeader* o = b->waiter;
      b->waiter = nullptr;
      b->store(vals, n);
      b->state = ReplyBox::State::kFull;
      resume_object(o);
      break;
    }
    case ReplyBox::State::kFull:
      ABCL_CHECK_MSG(false, "double reply to a now-type message");
  }
}

bool NodeRuntime::reply_ready(const NowCall& c) {
  if (c.box == nullptr) return true;  // local-create fast path of CreateCall
  charge(cm_->reply_check);
  if (c.box->state == ReplyBox::State::kFull) {
    stats_.await_fast_hits += 1;
    return true;
  }
  return false;
}

Word NodeRuntime::peek_reply(const NowCall& c, int i) const {
  ABCL_CHECK(c.box != nullptr && c.box->state == ReplyBox::State::kFull);
  ABCL_CHECK(i >= 0 && i < c.box->nvals);
  return c.box->vals[i];
}

Word NodeRuntime::take_reply(NowCall& c) {
  ABCL_CHECK(c.box != nullptr && c.box->state == ReplyBox::State::kFull);
  Word v = c.box->nvals > 0 ? c.box->vals[0] : 0;
  free_reply_box(c.box);
  c.box = nullptr;
  return v;
}

// ----------------------------------------------------------------------------
// Object creation
// ----------------------------------------------------------------------------

ObjectHeader* NodeRuntime::alloc_object(const ClassInfo& cls) {
  trace(sim::TraceEv::kCreate, cls.id);
  std::size_t bytes = object_alloc_bytes(cls.state_bytes);
  void* mem = pool_.allocate(bytes);
  auto* o = new (mem) ObjectHeader();
  o->home = id_;
  o->mode = Mode::kDormant;
  o->needs_init = true;
  o->vftp = &cls.lazy_init;
  o->alloc_size_class = object_size_class(cls);
  link_live(o);
  ++live_objects_;
  ++total_created_;
  return o;
}

ObjectHeader* NodeRuntime::format_chunk(std::uint16_t size_class) {
  void* mem = pool_.allocate(util::SlabAllocator::class_bytes(size_class));
  auto* o = new (mem) ObjectHeader();
  o->home = id_;
  o->mode = Mode::kFault;
  o->needs_init = true;
  o->vftp = &prog_->fault_vft();
  o->alloc_size_class = static_cast<std::uint8_t>(size_class);
  link_live(o);
  ++live_objects_;
  ++total_created_;
  return o;
}

void NodeRuntime::link_live(ObjectHeader* o) {
  // The head keeps a null live_pprev rather than &live_head_: snapshots image
  // the arena verbatim, and no arena word may point into this runtime,
  // which a restore rebuilds at another host address.
  o->live_next = live_head_;
  o->live_pprev = nullptr;
  if (live_head_ != nullptr) live_head_->live_pprev = &o->live_next;
  live_head_ = o;
}

void NodeRuntime::destroy_object(ObjectHeader* o) {
  const ClassInfo* cls = o->cls();
  if (cls != nullptr && !o->needs_init && cls->destruct != nullptr) {
    cls->destruct(o->state());
  }
  if (!migrated_meta_.empty()) migrated_meta_.erase(o);
  while (MsgFrame* f = o->mq.pop_front()) free_msg_frame(f);
  if (MsgFrame* f = o->pending_init()) free_msg_frame(f);
  // Unlink from the live list (a null live_pprev marks the head).
  *(o->live_pprev != nullptr ? o->live_pprev : &live_head_) = o->live_next;
  if (o->live_next != nullptr) o->live_next->live_pprev = o->live_pprev;
  std::uint16_t szcls = o->alloc_size_class;
  o->~ObjectHeader();
  pool_.deallocate(o, util::SlabAllocator::class_bytes(szcls));
  --live_objects_;
}

void NodeRuntime::maybe_retire(ObjectHeader* o) {
  if (!o->retired) return;
  if (o->mode != Mode::kDormant || !o->mq.empty() ||
      o->blocked_frame() != nullptr || o->sched_state != SchedState::kNone) {
    return;
  }
  destroy_object(o);
}

void NodeRuntime::retire_self() {
  ABCL_CHECK(cur_obj_ != nullptr);
  cur_obj_->retired = true;
}

MailAddr NodeRuntime::create_local(const ClassInfo& cls, const Word* args,
                                   int nargs) {
  charge(cm_->create_local);
  stats_.creations_local += 1;
  ObjectHeader* o = alloc_object(cls);
  if (nargs > 0) {
    MsgFrame* f = alloc_msg_frame();
    f->pattern = 0;
    f->nargs = static_cast<std::uint8_t>(nargs);
    f->reply = kNilReply;
    for (int i = 0; i < nargs; ++i) f->args[i] = args[i];
    o->set_pending_init(f);
  }
  return MailAddr{id_, o};
}

CreateCall NodeRuntime::remote_create_begin(const ClassInfo& cls, NodeId target,
                                            const Word* args, int nargs) {
  if (target == id_) return CreateCall{create_local(cls, args, nargs), {}};
  ABCL_CHECK(target >= 0 && target < num_nodes());
  charge(cm_->create_remote_local_part);
  stats_.creations_remote += 1;
  std::uint16_t szcls = object_size_class(cls);
  if (auto chunk = stock_.try_pop(target, szcls)) {
    stats_.chunk_stock_hits += 1;
    send_create_packet(cls, target, *chunk, args, nargs);
    return CreateCall{MailAddr{target, *chunk}, {}};
  }
  // Stock empty: split-phase fallback — request a chunk and await it.
  stats_.chunk_stock_misses += 1;
  charge(cm_->reply_box_alloc);
  ReplyBox* b = alloc_reply_box();
  auto* pc = static_cast<PendingCreate*>(pool_.allocate(sizeof(PendingCreate)));
  new (pc) PendingCreate();
  pc->cls = &cls;
  pc->target = target;
  pc->nargs = static_cast<std::uint8_t>(nargs);
  for (int i = 0; i < nargs; ++i) pc->args[i] = args[i];
  b->pending_create = pc;

  charge(cm_->send_setup);
  stats_.remote_sends += 1;
  net::Packet* pkt = net_->open(id_, target, prog_->h_alloc_request(), clock_);
  pkt->push(szcls);
  pkt->push(reinterpret_cast<Word>(b));
  net_->send(pkt, net::AmCategory::kCreateRequest);
  return CreateCall{kNilAddr, NowCall{b}};
}

MailAddr NodeRuntime::remote_create_finish(CreateCall& c) {
  if (c.call.box != nullptr) {
    ReplyBox* b = c.call.box;
    ABCL_CHECK(b->state == ReplyBox::State::kFull);
    auto* pc = static_cast<PendingCreate*>(b->pending_create);
    ABCL_CHECK(pc != nullptr);
    auto* chunk = reinterpret_cast<ObjectHeader*>(b->vals[0]);
    send_create_packet(*pc->cls, pc->target, chunk, pc->args, pc->nargs);
    c.addr = MailAddr{pc->target, chunk};
    pc->~PendingCreate();
    pool_.deallocate(pc, sizeof(PendingCreate));
    free_reply_box(b);
    c.call.box = nullptr;
  }
  return c.addr;
}

void NodeRuntime::send_create_packet(const ClassInfo& cls, NodeId target,
                                     ObjectHeader* chunk, const Word* args,
                                     int nargs) {
  charge(cm_->send_setup);
  stats_.remote_sends += 1;
  // Only ask the target to replenish while on-hand plus in-flight chunks
  // sit below the steady-state target; an unconditional request overshoots
  // without bound once a drained stock bursts back up. The request rides in
  // bit 0 of the chunk address (pool chunks are at least 8-byte aligned),
  // so the packet layout is unchanged.
  std::uint16_t szcls = chunk->alloc_size_class;
  const bool want_replenish =
      !cfg_.disable_replenish &&
      stock_.planned_depth(target, szcls) <
          static_cast<std::size_t>(cfg_.chunk_stock_target);
  if (want_replenish) stock_.note_replenish_requested(target, szcls);
  net::Packet* pkt = net_->open(id_, target, prog_->h_create(cls.id), clock_);
  pkt->push(reinterpret_cast<Word>(chunk) | (want_replenish ? 1 : 0));
  for (int i = 0; i < nargs; ++i) pkt->push(args[i]);
  net_->send(pkt, net::AmCategory::kCreateRequest);
}

bool NodeRuntime::inline_guard(MailAddr target, const ClassInfo& cls) {
  charge(cm_->locality_check + cm_->inline_mode_check);
  return target.node == id_ && target.ptr->vftp == &cls.dormant;
}

// ----------------------------------------------------------------------------
// Pools
// ----------------------------------------------------------------------------

MsgFrame* NodeRuntime::alloc_msg_frame() {
  auto* f = static_cast<MsgFrame*>(pool_.allocate(sizeof(MsgFrame)));
  return new (f) MsgFrame();
}

void NodeRuntime::free_msg_frame(MsgFrame* f) {
  pool_.deallocate(f, sizeof(MsgFrame));
}

ReplyBox* NodeRuntime::alloc_reply_box() {
  auto* b = static_cast<ReplyBox*>(pool_.allocate(sizeof(ReplyBox)));
  return new (b) ReplyBox();
}

void NodeRuntime::free_reply_box(ReplyBox* b) {
  pool_.deallocate(b, sizeof(ReplyBox));
}

// ----------------------------------------------------------------------------
// Chunk stock
// ----------------------------------------------------------------------------

void NodeRuntime::seed_stock_from(NodeRuntime& peer_rt, const ClassInfo& cls,
                                  int depth) {
  ABCL_CHECK(&peer_rt != this);
  std::uint16_t szcls = object_size_class(cls);
  for (int i = 0; i < depth; ++i) {
    stock_.push(peer_rt.node_id(), szcls, peer_rt.format_chunk(szcls));
  }
}

// ----------------------------------------------------------------------------
// Services (Category 4)
// ----------------------------------------------------------------------------

void NodeRuntime::gossip_load_now() {
  auto load = static_cast<Word>(sched_.size());
  for (NodeId nb : net_->topology().neighbors(id_)) {
    charge(cm_->send_setup);
    net::Packet* pkt = net_->open(id_, nb, prog_->h_load_gossip(), clock_);
    pkt->push(load);
    net_->send(pkt, net::AmCategory::kService);
  }
}

void NodeRuntime::boot(const std::function<void(NodeRuntime&)>& fn) {
  deliveries_this_quantum_ = 0;
  quantum_start_clock_ = clock_;
  fn(*this);
}

// ----------------------------------------------------------------------------
// Active-message handler bodies
// ----------------------------------------------------------------------------

void NodeRuntime::on_obj_msg(const net::Packet& pkt) {
  PatternId p = prog_->pattern_of_handler(pkt.handler);
  auto* o = reinterpret_cast<ObjectHeader*>(pkt.at(0));
  ABCL_CHECK_MSG(o->home == id_, "object message routed to the wrong node");
  if (o->mode == Mode::kForwarding) {
    // Path compression: tell the sender where the chain currently ends so
    // its later sends skip this stub (deliver_local below still does the
    // actual forward for *this* message). No update while the chain dead-
    // ends in an in-transit stub — the address is not yet known.
    if (auto hit = peek_forward(o)) {
      send_update_addr(pkt.src, pkt.at(0), hit->first, hit->second);
    }
  }
  ReplyDest rd = ReplyDest::from_words(pkt.at(1), pkt.at(2));
  MsgView m{p, static_cast<std::uint8_t>(pkt.nwords - 3), &pkt.payload[3], rd};
  deliver_local(o, m);
}

void NodeRuntime::on_reply(const net::Packet& pkt) {
  auto* b = reinterpret_cast<ReplyBox*>(pkt.at(0));
  deliver_reply_local(b, &pkt.payload[1], pkt.nwords - 1);
}

void NodeRuntime::on_create(const net::Packet& pkt) {
  const ClassInfo& cls = prog_->cls(prog_->class_of_handler(pkt.handler));
  const bool want_replenish = (pkt.at(0) & 1) != 0;
  auto* chunk = reinterpret_cast<ObjectHeader*>(pkt.at(0) & ~Word{1});
  ABCL_CHECK(chunk->home == id_);
  ABCL_CHECK_MSG(chunk->mode == Mode::kFault,
                 "creation request for an already-installed chunk");
  ABCL_CHECK(chunk->alloc_size_class == object_size_class(cls));
  charge(cm_->create_remote_install);

  MsgView ctor{0, static_cast<std::uint8_t>(pkt.nwords - 1), &pkt.payload[1],
               kNilReply};
  cls.construct(chunk->state(), ctor);
  chunk->needs_init = false;
  if (!chunk->mq.empty()) {
    // Messages raced ahead of the creation request and were fault-queued;
    // process them in arrival order through the scheduling queue.
    chunk->vftp = &cls.active;
    chunk->mode = Mode::kActive;
    charge(cm_->sched_enqueue);
    stats_.sched_enqueues += 1;
    sched_.push(chunk, SchedState::kQueuedNext);
  } else {
    chunk->vftp = &cls.dormant;
    chunk->mode = Mode::kDormant;
  }

  if (cfg_.disable_replenish || !want_replenish) return;

  // Replenish the requester's stock (Category 3).
  ObjectHeader* fresh = format_chunk(chunk->alloc_size_class);
  charge(cm_->send_setup);
  net::Packet* rep = net_->open(
      id_, pkt.src, prog_->h_replenish(chunk->alloc_size_class), clock_);
  rep->push(reinterpret_cast<Word>(fresh));
  net_->send(rep, net::AmCategory::kAllocReply);
}

void NodeRuntime::on_alloc_request(const net::Packet& pkt) {
  auto szcls = static_cast<std::uint16_t>(pkt.at(0));
  ObjectHeader* fresh = format_chunk(szcls);
  Word v = reinterpret_cast<Word>(fresh);
  reply(ReplyDest{pkt.src, reinterpret_cast<ReplyBox*>(pkt.at(1))}, &v, 1);
}

void NodeRuntime::on_replenish(const net::Packet& pkt) {
  charge(cm_->chunk_replenish);
  std::uint16_t szcls = prog_->size_class_of_handler(pkt.handler);
  stock_.replenish_arrived(pkt.src, szcls,
                           reinterpret_cast<ObjectHeader*>(pkt.at(0)));
}

void NodeRuntime::on_load_gossip(const net::Packet& pkt) {
  note_peer_load(pkt.src, static_cast<std::uint32_t>(pkt.at(0)));
}

// ----------------------------------------------------------------------------
// Live migration (remote/migration.hpp has the policy; DESIGN.md "Object
// migration" has the protocol walkthrough and the determinism argument)
// ----------------------------------------------------------------------------

namespace {

// kMigrateFrag payload: [old_ptr, offset, <= kFragWords blob words].
constexpr std::uint32_t kFragWords = net::kMaxPacketWords - 2;

}  // namespace

void NodeRuntime::send_service(NodeId to, net::HandlerId h,
                               std::initializer_list<Word> words) {
  // Service traffic mirrors gossip's accounting: send-setup instructions
  // are charged but remote_sends counts only application messages.
  charge(cm_->send_setup);
  net::Packet* pkt = net_->open(id_, to, h, clock_);
  for (Word w : words) pkt->push(w);
  net_->send(pkt, net::AmCategory::kService);
}

bool NodeRuntime::migratable_now(const ObjectHeader* o) const {
  if (o == nullptr || o == cur_obj_) return false;
  if (o->cls() == nullptr || !o->cls()->migratable || o->retired) return false;
  if (o->mode != Mode::kDormant && o->mode != Mode::kActive &&
      o->mode != Mode::kWaiting) {
    return false;
  }
  // A pending now-call pins the object: its ReplyBox lives on this node and
  // the reply will resume it here. Yield-blocked contexts (frame but no
  // wait site) have no pattern that can re-enter them remotely.
  if (o->awaiting_box() != nullptr) return false;
  if (o->blocked_frame() != nullptr && o->vftp->wait_site < 0) return false;
  return true;
}

std::optional<MailAddr> NodeRuntime::forward_target(
    const ObjectHeader* o) const {
  if (o->mode == Mode::kMigrating) {
    // In transit: mail still funnels through this stub.
    return MailAddr{id_, const_cast<ObjectHeader*>(o)};
  }
  if (o->mode != Mode::kForwarding) return std::nullopt;
  auto it = stubs_.find(const_cast<ObjectHeader*>(o));
  ABCL_CHECK(it != stubs_.end());
  return it->second.fwd;
}

std::optional<std::pair<MailAddr, std::uint32_t>> NodeRuntime::peek_forward(
    const ObjectHeader* o) const {
  const ObjectHeader* cur = o;
  for (;;) {
    if (cur->mode == Mode::kMigrating) return std::nullopt;
    if (cur->mode == Mode::kForwarding) {
      auto it = stubs_.find(const_cast<ObjectHeader*>(cur));
      ABCL_CHECK(it != stubs_.end());
      if (it->second.fwd.node == id_) {
        cur = it->second.fwd.ptr;
        continue;
      }
      return std::make_pair(it->second.fwd, it->second.fwd_epoch);
    }
    // A live local copy: the object migrated back through this node. Its
    // current epoch is in the migrated-in bookkeeping.
    auto mit = migrated_meta_.find(const_cast<ObjectHeader*>(cur));
    if (mit == migrated_meta_.end()) return std::nullopt;
    return std::make_pair(MailAddr{id_, const_cast<ObjectHeader*>(cur)},
                          mit->second.epoch);
  }
}

bool NodeRuntime::route_send(MailAddr& t, PatternId p, const Word* args,
                             int nargs, const ReplyDest& rd) {
  // Guard keeps the migration-off hot path byte-identical: no lookup, no
  // charge, until the first kUpdateAddr ever lands on this node.
  if (redirects_.empty()) return true;
  int hops = 0;
  for (;;) {
    auto it = redirects_.find(t.word_ptr());
    if (it == redirects_.end()) return true;
    RedirectEntry& e = it->second;
    if (e.flushing) {
      // Mail we previously routed through the stub chain has not drained
      // past the flush marker yet; taking the shortcut now could overtake
      // it. Hold until the ack.
      stats_.migration_holds += 1;
      HeldMsg h;
      h.pattern = p;
      h.nargs = nargs;
      h.rd = rd;
      for (int i = 0; i < nargs; ++i) h.args[i] = args[i];
      e.held.push_back(h);
      return false;
    }
    t = e.fwd;
    ABCL_CHECK_MSG(++hops <= 64, "redirect chain too long (cycle?)");
  }
}

void NodeRuntime::send_resolved(MailAddr t, PatternId p, const Word* args,
                                int nargs, const ReplyDest& rd) {
  if (t.node == id_) {
    MsgView m{p, static_cast<std::uint8_t>(nargs), args, rd};
    deliver_local(t.ptr, m);
  } else {
    remote_send(t, p, args, nargs, rd);
  }
}

void NodeRuntime::maybe_shed() {
  const remote::MigrationConfig& mc = cfg_.migration;
  if (mc.interval == 0 || quanta_run_ % mc.interval != 0) return;
  // Fresh gossip samples in the topology's fixed neighbour order, so the
  // policy sees identical inputs in every driver. A stack array: the check
  // runs every `interval` quanta and allocates nothing unless it sheds.
  std::pair<std::int32_t, std::uint32_t> loads[net::kMaxNeighbors];
  std::size_t nloads = 0;
  for (NodeId nb : net_->topology().neighbors(id_)) {
    if (auto l = known_load(nb)) loads[nloads++] = {nb, *l};
  }
  auto depth = static_cast<std::uint32_t>(sched_.size());
  auto d = remote::decide_shed(
      mc, id_, quanta_run_, depth,
      std::span<const std::pair<std::int32_t, std::uint32_t>>(loads, nloads));
  if (!d) return;
  // Candidates in run-queue FIFO order: the objects that have waited
  // longest are shipped first (canonical shed order; DESIGN.md).
  std::vector<ObjectHeader*> victims;
  sched_.for_each([&](ObjectHeader& o) {
    if (victims.size() < d->quota && migratable_now(&o)) {
      victims.push_back(&o);
    }
  });
  for (ObjectHeader* v : victims) migrate_object_to(v, d->target);
}

void NodeRuntime::migrate_object_to(ObjectHeader* o, NodeId target) {
  ABCL_CHECK(target >= 0 && target < num_nodes() && target != id_);
  ABCL_CHECK_MSG(migratable_now(o), "object not migratable right now");
  const ClassInfo& cls = *o->cls();
  sched_.remove(o);

  // Epoch = the object's migration count; the prior-stub trail travels so
  // the new home can short-circuit every old stub after it attaches.
  std::uint32_t epoch = 1;
  std::vector<MailAddr> priors;
  if (auto it = migrated_meta_.find(o); it != migrated_meta_.end()) {
    epoch = it->second.epoch + 1;
    priors = std::move(it->second.priors);
    migrated_meta_.erase(it);
  }

  // --- state blob: [state words][ctor frame?][blocked ctx frame?] ---
  std::uint32_t flags = 0;
  std::size_t state_words = (cls.state_bytes + 7) / 8;
  std::vector<Word> blob(state_words, 0);
  if (o->needs_init) {
    flags |= remote::kMigNeedsInit;  // bytes unconstructed; ship zeros
  } else if (cls.state_bytes > 0) {
    std::memcpy(blob.data(), o->state(), cls.state_bytes);
  }
  if (MsgFrame* f = o->pending_init()) {
    flags |= remote::kMigPendingInit;
    blob.push_back(static_cast<Word>(f->pattern) |
                   (static_cast<Word>(f->nargs) << 16));
    blob.push_back(f->reply.word_node());
    blob.push_back(f->reply.word_box());
    for (int i = 0; i < f->nargs; ++i) blob.push_back(f->args[i]);
    free_msg_frame(f);
    o->set_pending_init(nullptr);
  }
  std::int64_t wait_site = -1;
  if (CtxFrameBase* hf = o->blocked_frame()) {
    flags |= remote::kMigWaiting;
    wait_site = o->vftp->wait_site;  // >= 0 per migratable_now
    blob.push_back(hf->bytes);
    std::size_t base = blob.size();
    blob.insert(blob.end(), (hf->bytes + 7) / 8, 0);
    std::memcpy(&blob[base], hf, hf->bytes);
    blob.push_back(reinterpret_cast<Word>(ctx_trailer(hf)->resume_entry));
    free_ctx_frame(hf);
    o->set_blocked_frame(nullptr);
  }

  // Start packet: 6 header words + 2 per prior stub (kMaxPriorStubs keeps
  // this within kMaxPacketWords).
  const Word old_ptr = reinterpret_cast<Word>(o);
  charge(cm_->send_setup);
  net::Packet* sp = net_->open(id_, target, prog_->h_migrate_start(), clock_);
  sp->push(old_ptr);
  sp->push(cls.id);
  sp->push(static_cast<Word>(flags) | (static_cast<Word>(epoch) << 32));
  sp->push(static_cast<Word>(wait_site));
  sp->push(static_cast<Word>(blob.size()));
  sp->push(static_cast<Word>(priors.size()));
  for (const MailAddr& pr : priors) {
    sp->push(pr.word_node());
    sp->push(pr.word_ptr());
  }
  net_->send(sp, net::AmCategory::kService);

  // The header left behind is now a buffering stub: every arrival queues
  // until the new home confirms with kMigrateDone. The fault table (all
  // entries queue) also makes inline_guard fail for it, and needs_init
  // stops any destructor from running on the shipped-away state bytes.
  o->vftp = &prog_->fault_vft();
  o->mode = Mode::kMigrating;
  o->needs_init = true;
  stubs_[o] = StubInfo{};

  // Fragments after the start packet (same channel, but reassembly is
  // order-independent anyway — fault plans may reorder them).
  for (std::uint32_t off = 0; off < blob.size(); off += kFragWords) {
    charge(cm_->send_setup);
    net::Packet* fp = net_->open(id_, target, prog_->h_migrate_frag(), clock_);
    fp->push(old_ptr);
    fp->push(off);
    std::uint32_t n = std::min<std::uint32_t>(
        kFragWords, static_cast<std::uint32_t>(blob.size()) - off);
    for (std::uint32_t i = 0; i < n; ++i) fp->push(blob[off + i]);
    net_->send(fp, net::AmCategory::kService);
  }

  stats_.migrations_out += 1;
  trace(sim::TraceEv::kMigrateOut, static_cast<std::uint64_t>(target));
}

void NodeRuntime::on_migrate_start(const net::Packet& pkt) {
  const Word old_ptr = pkt.at(0);
  InboundMigration& in = inbound_[old_ptr];
  ABCL_CHECK_MSG(!in.have_start, "duplicate kMigrateStart past dedup");
  in.have_start = true;
  in.cls_id = static_cast<ClassId>(pkt.at(1));
  in.flags = static_cast<std::uint32_t>(pkt.at(2));
  in.epoch = static_cast<std::uint32_t>(pkt.at(2) >> 32);
  in.wait_site = static_cast<std::int64_t>(pkt.at(3));
  in.blob_words = static_cast<std::uint32_t>(pkt.at(4));
  in.src = pkt.src;
  const auto np = static_cast<std::size_t>(pkt.at(5));
  for (std::size_t i = 0; i < np; ++i) {
    in.priors.push_back(
        MailAddr::from_words(pkt.at(6 + 2 * i), pkt.at(7 + 2 * i)));
  }
  if (in.blob.size() < in.blob_words) in.blob.resize(in.blob_words, 0);
  if (in.received_words == in.blob_words) {
    attach_migrated(old_ptr, in);
    inbound_.erase(old_ptr);
  }
}

void NodeRuntime::on_migrate_frag(const net::Packet& pkt) {
  const Word old_ptr = pkt.at(0);
  const auto off = static_cast<std::uint32_t>(pkt.at(1));
  const int n = pkt.nwords - 2;
  InboundMigration& in = inbound_[old_ptr];
  // Fragments may beat the start packet under fault reordering; grow the
  // buffer on demand and reconcile sizes when the start arrives. Network
  // dedup delivers each fragment exactly once, so a received-word count
  // detects completion without an offset bitmap.
  if (in.blob.size() < off + static_cast<std::size_t>(n)) {
    in.blob.resize(off + static_cast<std::size_t>(n), 0);
  }
  for (int i = 0; i < n; ++i) in.blob[off + i] = pkt.at(2 + i);
  in.received_words += static_cast<std::uint32_t>(n);
  if (in.have_start && in.received_words == in.blob_words) {
    attach_migrated(old_ptr, in);
    inbound_.erase(old_ptr);
  }
}

void NodeRuntime::attach_migrated(Word old_ptr_word, InboundMigration& in) {
  const ClassInfo& cls = prog_->cls(in.cls_id);
  charge(cm_->create_remote_install);

  // Raw allocation, deliberately not alloc_object(): a migrated-in object
  // is not a creation — total_created and the kCreate trace stay untouched
  // so conservation checks (created == per-class sums) and migration-off
  // fingerprints line up. It is a live object changing homes.
  void* mem = pool_.allocate(object_alloc_bytes(cls.state_bytes));
  auto* o = new (mem) ObjectHeader();
  o->home = id_;
  o->alloc_size_class = object_size_class(cls);
  link_live(o);
  ++live_objects_;

  std::size_t pos = (cls.state_bytes + 7) / 8;
  o->needs_init = (in.flags & remote::kMigNeedsInit) != 0;
  if (!o->needs_init && cls.state_bytes > 0) {
    std::memcpy(o->state(), in.blob.data(), cls.state_bytes);
  }
  if ((in.flags & remote::kMigPendingInit) != 0) {
    MsgFrame* f = alloc_msg_frame();
    const Word h = in.blob[pos++];
    f->pattern = static_cast<PatternId>(h & 0xffff);
    f->nargs = static_cast<std::uint8_t>(h >> 16);
    f->reply = ReplyDest::from_words(in.blob[pos], in.blob[pos + 1]);
    pos += 2;
    for (int i = 0; i < f->nargs; ++i) f->args[i] = in.blob[pos++];
    o->set_pending_init(f);
  }
  if ((in.flags & remote::kMigWaiting) != 0) {
    const auto fbytes = static_cast<std::uint16_t>(in.blob[pos++]);
    void* fmem = pool_.allocate(ctx_alloc_bytes(fbytes));
    std::memcpy(fmem, &in.blob[pos], fbytes);
    pos += (fbytes + 7) / 8;
    auto* hf = static_cast<CtxFrameBase*>(fmem);
    o->set_blocked_frame(hf);
    // migratable_now refused objects registered on a reply box.
    *ctx_trailer(hf) =
        CtxTrailer{reinterpret_cast<ResumeFn>(in.blob[pos++]), nullptr};
    ABCL_CHECK(in.wait_site >= 0 &&
               static_cast<std::size_t>(in.wait_site) < cls.wait_sites.size());
    o->vftp = &cls.wait_sites[static_cast<std::size_t>(in.wait_site)]->vft;
    o->mode = Mode::kWaiting;
  } else {
    // The inbox (flushed from the old home after our Done) re-activates it
    // naturally; no scheduler touch here.
    o->vftp = o->needs_init ? &cls.lazy_init : &cls.dormant;
    o->mode = Mode::kDormant;
  }

  stats_.migrations_in += 1;
  trace(sim::TraceEv::kMigrateIn, static_cast<std::uint64_t>(in.src));

  // Bookkeeping for a future onward migration: the full stub trail now
  // includes the home we just left (capped; see kMaxPriorStubs).
  MigratedMeta meta;
  meta.epoch = in.epoch;
  meta.priors = in.priors;
  meta.priors.push_back(
      MailAddr{in.src, reinterpret_cast<ObjectHeader*>(old_ptr_word)});
  while (meta.priors.size() > remote::kMaxPriorStubs) {
    meta.priors.erase(meta.priors.begin());
  }
  migrated_meta_[o] = std::move(meta);

  // Confirm to the old home (turns its stub into a forwarder and flushes
  // the buffered inbox here) ...
  send_service(in.src, prog_->h_migrate_done(),
               {old_ptr_word, static_cast<Word>(id_), reinterpret_cast<Word>(o),
                static_cast<Word>(in.epoch)});
  // ... and short-circuit every earlier stub straight to the new address,
  // which is what bounds forwarding chains (epoch-guarded at the stub, so
  // reordered updates from older migrations lose).
  for (const MailAddr& prior : in.priors) {
    if (prior.node == id_) {
      stub_apply_update(prior.ptr, MailAddr{id_, o}, in.epoch);
    } else {
      stats_.migration_updates += 1;
      send_service(prior.node, prog_->h_update_stub(),
                   {prior.word_ptr(), static_cast<Word>(id_),
                    reinterpret_cast<Word>(o), static_cast<Word>(in.epoch)});
    }
  }
}

void NodeRuntime::on_migrate_done(const net::Packet& pkt) {
  auto* o = reinterpret_cast<ObjectHeader*>(pkt.at(0));
  const MailAddr dest = MailAddr::from_words(pkt.at(1), pkt.at(2));
  const auto epoch = static_cast<std::uint32_t>(pkt.at(3));
  ABCL_CHECK_MSG(o->mode == Mode::kMigrating,
                 "kMigrateDone for an object that is not in transit");
  MailAddr fwd = kNilAddr;
  std::vector<ParkedMarker> parked;
  {
    auto it = stubs_.find(o);
    ABCL_CHECK(it != stubs_.end());
    StubInfo& s = it->second;
    // A kUpdateStub from a *later* migration may already have installed a
    // fresher address (the Done raced it); the epoch guard keeps it.
    if (epoch > s.fwd_epoch) {
      s.fwd = dest;
      s.fwd_epoch = epoch;
    }
    fwd = s.fwd;
    parked = std::move(s.parked);
    s.parked.clear();
  }
  o->mode = Mode::kForwarding;
  // Flush the buffered inbox in FIFO order. The single old->new channel
  // preserves that order on the wire; send_resolved also handles the
  // migrated-back case where `fwd` is local again.
  while (MsgFrame* f = o->mq.pop_front()) {
    stats_.migration_mail += 1;
    send_resolved(fwd, f->pattern, f->args, f->nargs, f->reply);
    free_msg_frame(f);
  }
  // Parked flush markers chase the mail they were parked behind.
  for (const ParkedMarker& pm : parked) {
    run_flush_marker(o, pm.key_ptr, pm.epoch, pm.origin);
  }
}

void NodeRuntime::stub_apply_update(ObjectHeader* stub, MailAddr dest,
                                    std::uint32_t epoch) {
  auto it = stubs_.find(stub);
  ABCL_CHECK(it != stubs_.end());
  StubInfo& s = it->second;
  if (epoch <= s.fwd_epoch) return;  // stale (reordered across fault retries)
  s.fwd = dest;
  s.fwd_epoch = epoch;
  // Mode is NOT flipped here: a kMigrating stub keeps buffering until its
  // own Done arrives (the inbox must flush exactly once, behind nothing).
}

void NodeRuntime::on_update_stub(const net::Packet& pkt) {
  stub_apply_update(reinterpret_cast<ObjectHeader*>(pkt.at(0)),
                    MailAddr::from_words(pkt.at(1), pkt.at(2)),
                    static_cast<std::uint32_t>(pkt.at(3)));
}

void NodeRuntime::send_update_addr(NodeId to, Word key_ptr, MailAddr dest,
                                   std::uint32_t epoch) {
  if (to == id_) return;  // local senders walk the stub chain directly
  stats_.migration_updates += 1;
  send_service(to, prog_->h_update_addr(),
               {key_ptr, dest.word_node(), dest.word_ptr(),
                static_cast<Word>(epoch)});
}

void NodeRuntime::on_update_addr(const net::Packet& pkt) {
  const Word key = pkt.at(0);
  const MailAddr dest = MailAddr::from_words(pkt.at(1), pkt.at(2));
  const auto epoch = static_cast<std::uint32_t>(pkt.at(3));
  RedirectEntry& e = redirects_[key];
  if (e.epoch != 0 && epoch <= e.epoch) return;  // stale or duplicate
  e.fwd = dest;
  e.epoch = epoch;
  // Enter (or re-enter, if a fresher address superseded a flush already in
  // progress — the old ack's epoch no longer matches and is ignored) the
  // flushing window: mail we already routed through the stub chain must
  // drain past a marker before new mail may take the shortcut, or the
  // shortcut could overtake it. pkt.src is the stub's node: updates for
  // `key` only ever originate from key's home.
  e.flushing = true;
  send_service(pkt.src, prog_->h_flush_marker(),
               {key, key, static_cast<Word>(epoch),
                static_cast<Word>(static_cast<std::int64_t>(id_))});
}

void NodeRuntime::run_flush_marker(ObjectHeader* route, Word key_ptr,
                                   std::uint32_t epoch, NodeId origin) {
  // The marker travels exactly like a message would, so per-channel FIFO
  // puts it *behind* all mail the origin previously routed this way.
  while (route->mode == Mode::kForwarding) {
    auto it = stubs_.find(route);
    ABCL_CHECK(it != stubs_.end());
    const MailAddr fwd = it->second.fwd;
    if (fwd.node == id_) {
      route = fwd.ptr;
      continue;
    }
    send_service(fwd.node, prog_->h_flush_marker(),
                 {fwd.word_ptr(), key_ptr, static_cast<Word>(epoch),
                  static_cast<Word>(static_cast<std::int64_t>(origin))});
    return;
  }
  if (route->mode == Mode::kMigrating) {
    // Buffered mail ahead of the marker ships at Done; park the marker so
    // it replays after that mail, keeping its position in the channel.
    auto it = stubs_.find(route);
    ABCL_CHECK(it != stubs_.end());
    it->second.parked.push_back(ParkedMarker{key_ptr, epoch, origin});
    return;
  }
  // Reached the live object: everything the origin sent ahead of the
  // marker has been delivered. Release its held mail.
  if (origin == id_) {
    deliver_flush_ack_local(key_ptr, epoch);
  } else {
    send_service(origin, prog_->h_flush_ack(),
                 {key_ptr, static_cast<Word>(epoch)});
  }
}

void NodeRuntime::on_flush_marker(const net::Packet& pkt) {
  run_flush_marker(reinterpret_cast<ObjectHeader*>(pkt.at(0)), pkt.at(1),
                   static_cast<std::uint32_t>(pkt.at(2)),
                   static_cast<NodeId>(static_cast<std::int64_t>(pkt.at(3))));
}

void NodeRuntime::on_flush_ack(const net::Packet& pkt) {
  deliver_flush_ack_local(pkt.at(0), static_cast<std::uint32_t>(pkt.at(1)));
}

void NodeRuntime::deliver_flush_ack_local(Word key_ptr, std::uint32_t epoch) {
  auto it = redirects_.find(key_ptr);
  if (it == redirects_.end()) return;
  RedirectEntry& e = it->second;
  // A fresher kUpdateAddr restarted the window with a new epoch; this ack
  // belongs to the superseded flush and must not release the mail early.
  if (!e.flushing || e.epoch != epoch) return;
  e.flushing = false;
  // Move the held mail out before draining: each drained message re-routes
  // from the key (the entry is open now, but a *chained* entry downstream
  // may hold it again), and route_send may insert into redirects_,
  // invalidating `e`.
  std::vector<HeldMsg> held = std::move(e.held);
  e.held.clear();
  for (const HeldMsg& h : held) {
    MailAddr t{id_, reinterpret_cast<ObjectHeader*>(key_ptr)};  // node unused:
    // route_send resolves purely by pointer key and this key has an entry.
    if (route_send(t, h.pattern, h.args, h.nargs, h.rd)) {
      send_resolved(t, h.pattern, h.args, h.nargs, h.rd);
    }
  }
}

// ----------------------------------------------------------------------------
// Builtin handler registration (called from Program::finalize)
// ----------------------------------------------------------------------------

namespace {

template <void (NodeRuntime::*Member)(const net::Packet&)>
void trampoline(void* ctx, const net::Packet& pkt) {
  (static_cast<NodeRuntime*>(ctx)->*Member)(pkt);
}

}  // namespace

void register_builtin_handlers(Program& prog) {
  auto& am = prog.am_;

  // Category 1: one specialized handler per message pattern.
  for (std::size_t p = 0; p < prog.patterns_.size(); ++p) {
    net::HandlerId id =
        am.register_handler("msg:" + prog.patterns_.info(static_cast<PatternId>(p)).name,
                            &trampoline<&NodeRuntime::on_obj_msg>,
                            net::AmCategory::kObjectMessage);
    if (p == 0) prog.h_obj_msg_base_ = id;
  }

  prog.h_reply_ = am.register_handler("reply", &trampoline<&NodeRuntime::on_reply>,
                                      net::AmCategory::kObjectMessage);

  // Category 2: one handler per class.
  for (std::size_t c = 0; c < prog.classes_.size(); ++c) {
    net::HandlerId id = am.register_handler(
        "create:" + prog.classes_[c]->name, &trampoline<&NodeRuntime::on_create>,
        net::AmCategory::kCreateRequest);
    if (c == 0) prog.h_create_base_ = id;
  }

  prog.h_alloc_request_ =
      am.register_handler("alloc-request", &trampoline<&NodeRuntime::on_alloc_request>,
                          net::AmCategory::kCreateRequest);

  // Category 3: one handler per chunk size class.
  for (std::size_t s = 0; s < util::SlabAllocator::kNumClasses; ++s) {
    net::HandlerId id = am.register_handler(
        "replenish:" + std::to_string(util::SlabAllocator::class_bytes(s)) + "B",
        &trampoline<&NodeRuntime::on_replenish>, net::AmCategory::kAllocReply);
    if (s == 0) prog.h_replenish_base_ = id;
  }

  // Category 4: services.
  prog.h_load_gossip_ =
      am.register_handler("load-gossip", &trampoline<&NodeRuntime::on_load_gossip>,
                          net::AmCategory::kService);
  // Live-migration protocol (registered last so migration-off runs keep the
  // handler-id assignments — and therefore trace fingerprints — of older
  // baselines).
  prog.h_migrate_start_ = am.register_handler(
      "migrate-start", &trampoline<&NodeRuntime::on_migrate_start>,
      net::AmCategory::kService);
  prog.h_migrate_frag_ = am.register_handler(
      "migrate-frag", &trampoline<&NodeRuntime::on_migrate_frag>,
      net::AmCategory::kService);
  prog.h_migrate_done_ = am.register_handler(
      "migrate-done", &trampoline<&NodeRuntime::on_migrate_done>,
      net::AmCategory::kService);
  prog.h_update_addr_ = am.register_handler(
      "update-addr", &trampoline<&NodeRuntime::on_update_addr>,
      net::AmCategory::kService);
  prog.h_update_stub_ = am.register_handler(
      "update-stub", &trampoline<&NodeRuntime::on_update_stub>,
      net::AmCategory::kService);
  prog.h_flush_marker_ = am.register_handler(
      "flush-marker", &trampoline<&NodeRuntime::on_flush_marker>,
      net::AmCategory::kService);
  prog.h_flush_ack_ = am.register_handler(
      "flush-ack", &trampoline<&NodeRuntime::on_flush_ack>,
      net::AmCategory::kService);
}

}  // namespace abcl::core
