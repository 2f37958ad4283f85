// NodeRuntime: one simulated processor's ABCL runtime (Sections 4 and 5).
//
// Single-threaded by construction (one node = one thread of control); owns
// the node heap, frame/box pools, the message-polling loop, the intra-node
// scheduler and the chunk stocks. All user method code runs inside
// step()'s dispatch cascades; the public methods below are the "runtime
// calls" the compiled methods (our DSL state machines) make.
#pragma once

#include <functional>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/frame.hpp"
#include "core/mail_addr.hpp"
#include "core/object.hpp"
#include "core/program.hpp"
#include "core/reply.hpp"
#include "core/scheduler.hpp"
#include "net/network.hpp"
#include "remote/chunk_stock.hpp"
#include "remote/migration.hpp"
#include "remote/placement.hpp"
#include "remote/services.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace abcl::ckpt {
struct WorldIo;
}

namespace abcl::core {

// Result of beginning a remote creation: either the mail address is already
// known (chunk-stock hit — the fast path that hides the round trip), or the
// stock was empty and the caller must await `call` before finishing
// (split-phase fallback; "only when the stock is empty does context
// switching occur").
struct CreateCall {
  MailAddr addr;
  NowCall call;  // pending chunk allocation; box == nullptr on the fast path

  bool ready() const { return call.box == nullptr; }
};

class NodeRuntime final : public sim::NodeExec {
 public:
  struct Config {
    SchedPolicy policy = SchedPolicy::kStack;
    int max_call_depth = 48;        // direct-call cascade bound (preemption)
    // Instructions a quantum may charge before should_yield() turns true
    // (long internal loops check it via ABCL_YIELD — Section 4.3's
    // preemption of long loops / deep recursions).
    std::uint32_t reduction_budget = 4096;
    int chunk_stock_target = 2;     // steady-state stock depth per (peer,size)
    // Disables Category-3 replenishment, degrading every remote creation to
    // split-phase allocation — the baseline the paper's stock scheme is
    // designed to beat (ablation support).
    bool disable_replenish = false;
    std::uint32_t gossip_interval = 0;  // quanta between load gossips; 0 = off
    std::uint64_t seed = 1;
    // Live migration (remote/migration.hpp). Disabled by default; the
    // shed policy additionally needs gossip (World auto-enables it at the
    // shed interval when the app left gossip off).
    remote::MigrationConfig migration;
    // Checkpointable worlds place the node heap in a fixed-base reserved
    // arena so a snapshot restores address-faithfully (util/arena.hpp).
    // Default worlds keep the malloc-block arena. arena_base is consulted
    // only when reserved_arena is true: kReserveAuto claims the next free
    // registry slot; an explicit base (restore path) maps exactly there.
    bool reserved_arena = false;
    std::uint64_t arena_base = util::Arena::kReserveAuto;
  };

  NodeRuntime(NodeId id, Program& prog, net::Network& net,
              const sim::CostModel& cm, Config cfg);
  ~NodeRuntime() override;

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  // ----- sim::NodeExec ---------------------------------------------------
  sim::NodeId node_id() const override { return id_; }
  sim::Instr clock() const override { return clock_; }
  bool runnable() const override;
  sim::Instr next_wake() const override { return net_->next_arrival(id_); }
  void advance_clock(sim::Instr t) override;
  void step() override;

  // ----- message sends (runtime calls made by methods) --------------------
  void send_past(MailAddr target, PatternId p, std::initializer_list<Word> args) {
    send_past(target, p, args.begin(), static_cast<int>(args.size()));
  }
  void send_past(MailAddr target, PatternId p, const Word* args, int nargs);
  void send_past(MailAddr target, PatternId p, const WordSpan& a) {
    send_past(target, p, a.ptr, a.n);
  }

  NowCall send_now(MailAddr target, PatternId p, std::initializer_list<Word> args) {
    return send_now(target, p, args.begin(), static_cast<int>(args.size()));
  }
  NowCall send_now(MailAddr target, PatternId p, const Word* args, int nargs);
  NowCall send_now(MailAddr target, PatternId p, const WordSpan& a) {
    return send_now(target, p, a.ptr, a.n);
  }

  // Delivers a reply to `rd` (locally fills the box and possibly resumes
  // the blocked owner; remotely sends the reply active message).
  void reply(const ReplyDest& rd, std::initializer_list<Word> vals) {
    reply(rd, vals.begin(), static_cast<int>(vals.size()));
  }
  void reply(const ReplyDest& rd, const Word* vals, int n);

  // Checks a now-call's reply box (charges the reply-check cost).
  bool reply_ready(const NowCall& c);
  // Reads value word `i` without consuming.
  Word peek_reply(const NowCall& c, int i = 0) const;
  // Consumes the reply: frees the box. Returns value word 0.
  Word take_reply(NowCall& c);

  // ----- object creation ---------------------------------------------------
  MailAddr create_local(const ClassInfo& cls, std::initializer_list<Word> args) {
    return create_local(cls, args.begin(), static_cast<int>(args.size()));
  }
  MailAddr create_local(const ClassInfo& cls, const Word* args, int nargs);
  MailAddr create_local(const ClassInfo& cls, const WordSpan& a) {
    return create_local(cls, a.ptr, a.n);
  }

  CreateCall remote_create_begin(const ClassInfo& cls, NodeId target,
                                 std::initializer_list<Word> args) {
    return remote_create_begin(cls, target, args.begin(),
                               static_cast<int>(args.size()));
  }
  CreateCall remote_create_begin(const ClassInfo& cls, NodeId target,
                                 const Word* args, int nargs);
  CreateCall remote_create_begin(const ClassInfo& cls, NodeId target,
                                 const WordSpan& a) {
    return remote_create_begin(cls, target, a.ptr, a.n);
  }
  MailAddr remote_create_finish(CreateCall& c);

  // Marks the current object for reclamation once it returns to dormant
  // mode with an empty queue. (Extension: the paper defers GC to future
  // work; explicit retirement lets large benchmarks bound their heaps.)
  void retire_self();

  // ----- blocking protocol (used by the DSL macros inside run()) ----------
  Status block_await(const NowCall& c);
  Status block_select(std::int32_t site);
  // Hybrid wait (Section 2.2 action 4: selective reception *including
  // replies of now-type messages*): blocks until either the call's reply
  // arrives (continues at the frame's current pc) or a pattern accepted by
  // `site` restores the context (continues at that accept's resume_pc). If
  // the select alternative wins, the reply registration is cancelled — the
  // box stays valid and a later reply simply fills it.
  Status block_await_select(const NowCall& c, std::int32_t site);
  Status block_yield();
  bool should_yield() const {
    return clock_ - quantum_start_clock_ >= cfg_.reduction_budget;
  }

  // Scans the current object's message queue for a pattern accepted by
  // `site`; on a hit copies the message into `frame`, frees it and returns
  // the continuation pc; else returns kPcBlocked.
  std::uint16_t select_try(std::int32_t site, void* frame);

  // ----- dispatch internals (used by generated entries; see dispatch.hpp) -
  Status deliver_local(ObjectHeader* o, const MsgView& m);
  Status dispatch_body(ObjectHeader* o, const MsgView& m);
  void method_epilogue(ObjectHeader* o);
  void commit_block(ObjectHeader* o, CtxFrameBase* hf, ResumeFn resume);
  void resume_object(ObjectHeader* o);
  void queue_message(ObjectHeader* o, const MsgView& m);

  ObjectHeader* current_object() const { return cur_obj_; }
  void set_current_object(ObjectHeader* o) { cur_obj_ = o; }

  // Mail address of the object whose method is currently executing.
  MailAddr self_addr() const {
    ABCL_DCHECK(cur_obj_ != nullptr);
    return MailAddr{id_, cur_obj_};
  }

  // ----- memory ------------------------------------------------------------
  template <class FrameT>
  FrameT* alloc_ctx_frame() {
    // The slab guarantees min(class_bytes, kMaxAlignment); a frame aligned
    // beyond that would silently land on a weaker boundary (the old
    // PoolAllocator handed every class max_align_t at best).
    static_assert(alignof(FrameT) <= util::SlabAllocator::kMaxAlignment,
                  "context frame over-aligned beyond the slab guarantee");
    // The slot also holds the frame's CtxTrailer (object.hpp).
    auto* f = static_cast<FrameT*>(
        pool_.allocate(ctx_alloc_bytes(sizeof(FrameT))));
    f->bytes = sizeof(FrameT);
    return f;
  }
  void free_ctx_frame(CtxFrameBase* f) {
    pool_.deallocate(f, ctx_alloc_bytes(f->bytes));
  }

  MsgFrame* alloc_msg_frame();
  void free_msg_frame(MsgFrame* f);
  ReplyBox* alloc_reply_box();
  void free_reply_box(ReplyBox* b);

  // Formats a fresh fault-mode chunk of the given pool size class (used by
  // the remote-creation protocol and by boot-time stock seeding).
  ObjectHeader* format_chunk(std::uint16_t size_class);

  // ----- inlined-send support (Section 8.2) --------------------------------
  // Guarded fast path for a compile-time-known receiver class: true iff the
  // receiver is local AND its VFTP designates the class's dormant table, in
  // which case the caller may run the inlined method body directly.
  bool inline_guard(MailAddr target, const ClassInfo& cls);

  // ----- services / accounting ---------------------------------------------
  void charge(sim::Instr n) {
    clock_ += n;
    stats_.busy_instr += n;
  }
  const sim::CostModel& cost_model() const { return *cm_; }
  Program& program() { return *prog_; }
  net::Network& network() { return *net_; }
  NodeId num_nodes() const { return net_->topology().num_nodes(); }
  util::Xoshiro256& rng() { return rng_; }
  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }
  const Config& config() const { return cfg_; }
  std::size_t live_objects() const { return live_objects_; }
  std::size_t heap_bytes() const { return arena_.bytes_allocated(); }
  // Slab-pool counters (deterministic; exported in the metrics snapshot).
  const util::SlabAllocator::Stats& alloc_stats() const {
    return pool_.stats();
  }
  std::uint32_t sched_queue_len() const {
    return static_cast<std::uint32_t>(sched_.size());
  }

  // Known loads of peers (maintained by the Category-4 gossip service).
  // nullopt = never heard from, or last heard more than 2x gossip_interval
  // quanta ago (stale figures are worse than none: a peer whose gossip
  // stopped — blackout, drops, overload — must not keep advertising its
  // old load). With gossip disabled (interval 0) entries never age.
  std::optional<std::uint32_t> known_load(NodeId peer) const {
    const std::uint64_t max_age =
        cfg_.gossip_interval == 0 ? 0 : 2ull * cfg_.gossip_interval;
    return loads_.get(peer, quanta_run_, max_age);
  }
  void note_peer_load(NodeId peer, std::uint32_t load) {
    loads_.note(peer, load, quanta_run_);
  }
  void gossip_load_now();

  // Placement policy used by apps for remote creation targets.
  remote::Placement& placement() { return placement_; }
  remote::ChunkStock& chunk_stock() { return stock_; }

  // Runs `fn` as bootstrap code on this node (before or between machine
  // runs); `fn` may create objects and send messages.
  void boot(const std::function<void(NodeRuntime&)>& fn);

  // Optional execution tracing (one branch per hot-path event when unset).
  // Attaching sizes this node's lane first, so under either driver the
  // lane is written only by the thread that runs this node.
  void set_tracer(sim::Tracer* t) {
    if (t != nullptr) t->size_lanes(static_cast<std::size_t>(id_) + 1);
    tracer_ = t;
  }
  void trace(sim::TraceEv ev, std::uint64_t payload = 0) {
    if (tracer_ != nullptr) tracer_->record(clock_, id_, ev, payload);
  }

  // Boot-time warm-up: pre-issues `depth` chunks of `cls`'s size class from
  // `peer_rt`'s heap into this node's stock (models the paper's
  // "predelivered stocks" without running the protocol).
  void seed_stock_from(NodeRuntime& peer_rt, const ClassInfo& cls, int depth);

  // Objects ever created on this node (monotone; for reports/leak checks).
  std::uint64_t total_created() const { return total_created_; }

  // ----- live migration (remote/migration.hpp) -----------------------------
  // True iff `o` may be shipped right now: a migratable class, not running,
  // not already in transit, and either fully idle or parked at a wait site
  // (the blocked context frame travels with the state; yield-blocked objects
  // have no wait site to re-enter and stay put).
  bool migratable_now(const ObjectHeader* o) const;
  // Ships `o` to `target` (caller checked migratable_now). The local header
  // becomes a buffering stub until the new home confirms with kMigrateDone,
  // then a forwarding stub for the rest of the run.
  void migrate_object_to(ObjectHeader* o, NodeId target);
  // Where mail for a (possibly former) local object ends up: nullopt for a
  // live local object, otherwise the forwarding destination. Probing aid for
  // the fuzz oracle; in-transit stubs report their (pre-Done) old address.
  std::optional<MailAddr> forward_target(const ObjectHeader* o) const;

 private:
  friend void register_builtin_handlers(Program& prog);
  // Checkpoint serializer (src/ckpt/world_io.cpp).
  friend struct abcl::ckpt::WorldIo;

  struct BlockReason {
    enum class Kind : std::uint8_t {
      kNone,
      kAwait,
      kSelect,
      kAwaitSelect,
      kYield,
    } kind = Kind::kNone;
    ReplyBox* box = nullptr;
    std::int32_t site = -1;
  };

  struct PendingCreate {
    const ClassInfo* cls = nullptr;
    NodeId target = -1;
    std::uint8_t nargs = 0;
    Word args[kMaxArgs] = {};
  };

  // ----- live-migration state (all node-side: migration adds no word to
  // ObjectHeader, so a migration-off run allocates exactly what it would
  // without the feature) ------------------------------------------------------

  // A kFlushMarker parked at an in-transit stub; replayed after the
  // buffered mail once kMigrateDone installs the forwarding address.
  struct ParkedMarker {
    Word key_ptr = 0;           // redirect-map key at the marker's origin
    std::uint32_t epoch = 0;
    NodeId origin = -1;
  };
  // Old-home side of a migrated object (keyed by the stub's header).
  struct StubInfo {
    MailAddr fwd = kNilAddr;    // nil while kMigrating (not yet confirmed)
    std::uint32_t fwd_epoch = 0;
    std::vector<ParkedMarker> parked;
  };
  // A message held at the sender while a redirect entry flushes.
  struct HeldMsg {
    PatternId pattern = 0;
    int nargs = 0;
    ReplyDest rd = kNilReply;
    Word args[kMaxArgs] = {};
  };
  // Sender-side directory: "mail addressed to key now goes to fwd". The
  // flushing window (kFlushMarker round trip) keeps per-object FIFO intact
  // across the shortcut: new mail is held until mail already routed through
  // the stub chain has drained.
  struct RedirectEntry {
    MailAddr fwd = kNilAddr;
    std::uint32_t epoch = 0;
    bool flushing = false;
    std::vector<HeldMsg> held;
  };
  // Reassembly buffer for one inbound migration (fragments may arrive
  // before the start packet under fault reordering).
  struct InboundMigration {
    bool have_start = false;
    ClassId cls_id = 0;
    std::uint32_t flags = 0;
    std::uint32_t epoch = 0;
    std::int64_t wait_site = -1;
    std::uint32_t blob_words = 0;
    std::uint32_t received_words = 0;
    NodeId src = -1;
    std::vector<MailAddr> priors;
    std::vector<Word> blob;
  };
  // New-home side bookkeeping for a migrated-in object: its epoch and the
  // trail of stubs to notify (kUpdateStub) if it migrates again.
  struct MigratedMeta {
    std::uint32_t epoch = 0;
    std::vector<MailAddr> priors;
  };

  ObjectHeader* alloc_object(const ClassInfo& cls);
  void link_live(ObjectHeader* o);  // pushes `o` onto the live list
  void destroy_object(ObjectHeader* o);
  void maybe_retire(ObjectHeader* o);
  void run_sched_item(ObjectHeader* o);
  void remote_send(MailAddr target, PatternId p, const Word* args, int nargs,
                   const ReplyDest& rd);
  void send_create_packet(const ClassInfo& cls, NodeId target,
                          ObjectHeader* chunk, const Word* args, int nargs);
  void deliver_reply_local(ReplyBox* box, const Word* vals, int n);
  void naive_local_send(ObjectHeader* o, const MsgView& m);

  // Migration internals (node_runtime.cpp, migration section).
  void maybe_shed();
  void attach_migrated(Word old_ptr_word, InboundMigration& in);
  // Pure read: follows local stub links from `o` to the final forwarding
  // destination; nullopt while any hop is still kMigrating (unconfirmed).
  std::optional<std::pair<MailAddr, std::uint32_t>> peek_forward(
      const ObjectHeader* o) const;
  // Sender-side redirect resolution; returns false when the message was
  // held at a flushing entry (caller must not also send it).
  bool route_send(MailAddr& target, PatternId p, const Word* args, int nargs,
                  const ReplyDest& rd);
  // Delivers locally or remotely after redirection already happened.
  void send_resolved(MailAddr target, PatternId p, const Word* args, int nargs,
                     const ReplyDest& rd);
  void run_flush_marker(ObjectHeader* route, Word key_ptr, std::uint32_t epoch,
                        NodeId origin);
  void deliver_flush_ack_local(Word key_ptr, std::uint32_t epoch);
  void send_update_addr(NodeId to, Word key_ptr, MailAddr dest,
                        std::uint32_t epoch);
  // Charges send-setup and hands a Category-4 service packet to the network
  // (mirrors gossip: service traffic is not counted in remote_sends).
  void send_service(NodeId to, net::HandlerId h,
                    std::initializer_list<Word> words);
  void stub_apply_update(ObjectHeader* stub, MailAddr dest,
                         std::uint32_t epoch);

  // Active-message handler bodies (dispatched via Program's registry).
  void on_obj_msg(const net::Packet& pkt);
  void on_reply(const net::Packet& pkt);
  void on_create(const net::Packet& pkt);
  void on_alloc_request(const net::Packet& pkt);
  void on_replenish(const net::Packet& pkt);
  void on_load_gossip(const net::Packet& pkt);
  void on_migrate_start(const net::Packet& pkt);
  void on_migrate_frag(const net::Packet& pkt);
  void on_migrate_done(const net::Packet& pkt);
  void on_update_addr(const net::Packet& pkt);
  void on_update_stub(const net::Packet& pkt);
  void on_flush_marker(const net::Packet& pkt);
  void on_flush_ack(const net::Packet& pkt);

  NodeId id_;
  Program* prog_;
  net::Network* net_;
  const sim::CostModel* cm_;
  Config cfg_;

  sim::Instr clock_ = 0;
  util::Arena arena_;
  util::SlabAllocator pool_;
  SchedQueue sched_;
  NodeStats stats_;
  util::Xoshiro256 rng_;

  ObjectHeader* cur_obj_ = nullptr;
  int call_depth_ = 0;
  std::uint32_t deliveries_this_quantum_ = 0;
  sim::Instr quantum_start_clock_ = 0;
  BlockReason block_reason_;

  sim::Tracer* tracer_ = nullptr;
  ObjectHeader* live_head_ = nullptr;
  std::size_t live_objects_ = 0;
  std::uint64_t total_created_ = 0;
  std::uint64_t quanta_run_ = 0;

  remote::ChunkStock stock_;
  remote::LoadMap loads_;
  remote::Placement placement_;

  // Migration maps, all keyed by header words (process-globally unique:
  // every node heap lives in one address space and stubs are never freed).
  // Lookups are keyed-only — the maps are never iterated — so unordered
  // iteration order cannot leak into results and determinism holds.
  std::unordered_map<ObjectHeader*, StubInfo> stubs_;
  std::unordered_map<Word, RedirectEntry> redirects_;
  std::unordered_map<Word, InboundMigration> inbound_;
  std::unordered_map<ObjectHeader*, MigratedMeta> migrated_meta_;
};

// Registers the builtin active-message handlers on `prog`'s registry;
// called by Program::finalize(). Defined alongside NodeRuntime because the
// handler bodies are runtime internals.
void register_builtin_handlers(Program& prog);

}  // namespace abcl::core
