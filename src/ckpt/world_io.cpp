// WorldIo: the checkpoint serializer (the friend the runtime headers
// forward-declare).
//
// Capture happens only between driver runs — a quantum boundary — where the
// world is a pure function of simulated history: no worker outboxes, no
// mid-quantum dispatch state, no half-advanced windows. The snapshot then
// decomposes into
//   (a) raw arena images: each node heap lives in a fixed-base reserved
//       arena (util/arena.hpp), so objects, frames, reply boxes, chunks and
//       every pointer among them are restored verbatim by re-mapping the
//       arena at its recorded base and memcpy-ing the image back; and
//   (b) a logical serialization of everything that lives outside the
//       arenas: node scalars and stats, the scheduler FIFO (relinked in
//       saved order), slab freelist heads, chunk stocks, gossip maps,
//       migration directories, network queues (packets written field by
//       field with exactly nwords payload words, so the bytes never depend
//       on which pool slot a packet sat in; on restore they re-acquire
//       fresh slots, and their payload words — which may embed arena
//       pointers — stay valid because of (a)), channel floors/seqs and the
//       fault layer's link seqs and delivery counters.
//
// Canonical order: every unordered container is written sorted by its key,
// so two checkpoints of identical simulated states are byte-identical.
// Code pointers (vftps, entry functions, resume entries) are process
// pointers; the restoring Program is validated via a fingerprint over its
// handler registry, exactly the contract live migration already relies on
// when it ships resume entries as raw words.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "abcl/machine_api.hpp"
#include "ckpt/snapshot.hpp"

namespace abcl::ckpt {

namespace {

std::uint64_t ptr_word(const void* p) {
  return reinterpret_cast<std::uint64_t>(p);
}

template <class T>
T* word_ptr(std::uint64_t w) {
  return reinterpret_cast<T*>(w);
}

}  // namespace

struct WorldIo {
  // FNV over the active-message handler registry: count, names, categories.
  // Handler names embed every pattern, class and size class ("msg:acc",
  // "create:Counter", "replenish:3"), and ids are positional, so a matching
  // fingerprint means every handler/pattern id in the snapshot dereferences
  // to the same specialized procedure in the restoring process.
  static std::uint64_t fingerprint(const core::Program& prog) {
    const net::AmRegistry& am = prog.am();
    std::uint64_t n = am.size();
    std::uint64_t h = fnv1a(&n, sizeof n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const net::AmRegistry::Entry& e =
          am.entry(static_cast<net::HandlerId>(i));
      h = fnv1a(e.name.data(), e.name.size(), h);
      auto cat = static_cast<std::uint8_t>(e.category);
      h = fnv1a(&cat, sizeof cat, h);
    }
    return h;
  }

  // ----- whole world -------------------------------------------------------

  static void save(Writer& w, const World& world) {
    const WorldConfig& cfg = world.cfg_;
    w.u32(static_cast<std::uint32_t>(cfg.nodes));
    w.u32(static_cast<std::uint32_t>(cfg.topology));
    auto put = [&w](const void* p, std::size_t n) { w.bytes(p, n); };
    config_fields(cfg.cost, put);
    config_fields(cfg.node, put);
    w.u32(static_cast<std::uint32_t>(cfg.placement));
    w.u64(cfg.seed);
    w.i64(cfg.host_threads);
    config_fields(cfg.faults, put);
    config_fields(cfg.migration, put);
    w.b(cfg.ckpt.enabled);
    w.u64(cfg.ckpt.at);
    w.str(cfg.ckpt.path);
    w.u64(world.quanta_total_);

    save_network(w, *world.net_);
    for (const auto& n : world.nodes_) save_node(w, *n);
  }

  static void load(Reader& r, World& world, int host_threads_override) {
    WorldConfig& cfg = world.cfg_;
    cfg.nodes = static_cast<std::int32_t>(r.u32());
    ABCL_CHECK_MSG(cfg.nodes >= 1,
                   "checkpoint restore: snapshot carries no nodes");
    cfg.topology = enum_word(r, net::TopologyKind::kHypercube, "topology");
    auto get = [&r](void* p, std::size_t n) { r.bytes(p, n); };
    config_fields(cfg.cost, get);
    config_fields(cfg.node, get);
    cfg.placement =
        enum_word(r, remote::PlacementKind::kLeastLoaded, "placement");
    cfg.seed = r.u64();
    cfg.host_threads = host_threads_word(r);
    config_fields(cfg.faults, get);
    config_fields(cfg.migration, get);
    cfg.ckpt.enabled = r.b();
    cfg.ckpt.at = r.u64();
    cfg.ckpt.path = r.str();
    if (host_threads_override != 0) cfg.host_threads = host_threads_override;
    world.quanta_total_ = r.u64();
    world.resumed_quanta_ = world.quanta_total_;
    // The snapshot's own boundary already fired; a restored world resumes
    // straight to its caller's horizon instead of re-stopping at cfg.ckpt.at
    // (which is in its past).
    world.ckpt_taken_ = true;

    world.net_ = std::make_unique<net::Network>(
        net::Topology(cfg.topology, cfg.nodes), &cfg.cost,
          std::function<void(core::NodeId)>{}, cfg.faults);
    load_network(r, *world.net_, world.prog_->am().size());

    world.nodes_.reserve(static_cast<std::size_t>(cfg.nodes));
    for (std::int32_t i = 0; i < cfg.nodes; ++i) load_node(r, i, world);

    world.build_machine();
  }

  // Config structs are written member by member: their padding bytes hold
  // whatever the stack held where the config was built, and snapshot bytes
  // must be a function of simulated state alone. `f(p, n)` saves or loads
  // the n bytes at p; C is the config type, const when saving. The size
  // guards catch a member added without being listed here.
  template <class C, class F>
  static void config_fields(C& c, F&& f) {
    auto field = [&f](auto& m) { f(&m, sizeof m); };
    using T = std::remove_const_t<C>;
    if constexpr (std::is_same_v<T, sim::CostModel>) {
      static_assert(sizeof(T) == 232, "new CostModel field? list it here");
      // Every member ahead of `opt` is an 8-byte word: no padding there.
      static_assert(offsetof(T, opt) == 28 * 8);
      f(&c, offsetof(T, opt));
      field(c.opt.elide_locality_check);
      field(c.opt.elide_vftp_switch);
      field(c.opt.elide_mq_check);
      field(c.opt.elide_poll);
    } else if constexpr (std::is_same_v<T, core::NodeRuntime::Config>) {
      static_assert(sizeof(T) == 80, "new Config field? list it here");
      field(c.policy);
      field(c.max_call_depth);
      field(c.reduction_budget);
      field(c.chunk_stock_target);
      field(c.disable_replenish);
      field(c.gossip_interval);
      field(c.seed);
      config_fields(c.migration, f);
      field(c.reserved_arena);
      field(c.arena_base);
    } else if constexpr (std::is_same_v<T, net::FaultConfig>) {
      static_assert(sizeof(T) == 64, "new FaultConfig field? list it here");
      field(c.enabled);
      field(c.drop_ppm);
      field(c.dup_ppm);
      field(c.delay_ppm);
      field(c.delay_max);
      field(c.blackout_ppm);
      field(c.blackout_window);
      field(c.rto);
      field(c.rto_max);
      field(c.seed);
    } else {
      static_assert(std::is_same_v<T, remote::MigrationConfig>);
      static_assert(sizeof(T) == 32, "new MigrationConfig field? list it here");
      field(c.enabled);
      field(c.interval);
      field(c.hysteresis);
      field(c.max_batch);
      field(c.min_queue);
      field(c.seed);
    }
  }

  // A config enum word, checked against the enum's last enumerator: the
  // checksum proves integrity, not authorship, and an out-of-range word
  // names no enumerator for the code that later switches on it.
  template <class E>
  static E enum_word(Reader& r, E last, const char* what) {
    const std::uint32_t v = r.u32();
    ABCL_CHECK_MSG(v <= static_cast<std::uint32_t>(last),
                   ("checkpoint restore: " + std::string(what) + " word " +
                    std::to_string(v) + " is out of range (max " +
                    std::to_string(static_cast<std::uint32_t>(last)) + ")")
                       .c_str());
    return static_cast<E>(v);
  }

  // The host_threads word, with WorldConfig::host_threads' meaning (< 0
  // serial, 0 consult the environment, >= 1 workers) and the
  // ABCLSIM_HOST_THREADS ceiling: a forged width must not spin up that many
  // worker threads.
  static int host_threads_word(Reader& r) {
    const std::int64_t v = r.i64();
    ABCL_CHECK_MSG(v >= std::numeric_limits<int>::min() && v <= 1024,
                   ("checkpoint restore: host_threads word " +
                    std::to_string(v) + " is out of range (max 1024)")
                       .c_str());
    return static_cast<int>(v);
  }

  // ----- network -----------------------------------------------------------

  static void save_network(Writer& w, const net::Network& n) {
    // Boundary invariants: no worker redirects installed, no flush running.
    ABCL_CHECK_MSG(!n.flush_active_,
                   "checkpoint: capture attempted mid-flush");
    ABCL_CHECK_MSG(n.outboxes_installed_ == 0,
                   "checkpoint: capture attempted with worker outboxes "
                   "installed (mid-run)");

    w.raw(n.stats_);
    for (std::uint64_t s : n.src_seq_) w.u64(s);
    save_channel_words(w, n.use_matrix_, n.channel_matrix_, n.channel_map_);

    // Per-destination queues in canonical (arrive, src, seq) order. The
    // 24-byte queue entries are reconstructed from the packets themselves
    // (commit stamps arrive_time and seq into the slot).
    std::vector<net::Network::QueuedPacket> entries;
    for (const auto& q : n.queues_) {
      entries.clear();
      q.for_each([&entries](const net::Network::QueuedPacket& e) {
        entries.push_back(e);
      });
      std::sort(entries.begin(), entries.end(),
                [](const net::Network::QueuedPacket& a,
                   const net::Network::QueuedPacket& b) {
                  return net::Network::PacketOrder{}(a, b);
                });
      w.u64(entries.size());
      for (const net::Network::QueuedPacket& e : entries) {
        save_packet(w, *e.slot);
      }
    }

    if (n.fault_plan_ != nullptr) {
      w.raw(n.fault_commit_);
      save_channel_words(w, n.use_matrix_, n.link_seq_matrix_, n.link_seq_map_);
      for (const net::Network::DstFaultState& st : n.dst_fault_) {
        w.u64(st.delivered);
        w.u64(st.dup_suppressed);
      }
    }
  }

  static void load_network(Reader& r, net::Network& n, std::size_t handlers) {
    r.raw_into(n.stats_);
    for (std::uint64_t& s : n.src_seq_) s = r.u64();
    load_channel_words(r, n.use_matrix_, n.channel_matrix_, n.channel_map_);

    for (std::size_t dst = 0; dst < n.queues_.size(); ++dst) {
      std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        net::Packet* slot = n.pool_.acquire(n.home_mag_);
        load_packet(r, *slot, dst, n.queues_.size(), handlers);
        n.queues_[dst].push(net::Network::QueuedPacket{
            slot->arrive_time, slot->src, slot->seq, slot});
      }
    }

    if (n.fault_plan_ != nullptr) {
      r.raw_into(n.fault_commit_);
      load_channel_words(r, n.use_matrix_, n.link_seq_matrix_, n.link_seq_map_);
      for (net::Network::DstFaultState& st : n.dst_fault_) {
        st.delivered = r.u64();
        st.dup_suppressed = r.u64();
      }
    }
  }

  // One queued packet, field by field, with exactly nwords payload words:
  // a pool slot keeps stale bytes past nwords (and padding), which depend
  // on slot reuse and so on host interleaving under the parallel driver.
  // Layout: u32 handler, u32 src, u32 dst, u64 send_time, u64 arrive_time,
  // u64 seq, u64 dup mark (0 or 1), u32 retries, u32 nwords, nwords x u64
  // payload.
  static void save_packet(Writer& w, const net::Packet& p) {
    w.u32(p.handler);
    w.u32(static_cast<std::uint32_t>(p.src));
    w.u32(static_cast<std::uint32_t>(p.dst));
    w.u64(p.send_time);
    w.u64(p.arrive_time);
    w.u64(p.seq);
    w.u64(p.dup ? 1 : 0);
    w.u32(p.retries);
    w.u32(p.nwords);
    for (int i = 0; i < p.nwords; ++i) w.u64(p.payload[i]);
  }

  // Reads one packet into a fresh slot, writing every field a receiver
  // reads. A restored packet is dispatched verbatim, and Packet::at and
  // AmRegistry::entry bound their index only in debug builds. The checksum
  // proves integrity, not authorship: a crafted snapshot can re-seal it, so
  // every field that indexes host memory is checked here — the payload
  // length before any payload word is read — where a diagnostic can still
  // name the packet.
  static void load_packet(Reader& r, net::Packet& p, std::size_t dst,
                          std::size_t nodes, std::size_t handlers) {
    auto bad = [dst](const std::string& why) {
      return "checkpoint restore: packet queued toward node " +
             std::to_string(dst) + " " + why;
    };
    const std::uint32_t handler = r.u32();
    const auto src = static_cast<std::int32_t>(r.u32());
    const auto to = static_cast<std::int32_t>(r.u32());
    p.send_time = r.u64();
    p.arrive_time = r.u64();
    p.seq = r.u64();
    const std::uint64_t dup = r.u64();
    const std::uint32_t retries = r.u32();
    const std::uint32_t nwords = r.u32();
    ABCL_CHECK_MSG(nwords <= net::kMaxPacketWords,
                   bad("carries " + std::to_string(nwords) +
                       " payload words (max " +
                       std::to_string(net::kMaxPacketWords) + ")")
                       .c_str());
    ABCL_CHECK_MSG(handler < handlers,
                   bad("names handler " + std::to_string(handler) +
                       ", but the Program registers " +
                       std::to_string(handlers))
                       .c_str());
    ABCL_CHECK_MSG(src >= 0 && static_cast<std::size_t>(src) < nodes,
                   bad("has source node " + std::to_string(src) +
                       " outside the " + std::to_string(nodes) + "-node world")
                       .c_str());
    ABCL_CHECK_MSG(to >= 0 && static_cast<std::size_t>(to) == dst,
                   bad("is addressed to node " + std::to_string(to)).c_str());
    ABCL_CHECK_MSG(dup <= 1, bad("has dup mark " + std::to_string(dup) +
                                 " (expected 0 or 1)")
                                 .c_str());
    p.handler = static_cast<net::HandlerId>(handler);
    p.src = src;
    p.dst = to;
    p.retries = static_cast<std::uint16_t>(retries);
    p.dup = dup != 0;
    p.nwords = static_cast<std::uint8_t>(nwords);
    for (std::uint32_t i = 0; i < nwords; ++i) p.payload[i] = r.u64();
  }

  // Channel-indexed word state (arrival floors, link seqs): flat matrix on
  // small machines, sorted (key, value) pairs above the matrix threshold.
  template <class V>
  static void save_channel_words(
      Writer& w, bool use_matrix, const std::vector<V>& matrix,
      const std::unordered_map<std::uint64_t, V>& map) {
    if (use_matrix) {
      w.bytes(matrix.data(), matrix.size() * sizeof(V));
      return;
    }
    std::vector<std::uint64_t> keys;
    keys.reserve(map.size());
    for (const auto& [k, v] : map) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (std::uint64_t k : keys) {
      w.u64(k);
      w.u64(static_cast<std::uint64_t>(map.at(k)));
    }
  }

  template <class V>
  static void load_channel_words(Reader& r, bool use_matrix,
                                 std::vector<V>& matrix,
                                 std::unordered_map<std::uint64_t, V>& map) {
    if (use_matrix) {
      r.bytes(matrix.data(), matrix.size() * sizeof(V));
      return;
    }
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t k = r.u64();
      map[k] = static_cast<V>(r.u64());
    }
  }

  // ----- one node ----------------------------------------------------------

  static void save_node(Writer& w, const core::NodeRuntime& rt) {
    // Boundary invariants: nothing mid-dispatch.
    ABCL_CHECK_MSG(rt.cur_obj_ == nullptr && rt.call_depth_ == 0,
                   "checkpoint: capture attempted mid-quantum");
    ABCL_CHECK_MSG(rt.block_reason_.kind ==
                       core::NodeRuntime::BlockReason::Kind::kNone,
                   "checkpoint: capture attempted with a block in progress");
    ABCL_CHECK_MSG(rt.arena_.reserved(),
                   "checkpoint: node heap is not a reserved arena");

    // Raw heap image (see file comment). view()-restored, so the image is
    // the one genuinely large section and is never copied twice.
    w.u64(rt.arena_.base());
    w.u64(rt.arena_.used());
    w.u64(rt.arena_.bytes_allocated());
    w.bytes(word_ptr<const void>(rt.arena_.base()), rt.arena_.used());

    w.u64(rt.clock_);
    w.u64(rt.quanta_run_);
    w.u64(rt.total_created_);
    w.u64(rt.live_objects_);
    w.u64(ptr_word(rt.live_head_));
    w.raw(rt.stats_);
    w.raw(rt.rng_);

    // Slab allocator: freelist chains live inside the arena image; only the
    // per-class heads and bump cursors live out here.
    for (std::size_t c = 0; c < util::SlabAllocator::kNumClasses; ++c) {
      w.u64(ptr_word(rt.pool_.free_[c]));
      w.u64(ptr_word(rt.pool_.fresh_[c]));
      w.u64(rt.pool_.fresh_left_[c]);
    }
    w.raw(rt.pool_.stats_);

    // Scheduling FIFO, head to tail (relinked in this order on restore).
    w.u64(rt.sched_.size());
    rt.sched_.for_each(
        [&w](const core::ObjectHeader& o) { w.u64(ptr_word(&o)); });

    save_stock(w, rt.stock_);
    save_loads(w, rt.loads_);
    w.u32(rt.placement_.cursor_);
    save_migration(w, rt);
  }

  // The image's own pointers, checked before anything follows them: the
  // checksum proves integrity, not authorship, and an image restored at a
  // forged base keeps pointing where it was captured.
  struct ImageBounds {
    core::NodeId node;
    std::uint64_t base;
    std::uint64_t used;

    // Checks that the `bytes` bytes at `word` lie inside [base, base +
    // used), or that `word` is null where `null_ok`; a bytes == 0 cursor
    // may sit at the image's end.
    void check(std::uint64_t word, std::size_t bytes, const char* what,
               bool null_ok = true) const {
      const bool inside = word >= base && word - base <= used &&
                          used - (word - base) >= bytes;
      ABCL_CHECK_MSG((null_ok && word == 0) || inside,
                     ("checkpoint restore: node " + std::to_string(node) +
                      " " + what + " " + std::to_string(word) +
                      " falls outside its arena image [" +
                      std::to_string(base) + ", " +
                      std::to_string(base + used) + ")")
                         .c_str());
    }
  };

  static void load_node(Reader& r, core::NodeId id, World& world) {
    const std::uint64_t base = r.u64();
    // A reserved arena only ever sits on a slot base; any other word (the
    // kReserveAuto sentinel included) would place the image elsewhere.
    ABCL_CHECK_MSG(util::Arena::is_slot_base(base),
                   ("checkpoint restore: node " + std::to_string(id) +
                    " arena base " + std::to_string(base) +
                    " is not a slot base of the checkpoint window")
                       .c_str());
    const std::uint64_t used = r.u64();
    ABCL_CHECK_MSG(used <= util::Arena::kSlotBytes,
                   ("checkpoint restore: node " + std::to_string(id) +
                    " arena image of " + std::to_string(used) +
                    " bytes exceeds the slot")
                       .c_str());
    const ImageBounds image_bounds{id, base, used};
    std::uint64_t ballo = r.u64();
    const void* image = r.view(used);
    // Always a reserved arena, whatever the snapshot's ckpt.enabled word
    // says: a forged false must not put an arena image into a malloc arena.
    core::NodeRuntime& rt = world.add_node(/*reserved_arena=*/true, base);
    rt.arena_.restore_image(image, used, ballo);

    rt.clock_ = r.u64();
    // A restored quantum starts exactly at the restored clock: the budget
    // accounting continues as if the run had never stopped.
    rt.quantum_start_clock_ = rt.clock_;
    rt.quanta_run_ = r.u64();
    rt.total_created_ = r.u64();
    rt.live_objects_ = r.u64();
    const std::uint64_t live_head = r.u64();
    image_bounds.check(live_head, sizeof(core::ObjectHeader), "live-list head");
    rt.live_head_ = word_ptr<core::ObjectHeader>(live_head);
    r.raw_into(rt.stats_);
    r.raw_into(rt.rng_);

    for (std::size_t c = 0; c < util::SlabAllocator::kNumClasses; ++c) {
      const std::uint64_t free_head = r.u64();
      image_bounds.check(free_head, sizeof(util::SlabAllocator::FreeNode),
                         "slab free-list head");
      rt.pool_.free_[c] = word_ptr<util::SlabAllocator::FreeNode>(free_head);
      const std::uint64_t bump = r.u64();
      image_bounds.check(bump, 0, "slab bump head");
      rt.pool_.fresh_[c] = word_ptr<std::byte>(bump);
      rt.pool_.fresh_left_[c] = r.u64();
    }
    r.raw_into(rt.pool_.stats_);

    std::uint64_t nsched = r.u64();
    for (std::uint64_t i = 0; i < nsched; ++i) {
      const std::uint64_t o = r.u64();
      image_bounds.check(o, sizeof(core::ObjectHeader),
                         "scheduling-FIFO entry", /*null_ok=*/false);
      rt.sched_.ckpt_relink_tail(word_ptr<core::ObjectHeader>(o));
    }

    load_stock(r, rt.stock_);
    load_loads(r, rt.loads_);
    rt.placement_.cursor_ = r.u32();
    load_migration(r, rt);
  }

  // ----- node components ---------------------------------------------------

  // The non-empty stocks, then the non-zero pendings, each in key order:
  // an emptied record writes nothing, so the bytes are a function of the
  // stock's contents alone.
  static void save_stock(Writer& w, const remote::ChunkStock& s) {
    std::vector<std::pair<std::uint64_t, const remote::ChunkStock::Record*>>
        recs;
    recs.reserve(s.records_.size());
    std::uint64_t nstocks = 0;
    std::uint64_t npend = 0;
    for (const auto& [k, rec] : s.records_) {
      recs.emplace_back(k, &rec);
      if (!rec.chunks.empty()) ++nstocks;
      if (rec.pending != 0) ++npend;
    }
    std::sort(recs.begin(), recs.end());  // keys are unique
    w.u64(nstocks);
    for (const auto& [k, rec] : recs) {
      if (rec->chunks.empty()) continue;
      w.u64(k);
      w.u64(rec->chunks.size());
      for (const core::ObjectHeader* c : rec->chunks) w.u64(ptr_word(c));
    }
    w.u64(npend);
    for (const auto& [k, rec] : recs) {
      if (rec->pending == 0) continue;
      w.u64(k);
      w.u64(rec->pending);
    }
    w.raw(s.stats_);
  }

  static void load_stock(Reader& r, remote::ChunkStock& s) {
    std::uint64_t nstocks = r.u64();
    for (std::uint64_t i = 0; i < nstocks; ++i) {
      std::uint64_t k = r.u64();
      std::uint64_t depth = r.u64();
      auto& vec = s.records_[k].chunks;
      vec.reserve(depth);
      for (std::uint64_t j = 0; j < depth; ++j) {
        vec.push_back(word_ptr<core::ObjectHeader>(r.u64()));
      }
    }
    std::uint64_t npend = r.u64();
    for (std::uint64_t i = 0; i < npend; ++i) {
      std::uint64_t k = r.u64();
      s.records_[k].pending = r.u64();
    }
    r.raw_into(s.stats_);
  }

  // Peers in ascending id order, not the map's first-heard order: the
  // bytes stay a function of the map's contents alone.
  static void save_loads(Writer& w, const remote::LoadMap& m) {
    std::vector<remote::LoadMap::Entry> entries = m.loads_;
    std::sort(entries.begin(), entries.end(),
              [](const remote::LoadMap::Entry& a,
                 const remote::LoadMap::Entry& b) { return a.peer < b.peer; });
    w.u64(entries.size());
    for (const remote::LoadMap::Entry& e : entries) {
      w.u32(static_cast<std::uint32_t>(e.peer));
      w.u32(e.load);
      w.u64(e.stamp);
    }
  }

  static void load_loads(Reader& r, remote::LoadMap& m) {
    std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      auto peer = static_cast<core::NodeId>(r.u32());
      const std::uint32_t load = r.u32();
      m.note(peer, load, r.u64());
    }
  }

  // Migration directories: all keyed by header/pointer words, iterated here
  // in sorted key order (the runtime itself never iterates them).
  static void save_migration(Writer& w, const core::NodeRuntime& rt) {
    // stubs_
    {
      std::vector<std::uint64_t> keys = sorted_ptr_keys(rt.stubs_);
      w.u64(keys.size());
      for (std::uint64_t k : keys) {
        const core::NodeRuntime::StubInfo& si =
            rt.stubs_.at(word_ptr<core::ObjectHeader>(k));
        w.u64(k);
        w.raw(si.fwd);
        w.u32(si.fwd_epoch);
        w.u64(si.parked.size());
        for (const auto& pm : si.parked) w.raw(pm);
      }
    }
    // redirects_
    {
      std::vector<std::uint64_t> keys = sorted_word_keys(rt.redirects_);
      w.u64(keys.size());
      for (std::uint64_t k : keys) {
        const core::NodeRuntime::RedirectEntry& re = rt.redirects_.at(k);
        w.u64(k);
        w.raw(re.fwd);
        w.u32(re.epoch);
        w.b(re.flushing);
        w.u64(re.held.size());
        for (const auto& hm : re.held) w.raw(hm);
      }
    }
    // inbound_
    {
      std::vector<std::uint64_t> keys = sorted_word_keys(rt.inbound_);
      w.u64(keys.size());
      for (std::uint64_t k : keys) {
        const core::NodeRuntime::InboundMigration& in = rt.inbound_.at(k);
        w.u64(k);
        w.b(in.have_start);
        w.u32(in.cls_id);
        w.u32(in.flags);
        w.u32(in.epoch);
        w.i64(in.wait_site);
        w.u32(in.blob_words);
        w.u32(in.received_words);
        w.u32(static_cast<std::uint32_t>(in.src));
        w.u64(in.priors.size());
        for (const auto& a : in.priors) w.raw(a);
        w.u64(in.blob.size());
        for (core::Word word : in.blob) w.u64(word);
      }
    }
    // migrated_meta_
    {
      std::vector<std::uint64_t> keys = sorted_ptr_keys(rt.migrated_meta_);
      w.u64(keys.size());
      for (std::uint64_t k : keys) {
        const core::NodeRuntime::MigratedMeta& mm =
            rt.migrated_meta_.at(word_ptr<core::ObjectHeader>(k));
        w.u64(k);
        w.u32(mm.epoch);
        w.u64(mm.priors.size());
        for (const auto& a : mm.priors) w.raw(a);
      }
    }
  }

  static void load_migration(Reader& r, core::NodeRuntime& rt) {
    {
      std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        auto* key = word_ptr<core::ObjectHeader>(r.u64());
        core::NodeRuntime::StubInfo si;
        r.raw_into(si.fwd);
        si.fwd_epoch = r.u32();
        std::uint64_t nparked = r.u64();
        si.parked.reserve(nparked);
        for (std::uint64_t j = 0; j < nparked; ++j) {
          r.raw_into(si.parked.emplace_back());
        }
        rt.stubs_.emplace(key, std::move(si));
      }
    }
    {
      std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        core::Word key = r.u64();
        core::NodeRuntime::RedirectEntry re;
        r.raw_into(re.fwd);
        re.epoch = r.u32();
        re.flushing = r.b();
        std::uint64_t nheld = r.u64();
        re.held.reserve(nheld);
        for (std::uint64_t j = 0; j < nheld; ++j) {
          r.raw_into(re.held.emplace_back());
        }
        rt.redirects_.emplace(key, std::move(re));
      }
    }
    {
      std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        core::Word key = r.u64();
        core::NodeRuntime::InboundMigration in;
        in.have_start = r.b();
        in.cls_id = static_cast<core::ClassId>(r.u32());
        in.flags = r.u32();
        in.epoch = r.u32();
        in.wait_site = r.i64();
        in.blob_words = r.u32();
        in.received_words = r.u32();
        in.src = static_cast<core::NodeId>(r.u32());
        std::uint64_t npriors = r.u64();
        in.priors.reserve(npriors);
        for (std::uint64_t j = 0; j < npriors; ++j) {
          r.raw_into(in.priors.emplace_back());
        }
        std::uint64_t nblob = r.u64();
        in.blob.reserve(nblob);
        for (std::uint64_t j = 0; j < nblob; ++j) in.blob.push_back(r.u64());
        rt.inbound_.emplace(key, std::move(in));
      }
    }
    {
      std::uint64_t count = r.u64();
      for (std::uint64_t i = 0; i < count; ++i) {
        auto* key = word_ptr<core::ObjectHeader>(r.u64());
        core::NodeRuntime::MigratedMeta mm;
        mm.epoch = r.u32();
        std::uint64_t npriors = r.u64();
        mm.priors.reserve(npriors);
        for (std::uint64_t j = 0; j < npriors; ++j) {
          r.raw_into(mm.priors.emplace_back());
        }
        rt.migrated_meta_.emplace(key, std::move(mm));
      }
    }
  }

  template <class Map>
  static std::vector<std::uint64_t> sorted_ptr_keys(const Map& m) {
    std::vector<std::uint64_t> keys;
    keys.reserve(m.size());
    for (const auto& [k, v] : m) keys.push_back(ptr_word(k));
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  template <class Map>
  static std::vector<std::uint64_t> sorted_word_keys(const Map& m) {
    std::vector<std::uint64_t> keys;
    keys.reserve(m.size());
    for (const auto& [k, v] : m) keys.push_back(k);
    std::sort(keys.begin(), keys.end());
    return keys;
  }
};

}  // namespace abcl::ckpt

namespace abcl {

void World::checkpoint(ckpt::Sink& sink) const {
  ABCL_CHECK_MSG(cfg_.ckpt.enabled,
                 "checkpoint(): world was not built with checkpointing "
                 "enabled (WorldConfig::ckpt / ABCLSIM_CHECKPOINT)");
  ckpt::Writer w;
  ckpt::WorldIo::save(w, *this);
  w.finish(ckpt::WorldIo::fingerprint(*prog_), sink);
}

std::unique_ptr<World> World::restore(core::Program& prog, ckpt::Source& src,
                                      int host_threads_override) {
  ABCL_CHECK_MSG(prog.finalized(),
                 "checkpoint restore: finalize the Program first");
  ckpt::Reader r(src, ckpt::WorldIo::fingerprint(prog));
  std::unique_ptr<World> w(new World(RestoreTag{}, prog));
  ckpt::WorldIo::load(r, *w, host_threads_override);
  r.expect_end();
  return w;
}

}  // namespace abcl
