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
// Each section is one `template <class Ar>` function below, which
// World::checkpoint runs with a ckpt::Writer and World::restore with a
// ckpt::Reader (ckpt/snapshot.hpp): the field list exists once, so capture
// and restore cannot drift apart. Only restore's building (the Network,
// each NodeRuntime, fresh packet slots, the FIFO relink) and the checks on
// either side are written per direction.
//
// Canonical order: every unordered container is written sorted by its key,
// so two checkpoints of identical simulated states are byte-identical.
// Code pointers (vftps, entry functions, resume entries) are process
// pointers; the restoring Program is validated via a fingerprint over its
// handler registry, exactly the contract live migration already relies on
// when it ships resume entries as raw words. Restore also checks each
// object header's vftp (check_live_list); resume entries stay unchecked.
#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
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

  // The config words, the network, then every node. W is World, const when
  // capturing; World::restore finishes a restored world (driver, resume
  // bookkeeping).
  template <class Ar, class W>
  static void world(Ar& ar, W& world) {
    auto& cfg = world.cfg_;
    ar.u32(cfg.nodes);
    if constexpr (Ar::kLoading) {
      ABCL_CHECK_MSG(cfg.nodes >= 1,
                     "checkpoint restore: snapshot carries no nodes");
    }
    enum_word(ar, cfg.topology, net::TopologyKind::kHypercube, "topology");
    config_fields(ar, cfg.cost);
    config_fields(ar, cfg.node);
    enum_word(ar, cfg.placement, remote::PlacementKind::kLeastLoaded,
              "placement");
    ar.u64(cfg.seed);
    // WorldConfig::host_threads' meaning (< 0 serial, 0 consult the
    // environment, >= 1 workers) with the ABCLSIM_HOST_THREADS ceiling: a
    // forged width must not spin up that many worker threads.
    wide<std::int64_t>(ar, cfg.host_threads, [](std::int64_t v) {
      ABCL_CHECK_MSG(v >= std::numeric_limits<int>::min() && v <= 1024,
                     ("checkpoint restore: host_threads word " +
                      std::to_string(v) + " is out of range (max 1024)")
                         .c_str());
    });
    config_fields(ar, cfg.faults);
    config_fields(ar, cfg.migration);
    ar.b(cfg.ckpt.enabled);
    ar.u64(cfg.ckpt.at);
    ar.str(cfg.ckpt.path);
    ar.u64(world.quanta_total_);

    if constexpr (Ar::kLoading) {
      world.net_ = std::make_unique<net::Network>(
          net::Topology(cfg.topology, cfg.nodes), &cfg.cost,
          std::function<void(core::NodeId)>{}, cfg.faults);
    }
    network(ar, *world.net_, world.prog_->am().size());
    for (core::NodeId id = 0; id < cfg.nodes; ++id) node(ar, world, id);
    if constexpr (Ar::kLoading) check_stocked_chunks(world);
  }

  // Config structs are written member by member: their padding bytes hold
  // whatever the stack held where the config was built, and snapshot bytes
  // must be a function of simulated state alone. C is the config type,
  // const when saving. The size guards catch a member added without being
  // listed here.
  template <class Ar, class C>
  static void config_fields(Ar& ar, C& c) {
    auto field = [&ar](auto& m) { ar.raw(m); };
    using T = std::remove_const_t<C>;
    if constexpr (std::is_same_v<T, sim::CostModel>) {
      static_assert(sizeof(T) == 232, "new CostModel field? list it here");
      // Every member ahead of `opt` is an 8-byte word: no padding there.
      static_assert(offsetof(T, opt) == 28 * 8);
      ar.bytes(&c, offsetof(T, opt));
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
      config_fields(ar, c.migration);
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

  // A field carried in a wire word W wider than the field: the checksum
  // proves integrity, not authorship, so restore runs `check` (which dies
  // with a diagnostic) on the whole word before narrowing it.
  template <class W, class Ar, class T, class Check>
  static void wide(Ar& ar, T& field, Check&& check) {
    W w{};
    if constexpr (!Ar::kLoading) w = static_cast<W>(field);
    ar.raw(w);
    if constexpr (Ar::kLoading) {
      check(w);
      field = static_cast<T>(w);
    }
  }

  // A config enum in a u32 word, checked against the enum's last
  // enumerator: an out-of-range word names no enumerator for the code that
  // later switches on it.
  template <class Ar, class E>
  static void enum_word(Ar& ar, E& e, std::remove_const_t<E> last,
                        const char* what) {
    wide<std::uint32_t>(ar, e, [&](std::uint32_t v) {
      ABCL_CHECK_MSG(v <= static_cast<std::uint32_t>(last),
                     ("checkpoint restore: " + std::string(what) + " word " +
                      std::to_string(v) + " is out of range (max " +
                      std::to_string(static_cast<std::uint32_t>(last)) + ")")
                         .c_str());
    });
  }

  // ----- network -----------------------------------------------------------

  template <class Ar>
  static void network(Ar& ar, net::Network& n, std::size_t handlers) {
    if constexpr (!Ar::kLoading) {
      // Boundary invariants: no worker redirects installed, no flush running.
      ABCL_CHECK_MSG(!n.flush_active_,
                     "checkpoint: capture attempted mid-flush");
      ABCL_CHECK_MSG(n.outboxes_installed_ == 0,
                     "checkpoint: capture attempted with worker outboxes "
                     "installed (mid-run)");
    }
    ar.raw(n.stats_);
    for (std::uint64_t& s : n.src_seq_) ar.u64(s);
    channel_words(ar, n.use_matrix_, n.channel_matrix_, n.channel_map_);

    // Per-destination queues in canonical (arrive, src, seq) order. Restore
    // reads each packet into a fresh slot and rebuilds its queue entry from
    // it (commit stamps arrive_time and seq into the slot).
    const std::size_t nodes = n.queues_.size();
    std::vector<net::Network::QueuedPacket> entries;
    for (std::size_t dst = 0; dst < nodes; ++dst) {
      entries.clear();
      if constexpr (!Ar::kLoading) {
        n.queues_[dst].for_each(
            [&entries](const net::Network::QueuedPacket& e) {
              entries.push_back(e);
            });
        std::sort(entries.begin(), entries.end(),
                  net::Network::PacketOrder{});
      }
      ar.seq(entries, [&](auto& e) {
        if constexpr (Ar::kLoading) e.slot = n.pool_.acquire(n.home_mag_);
        packet(ar, *e.slot, dst, nodes, handlers);
        if constexpr (Ar::kLoading) {
          n.queues_[dst].push(net::Network::QueuedPacket{
              e.slot->arrive_time, e.slot->src, e.slot->seq, e.slot});
        }
      });
    }

    if (n.fault_plan_ != nullptr) {
      ar.raw(n.fault_commit_);
      channel_words(ar, n.use_matrix_, n.link_seq_matrix_, n.link_seq_map_);
      for (net::Network::DstFaultState& st : n.dst_fault_) {
        ar.u64(st.delivered);
        ar.u64(st.dup_suppressed);
      }
    }
  }

  // One queued packet, field by field, with exactly nwords payload words:
  // a pool slot keeps stale bytes past nwords (and padding), which depend
  // on slot reuse and so on host interleaving under the parallel driver.
  // Layout: u32 handler, u32 src, u32 dst, u64 send_time, u64 arrive_time,
  // u64 seq, u64 dup mark (0 or 1), u32 retries, u32 nwords, nwords x u64
  // payload.
  //
  // Restore fills a fresh slot, writing every field a receiver reads. A
  // restored packet is dispatched verbatim, and Packet::at and
  // AmRegistry::entry bound their index only in debug builds, so every
  // field that indexes host memory is checked here — the payload length
  // before any payload word is read — where a diagnostic can still name the
  // packet.
  template <class Ar>
  static void packet(Ar& ar, net::Packet& p, std::size_t dst,
                     std::size_t nodes, std::size_t handlers) {
    auto bad = [dst](const std::string& why) {
      return "checkpoint restore: packet queued toward node " +
             std::to_string(dst) + " " + why;
    };
    wide<std::uint32_t>(ar, p.handler, [&](std::uint32_t h) {
      ABCL_CHECK_MSG(h < handlers, bad("names handler " + std::to_string(h) +
                                       ", but the Program registers " +
                                       std::to_string(handlers))
                                       .c_str());
    });
    ar.u32(p.src);
    ar.u32(p.dst);
    ar.u64(p.send_time);
    ar.u64(p.arrive_time);
    ar.u64(p.seq);
    wide<std::uint64_t>(ar, p.dup, [&](std::uint64_t dup) {
      ABCL_CHECK_MSG(dup <= 1, bad("has dup mark " + std::to_string(dup) +
                                   " (expected 0 or 1)")
                                   .c_str());
    });
    wide<std::uint32_t>(ar, p.retries, [&](std::uint32_t retries) {
      ABCL_CHECK_MSG(retries <= 0xFFFF,
                     bad("has retry count " + std::to_string(retries) +
                         " (max 65535)")
                         .c_str());
    });
    wide<std::uint32_t>(ar, p.nwords, [&](std::uint32_t nwords) {
      ABCL_CHECK_MSG(nwords <= net::kMaxPacketWords,
                     bad("carries " + std::to_string(nwords) +
                         " payload words (max " +
                         std::to_string(net::kMaxPacketWords) + ")")
                         .c_str());
    });
    if constexpr (Ar::kLoading) {
      ABCL_CHECK_MSG(p.src >= 0 && static_cast<std::size_t>(p.src) < nodes,
                     bad("has source node " + std::to_string(p.src) +
                         " outside the " + std::to_string(nodes) +
                         "-node world")
                         .c_str());
      ABCL_CHECK_MSG(p.dst >= 0 && static_cast<std::size_t>(p.dst) == dst,
                     bad("is addressed to node " + std::to_string(p.dst))
                         .c_str());
    }
    for (int i = 0; i < p.nwords; ++i) ar.u64(p.payload[i]);
  }

  // Channel-indexed word state (arrival floors, link seqs): flat matrix on
  // small machines, (key, value) pairs above the matrix threshold.
  template <class Ar, class V>
  static void channel_words(Ar& ar, bool use_matrix, std::vector<V>& matrix,
                            std::unordered_map<std::uint64_t, V>& map) {
    if (use_matrix) {
      ar.bytes(matrix.data(), matrix.size() * sizeof(V));
      return;
    }
    ar.map(map, [&ar](auto, auto& v) { ar.u64(v); });
  }

  // ----- one node ----------------------------------------------------------

  // The image's own pointers, checked before anything follows them: the
  // checksum proves integrity, not authorship, and an image restored at a
  // forged base keeps pointing where it was captured.
  struct ImageBounds {
    core::NodeId node;  // whose state holds the words checked
    std::uint64_t base;
    std::uint64_t used;
    core::NodeId image_of = node;  // whose arena image [base, base + used) is

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
                      " falls outside " +
                      (image_of == node
                           ? std::string("its")
                           : "node " + std::to_string(image_of) + "'s") +
                      " arena image [" + std::to_string(base) + ", " +
                      std::to_string(base + used) + ")")
                         .c_str());
    }
  };

  // W is World, const when capturing. Restore builds the node through
  // World::add_node once its arena image is read.
  template <class Ar, class W>
  static void node(Ar& ar, W& world, core::NodeId id) {
    core::NodeRuntime* rt = nullptr;
    std::uint64_t base = 0;
    std::uint64_t used = 0;
    std::uint64_t ballo = 0;
    if constexpr (!Ar::kLoading) {
      rt = world.nodes_[static_cast<std::size_t>(id)].get();
      // Boundary invariants: nothing mid-dispatch.
      ABCL_CHECK_MSG(rt->cur_obj_ == nullptr && rt->call_depth_ == 0,
                     "checkpoint: capture attempted mid-quantum");
      ABCL_CHECK_MSG(rt->block_reason_.kind ==
                         core::NodeRuntime::BlockReason::Kind::kNone,
                     "checkpoint: capture attempted with a block in progress");
      ABCL_CHECK_MSG(rt->arena_.reserved(),
                     "checkpoint: node heap is not a reserved arena");
      base = rt->arena_.base();
      used = rt->arena_.used();
      ballo = rt->arena_.bytes_allocated();
    }

    // Raw heap image (see file comment).
    ar.u64(base);
    if constexpr (Ar::kLoading) {
      // A reserved arena only ever sits on a slot base; any other word (the
      // kReserveAuto sentinel included) would place the image elsewhere.
      ABCL_CHECK_MSG(util::Arena::is_slot_base(base),
                     ("checkpoint restore: node " + std::to_string(id) +
                      " arena base " + std::to_string(base) +
                      " is not a slot base of the checkpoint window")
                         .c_str());
    }
    ar.u64(used);
    if constexpr (Ar::kLoading) {
      ABCL_CHECK_MSG(used <= util::Arena::kSlotBytes,
                     ("checkpoint restore: node " + std::to_string(id) +
                      " arena image of " + std::to_string(used) +
                      " bytes exceeds the slot")
                         .c_str());
    }
    ar.u64(ballo);
    const void* image = word_ptr<const void>(base);
    ar.image(image, used);
    if constexpr (Ar::kLoading) {
      // Always a reserved arena, whatever the snapshot's ckpt.enabled word
      // says: a forged false must not put an arena image into a malloc
      // arena.
      rt = &world.add_node(/*reserved_arena=*/true, base);
      rt->arena_.restore_image(image, used, ballo);
    }
    const ImageBounds bounds{id, base, used};

    ar.u64(rt->clock_);
    // A restored quantum starts exactly at the restored clock: the budget
    // accounting continues as if the run had never stopped.
    if constexpr (Ar::kLoading) rt->quantum_start_clock_ = rt->clock_;
    ar.u64(rt->quanta_run_);
    ar.u64(rt->total_created_);
    ar.u64(rt->live_objects_);
    ar.u64(rt->live_head_);
    if constexpr (Ar::kLoading) {
      bounds.check(ptr_word(rt->live_head_), sizeof(core::ObjectHeader),
                   "live-list head");
      check_live_list(*rt, bounds, *world.prog_);
    }
    ar.raw(rt->stats_);
    ar.raw(rt->rng_);

    // Slab allocator: freelist chains live inside the arena image; only the
    // per-class heads and bump cursors live out here.
    util::SlabAllocator& pool = rt->pool_;
    for (std::size_t c = 0; c < util::SlabAllocator::kNumClasses; ++c) {
      ar.u64(pool.free_[c]);
      ar.u64(pool.fresh_[c]);
      ar.u64(pool.fresh_left_[c]);
      if constexpr (Ar::kLoading) {
        bounds.check(ptr_word(pool.free_[c]),
                     sizeof(util::SlabAllocator::FreeNode),
                     "slab free-list head");
        bounds.check(ptr_word(pool.fresh_[c]), 0, "slab bump head");
      }
    }
    ar.raw(pool.stats_);

    // Scheduling FIFO, head to tail (relinked in this order on restore).
    std::vector<std::uint64_t> fifo;
    if constexpr (!Ar::kLoading) {
      rt->sched_.for_each([&fifo](const core::ObjectHeader& o) {
        fifo.push_back(ptr_word(&o));
      });
    }
    ar.seq(fifo, [&](auto& o) {
      ar.u64(o);
      if constexpr (Ar::kLoading) {
        bounds.check(o, sizeof(core::ObjectHeader), "scheduling-FIFO entry",
                     /*null_ok=*/false);
        rt->sched_.ckpt_relink_tail(word_ptr<core::ObjectHeader>(o));
      }
    });

    stock(ar, rt->stock_, id, world.cfg_.nodes);
    loads(ar, rt->loads_);
    ar.u32(rt->placement_.cursor_);
    migration(ar, *rt, bounds);
  }

  // The restored live list links every object, chunk and stub header of
  // the node (link_live always pairs with ++live_objects_). Each link must
  // stay inside the image, aligned, with its back link pointing at its
  // predecessor's forward link (destroy_object writes through it); the
  // walk must end after exactly live_objects headers; and each header's
  // vftp must be one of the restoring Program's tables, since every
  // message to the object calls through it. Spilled frames' resume entries
  // are not checked.
  static void check_live_list(const core::NodeRuntime& rt,
                              const ImageBounds& bounds,
                              const core::Program& prog) {
    auto fail = [&rt](const std::string& why) {
      return "checkpoint restore: node " + std::to_string(rt.id_) + " " + why;
    };
    std::uint64_t back = 0;  // the link the next header's live_pprev holds
    std::size_t n = 0;
    for (const core::ObjectHeader* o = rt.live_head_; o != nullptr;
         o = o->live_next) {
      const std::uint64_t at = ptr_word(o);
      ABCL_CHECK_MSG(n < rt.live_objects_,
                     fail("live list runs past its " +
                          std::to_string(rt.live_objects_) + " objects")
                         .c_str());
      bounds.check(at, sizeof(core::ObjectHeader), "live-list link",
                   /*null_ok=*/false);
      ABCL_CHECK_MSG(at % alignof(core::ObjectHeader) == 0,
                     fail("live-list link " + std::to_string(at) +
                          " is misaligned")
                         .c_str());
      ABCL_CHECK_MSG(ptr_word(o->live_pprev) == back,
                     fail("object header " + std::to_string(at) +
                          " has live-list back link " +
                          std::to_string(ptr_word(o->live_pprev)) +
                          ", not " + std::to_string(back))
                         .c_str());
      ABCL_CHECK_MSG(prog.has_vft(o->vftp),
                     fail("object header " + std::to_string(at) +
                          " has vftp " + std::to_string(ptr_word(o->vftp)) +
                          ", which is not a table of the restoring Program")
                         .c_str());
      back = ptr_word(&o->live_next);
      ++n;
    }
    ABCL_CHECK_MSG(n == rt.live_objects_,
                   fail("live list ends after " + std::to_string(n) + " of " +
                        std::to_string(rt.live_objects_) + " objects")
                       .c_str());
  }

  // Every stocked chunk must lie in its peer's arena image. Checked once
  // all nodes are loaded: a stock names later nodes' chunks.
  static void check_stocked_chunks(const World& world) {
    for (const auto& rt : world.nodes_) {
      for (const auto& [key, rec] : rt->stock_.records_) {
        const core::NodeRuntime& peer =
            *world.nodes_[static_cast<std::size_t>(key >> 16)];
        const ImageBounds image{rt->id_, peer.arena_.base(),
                                peer.arena_.used(), peer.id_};
        for (const core::ObjectHeader* chunk : rec.chunks) {
          image.check(ptr_word(chunk), sizeof(core::ObjectHeader),
                     "stocked chunk", /*null_ok=*/false);
        }
      }
    }
  }

  // ----- node components ---------------------------------------------------

  // The non-empty stocks, then the non-zero pendings, each in key order:
  // an emptied record writes nothing, so the bytes are a function of the
  // stock's contents alone.
  //
  // Restore checks each key: it must name a node of the `nodes`-node world
  // and a slab size class (ChunkStock::key packs peer << 16 | size class).
  template <class Ar>
  static void stock(Ar& ar, remote::ChunkStock& s, core::NodeId node,
                    std::int32_t nodes) {
    using Record = remote::ChunkStock::Record;
    auto key = [&](std::uint64_t k) {
      if constexpr (Ar::kLoading) {
        auto bad = [&](const std::string& why) {
          return "checkpoint restore: node " + std::to_string(node) +
                 " chunk-stock key " + std::to_string(k) + " names " + why;
        };
        constexpr std::size_t kClasses = util::SlabAllocator::kNumClasses;
        const std::uint64_t peer = k >> 16;
        const std::uint64_t size_class = k & 0xFFFF;
        ABCL_CHECK_MSG(peer < static_cast<std::uint64_t>(nodes),
                       bad("node " + std::to_string(peer) + " outside the " +
                           std::to_string(nodes) + "-node world")
                           .c_str());
        ABCL_CHECK_MSG(size_class < kClasses,
                       bad("size class " + std::to_string(size_class) +
                           " (max " + std::to_string(kClasses - 1) + ")")
                           .c_str());
      }
    };
    ar.map(
        s.records_,
        [&](std::uint64_t k, auto& rec) {
          key(k);
          ar.seq(rec.chunks, [&ar](auto& chunk) { ar.u64(chunk); });
        },
        [](const Record& rec) { return !rec.chunks.empty(); });
    ar.map(
        s.records_,
        [&](std::uint64_t k, auto& rec) {
          key(k);
          ar.u64(rec.pending);
        },
        [](const Record& rec) { return rec.pending != 0; });
    ar.raw(s.stats_);
  }

  // Peers in ascending id order, not the map's first-heard order: the
  // bytes stay a function of the map's contents alone.
  template <class Ar>
  static void loads(Ar& ar, remote::LoadMap& m) {
    std::vector<remote::LoadMap::Entry> entries;
    if constexpr (!Ar::kLoading) {
      entries = m.loads_;
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.peer < b.peer; });
    }
    ar.seq(entries, [&ar](auto& e) {
      ar.u32(e.peer);
      ar.u32(e.load);
      ar.u64(e.stamp);
    });
    if constexpr (Ar::kLoading) {
      for (const remote::LoadMap::Entry& e : entries) {
        m.note(e.peer, e.load, e.stamp);
      }
    }
  }

  // Migration directories, each in ascending key order (the runtime itself
  // never iterates them). Stubs and migrated-in objects are keyed by their
  // own headers, which restore checks against the node's image.
  template <class Ar>
  static void migration(Ar& ar, core::NodeRuntime& rt,
                        const ImageBounds& bounds) {
    auto raw = [&ar](auto& v) { ar.raw(v); };
    auto own = [&bounds](const core::ObjectHeader* key, const char* what) {
      if constexpr (Ar::kLoading) {
        bounds.check(ptr_word(key), sizeof(core::ObjectHeader), what,
                     /*null_ok=*/false);
      }
    };
    ar.map(rt.stubs_, [&](auto key, auto& si) {
      own(key, "migration-stub key");
      ar.raw(si.fwd);
      ar.u32(si.fwd_epoch);
      ar.seq(si.parked, raw);
    });
    ar.map(rt.redirects_, [&](auto, auto& re) {
      ar.raw(re.fwd);
      ar.u32(re.epoch);
      ar.b(re.flushing);
      ar.seq(re.held, raw);
    });
    ar.map(rt.inbound_, [&](auto, auto& in) {
      ar.b(in.have_start);
      ar.u32(in.cls_id);
      ar.u32(in.flags);
      ar.u32(in.epoch);
      ar.i64(in.wait_site);
      ar.u32(in.blob_words);
      ar.u32(in.received_words);
      ar.u32(in.src);
      ar.seq(in.priors, raw);
      ar.seq(in.blob, [&ar](auto& word) { ar.u64(word); });
    });
    ar.map(rt.migrated_meta_, [&](auto key, auto& mm) {
      own(key, "migrated-object key");
      ar.u32(mm.epoch);
      ar.seq(mm.priors, raw);
    });
  }
};

}  // namespace abcl::ckpt

namespace abcl {

void World::checkpoint(ckpt::Sink& sink) const {
  ABCL_CHECK_MSG(cfg_.ckpt.enabled,
                 "checkpoint(): world was not built with checkpointing "
                 "enabled (WorldConfig::ckpt / ABCLSIM_CHECKPOINT)");
  ckpt::Writer w;
  ckpt::WorldIo::world(w, *this);
  w.finish(ckpt::WorldIo::fingerprint(*prog_), sink);
}

std::unique_ptr<World> World::restore(core::Program& prog, ckpt::Source& src,
                                      int host_threads_override) {
  ABCL_CHECK_MSG(prog.finalized(),
                 "checkpoint restore: finalize the Program first");
  ckpt::Reader r(src, ckpt::WorldIo::fingerprint(prog));
  std::unique_ptr<World> w(new World(RestoreTag{}, prog));
  ckpt::WorldIo::world(r, *w);
  r.expect_end();
  if (host_threads_override != 0) w->cfg_.host_threads = host_threads_override;
  w->resumed_quanta_ = w->quanta_total_;
  // The snapshot's own boundary already fired; a restored world resumes
  // straight to its caller's horizon instead of re-stopping at cfg.ckpt.at
  // (which is in its past).
  w->ckpt_taken_ = true;
  w->build_machine();
  return w;
}

}  // namespace abcl
