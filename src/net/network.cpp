#include "net/network.hpp"

#include "util/assert.hpp"

namespace abcl::net {

namespace {
constexpr std::int32_t kMatrixNodeLimit = 1024;  // 1024^2 * 8 B = 8 MiB
constexpr int kMinWireWords = 4;                 // header-only packet
}

Network::Network(Topology topology, const sim::CostModel* cm,
                 std::function<void(NodeId)> on_deliverable, FaultConfig faults)
    : topology_(std::move(topology)),
      cm_(cm),
      on_deliverable_(std::move(on_deliverable)),
      queues_(static_cast<std::size_t>(topology_.num_nodes())),
      use_matrix_(topology_.num_nodes() <= kMatrixNodeLimit),
      src_seq_(static_cast<std::size_t>(topology_.num_nodes()), 0),
      outboxes_(static_cast<std::size_t>(topology_.num_nodes()), nullptr),
      flush_touched_mark_(static_cast<std::size_t>(topology_.num_nodes()), 0),
      mags_(static_cast<std::size_t>(topology_.num_nodes()), &home_mag_) {
  ABCL_CHECK(cm_ != nullptr);
  ABCL_CHECK_MSG(cm_->wire_latency + cm_->per_hop > 0,
                 "network lookahead must be positive for the PDES driver");
  min_latency_ = cm_->wire_latency +
                 static_cast<sim::Instr>(kMinWireWords) * cm_->per_word;
  if (min_latency_ == 0) min_latency_ = 1;
  if (use_matrix_) {
    channel_matrix_.assign(
        static_cast<std::size_t>(topology_.num_nodes()) *
            static_cast<std::size_t>(topology_.num_nodes()),
        0);
  }
  if (faults.enabled) {
    fault_plan_ = std::make_unique<FaultPlan>(faults, min_packet_latency());
    if (use_matrix_) {
      link_seq_matrix_.assign(channel_matrix_.size(), 0);
    }
    dst_fault_.resize(static_cast<std::size_t>(topology_.num_nodes()));
  }
}

sim::Instr& Network::channel_floor(NodeId src, NodeId dst) {
  if (use_matrix_) {
    return channel_matrix_[static_cast<std::size_t>(src) *
                               static_cast<std::size_t>(topology_.num_nodes()) +
                           static_cast<std::size_t>(dst)];
  }
  std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                       << 32) |
                      static_cast<std::uint32_t>(dst);
  return channel_map_[key];
}

std::uint64_t& Network::link_seq(NodeId src, NodeId dst) {
  if (use_matrix_) {
    return link_seq_matrix_[static_cast<std::size_t>(src) *
                                static_cast<std::size_t>(topology_.num_nodes()) +
                            static_cast<std::size_t>(dst)];
  }
  std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                       << 32) |
                      static_cast<std::uint32_t>(dst);
  return link_seq_map_[key];
}

Packet* Network::open(NodeId src, NodeId dst, HandlerId handler,
                      sim::Instr send_time) {
  ABCL_CHECK(dst >= 0 && dst < topology_.num_nodes());
  ABCL_CHECK(src >= 0 && src < topology_.num_nodes());
  Packet* p = pool_.acquire(*mags_[idx(src)]);
  p->handler = handler;
  p->src = src;
  p->dst = dst;
  p->send_time = send_time;
  p->retries = 0;
  p->dup = false;
  p->nwords = 0;
  return p;
}

void Network::send(Packet* p, AmCategory category) {
  if (Outbox* ob = outboxes_[idx(p->src)]) {
    ob->items_.push_back({p, category});
    return;
  }
  // A direct commit inside a parallel run would race the workers' polls
  // and the barrier flush on the shared queues; the parallel driver
  // installs an outbox for every source.
  ABCL_CHECK_MSG(outboxes_installed_ == 0,
                 "direct send from a source without an outbox while a "
                 "parallel run has outboxes installed");
  commit(p, category);
}

void Network::send(const Packet& p, AmCategory category) {
  Packet* slot = open(p.src, p.dst, p.handler, p.send_time);
  copy_payload(*slot, p);
  send(slot, category);
}

void Network::commit(Packet* p, AmCategory category) {
  std::int32_t hops = topology_.hops(p->src, p->dst);
  sim::Instr wire = cm_->wire_latency +
                    static_cast<sim::Instr>(hops) * cm_->per_hop +
                    static_cast<sim::Instr>(p->wire_words()) * cm_->per_word;
  if (wire == 0) wire = 1;  // strictly positive lookahead
  sim::Instr arrive = p->send_time + wire;

  // Enforce per-channel FIFO: a later send on the same channel never
  // arrives before an earlier one.
  sim::Instr& floor = channel_floor(p->src, p->dst);
  if (arrive < floor) arrive = floor;
  floor = arrive;

  p->arrive_time = arrive;
  p->seq = src_seq_[idx(p->src)]++;

  // Logical (sender-intent) accounting: one packet per send regardless of
  // how many physical attempts/copies the fault layer generates below —
  // fault overhead is reported separately in FaultStats.
  stats_.packets += 1;
  stats_.payload_words += p->nwords;
  stats_.wire_words += static_cast<std::uint64_t>(p->wire_words());
  stats_.per_category[static_cast<int>(category)] += 1;
  stats_.wire_latency_instr.add(arrive - p->send_time);

  if (fault_plan_ != nullptr) {
    commit_faulty(p);
    return;
  }
  enqueue(p);
}

void Network::enqueue(Packet* p) {
  NodeId dst = p->dst;
  queues_[idx(dst)].push(QueuedPacket{p->arrive_time, p->src, p->seq, p});
  if (flush_active_) {
    // Batched wakeups: record the destination once; flush_outboxes runs a
    // single rekey pass per dst after all commits. Equivalent to the
    // per-packet callback because more packets only lower a destination's
    // effective key — the post-flush key is the min the driver would have
    // folded in packet by packet.
    auto d = idx(dst);
    if (!flush_touched_mark_[d]) {
      flush_touched_mark_[d] = 1;
      flush_touched_.push_back(dst);
    }
    return;
  }
  if (on_deliverable_) on_deliverable_(dst);
}

// Resolves the stop-and-wait retry protocol for one committed packet
// analytically (see net/fault.hpp): attempt k transmits at send_time + the
// accumulated backoff; each attempt is lost to the drop hash or a link
// blackout, or else enqueues a real delivery copy (plus a duplicate copy
// when that hash fires). A lost virtual ack keeps the loop going — a
// spurious retransmit. Every copy's arrival is >= send_time +
// min_packet_latency() (the effective wire below already clamps there), so
// the PDES lookahead stays valid, and copies get strictly increasing
// arrivals. All copies share (src, seq), so the first copy enqueued is the
// first one its destination polls: it alone is delivered, and every later
// copy is marked Packet::dup here for the receiver to discard.
void Network::commit_faulty(Packet* p) {
  const FaultPlan& plan = *fault_plan_;
  const FaultConfig& fc = plan.config();
  FaultStats& fs = fault_commit_;
  const NodeId src = p->src;
  const NodeId dst = p->dst;

  const std::uint64_t lseq = link_seq(src, dst)++;
  const sim::Instr base_arrive = p->arrive_time;
  // Effective wire time including the per-channel FIFO clamp the caller
  // already applied; >= min_packet_latency() by construction.
  const sim::Instr eff_wire = base_arrive - p->send_time;

  // One delivery copy, stamped with its arrival and attempt number. The
  // first surviving copy is the committed slot itself, unmarked since
  // open(); each later one (a duplicate or a retransmit) gets its own slot
  // holding the committed header and payload, marked dup. Copying out of
  // `p` after it is queued is safe: the commit path runs alone (serially,
  // or at the window barrier), so no poll can take `p` before the loop
  // ends.
  bool first = true;
  auto enqueue_copy = [this, p, &first](sim::Instr arrive,
                                        std::uint32_t attempt) {
    Packet* c = p;
    if (!first) {
      c = pool_.acquire(home_mag_);
      c->handler = p->handler;
      c->src = p->src;
      c->dst = p->dst;
      c->send_time = p->send_time;
      c->seq = p->seq;
      c->dup = true;
      copy_payload(*c, *p);
    }
    first = false;
    c->arrive_time = arrive;
    c->retries = static_cast<std::uint16_t>(attempt);
    enqueue(c);
  };

  sim::Instr t = p->send_time;  // transmit instant of the current attempt
  sim::Instr last_arrive = 0;   // strictly-increasing de-tie clamp
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool forced = attempt + 1 == FaultPlan::kMaxAttempts;
    fs.attempts += 1;
    bool lost = false;
    if (!forced) {
      if (plan.drop(src, dst, lseq, attempt)) {
        fs.drops += 1;
        lost = true;
      } else if (fc.blackout_ppm != 0 &&
                 plan.blackout(src, dst, t / fc.blackout_window)) {
        fs.blackout_drops += 1;
        lost = true;
      }
    }
    if (!lost) {
      sim::Instr extra = plan.extra_delay(src, dst, lseq, attempt);
      if (extra != 0) fs.delays += 1;
      sim::Instr a = t + eff_wire + extra;
      if (a <= last_arrive) a = last_arrive + 1;
      last_arrive = a;
      fs.copies_enqueued += 1;
      fs.retry_delay_instr.add(a - base_arrive);
      enqueue_copy(a, attempt);
      if (plan.duplicate(src, dst, lseq, attempt)) {
        sim::Instr d = a + 1;
        last_arrive = d;
        fs.duplicates += 1;
        fs.copies_enqueued += 1;
        fs.retry_delay_instr.add(d - base_arrive);
        enqueue_copy(d, attempt);
      }
      if (forced) {
        fs.forced_deliveries += 1;
        break;
      }
      if (!plan.ack_lost(src, dst, lseq, attempt)) break;  // acked: done
      fs.spurious_retransmits += 1;
    }
    t += plan.backoff(attempt);
  }
  // The forced final attempt always delivers, so `p` is queued by now.
  ABCL_DCHECK(!first);
}

void Network::set_magazine(NodeId node, PacketPool::Magazine* m) {
  ABCL_CHECK(node >= 0 && node < topology_.num_nodes());
  mags_[idx(node)] = m != nullptr ? m : &home_mag_;
}

void Network::set_outbox(NodeId src, Outbox* ob) {
  ABCL_CHECK(src >= 0 && src < topology_.num_nodes());
  Outbox*& slot = outboxes_[static_cast<std::size_t>(src)];
  if (slot == nullptr && ob != nullptr) ++outboxes_installed_;
  if (slot != nullptr && ob == nullptr) --outboxes_installed_;
  slot = ob;
}

void Network::flush_outboxes(Outbox* const* boxes, std::size_t nboxes) {
  flush_active_ = true;
  // commit() reads and stamps each slot's header where its sender left it;
  // prefetching the next item's slot overlaps that miss with the current
  // commit.
  for (std::size_t b = 0; b < nboxes; ++b) {
    std::vector<Outbox::Item>& items = boxes[b]->items_;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i + 1 < items.size()) __builtin_prefetch(items[i + 1].slot, 1);
      commit(items[i].slot, items[i].cat);
    }
    items.clear();
  }
  flush_active_ = false;
  // One deduplicated rekey pass per destination, in first-commit order
  // (the drivers only fold these into a min).
  for (NodeId dst : flush_touched_) {
    flush_touched_mark_[static_cast<std::size_t>(dst)] = 0;
    if (on_deliverable_) on_deliverable_(dst);
  }
  flush_touched_.clear();
}

Packet* Network::poll(NodeId dst, sim::Instr now, bool* was_dup) {
  auto& q = queues_[idx(dst)];
  if (q.empty() || q.top().arrive > now) return nullptr;
  Packet* slot = q.top().slot;
  q.pop();
  if (was_dup != nullptr) *was_dup = false;
  if (fault_plan_ != nullptr) {
    // Only each packet's first copy is dispatched; the commit marked the
    // retransmits and network duplicates, which are reported back so the
    // caller charges the handler cost and discards. The counters are owned
    // by the worker polling `dst`; the window barrier orders the commit's
    // mark before this read, as it does arrive_time.
    DstFaultState& st = dst_fault_[idx(dst)];
    if (slot->dup) {
      st.dup_suppressed += 1;
      if (was_dup != nullptr) *was_dup = true;
    } else {
      st.delivered += 1;
    }
  }
  return slot;
}

bool Network::poll(NodeId dst, sim::Instr now, Packet& out, bool* was_dup) {
  Packet* slot = poll(dst, now, was_dup);
  if (slot == nullptr) return false;
  out = *slot;
  release(dst, slot);
  return true;
}

FaultStats Network::fault_stats() const {
  FaultStats total = fault_commit_;
  for (const DstFaultState& st : dst_fault_) {
    total.delivered += st.delivered;
    total.dup_suppressed += st.dup_suppressed;
  }
  return total;
}

std::uint64_t Network::in_flight() const {
  std::uint64_t n = 0;
  for (const DstQueue& q : queues_) n += q.size();
  return n;
}

sim::Instr Network::next_arrival(NodeId dst) const {
  const auto& q = queues_[static_cast<std::size_t>(dst)];
  return q.empty() ? sim::kInstrInf : q.top().arrive;
}

}  // namespace abcl::net
