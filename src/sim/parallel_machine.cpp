#include "sim/parallel_machine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace abcl::sim {

namespace {
// Busy-wait burst before a parked wait. Long enough that a window whose
// work is already in flight completes without a futex round-trip, short
// enough that an idle or oversubscribed thread yields the core quickly.
constexpr int kSpinIters = 2048;
}  // namespace

ParallelMachine::ParallelMachine(std::vector<NodeExec*> nodes,
                                 net::Network* net, int num_threads,
                                 Options opts)
    : Driver(std::move(nodes)),
      net_(net),
      lookahead_(net != nullptr ? net->min_packet_latency() : 1),
      workers_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      distance_(opts.horizon == HorizonKind::kDistance && net != nullptr &&
                !net->faults_enabled()),
      ready_(nodes_.size(), workers_.size()),
      // On a single hardware thread, every spin cycle is stolen from the
      // thread being waited on — park immediately instead.
      spin_limit_(std::thread::hardware_concurrency() > 1 ? kSpinIters : 0) {
  ABCL_CHECK(lookahead_ > 0);
  // Static round-robin shard: node i -> worker i mod T. Any fixed
  // assignment preserves determinism; round-robin balances the common case
  // where load correlates with id ranges.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ready_.set_owner(static_cast<NodeId>(i), i % workers_.size());
  }
  if (distance_) {
    hmap_ = std::make_unique<HorizonMap>(&net_->topology(),
                                         net_->cost_model().per_hop);
    // Per-pair price floor is raw_wire + hops * per_hop. The *unclamped*
    // raw wire floor must be used here: with a zero-cost wire the commit
    // path clamps the whole priced latency (hops included) up to 1, so
    // adding the clamped lookahead on top of the hop term would overshoot
    // the real price. Positivity for j != i follows from the network's
    // ctor invariant wire_latency + per_hop > 0 and hops >= 1.
    dist_base_ = net_->min_packet_latency_raw();
    horizons_.assign(nodes_.size(), 0);
  }
  if (opts.shard == ShardKind::kBalanced && workers_.size() > 1) {
    balancer_ = std::make_unique<ShardBalancer>(
        static_cast<std::int32_t>(nodes_.size()),
        static_cast<int>(workers_.size()), opts.seed);
    window_quanta_.assign(nodes_.size(), 0);
  }
}

ParallelMachine::~ParallelMachine() {
  ABCL_CHECK(threads_.empty());  // threads only live inside run()
}

void ParallelMachine::run_shard(std::size_t me) {
  Worker& w = workers_[me];
  const Instr global_horizon = window_horizon_;
  const Instr max_time = window_max_time_;
  const bool distance = distance_;
  const bool balanced = balancer_ != nullptr;
  // Only nodes keyed below the shard's widest horizon can run; each popped
  // node then runs to its own horizon.
  Instr limit = distance ? w.max_horizon : global_horizon;
  if (max_time < limit) limit = max_time + 1;
  std::uint64_t active = 0;
  ReadySet::Entry e{};
  while (ready_.pop_below(me, limit, &e)) {
    const auto idx = static_cast<std::size_t>(e.node);
    NodeExec& n = *nodes_[idx];
    const Instr horizon = distance ? horizons_[idx] : global_horizon;
    const std::uint64_t before = w.quanta;
    Instr key;
    while (true) {
      key = effective_key(n);
      if (key >= horizon || key > max_time) break;
      if (n.clock() < key) n.advance_clock(key);
      w.outbox.set_current_key(key);
      w.traces.set_current_key(key);
      n.step();
      ++w.quanta;
    }
    if (w.quanta != before) ++active;
    if (balanced) window_quanta_[idx] += w.quanta - before;
    w.popped.push_back(ReadySet::Entry{key, e.node});
  }
  // The break-time key is the node's final key for this window: nothing
  // else touches the node until the flush, whose deliveries arrive through
  // notify_work. Re-entering popped nodes only now keeps a node that stopped
  // at its own (distance) horizon from being popped again this window.
  for (const ReadySet::Entry& p : w.popped) ready_.push(p.node, p.key);
  w.popped.clear();
  w.active = active;
  // Pre-sort this worker's run inside the parallel region so the barrier
  // flush only has to merge. Skipped under the kSort ablation, which
  // measures the old coordinator-side global sort.
  if (net_ != nullptr && net_->flush_kind() == net::FlushKind::kMerge) {
    w.outbox.sort_canonical();
  }
}

void ParallelMachine::worker_main(std::size_t me) {
  Worker& w = workers_[me];
  std::uint64_t seen = 0;
  while (true) {
    std::uint64_t e;
    int spins = 0;
    while ((e = epoch_.load(std::memory_order_acquire)) == seen) {
      if (++spins >= spin_limit_) {
        std::unique_lock<std::mutex> lk(wake_mu_);
        epoch_cv_.wait(lk, [&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        });
        break;
      }
    }
    e = epoch_.load(std::memory_order_acquire);
    seen = e;
    if (stop_.load(std::memory_order_acquire)) return;
    run_shard(me);
    w.done.store(e, std::memory_order_release);
    // Empty critical section: orders the store above before the notify so
    // a coordinator observing an old `done` under wake_mu_ cannot miss it.
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    done_cv_.notify_one();
  }
}

void ParallelMachine::compute_horizons() {
  const std::vector<Instr>& keys = ready_.keys();
  hmap_->relax(keys, &node_bound_);
  horizons_.resize(node_bound_.size());
  for (auto& w : workers_) w.max_horizon = 0;
  for (std::size_t i = 0; i < node_bound_.size(); ++i) {
    // Fold the node's own key back in with hops = 0: the runtime does emit
    // genuine self-packets (e.g. a remote-create whose placement picks the
    // caller's node), and those travel through Network::send with the same
    // wire floor as any other packet. Excluding the self term would let a
    // node run past the arrival of a packet it has not sent yet.
    horizons_[i] = sat_add(std::min(node_bound_[i], keys[i]), dist_base_);
    // Absent nodes are never popped, so only present ones widen the
    // shard's pop limit.
    if (keys[i] == kInstrInf) continue;
    Instr& widest = workers_[ready_.owner(static_cast<NodeId>(i))].max_horizon;
    if (horizons_[i] > widest) widest = horizons_[i];
  }
}

void ParallelMachine::flush_commits() {
  if (net_ == nullptr) return;
  // Commit every buffered send in canonical (quantum key, src) order —
  // the exact order the serial driver would have issued them.
  if (outbox_ptrs_.empty()) {
    for (auto& w : workers_) outbox_ptrs_.push_back(&w.outbox);
  }
  net_->flush_outboxes(outbox_ptrs_.data(), outbox_ptrs_.size());
}

void ParallelMachine::replay_traces(Instr frontier) {
  const std::size_t carry = trace_merge_.size();
  for (auto& w : workers_) {
    trace_merge_.insert(trace_merge_.end(), w.traces.items_.begin(),
                        w.traces.items_.end());
    w.traces.items_.clear();
  }
  if (trace_merge_.empty()) return;
  // Serial execution order is ascending (quantum key, node); each node's
  // events live in one worker's buffer in program order, which the stable
  // sort preserves. The carried suffix from earlier windows is already
  // sorted and precedes this window's events of any equal (key, node) in
  // program order, so the merge keeps it first.
  auto cmp = [](const WindowTraceBuffer::Tagged& a,
                const WindowTraceBuffer::Tagged& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.ev.node < b.ev.node;
  };
  if (trace_merge_.size() > carry) {
    std::stable_sort(
        trace_merge_.begin() + static_cast<std::ptrdiff_t>(carry),
        trace_merge_.end(), cmp);
    if (carry > 0) {
      std::inplace_merge(trace_merge_.begin(),
                         trace_merge_.begin() +
                             static_cast<std::ptrdiff_t>(carry),
                         trace_merge_.end(), cmp);
    }
  }
  // Replay everything strictly below the next window's floor key: no later
  // window can produce an event below it. Under the flat horizon that is
  // always the whole buffer; under distance horizons the remainder carries.
  std::size_t n = 0;
  while (n < trace_merge_.size() && trace_merge_[n].key < frontier) {
    const auto& t = trace_merge_[n];
    Tracer* dst = saved_tracers_[static_cast<std::size_t>(t.ev.node)];
    if (dst != nullptr) dst->record(t.ev.t, t.ev.node, t.ev.kind, t.ev.payload);
    ++n;
  }
  trace_merge_.erase(trace_merge_.begin(),
                     trace_merge_.begin() + static_cast<std::ptrdiff_t>(n));
}

void ParallelMachine::install_node(NodeId id) {
  Worker& w = workers_[ready_.owner(id)];
  if (saved_tracers_[static_cast<std::size_t>(id)] != nullptr) {
    nodes_[static_cast<std::size_t>(id)]->swap_tracer(&w.traces);
  }
  if (net_ != nullptr) {
    net_->set_outbox(id, &w.outbox);
    net_->set_poll_magazine(id, &w.magazine);
  }
}

void ParallelMachine::apply_rebalance() {
  const int moved = balancer_->rebalance(window_quanta_.data());
  if (moved == 0) return;
  rebalances_ += 1;
  shard_moves_ += static_cast<std::uint64_t>(moved);
  // Hand each moved node to its new worker: its ready-set entry (the old
  // shard's copy goes stale) and its outbox, poll magazine and trace buffer.
  // Outboxes and trace buffers are drained at this point — the barrier's
  // flush and replay just ran — so moving a node never splits its program
  // order across two buffers within one window.
  const auto& asg = balancer_->assignment();
  for (std::size_t i = 0; i < asg.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    const auto to = static_cast<std::size_t>(asg[i]);
    if (ready_.owner(id) == to) continue;
    ready_.set_owner(id, to);
    install_node(id);
  }
}

void ParallelMachine::notify_work(NodeId dst) {
  ready_.push(dst, effective_key(*nodes_[static_cast<std::size_t>(dst)]));
}

Driver::RunReport ParallelMachine::run(Instr max_time) {
  // Interpose per-worker outboxes and trace buffers. Nodes without a tracer
  // keep none (recording into a buffer nobody replays would cost time).
  saved_tracers_.assign(nodes_.size(), nullptr);
  for (auto& w : workers_) w.quanta = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    saved_tracers_[i] = nodes_[i]->swap_tracer(nullptr);
    install_node(static_cast<NodeId>(i));
  }
  if (net_ != nullptr) net_->set_windowed_stats(true);

  const bool threaded = workers_.size() > 1;
  if (threaded) {
    epoch_.store(0, std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    for (auto& w : workers_) w.done.store(0, std::memory_order_relaxed);
    threads_.reserve(workers_.size());
    for (std::size_t me = 0; me < workers_.size(); ++me) {
      threads_.emplace_back([this, me] { worker_main(me); });
    }
  }

  // Re-seed every shard's set from one full scan, as the serial driver
  // re-seeds its ready set: nothing a previous run(), boot() or restore
  // left behind is trusted. Afterwards the sets are maintained
  // incrementally — each worker re-enters the nodes it popped and
  // flush-time deliveries enter through notify_work.
  ready_.clear();
  Instr min_key = kInstrInf;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Instr k = effective_key(*nodes_[i]);
    ready_.push(static_cast<NodeId>(i), k);
    if (k < min_key) min_key = k;
  }

  while (min_key != kInstrInf && min_key <= max_time) {
    window_horizon_ = sat_add(min_key, lookahead_);
    window_max_time_ = max_time;
    if (distance_) compute_horizons();

    if (threaded) {
      std::uint64_t e = epoch_.fetch_add(1, std::memory_order_release) + 1;
      { std::lock_guard<std::mutex> lk(wake_mu_); }
      epoch_cv_.notify_all();
      for (auto& w : workers_) {
        int spins = 0;
        while (w.done.load(std::memory_order_acquire) != e) {
          if (++spins >= spin_limit_) {
            std::unique_lock<std::mutex> lk(wake_mu_);
            done_cv_.wait(lk, [&] {
              return w.done.load(std::memory_order_acquire) == e;
            });
            break;
          }
        }
      }
    } else {
      run_shard(0);
    }

    flush_commits();
    // The shard tops hold every node's post-flush key: each worker
    // re-entered what it popped, and the flush's deliveries entered through
    // notify_work.
    min_key = kInstrInf;
    for (std::size_t me = 0; me < workers_.size(); ++me) {
      min_key = std::min(min_key, ready_.top(me));
      occupancy_sum_ += workers_[me].active;
    }
    // min_key is the next window's floor: every later quantum (and so every
    // later send or trace event) carries a key >= it. Release the deferred
    // order-sensitive observables up to that frontier.
    if (net_ != nullptr) net_->drain_deferred_wire_stats(min_key);
    replay_traces(min_key);
    ++windows_;
    if (balancer_ != nullptr) apply_rebalance();
  }

  if (threaded) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    epoch_cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  // Exiting the loop means min_key exceeded max_time (or went infinite);
  // every executed quantum had key <= max_time < that final frontier, so
  // both reorder buffers drained completely.
  if (net_ != nullptr) {
    ABCL_CHECK(net_->deferred_wire_samples() == 0);
    net_->set_windowed_stats(false);
  }
  ABCL_CHECK(trace_merge_.empty());

  // Restore tracers and the direct send/release paths. Worker threads are
  // joined (or never existed), so draining their magazines back to the
  // depot from this thread is race-free.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (Tracer* orig = saved_tracers_[i]) nodes_[i]->swap_tracer(orig);
    if (net_ != nullptr) {
      net_->set_outbox(static_cast<NodeId>(i), nullptr);
      net_->set_poll_magazine(static_cast<NodeId>(i), nullptr);
    }
  }
  if (net_ != nullptr) {
    for (auto& w : workers_) net_->packet_pool().flush(w.magazine);
  }

  RunReport rep;
  for (auto& w : workers_) {
    rep.quanta += w.quanta;
  }
  quanta_ += rep.quanta;
  for (NodeExec* n : nodes_) {
    if (n->clock() > rep.end_time) rep.end_time = n->clock();
  }
  return rep;
}

}  // namespace abcl::sim
