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
                                 Options)
    : Driver(std::move(nodes)),
      net_(net),
      lookahead_(net != nullptr ? net->min_packet_latency() : 1),
      workers_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      ready_(nodes_.size(), workers_.size()),
      // On a single hardware thread, every spin cycle is stolen from the
      // thread being waited on — park immediately instead.
      spin_limit_(std::thread::hardware_concurrency() > 1 ? kSpinIters : 0) {
  ABCL_CHECK(lookahead_ > 0);
}

ParallelMachine::~ParallelMachine() {
  ABCL_CHECK(threads_.empty());  // threads only live inside run()
}

void ParallelMachine::run_shard(std::size_t me) {
  Worker& w = workers_[me];
  const Instr horizon = window_horizon_;
  const Instr max_time = window_max_time_;
  // A quantum runs iff key < horizon and key <= max_time.
  const Instr limit = max_time < horizon ? max_time + 1 : horizon;
  std::uint64_t active = 0;
  ReadySet::Entry e{};
  while (ready_.pop_below(me, limit, &e)) {
    NodeExec& n = *nodes_[static_cast<std::size_t>(e.node)];
    const std::uint64_t before = w.quanta;
    Instr key;
    while ((key = effective_key(n)) < limit) {
      if (n.clock() < key) n.advance_clock(key);
      n.step();
      ++w.quanta;
    }
    if (w.quanta != before) ++active;
    // The break-time key is the node's final key for this window: nothing
    // else touches the node until the flush, whose deliveries arrive
    // through notify_work. It is >= limit, so the loop never pops the node
    // again.
    ready_.push(e.node, key);
  }
  w.active = active;
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

void ParallelMachine::flush_commits() {
  if (net_ == nullptr) return;
  // Commit every buffered send; each source's sends sit in one outbox in
  // program order, which is all the commit state depends on.
  if (outbox_ptrs_.empty()) {
    for (auto& w : workers_) outbox_ptrs_.push_back(&w.outbox);
  }
  net_->flush_outboxes(outbox_ptrs_.data(), outbox_ptrs_.size());
}

void ParallelMachine::notify_work(NodeId dst) {
  ready_.push(dst, effective_key(*nodes_[static_cast<std::size_t>(dst)]));
}

Driver::RunReport ParallelMachine::run(Instr max_time) {
  // Interpose the owning worker's outbox and magazine on each node's sends.
  for (auto& w : workers_) w.quanta = 0;
  if (net_ != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      const auto id = static_cast<NodeId>(i);
      Worker& w = workers_[ready_.owner(id)];
      net_->set_outbox(id, &w.outbox);
      net_->set_magazine(id, &w.magazine);
    }
  }

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
    ++windows_;
  }

  if (threaded) {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lk(wake_mu_); }
    epoch_cv_.notify_all();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  // Restore the direct send path and the home magazine. Worker threads are
  // joined (or never existed), so draining their magazines back to the
  // depot from this thread is race-free.
  if (net_ != nullptr) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      net_->set_outbox(static_cast<NodeId>(i), nullptr);
      net_->set_magazine(static_cast<NodeId>(i), nullptr);
    }
    for (auto& w : workers_) net_->packet_pool().flush(w.magazine);
  }

  RunReport rep;
  for (auto& w : workers_) rep.quanta += w.quanta;
  for (NodeExec* n : nodes_) {
    if (n->clock() > rep.end_time) rep.end_time = n->clock();
  }
  return rep;
}

}  // namespace abcl::sim
