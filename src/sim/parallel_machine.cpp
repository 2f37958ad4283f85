#include "sim/parallel_machine.hpp"

#include <algorithm>
#include <barrier>
#include <thread>

#include "util/assert.hpp"

namespace abcl::sim {

ParallelMachine::ParallelMachine(std::vector<NodeExec*> nodes,
                                 net::Network* net, int num_threads,
                                 Options)
    : Driver(std::move(nodes)),
      net_(net),
      lookahead_(net != nullptr ? net->min_packet_latency() : 1),
      workers_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      ready_(nodes_.size(), workers_.size()) {
  ABCL_CHECK(lookahead_ > 0);
  for (Worker& w : workers_) outbox_ptrs_.push_back(&w.outbox);
}

void ParallelMachine::run_shard(std::size_t me) {
  Worker& w = workers_[me];
  // A quantum runs iff key < horizon and key <= max_time.
  const Instr limit = window_max_time_ < window_horizon_
                          ? window_max_time_ + 1
                          : window_horizon_;
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

void ParallelMachine::end_window() {
  // Commit every buffered send; each source's sends sit in one outbox in
  // program order, which is all the commit state depends on.
  if (net_ != nullptr) {
    net_->flush_outboxes(outbox_ptrs_.data(), outbox_ptrs_.size());
  }
  // The shard tops hold every node's post-flush key: each participant
  // re-entered what it popped, and the flush's deliveries entered through
  // notify_work.
  Instr min_key = kInstrInf;
  for (std::size_t me = 0; me < workers_.size(); ++me) {
    min_key = std::min(min_key, ready_.top(me));
    occupancy_sum_ += workers_[me].active;
  }
  ++windows_;
  start_window(min_key);
}

void ParallelMachine::start_window(Instr min_key) {
  finished_ = min_key == kInstrInf || min_key > window_max_time_;
  window_horizon_ = sat_add(min_key, lookahead_);
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

  // Re-seed every shard's set from one full scan, as the serial driver
  // re-seeds its ready set: nothing a previous run(), boot() or restore
  // left behind is trusted. Afterwards the sets are maintained
  // incrementally — each participant re-enters the nodes it popped and
  // flush-time deliveries enter through notify_work.
  ready_.clear();
  Instr min_key = kInstrInf;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Instr k = effective_key(*nodes_[i]);
    ready_.push(static_cast<NodeId>(i), k);
    if (k < min_key) min_key = k;
  }
  window_max_time_ = max_time;
  start_window(min_key);

  if (!finished_) {
    std::barrier sync(static_cast<std::ptrdiff_t>(workers_.size()),
                      [this]() noexcept { end_window(); });
    auto participate = [this, &sync](std::size_t me) {
      do {
        run_shard(me);
        sync.arrive_and_wait();
      } while (!finished_);
    };
    std::vector<std::jthread> threads;
    threads.reserve(workers_.size() - 1);
    for (std::size_t me = 1; me < workers_.size(); ++me) {
      threads.emplace_back(participate, me);
    }
    participate(0);
  }  // joins the spawned participants

  // Restore the direct send path and the home magazine. The spawned
  // participants are joined, so draining their magazines back to the depot
  // from this thread is race-free.
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
