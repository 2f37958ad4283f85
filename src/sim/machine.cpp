#include "sim/machine.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace abcl::sim {

Driver::Driver(std::vector<NodeExec*> nodes) : nodes_(std::move(nodes)) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    ABCL_CHECK(nodes_[i] != nullptr);
    ABCL_CHECK(nodes_[i]->node_id() == static_cast<NodeId>(i));
  }
}

ReadySet::ReadySet(std::size_t nodes, std::size_t shards)
    : key_(nodes, kInstrInf), owner_(nodes), shards_(shards) {
  ABCL_CHECK(shards >= 1);
  for (std::size_t i = 0; i < nodes; ++i) owner_[i] = i % shards;
}

void ReadySet::clear() {
  std::fill(key_.begin(), key_.end(), kInstrInf);
  for (Shard& s : shards_) s.queue.clear();
}

Machine::Machine(std::vector<NodeExec*> nodes)
    : Driver(std::move(nodes)), ready_(nodes_.size(), 1) {}

void Machine::push_node(NodeId id) {
  ready_.push(id, effective_key(*nodes_[static_cast<std::size_t>(id)]));
}

void Machine::notify_work(NodeId dst) { push_node(dst); }

Machine::RunReport Machine::run(Instr max_time) {
  // Seed: all nodes with work.
  for (std::size_t i = 0; i < nodes_.size(); ++i) push_node(static_cast<NodeId>(i));

  std::uint64_t ran = 0;
  ReadySet::Entry e{};
  while (ready_.pop_below(0, kInstrInf, &e)) {
    NodeExec& n = *nodes_[static_cast<std::size_t>(e.node)];
    Instr key = effective_key(n);
    if (key == kInstrInf) continue;  // became idle since insertion
    if (key > e.key) {
      // The node's earliest work moved later; re-queue at the new key.
      ready_.push(e.node, key);
      continue;
    }
    if (key > max_time) continue;

    if (n.clock() < key) n.advance_clock(key);
    ABCL_DCHECK(n.runnable());
    n.step();
    ++ran;
    push_node(e.node);  // re-insert if it still has (or regained) work
  }

  RunReport rep;
  rep.quanta = ran;
  for (NodeExec* n : nodes_) {
    if (n->clock() > rep.end_time) rep.end_time = n->clock();
  }
  return rep;
}

}  // namespace abcl::sim
