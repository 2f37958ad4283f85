// A Program bundles everything "the compiler generated": the pattern
// registry, class infos with their multiple virtual function tables, and
// the active-message handler table (one specialized handler per message
// pattern — Category 1; one per class for creation — Category 2; one per
// chunk size class for replenishment — Category 3; services — Category 4).
//
// Programs are built once, finalized, then shared read-only by every node.
#pragma once

#include <memory>
#include <vector>

#include "core/pattern.hpp"
#include "core/vft.hpp"
#include "net/active_message.hpp"
#include "util/arena.hpp"

namespace abcl::core {

class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  PatternRegistry& patterns() { return patterns_; }
  const PatternRegistry& patterns() const { return patterns_; }

  net::AmRegistry& am() { return am_; }
  const net::AmRegistry& am() const { return am_; }

  // Registers a class shell; methods/wait sites are filled in by the
  // abcl::ClassDef builder before finalize().
  ClassInfo& add_class(std::string name);

  const ClassInfo& cls(ClassId id) const {
    ABCL_CHECK(id < classes_.size());
    return *classes_[id];
  }
  std::size_t num_classes() const { return classes_.size(); }

  // Freezes the pattern registry, builds every class's tables and the shared
  // fault table, and registers the active-message handlers.
  void finalize();
  bool finalized() const { return finalized_; }

  const Vft& fault_vft() const { return fault_vft_; }

  // True iff `v` is one of this Program's tables: a class's dormant,
  // active, lazy-init or wait-site table, or the fault table. A restore
  // checks every object header's vftp with it.
  bool has_vft(const Vft* v) const;
  // True iff `r` is the resume entry of one of this Program's methods
  // (MethodInfo::resume). A restore checks every spilled frame's with it.
  bool has_resume(ResumeFn r) const;

  // Active-message handler id blocks (valid after finalize()).
  net::HandlerId h_obj_msg(PatternId p) const {
    return static_cast<net::HandlerId>(h_obj_msg_base_ + p);
  }
  net::HandlerId h_create(ClassId c) const {
    return static_cast<net::HandlerId>(h_create_base_ + c);
  }
  net::HandlerId h_replenish(std::uint16_t size_class) const {
    return static_cast<net::HandlerId>(h_replenish_base_ + size_class);
  }
  net::HandlerId h_reply() const { return h_reply_; }
  net::HandlerId h_alloc_request() const { return h_alloc_request_; }
  net::HandlerId h_load_gossip() const { return h_load_gossip_; }
  // Live-migration protocol (Category 4 services; see remote/migration.hpp).
  net::HandlerId h_migrate_start() const { return h_migrate_start_; }
  net::HandlerId h_migrate_frag() const { return h_migrate_frag_; }
  net::HandlerId h_migrate_done() const { return h_migrate_done_; }
  net::HandlerId h_update_addr() const { return h_update_addr_; }
  net::HandlerId h_update_stub() const { return h_update_stub_; }
  net::HandlerId h_flush_marker() const { return h_flush_marker_; }
  net::HandlerId h_flush_ack() const { return h_flush_ack_; }

  PatternId pattern_of_handler(net::HandlerId h) const {
    return static_cast<PatternId>(h - h_obj_msg_base_);
  }
  ClassId class_of_handler(net::HandlerId h) const {
    return static_cast<ClassId>(h - h_create_base_);
  }
  std::uint16_t size_class_of_handler(net::HandlerId h) const {
    return static_cast<std::uint16_t>(h - h_replenish_base_);
  }

 private:
  friend void register_builtin_handlers(Program& prog);

  PatternRegistry patterns_;
  net::AmRegistry am_;
  std::vector<std::unique_ptr<ClassInfo>> classes_;
  Vft fault_vft_;
  bool finalized_ = false;

  net::HandlerId h_obj_msg_base_ = 0;
  net::HandlerId h_create_base_ = 0;
  net::HandlerId h_replenish_base_ = 0;
  net::HandlerId h_reply_ = 0;
  net::HandlerId h_alloc_request_ = 0;
  net::HandlerId h_load_gossip_ = 0;
  net::HandlerId h_migrate_start_ = 0;
  net::HandlerId h_migrate_frag_ = 0;
  net::HandlerId h_migrate_done_ = 0;
  net::HandlerId h_update_addr_ = 0;
  net::HandlerId h_update_stub_ = 0;
  net::HandlerId h_flush_marker_ = 0;
  net::HandlerId h_flush_ack_ = 0;
};

}  // namespace abcl::core
