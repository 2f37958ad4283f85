// Multiple virtual function tables (Section 4.2).
//
// Each class owns several virtual function tables, one per object mode:
//   dormant    — entries are the method bodies; a message send to a dormant
//                object therefore *is* the method call (stack scheduling);
//   active     — entries are queuing procedures that buffer the message;
//   lazy-init  — entries initialize the state variables, then fall through
//                to the method body (local creation defers initialization
//                to the first message, avoiding a per-send "initialized?"
//                flag check);
//   waiting    — one table per selective-reception site: awaited patterns
//                restore the blocked context, the rest queue;
//   fault      — a single class-independent table, installed on pre-issued
//                remote chunks; all entries queue, so messages racing ahead
//                of the creation request are buffered safely.
//
// The sender never tests the receiver's mode: the mode is whichever table
// the receiver's VFTP points at, and the lookup is the (already necessary)
// dynamic method dispatch.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/frame.hpp"
#include "core/types.hpp"

namespace abcl::core {

// A dispatch entry: runs when a message with the indexing pattern is
// delivered to an object whose VFTP designates the containing table.
using EntryFn = Status (*)(NodeRuntime&, ObjectHeader*, const MsgView&);

// Continuation entry for a blocked object (resume saved frame).
using ResumeFn = Status (*)(NodeRuntime&, ObjectHeader*);

struct Vft {
  const ClassInfo* cls = nullptr;  // null for the shared fault table
  Mode mode = Mode::kDormant;
  std::int32_t wait_site = -1;     // >= 0 for waiting tables
  std::vector<EntryFn> entries;    // indexed by PatternId

  EntryFn entry(PatternId p) const {
    ABCL_DCHECK(p < entries.size());
    return entries[p];
  }
};

struct MethodInfo {
  EntryFn body = nullptr;   // dormant-mode entry (nullptr = not understood)
  // The continuation entry a blocked invocation of `body` leaves in its
  // spilled frame's CtxTrailer (core/dispatch.hpp).
  ResumeFn resume = nullptr;
  std::uint8_t arity = 0;
};

// One selective-reception site: the set of accepted patterns, and for each
// the copy-in procedure that lands the message's arguments into the blocked
// frame plus the continuation pc to resume at.
struct WaitSite {
  struct Accept {
    PatternId pattern = 0;
    // Type-erased: frame is the method's CtxFrame.
    void (*copy_in)(void* frame, const MsgView&) = nullptr;
    std::uint16_t resume_pc = 0;
  };

  std::vector<Accept> accepts;
  Vft vft;  // built at Program::finalize()

  const Accept* find(PatternId p) const {
    for (const auto& a : accepts) {
      if (a.pattern == p) return &a;
    }
    return nullptr;
  }
};

struct ClassInfo {
  ClassId id = 0;
  std::string name;
  std::uint32_t state_bytes = 0;
  std::uint32_t state_align = alignof(std::max_align_t);

  // Placement-constructs the state object (default ctor, then the class's
  // on_create hook with the creation-message arguments, if it has one).
  void (*construct)(void* storage, const MsgView& ctor_args) = nullptr;
  void (*destruct)(void* storage) = nullptr;

  std::vector<MethodInfo> methods;       // indexed by PatternId
  std::vector<std::unique_ptr<WaitSite>> wait_sites;

  Vft dormant;
  Vft active;
  Vft lazy_init;
  // The class opted into live migration (ClassDef::migratable()): its state
  // is trivially copyable/destructible, so a raw word copy of the state box
  // is a faithful transfer and the stale copy left at the old home needs no
  // teardown. Non-migratable objects are simply never shed.
  bool migratable = false;
  bool finalized = false;

  const MethodInfo* method(PatternId p) const {
    if (p >= methods.size() || methods[p].body == nullptr) return nullptr;
    return &methods[p];
  }
};

// Entry installed in every slot of every `active` table (and the fault
// table): buffers the message into the receiver's queue. Generic for all
// classes — the property the remote-creation scheme relies on (Section 5.2).
Status generic_queue_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m);

// Entry for patterns a class has no method for.
Status not_understood_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m);

// Entry of the lazy-init table: constructs the state variables from the
// stashed creation arguments, installs the dormant table, then dispatches
// the triggering message. Class-generic (construction is type-erased).
Status lazy_init_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m);

// Entry installed for accepted patterns in a waiting table: lands the
// message into the blocked frame via the site's copy-in, sets the
// continuation pc and resumes the object immediately (stack scheduling).
Status select_restore_entry(NodeRuntime& rt, ObjectHeader* o, const MsgView& m);

// The shared fault table (all queuing entries), sized to `npatterns`.
Vft make_fault_vft(std::size_t npatterns);

// Fills the per-class tables from `methods`/`wait_sites`. Called by
// Program::finalize() once the pattern registry is frozen.
void build_class_vfts(ClassInfo& cls, std::size_t npatterns);

}  // namespace abcl::core
