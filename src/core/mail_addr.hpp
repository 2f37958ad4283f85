// Mail addresses (Section 5.2).
//
// A mail address is the pair (processor number, real pointer) — no export
// tables, no indirection. Inside the simulator all node heaps share one
// process address space, so the "real pointer" is a genuine ObjectHeader*
// even when it denotes an object owned by another node; dereferencing it
// from the wrong node is a runtime bug the core asserts against.
#pragma once

#include "core/types.hpp"

namespace abcl::core {

// Both address structs spell out their padding word and keep it zero: they
// are copied from the stack into node heaps (frames, object state), and an
// implicit padding hole would carry whatever the stack held there into the
// arena images a checkpoint writes verbatim — bytes that differ between the
// serial and the parallel driver.
struct MailAddr {
  NodeId node = -1;
  std::int32_t pad_ = 0;
  ObjectHeader* ptr = nullptr;

  constexpr MailAddr() = default;
  constexpr MailAddr(NodeId n, ObjectHeader* p) : node(n), ptr(p) {}

  constexpr bool is_nil() const { return ptr == nullptr; }

  friend constexpr bool operator==(const MailAddr& a, const MailAddr& b) {
    return a.node == b.node && a.ptr == b.ptr;
  }
  friend constexpr bool operator!=(const MailAddr& a, const MailAddr& b) {
    return !(a == b);
  }

  // Packing for message payloads: two words.
  Word word_node() const { return static_cast<Word>(static_cast<std::uint32_t>(node)); }
  Word word_ptr() const { return reinterpret_cast<Word>(ptr); }
  static MailAddr from_words(Word wn, Word wp) {
    return MailAddr{static_cast<NodeId>(static_cast<std::uint32_t>(wn)),
                    reinterpret_cast<ObjectHeader*>(wp)};
  }
};

inline constexpr MailAddr kNilAddr{};

// Reply destination (Section 2.2): where the reply of a now-type message is
// delivered. It names a reply box, which is itself remotely addressable —
// reply destinations can be passed to third parties, so replies need not
// come from the original receiver.
struct ReplyDest {
  NodeId node = -1;
  std::int32_t pad_ = 0;
  ReplyBox* box = nullptr;

  constexpr ReplyDest() = default;
  constexpr ReplyDest(NodeId n, ReplyBox* b) : node(n), box(b) {}

  constexpr bool is_nil() const { return box == nullptr; }

  Word word_node() const { return static_cast<Word>(static_cast<std::uint32_t>(node)); }
  Word word_box() const { return reinterpret_cast<Word>(box); }
  static ReplyDest from_words(Word wn, Word wb) {
    return ReplyDest{static_cast<NodeId>(static_cast<std::uint32_t>(wn)),
                     reinterpret_cast<ReplyBox*>(wb)};
  }
};

inline constexpr ReplyDest kNilReply{};

}  // namespace abcl::core
