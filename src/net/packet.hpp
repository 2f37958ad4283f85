// Network packets.
//
// A packet is a self-dispatching active message (Section 5.1): the handler
// id names the procedure that runs at the receiver the moment the packet is
// polled; the payload is untyped words whose layout the (specialized,
// per-pattern) handler knows statically — the paper's "tags are no longer
// necessary" property. In the simulator a packet lives in a PacketPool slot
// from its send to the end of its handler (net/packet_pool.hpp); the member
// initializers below only serve packets that tests and micro-benchmarks
// build on the stack.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace abcl::net {

using Word = std::uint64_t;
using HandlerId = std::uint16_t;
using sim::Instr;

inline constexpr int kMaxPacketWords = 24;

struct Packet {
  // The narrow fields lead, so the header packs into 40 bytes (2 of them
  // padding, after nwords) ahead of the payload; see the static_asserts.
  HandlerId handler = 0;
  // Which transmission attempt of the retry protocol this copy is (0 =
  // first try). Receiver-side observability only (kFaultRetry trace).
  std::uint16_t retries = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  // Set at commit on every delivery copy of a faulted packet after its
  // first (network duplicates and retransmits): the receiver pays the
  // handler cost and discards it. False on every other packet. Not priced
  // on the wire: the paper's 4 header words already carry sequencing.
  bool dup = false;
  std::uint8_t nwords = 0;
  Instr send_time = 0;
  Instr arrive_time = 0;
  // Per-source send order: the number of packets this src had sent before
  // this one. Same-instant arrivals at a destination are delivered in
  // (arrive_time, src, seq) order — a function of simulated quantities only,
  // never of the host driver's execution interleaving.
  std::uint64_t seq = 0;
  Word payload[kMaxPacketWords] = {};

  void push(Word w) {
    ABCL_CHECK_MSG(nwords < kMaxPacketWords, "packet payload overflow");
    payload[nwords++] = w;
  }

  Word at(int i) const {
    ABCL_DCHECK(i >= 0 && i < nwords);
    return payload[i];
  }

  // Total wire size in words: payload plus a fixed header (routing info,
  // handler id, destination object pointer all ride in 4 header words, as in
  // the paper's "4 words including routing information" minimal message).
  int wire_words() const { return nwords + 4; }
};

static_assert(offsetof(Packet, payload) == 40, "Packet header is 40 bytes");
static_assert(sizeof(Packet) == 232, "a Packet pool slot is 232 bytes");

// Copies `from`'s payload — its first nwords words, the only meaningful
// ones in a pool slot — into `to`.
inline void copy_payload(Packet& to, const Packet& from) {
  std::copy_n(from.payload, from.nwords, to.payload);
  to.nwords = from.nwords;
}

}  // namespace abcl::net
