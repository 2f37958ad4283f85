// Deterministic world snapshots: stream framing and integrity.
//
// A snapshot is a versioned binary image of the entire simulated world,
// captured between driver runs (a quantum boundary, where all state is a
// pure function of simulated history — no worker outboxes, no half-run
// windows, no host artifacts). The format is same-process, same-platform by
// design: checkpointable worlds place every node heap in a fixed-base
// reserved arena (util/arena.hpp), the snapshot carries the raw arena
// images, and restore re-maps them at their recorded bases — so every
// pointer embedded in simulated state (frame links, freelists, MailAddrs
// inside opaque user payloads) stays valid verbatim. Handler and pattern
// ids are validated against the restoring Program via a fingerprint; code
// pointers (vftps, entry functions) are process pointers and require the
// same finalized Program, exactly like live migration's resume_entry words.
// Restore checks every object header's vftp against the Program's tables
// and every spilled frame's resume entry against its methods' entries.
//
// Integrity contract ("never a partial world"): Reader drains the whole
// stream and verifies magic, version, fingerprint, length and checksum
// before a single field is handed to the deserializers. A truncated or
// corrupted snapshot dies with a "checkpoint restore:" diagnostic; it can
// not leave a half-built World behind.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace abcl::ckpt {

// "ABCLCKPT" little-endian; bump kVersion on any layout change.
inline constexpr std::uint64_t kMagic = 0x54504b434c434241ull;
inline constexpr std::uint32_t kVersion = 11;

// ---------------------------------------------------------------------------
// Byte transport
// ---------------------------------------------------------------------------

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(const void* p, std::size_t n) = 0;
};

class Source {
 public:
  virtual ~Source() = default;
  // Returns bytes actually read; < n means end of stream.
  virtual std::size_t read(void* p, std::size_t n) = 0;
};

class MemSink : public Sink {
 public:
  void write(const void* p, std::size_t n) override {
    bytes_.append(static_cast<const char*>(p), n);
  }
  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

class MemSource : public Source {
 public:
  explicit MemSource(std::string bytes) : bytes_(std::move(bytes)) {}
  std::size_t read(void* p, std::size_t n) override {
    std::size_t take = bytes_.size() - pos_ < n ? bytes_.size() - pos_ : n;
    std::memcpy(p, bytes_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

// File variants die with a diagnostic on I/O errors (a checkpoint that
// silently wrote nothing is worse than no checkpoint).
class FileSink : public Sink {
 public:
  explicit FileSink(const std::string& path);
  ~FileSink() override;
  void write(const void* p, std::size_t n) override;

 private:
  void* f_;
  std::string path_;
};

class FileSource : public Source {
 public:
  explicit FileSource(const std::string& path);
  ~FileSource() override;
  std::size_t read(void* p, std::size_t n) override;

 private:
  void* f_;
};

// ---------------------------------------------------------------------------
// Framed writer / reader
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

// The payload checksum in the snapshot header: FNV-1a folded over the
// payload's 8-byte words (native byte order, little-endian on every
// supported host), then byte by byte over the tail. Each word step
// h <- (h ^ w) * p mod 2^64 is a bijection of h (p is odd), so a change to
// any one word still changes the sum, at an eighth of the byte-wise cost.
std::uint64_t checksum(const void* p, std::size_t n);

// Archive interface. Writer and Reader have the same members, and each
// takes a field by reference at the wire width the format gives it: the
// Writer writes the field, the Reader reads into it. One `template <class
// Ar>` function per snapshot section (ckpt/world_io.cpp) therefore spells
// the layout once for capture and restore; `Ar::kLoading` guards what only
// restore does (build, check). u32/u64/i64 convert integer and enum fields
// to and from their wire word and carry pointers as address words. A field
// narrower than its wire word whose value restore must check goes through
// a local word of the wire width, checked before it is narrowed.
namespace wire {

template <class W, class T>
W to_word(const T& v) {
  if constexpr (std::is_pointer_v<T>) {
    return static_cast<W>(reinterpret_cast<std::uintptr_t>(v));
  } else {
    return static_cast<W>(v);
  }
}

template <class T, class W>
T from_word(W w) {
  if constexpr (std::is_pointer_v<T>) {
    return reinterpret_cast<T>(static_cast<std::uintptr_t>(w));
  } else {
    return static_cast<T>(w);
  }
}

// The default `keep` of Writer::map: every entry.
struct Always {
  template <class V>
  bool operator()(const V&) const {
    return true;
  }
};

}  // namespace wire

class Writer {
 public:
  static constexpr bool kLoading = false;

  template <class T>
  void u32(const T& v) {
    raw(wire::to_word<std::uint32_t>(v));
  }
  template <class T>
  void u64(const T& v) {
    raw(wire::to_word<std::uint64_t>(v));
  }
  template <class T>
  void i64(const T& v) {
    raw(wire::to_word<std::int64_t>(v));
  }
  void b(const bool& v) { raw(static_cast<std::uint8_t>(v ? 1 : 0)); }
  template <class T>
  void raw(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  // The n bytes at p (the Reader points p at them in its payload instead
  // of copying: arena images are the one genuinely large section).
  void image(const void* const& p, std::size_t n) { bytes(p, n); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  // A counted sequence: the element count as a u64, then f(element) for
  // each element in order.
  template <class C, class F>
  void seq(const C& c, F&& f) {
    u64(c.size());
    for (const auto& e : c) f(e);
  }

  // A keyed map in ascending key order, so the bytes are a function of the
  // map's contents alone: the count of entries `keep` accepts, then per
  // entry its key as a u64 and f(key, value). Keys are unique words
  // (integers or pointers).
  template <class M, class F, class Keep = wire::Always>
  void map(const M& m, F&& f, Keep keep = {}) {
    std::vector<std::pair<std::uint64_t, const typename M::value_type*>> kv;
    kv.reserve(m.size());
    for (const auto& e : m) {
      if (keep(e.second)) {
        kv.emplace_back(wire::to_word<std::uint64_t>(e.first), &e);
      }
    }
    std::sort(kv.begin(), kv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    u64(kv.size());
    for (const auto& [k, e] : kv) {
      u64(k);
      f(e->first, e->second);
    }
  }

  // Emits header (magic, version, fingerprint, payload length, checksum)
  // followed by the payload.
  void finish(std::uint64_t program_fingerprint, Sink& sink) const;

 private:
  std::string buf_;
};

class Reader {
 public:
  static constexpr bool kLoading = true;

  // Drains `src` and verifies the full frame up front (see file comment).
  Reader(Source& src, std::uint64_t program_fingerprint);

  template <class T>
  void u32(T& v) {
    v = wire::from_word<T>(word<std::uint32_t>());
  }
  template <class T>
  void u64(T& v) {
    v = wire::from_word<T>(word<std::uint64_t>());
  }
  template <class T>
  void i64(T& v) {
    v = wire::from_word<T>(word<std::int64_t>());
  }
  void b(bool& v) { v = word<std::uint8_t>() != 0; }
  // Bytewise restore into the exact object the Writer serialized from.
  // Structs with padding (has_unique_object_representations_v == false)
  // MUST be loaded this way, not by assigning a temporary: assigning a
  // trivially-copyable temporary is not guaranteed to copy padding bytes,
  // and a recapture of the restored world would then differ from the
  // original snapshot in indeterminate padding (seen as ASan's 0xbe fill).
  template <class T>
  void raw(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void bytes(void* p, std::size_t n) {
    std::memcpy(p, view(n), n);
  }
  // Points p at the next n payload bytes (zero-copy; see Writer::image).
  void image(const void*& p, std::size_t n) { p = view(n); }
  void str(std::string& s) {
    const std::uint64_t n = count();
    s.assign(static_cast<const char*>(view(n)), n);
  }

  // Reads the count, then f(element) for each of that many elements
  // appended to c.
  template <class C, class F>
  void seq(C& c, F&& f) {
    const std::uint64_t n = count();
    c.reserve(c.size() + n);
    for (std::uint64_t i = 0; i < n; ++i) f(c.emplace_back());
  }

  // Reads the count, then per entry its key and f(key, m[key]). Keys must
  // ascend strictly, as the Writer wrote them: a repeated or reordered key
  // is not a snapshot the Writer made. `keep` only filters what is written.
  template <class M, class F, class Keep = wire::Always>
  void map(M& m, F&& f, Keep = {}) {
    using K = typename M::key_type;
    const std::uint64_t n = count();
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t k = word<std::uint64_t>();
      ABCL_CHECK_MSG(i == 0 || k > prev,
                     ("checkpoint restore: map key " + std::to_string(k) +
                      " does not ascend past " + std::to_string(prev) +
                      " (layout mismatch)")
                         .c_str());
      prev = k;
      const K key = wire::from_word<K>(k);
      f(key, m[key]);
    }
  }

  // Payload bytes not yet read.
  std::size_t left() const { return payload_.size() - pos_; }

  // Every byte must be consumed: trailing garbage means reader and writer
  // disagree about the layout.
  void expect_end() const {
    ABCL_CHECK_MSG(pos_ == payload_.size(),
                   "checkpoint restore: trailing bytes after the last "
                   "section (layout mismatch)");
  }

 private:
  template <class W>
  W word() {
    W v{};
    bytes(&v, sizeof v);
    return v;
  }
  // A count of elements that each take at least one payload byte: a
  // forged count fails here instead of reserving its size.
  std::uint64_t count() {
    const std::uint64_t n = word<std::uint64_t>();
    ABCL_CHECK_MSG(n <= left(),
                   "checkpoint restore: truncated stream (payload section "
                   "shorter than its own framing)");
    return n;
  }
  // Zero-copy window into the payload.
  const void* view(std::size_t n) {
    ABCL_CHECK_MSG(left() >= n,
                   "checkpoint restore: truncated stream (payload section "
                   "shorter than its own framing)");
    const void* p = payload_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string payload_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// ABCLSIM_CHECKPOINT — "at=T[,path=FILE]" or "off"
// ---------------------------------------------------------------------------

struct CheckpointConfig {
  bool enabled = false;
  sim::Instr at = 0;  // simulated boundary where run() stops and captures
  std::string path;   // snapshot destination; empty = caller-driven capture

  bool operator==(const CheckpointConfig&) const = default;
};

bool validate_checkpoint_config(const CheckpointConfig& cfg, std::string* err);

// Strict parser behind ABCLSIM_CHECKPOINT (util::SpecParser grammar).
// nullptr / empty / "off" -> disabled. Garbage never silently disables.
std::optional<CheckpointConfig> parse_checkpoint_spec(const char* text,
                                                      std::string* err);

// Canonical rendering; parse_checkpoint_spec(to_string(cfg)) round-trips.
std::string to_string(const CheckpointConfig& cfg);

// The restore half of World::checkpoint lives on World itself
// (abcl/machine_api.hpp); WorldIo is the serializer with friend access to
// the runtime's internals (src/ckpt/world_io.cpp).
struct WorldIo;

}  // namespace abcl::ckpt
