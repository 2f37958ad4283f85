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
//
// Integrity contract ("never a partial world"): Reader drains the whole
// stream and verifies magic, version, fingerprint, length and checksum
// before a single field is handed to the deserializers. A truncated or
// corrupted snapshot dies with a "checkpoint restore:" diagnostic; it can
// not leave a half-built World behind.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace abcl::ckpt {

// "ABCLCKPT" little-endian; bump kVersion on any layout change.
inline constexpr std::uint64_t kMagic = 0x54504b434c434241ull;
inline constexpr std::uint32_t kVersion = 10;

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

class Writer {
 public:
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  void i64(std::int64_t v) { raw(v); }
  void b(bool v) { raw(static_cast<std::uint8_t>(v ? 1 : 0)); }
  template <class T>
  void raw(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  // Emits header (magic, version, fingerprint, payload length, checksum)
  // followed by the payload.
  void finish(std::uint64_t program_fingerprint, Sink& sink) const;

 private:
  std::string buf_;
};

class Reader {
 public:
  // Drains `src` and verifies the full frame up front (see file comment).
  Reader(Source& src, std::uint64_t program_fingerprint);

  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  std::int64_t i64() { return raw<std::int64_t>(); }
  bool b() { return raw<std::uint8_t>() != 0; }
  template <class T>
  T raw() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    bytes(&v, sizeof v);
    return v;
  }
  // Bytewise restore into the exact object save() serialized from. Structs
  // with padding (has_unique_object_representations_v == false) MUST be
  // loaded this way, not via `x = r.raw<T>()`: assigning a
  // trivially-copyable temporary is not guaranteed to copy padding bytes,
  // and a recapture of the restored world would then differ from the
  // original snapshot in indeterminate padding (seen as ASan's 0xbe fill).
  template <class T>
  void raw_into(T& dst) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&dst, sizeof dst);
  }
  void bytes(void* p, std::size_t n) {
    std::memcpy(p, view(n), n);
  }
  // Zero-copy window into the payload (arena images).
  const void* view(std::size_t n) {
    ABCL_CHECK_MSG(payload_.size() - pos_ >= n,
                   "checkpoint restore: truncated stream (payload section "
                   "shorter than its own framing)");
    const void* p = payload_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::string str() {
    std::uint64_t n = u64();
    ABCL_CHECK_MSG(n <= payload_.size() - pos_,
                   "checkpoint restore: truncated stream (payload section "
                   "shorter than its own framing)");
    std::string s(static_cast<const char*>(view(n)), n);
    return s;
  }
  // Every byte must be consumed: trailing garbage means reader and writer
  // disagree about the layout.
  void expect_end() const {
    ABCL_CHECK_MSG(pos_ == payload_.size(),
                   "checkpoint restore: trailing bytes after the last "
                   "section (layout mismatch)");
  }

 private:
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
