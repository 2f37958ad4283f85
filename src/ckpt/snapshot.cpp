#include "ckpt/snapshot.hpp"

#include <cstdio>

#include "util/spec_parser.hpp"

namespace abcl::ckpt {

// ---------------------------------------------------------------------------
// File transport
// ---------------------------------------------------------------------------

FileSink::FileSink(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  ABCL_CHECK_MSG(f_ != nullptr,
                 ("checkpoint: cannot open \"" + path + "\" for writing").c_str());
}

FileSink::~FileSink() {
  if (f_ != nullptr) std::fclose(static_cast<std::FILE*>(f_));
}

void FileSink::write(const void* p, std::size_t n) {
  std::size_t w = std::fwrite(p, 1, n, static_cast<std::FILE*>(f_));
  ABCL_CHECK_MSG(w == n,
                 ("checkpoint: short write to \"" + path_ + "\"").c_str());
}

FileSource::FileSource(const std::string& path) {
  f_ = std::fopen(path.c_str(), "rb");
  ABCL_CHECK_MSG(f_ != nullptr,
                 ("checkpoint restore: cannot open \"" + path + "\"").c_str());
}

FileSource::~FileSource() {
  if (f_ != nullptr) std::fclose(static_cast<std::FILE*>(f_));
}

std::size_t FileSource::read(void* p, std::size_t n) {
  return std::fread(p, 1, n, static_cast<std::FILE*>(f_));
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(const void* p, std::size_t n, std::uint64_t h) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t checksum(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, b + i, sizeof w);
    h ^= w;
    h *= 0x100000001b3ull;
  }
  return fnv1a(b + i, n - i, h);
}

namespace {

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t fingerprint;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(std::is_trivially_copyable_v<Header> && sizeof(Header) == 40);

}  // namespace

void Writer::finish(std::uint64_t program_fingerprint, Sink& sink) const {
  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.reserved = 0;
  h.fingerprint = program_fingerprint;
  h.payload_bytes = buf_.size();
  h.checksum = checksum(buf_.data(), buf_.size());
  sink.write(&h, sizeof h);
  sink.write(buf_.data(), buf_.size());
}

Reader::Reader(Source& src, std::uint64_t program_fingerprint) {
  Header h{};
  std::size_t got = src.read(&h, sizeof h);
  ABCL_CHECK_MSG(got == sizeof h,
                 "checkpoint restore: truncated stream (shorter than the "
                 "snapshot header)");
  ABCL_CHECK_MSG(h.magic == kMagic,
                 "checkpoint restore: bad magic (not an abclsim snapshot?)");
  ABCL_CHECK_MSG(
      h.version == kVersion,
      ("checkpoint restore: snapshot version " + std::to_string(h.version) +
       ", this binary reads version " + std::to_string(kVersion))
          .c_str());
  ABCL_CHECK_MSG(h.fingerprint == program_fingerprint,
                 "checkpoint restore: program fingerprint mismatch (snapshot "
                 "was taken under a different Program)");
  payload_.resize(h.payload_bytes);
  got = src.read(payload_.data(), payload_.size());
  ABCL_CHECK_MSG(got == payload_.size(),
                 "checkpoint restore: truncated stream (payload shorter than "
                 "the header claims)");
  // Reject trailing bytes too: an appended stream is not the stream that
  // was checksummed.
  char extra;
  ABCL_CHECK_MSG(src.read(&extra, 1) == 0,
                 "checkpoint restore: trailing bytes after the snapshot");
  ABCL_CHECK_MSG(checksum(payload_.data(), payload_.size()) == h.checksum,
                 "checkpoint restore: checksum mismatch (corrupt snapshot)");
}

// ---------------------------------------------------------------------------
// ABCLSIM_CHECKPOINT
// ---------------------------------------------------------------------------

bool validate_checkpoint_config(const CheckpointConfig& cfg, std::string* err) {
  if (!cfg.enabled) return true;
  if (cfg.at < 1) {
    if (err != nullptr) {
      *err = "checkpoint config: at must be >= 1 (a simulated-time boundary)";
    }
    return false;
  }
  return true;
}

std::optional<CheckpointConfig> parse_checkpoint_spec(const char* text,
                                                      std::string* err) {
  CheckpointConfig cfg;
  if (util::spec_off(text)) return cfg;  // unset or "off": no checkpoint
  const std::string raw = text;
  auto fail = [&](const std::string& why) -> std::optional<CheckpointConfig> {
    if (err != nullptr) {
      *err = util::spec_error("checkpoint spec", raw, why,
                              "expected comma-separated at=T[,path=FILE]");
    }
    return std::nullopt;
  };
  cfg.enabled = true;

  util::SpecParser p;
  p.u64("at", &cfg.at).str("path", &cfg.path);
  std::string why;
  if (!p.run(raw, &why)) return fail(why);

  std::string verr;
  if (!validate_checkpoint_config(cfg, &verr)) return fail(verr);
  return cfg;
}

std::string to_string(const CheckpointConfig& cfg) {
  if (!cfg.enabled) return "off";
  std::string out = "at=" + std::to_string(cfg.at);
  if (!cfg.path.empty()) out += ",path=" + cfg.path;
  return out;
}

}  // namespace abcl::ckpt
