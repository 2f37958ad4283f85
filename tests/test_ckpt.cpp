// Checkpoint/restore tests: the ABCLSIM_CHECKPOINT spec grammar, the
// WorldConfig precedence contract (from_env + with_* overrides), stop
// reasons, quanta accounting across a restore, snapshot determinism
// (byte-identical re-capture), the never-a-partial-world integrity gates
// (versioning, truncation, corrupted-byte fuzz) and the snapshot-equivalence
// oracle: run-to-T + checkpoint + restore + continue must be byte-identical
// to the uninterrupted run across the serial and host-parallel drivers,
// with faults and migration both off and on — plus a crash-recovery drill
// that loses a segment of the run and replays it from the last checkpoint.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "abcl/class_def.hpp"
#include "abcl/machine_api.hpp"
#include "abcl/termination.hpp"
#include "apps/buffer.hpp"
#include "apps/nqueens.hpp"
#include "ckpt/snapshot.hpp"
#include "fuzz/interp.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "obs/json.hpp"
#include "sim/parallel_machine.hpp"
#include "util/arena.hpp"
#include "util/slab.hpp"

namespace {

using namespace abcl;

constexpr int kSerial = -1;

// Saves/restores one environment variable around a test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

ckpt::CheckpointConfig at_config(std::uint64_t at) {
  ckpt::CheckpointConfig ck;
  ck.enabled = true;
  ck.at = at;
  return ck;
}

// ------------------------------------------------ spec grammar + knob ------

TEST(CkptSpec, UnsetOrOffMeansDisabled) {
  std::string err;
  for (const char* text : {static_cast<const char*>(nullptr), "", "off"}) {
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    EXPECT_FALSE(cfg->enabled);
  }
}

TEST(CkptSpec, ParsesAtAndOptionalPath) {
  std::string err;
  auto cfg = ckpt::parse_checkpoint_spec("at=5000", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->at, 5000u);
  EXPECT_TRUE(cfg->path.empty());

  cfg = ckpt::parse_checkpoint_spec(" at = 12 , path = /tmp/w.ck ", &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_EQ(cfg->at, 12u);
  EXPECT_EQ(cfg->path, "/tmp/w.ck");
}

TEST(CkptSpec, ToStringRoundTrips) {
  for (const char* text : {"off", "at=5000", "at=12,path=/tmp/w.ck"}) {
    std::string err;
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    ASSERT_TRUE(cfg.has_value()) << err;
    auto again = ckpt::parse_checkpoint_spec(to_string(*cfg).c_str(), &err);
    ASSERT_TRUE(again.has_value()) << err;
    EXPECT_EQ(*cfg, *again);
    EXPECT_EQ(to_string(*cfg), to_string(*again));
  }
}

TEST(CkptSpec, GarbageNeverSilentlyDisables) {
  for (const char* text : {"at=zap", "at=0", "path=/tmp/x", "at=5,at=6",
                           "bogus=1", "at=", "at=5,"}) {
    std::string err;
    auto cfg = ckpt::parse_checkpoint_spec(text, &err);
    EXPECT_FALSE(cfg.has_value()) << text;
    EXPECT_NE(err.find("checkpoint spec"), std::string::npos) << err;
  }
}

TEST(CkptSpec, ValidateRejectsZeroBoundary) {
  ckpt::CheckpointConfig cfg;
  cfg.enabled = true;
  cfg.at = 0;
  std::string err;
  EXPECT_FALSE(ckpt::validate_checkpoint_config(cfg, &err));
  EXPECT_NE(err.find("at must be >= 1"), std::string::npos) << err;
  cfg.enabled = false;  // a disabled config is always valid
  EXPECT_TRUE(ckpt::validate_checkpoint_config(cfg, &err));
}

TEST(CkptEnv, UnsetMeansDisabled) {
  ScopedEnv e("ABCLSIM_CHECKPOINT", nullptr);
  EXPECT_FALSE(WorldConfig::from_env().ckpt.enabled);
}

TEST(CkptEnv, ReadsFullSpec) {
  ScopedEnv e("ABCLSIM_CHECKPOINT", "at=777,path=snap.bin");
  WorldConfig cfg = WorldConfig::from_env();
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 777u);
  EXPECT_EQ(cfg.ckpt.path, "snap.bin");
}

TEST(CkptEnvDeath, GarbageAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ScopedEnv e("ABCLSIM_CHECKPOINT", "at=nope");
  EXPECT_DEATH({ WorldConfig::from_env(); }, "ABCLSIM_CHECKPOINT");
}

// ------------------------------------------- config precedence contract ----

// Last-wins precedence, direction 1: every environment-controlled knob is
// read by from_env(), and a subsequent with_* override replaces it.
// Direction 2: overriding one knob leaves every other env-derived knob
// untouched, and a repeated with_* keeps the last value.
TEST(ConfigPrecedence, EnvThenBuilderOverrideForEveryKnob) {
  ScopedEnv e1("ABCLSIM_HOST_THREADS", "3");
  ScopedEnv e2("ABCLSIM_FAULTS", "drop=0.05,seed=9");
  ScopedEnv e3("ABCLSIM_MIGRATION", "interval=16,seed=3");
  ScopedEnv e4("ABCLSIM_CHECKPOINT", "at=123,path=env.ck");

  WorldConfig cfg = WorldConfig::from_env();
  // from_env() picked up every variable.
  EXPECT_EQ(cfg.host_threads, 3);
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_EQ(cfg.faults.drop_ppm, 50'000u);
  EXPECT_TRUE(cfg.migration.enabled);
  EXPECT_EQ(cfg.migration.interval, 16u);
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 123u);

  // with_* overrides win over the environment, knob by knob.
  net::FaultConfig fc;
  fc.enabled = true;
  fc.dup_ppm = 10'000;
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 64;
  cfg.with_host_threads(7)
      .with_faults(fc)
      .with_migration(mc)
      .with_ckpt(at_config(456));
  EXPECT_EQ(cfg.host_threads, 7);
  EXPECT_EQ(cfg.faults.dup_ppm, 10'000u);
  EXPECT_EQ(cfg.faults.drop_ppm, 0u);
  EXPECT_EQ(cfg.migration.interval, 64u);
  EXPECT_EQ(cfg.ckpt.at, 456u);
  EXPECT_TRUE(cfg.ckpt.path.empty());
}

TEST(ConfigPrecedence, OverridingOneKnobLeavesTheOthersAlone) {
  ScopedEnv e1("ABCLSIM_HOST_THREADS", "3");
  ScopedEnv e2("ABCLSIM_FAULTS", "drop=0.05,seed=9");
  ScopedEnv e3("ABCLSIM_MIGRATION", "interval=16,seed=3");
  ScopedEnv e4("ABCLSIM_CHECKPOINT", "at=123");

  WorldConfig cfg = WorldConfig::from_env().with_nodes(64).with_seed(5);
  EXPECT_EQ(cfg.nodes, 64);
  EXPECT_EQ(cfg.seed, 5u);
  // Env-derived knobs survive unrelated with_* calls.
  EXPECT_EQ(cfg.host_threads, 3);
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_EQ(cfg.migration.interval, 16u);
  EXPECT_TRUE(cfg.ckpt.enabled);
  EXPECT_EQ(cfg.ckpt.at, 123u);

  // Repeated with_* on the same knob: last one wins.
  cfg.with_seed(9).with_seed(11);
  EXPECT_EQ(cfg.seed, 11u);
  cfg.with_ckpt(at_config(7)).with_ckpt(at_config(8));
  EXPECT_EQ(cfg.ckpt.at, 8u);
}

// ------------------------------------------------- world-level contract ----

TEST(CkptWorldDeath, CheckpointWithoutConfigDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  prog.finalize();
  World w(prog, WorldConfig{});
  ckpt::MemSink sink;
  EXPECT_DEATH({ w.checkpoint(sink); }, "not built with checkpointing");
}

TEST(CkptWorld, StopReasonsAndToString) {
  EXPECT_STREQ(to_string(StopReason::kQuiesced), "quiesced");
  EXPECT_STREQ(to_string(StopReason::kMaxTime), "max_time");
  EXPECT_STREQ(to_string(StopReason::kCheckpointRequested),
               "checkpoint_requested");

  const fuzz::Spec spec = fuzz::generate(1);
  {
    // No checkpoint: a truncated run reports kMaxTime, a full one kQuiesced.
    fuzz::FuzzWorld fw(spec, kSerial);
    RunReport r = fw.world().run(1);
    EXPECT_EQ(r.stop_reason, StopReason::kMaxTime);
    r = fw.world().run();
    EXPECT_EQ(r.stop_reason, StopReason::kQuiesced);
    EXPECT_TRUE(fw.latch().done());
    EXPECT_FALSE(fw.world().work_remaining());
  }
}

TEST(CkptWorld, ResumedQuantaAccountingAcrossRestore) {
  const fuzz::Spec spec = fuzz::generate(2);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::uint64_t at = base.sim_time / 2 + 1;

  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(at));
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kCheckpointRequested);
  EXPECT_TRUE(fw.world().work_remaining());
  // The driver stops *starting* quanta keyed past `at`; the final quantum
  // may carry a clock beyond it, but the run stopped well short of the end.
  EXPECT_LT(r1.sim_time, base.sim_time);
  EXPECT_EQ(fw.world().resumed_quanta(), 0u);

  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  ckpt::MemSource src(sink.take());
  fw.restore_world(src);
  EXPECT_EQ(fw.world().resumed_quanta(), r1.quanta);

  RunReport r2 = fw.world().run();
  EXPECT_EQ(r2.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(r1.quanta + r2.quanta, base.quanta);
  EXPECT_EQ(r2.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
}

TEST(CkptWorld, FileCheckpointIsTransparentAndRecaptureRoundTrips) {
  const fuzz::Spec spec = fuzz::generate(3);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  ckpt::CheckpointConfig ck = at_config(base.sim_time / 2 + 1);
  ck.path = ::testing::TempDir() + "abclsim_snap.bin";

  // Fire-and-forget: a path-configured checkpoint writes the file at the
  // boundary and resumes inside the same run() call, so a
  // checkpoint-unaware caller sees the uninterrupted run's results.
  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(), ck);
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(r1.quanta, base.quanta);
  EXPECT_EQ(r1.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
  std::optional<std::string> file = obs::read_file(ck.path);
  ASSERT_TRUE(file.has_value());

  // Restoring the mid-run snapshot rewinds the world to the boundary, and
  // recapturing the restored world is byte-identical to the file — restore
  // is lossless and serialization is canonical (capture twice to also pin
  // that checkpoint() itself doesn't perturb state).
  ckpt::FileSource src(ck.path);
  fw.restore_world(src);
  ckpt::MemSink a, b;
  fw.checkpoint_to(a);
  fw.checkpoint_to(b);
  EXPECT_EQ(a.bytes(), b.bytes());
  EXPECT_EQ(a.bytes(), *file);

  // Replaying from the boundary finishes exactly like the baseline.
  RunReport r2 = fw.world().run();
  EXPECT_EQ(fw.world().resumed_quanta() + r2.quanta, base.quanta);
  EXPECT_EQ(r2.sim_time, base.sim_time);
  EXPECT_TRUE(fw.latch().done());
  std::remove(ck.path.c_str());
}

TEST(CkptWorld, SnapshotCarriesTheDriverWidth) {
  // Snapshots record host_threads: a world checkpointed under 8 workers
  // restores under 8 unless the restore overrides the thread count.
  const fuzz::Spec spec = fuzz::generate(2);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::uint64_t at = base.sim_time / 2 + 1;

  fuzz::FuzzWorld fw(spec, /*host_threads=*/8, nullptr,
                     sim::CostModel::ap1000(), at_config(at));
  RunReport r1 = fw.world().run();
  EXPECT_EQ(r1.stop_reason, StopReason::kCheckpointRequested);
  ckpt::MemSink sink;
  fw.checkpoint_to(sink);

  for (int restore_threads : {0, 2}) {
    ckpt::MemSource src(sink.bytes());
    fw.restore_world(src, nullptr, restore_threads);
    auto* pm = dynamic_cast<sim::ParallelMachine*>(&fw.world().machine());
    ASSERT_NE(pm, nullptr);
    EXPECT_EQ(pm->num_threads(), restore_threads == 0 ? 8 : restore_threads);
    RunReport r2 = fw.world().run();
    EXPECT_EQ(r2.stop_reason, StopReason::kQuiesced);
    EXPECT_EQ(r2.sim_time, base.sim_time);
    EXPECT_TRUE(fw.latch().done());
  }
}

// Snapshot bytes are a function of simulated state alone. The serial and
// the 2-thread driver recycle packet slots in different orders, so a queued
// packet's slot holds different stale bytes past its payload under each;
// the canonical packet image must not carry them. Both runs resume from one
// early snapshot, so their node arenas sit at the same recorded bases (every
// arena pointer in the image matches), then run to the same boundary. The
// only permitted difference is the host_threads config word (and the
// checksum over it).
TEST(CkptWorld, SnapshotBytesMatchAcrossDrivers) {
  // The world seed is a unique marker word (FuzzWorld seeds with spec.seed
  // | 1); host_threads is the i64 written right after it.
  constexpr std::uint64_t kMarker = 0x5eedc0de5eedc0deull | 1;
  fuzz::Spec spec = fuzz::generate(2);
  spec.seed = kMarker;
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  const std::uint64_t at = base.sim_time / 2 + 1;

  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(base.sim_time / 8 + 1));
  ASSERT_EQ(fw.world().run().stop_reason, StopReason::kCheckpointRequested);
  ckpt::MemSink early;
  fw.checkpoint_to(early);
  const std::vector<fuzz::Counters> early_counters = fw.per_node();
  auto capture = [&](int host_threads) {
    ckpt::MemSource src(early.bytes());
    fw.restore_world(src, nullptr, host_threads);
    fw.reset_counters(early_counters);
    EXPECT_EQ(fw.world().run(at).stop_reason, StopReason::kMaxTime);
    EXPECT_GT(fw.world().network().in_flight(), 0u);
    ckpt::MemSink sink;
    fw.checkpoint_to(sink);
    return sink.take();
  };
  std::string serial = capture(kSerial);
  std::string threaded = capture(2);
  ASSERT_EQ(serial.size(), threaded.size());

  const std::string marker(reinterpret_cast<const char*>(&kMarker),
                           sizeof kMarker);
  const std::size_t seed_at = serial.find(marker);
  ASSERT_NE(seed_at, std::string::npos);
  const std::size_t host_threads_at = seed_at + sizeof kMarker;
  auto host_threads = [&](const std::string& b) {
    std::int64_t v = 0;
    std::memcpy(&v, &b[host_threads_at], sizeof v);
    return v;
  };
  EXPECT_EQ(host_threads(serial), kSerial);
  EXPECT_EQ(host_threads(threaded), 2);
  for (std::string* b : {&serial, &threaded}) {
    b->replace(32, 8, 8, '\0');               // checksum
    b->replace(host_threads_at, 8, 8, '\0');  // host_threads
  }
  std::size_t first_diff = 0;
  while (first_diff < serial.size() &&
         serial[first_diff] == threaded[first_diff]) {
    ++first_diff;
  }
  EXPECT_EQ(first_diff, serial.size())
      << "snapshots differ from byte " << first_diff;
}

// A restored run retires objects, the live-list heads among them. Restore
// rebuilds every NodeRuntime at a new host address, so unlinking must not
// write through a pointer the snapshot carried into the old runtime (under
// ASan, which never hands the freed runtimes' memory straight back, such a
// write is a heap-use-after-free).
TEST(CkptWorld, RestoredRunRetiresObjectsThroughTheNewRuntime) {
  core::Program prog;
  const apps::NQueensProgram np = apps::register_nqueens(prog);
  prog.finalize();
  apps::NQueensParams params;
  params.n = 8;
  // At 256 nodes some node retires its checkpoint-time head after restore.
  const WorldConfig cfg = WorldConfig{}.with_nodes(256).with_host_threads(-1);
  apps::NQueensResult base;
  {
    World w(prog, cfg);
    base = apps::run_nqueens(w, np, params);
  }
  ckpt::CheckpointConfig ck = at_config(base.sim_time / 2 + 1);
  ck.path = ::testing::TempDir() + "abclsim_retire.bin";
  {
    // Writes the snapshot file at the boundary and runs on to quiescence.
    World w(prog, WorldConfig(cfg).with_ckpt(ck));
    apps::run_nqueens(w, np, params);
  }
  ckpt::FileSource src(ck.path);
  std::unique_ptr<World> w = World::restore(prog, src);
  const RunReport rep = w->run();
  EXPECT_EQ(rep.stop_reason, StopReason::kQuiesced);
  EXPECT_EQ(rep.sim_time, base.sim_time);
  EXPECT_EQ(w->resumed_quanta() + rep.quanta, base.rep.quanta);
  std::remove(ck.path.c_str());
}

// ------------------------------------------- never a partial world ---------

std::string snapshot_bytes(std::uint64_t seed) {
  const fuzz::Spec spec = fuzz::generate(seed);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  fuzz::FuzzWorld fw(spec, kSerial, nullptr, sim::CostModel::ap1000(),
                     at_config(base.sim_time / 2 + 1));
  fw.world().run();
  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  return sink.take();
}

// A Program with the same registry the snapshot was captured under. The
// corrupted streams below die inside Reader validation, before any World
// state exists — which is exactly the contract under test.
void expect_restore_death(const std::string& bytes, const char* diagnostic) {
  core::Program prog;
  fuzz::register_interp(prog);
  register_completion_latch(prog);
  prog.finalize();
  ckpt::MemSource src(bytes);
  EXPECT_DEATH({ World::restore(prog, src); }, diagnostic);
}

TEST(CkptIntegrityDeath, TruncatedAndFramedStreamsNeverBuildAWorld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  ASSERT_GT(bytes.size(), 48u);

  expect_restore_death(bytes.substr(0, 20),
                       "shorter than the snapshot header");
  expect_restore_death(bytes.substr(0, bytes.size() - 7),
                       "payload shorter than the header claims");
  expect_restore_death(bytes + "x", "trailing bytes after the snapshot");

  std::string s = bytes;
  s[0] ^= 0x5a;  // magic (header bytes 0..7)
  expect_restore_death(s, "bad magic");

  s = bytes;
  s[8] ^= 0x5a;  // version (header bytes 8..11)
  expect_restore_death(s, "snapshot version");

  s = bytes;
  s[16] ^= 0x5a;  // program fingerprint (header bytes 16..23)
  expect_restore_death(s, "different Program");

  s = bytes;
  s[32] ^= 0x5a;  // checksum (header bytes 32..39)
  expect_restore_death(s, "checksum mismatch");
}

TEST(CkptIntegrityDeath, CorruptedPayloadBytesNeverBuildAWorld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  const std::size_t payload = bytes.size() - 40;
  ASSERT_GT(payload, 8u);
  // One flipped byte at each of several positions spread across the
  // payload; every one must be caught by the up-front checksum.
  for (std::size_t frac : {0u, 1u, 2u, 3u, 4u}) {
    std::string s = bytes;
    s[40 + (payload - 1) * frac / 4] ^= 0x5a;
    expect_restore_death(s, "checksum mismatch");
  }
}

TEST(CkptIntegrityDeath, DifferentProgramIsRejectedByFingerprint) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string bytes = snapshot_bytes(4);
  // A program missing the completion latch's handlers: same binary, wrong
  // registry. The fingerprint gate must fire before anything is built.
  core::Program prog;
  fuzz::register_interp(prog);
  prog.finalize();
  ckpt::MemSource src(bytes);
  EXPECT_DEATH({ World::restore(prog, src); }, "different Program");
}

// The checksum proves integrity, not authorship: anyone can re-seal it. So
// plant one in-flight packet carrying a unique payload word, forge its
// fields in the raw stream, re-seal, and require restore to refuse every
// forgery before the packet could ever be dispatched.
TEST(CkptIntegrityDeath, ForgedQueuedPacketIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr net::Word kMarker = 0x5eedf00dcafe1234ull;
  std::string bytes;
  {
    core::Program prog;
    fuzz::register_interp(prog);
    register_completion_latch(prog);
    prog.finalize();
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.push(kMarker);
    w.network().send(std::move(p), net::AmCategory::kService);
    ckpt::MemSink sink;
    w.checkpoint(sink);
    bytes = sink.take();
  }
  const std::string marker(reinterpret_cast<const char*>(&kMarker),
                           sizeof kMarker);
  const std::size_t at = bytes.find(marker);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(marker, at + 1), std::string::npos);
  // A queued packet is written field by field: u32 handler, u32 src,
  // u32 dst, u64 send_time, u64 arrive_time, u64 seq, u64 dup mark,
  // u32 retries, u32 nwords, then the payload, whose first word is the
  // marker. Offsets below are back from the marker.
  constexpr std::size_t kNwordsBack = 4;
  constexpr std::size_t kDupBack = 4 + 4 + 8;
  constexpr std::size_t kDstBack = 4 + 4 + 4 * 8 + 4;
  constexpr std::size_t kHandlerBack = kDstBack + 4 + 4;

  // Overwrites one field of the planted packet, then re-seals the header's
  // checksum (header bytes 32..39) over the payload (bytes 40..).
  auto forge = [&](std::size_t back, std::uint32_t value) {
    std::string s = bytes;
    std::memcpy(&s[at - back], &value, sizeof value);
    const std::uint64_t sum = ckpt::checksum(s.data() + 40, s.size() - 40);
    std::memcpy(&s[32], &sum, sizeof sum);
    return s;
  };
  // The planted fields read back as written before any forgery.
  auto field = [&](std::size_t back) {
    std::uint32_t v = 0;
    std::memcpy(&v, &bytes[at - back], sizeof v);
    return v;
  };
  ASSERT_EQ(field(kNwordsBack), 1u);
  ASSERT_EQ(field(kDstBack), 1u);
  ASSERT_EQ(field(kDstBack + 4), 0u);  // src
  ASSERT_EQ(field(kDupBack), 0u);      // the mark's low half
  ASSERT_EQ(field(kDupBack - 4), 0u);  // and its high half
  expect_restore_death(forge(kNwordsBack, net::kMaxPacketWords + 1),
                       "carries 25 payload words");
  expect_restore_death(forge(kHandlerBack, 0xFFFF), "names handler 65535");
  expect_restore_death(forge(kDstBack, 0), "is addressed to node 0");
  expect_restore_death(forge(kDupBack, 2),
                       "checkpoint restore: packet queued toward node 1 has "
                       "dup mark 2");
}

// The same re-sealed forgery against the config words restore validates.
// The seed is a unique marker word: placement is the u32 written just
// before it and host_threads the i64 just after it. Topology is the second
// u32 of the payload.
constexpr std::uint64_t kMarkerSeed = 0x5eedbeefc0de4321ull;

struct MarkedSnapshot {
  std::string bytes;
  std::size_t seed_at = 0;
};

MarkedSnapshot marked_snapshot() {
  MarkedSnapshot m;
  {
    core::Program prog;
    fuzz::register_interp(prog);
    register_completion_latch(prog);
    prog.finalize();
    World w(prog, WorldConfig{}.with_nodes(2).with_seed(kMarkerSeed).with_ckpt(
                      at_config(100)));
    ckpt::MemSink sink;
    w.checkpoint(sink);
    m.bytes = sink.take();
  }
  const std::string word(reinterpret_cast<const char*>(&kMarkerSeed),
                         sizeof kMarkerSeed);
  m.seed_at = m.bytes.find(word);
  EXPECT_NE(m.seed_at, std::string::npos);
  EXPECT_EQ(m.bytes.find(word, m.seed_at + 1), std::string::npos);
  return m;
}

// Overwrites one word of `bytes`, then re-seals the header's checksum
// (header bytes 32..39) over the payload (bytes 40..).
template <class T>
std::string forge_word(std::string s, std::size_t pos, T value) {
  std::memcpy(&s[pos], &value, sizeof value);
  const std::uint64_t sum = ckpt::checksum(s.data() + 40, s.size() - 40);
  std::memcpy(&s[32], &sum, sizeof sum);
  return s;
}

TEST(CkptIntegrityDeath, ForgedConfigEnumIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MarkedSnapshot m = marked_snapshot();
  ASSERT_FALSE(HasFailure());
  const std::size_t topology_at = 40 + sizeof(std::uint32_t);
  const std::size_t placement_at = m.seed_at - sizeof(std::uint32_t);
  expect_restore_death(forge_word(m.bytes, topology_at, std::uint32_t{5}),
                       "checkpoint restore: topology word 5 is out of range");
  expect_restore_death(forge_word(m.bytes, placement_at, std::uint32_t{0xFF}),
                       "checkpoint restore: placement word 255 is out of "
                       "range");
}

// The node count is the payload's first word, and it sizes the network
// tables: restore bounds it by the payload left before it builds anything.
TEST(CkptIntegrityDeath, ForgedNodeCountIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MarkedSnapshot m = marked_snapshot();
  ASSERT_FALSE(HasFailure());
  constexpr std::size_t kNodesAt = 40;
  std::uint32_t nodes = 0;
  std::memcpy(&nodes, &m.bytes[kNodesAt], sizeof nodes);
  ASSERT_EQ(nodes, 2u);
  expect_restore_death(forge_word(m.bytes, kNodesAt, std::uint32_t{0x7FFFFFFF}),
                       "checkpoint restore: node count 2147483647 needs at "
                       "least 16 bytes per node, but [0-9]+ payload bytes are "
                       "left");
  expect_restore_death(forge_word(m.bytes, kNodesAt, std::uint32_t{0}),
                       "checkpoint restore: snapshot carries no nodes");
}

// A forged driver width must not spin up that many worker threads: restore
// holds the word to int and to the ABCLSIM_HOST_THREADS ceiling of 1024.
TEST(CkptIntegrityDeath, ForgedHostThreadsIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const MarkedSnapshot m = marked_snapshot();
  ASSERT_FALSE(HasFailure());
  const std::size_t threads_at = m.seed_at + sizeof(std::uint64_t);
  expect_restore_death(forge_word(m.bytes, threads_at, std::int64_t{1025}),
                       "checkpoint restore: host_threads word 1025 is out of "
                       "range");
  expect_restore_death(
      forge_word(m.bytes, threads_at, std::int64_t{1} << 32),
      "checkpoint restore: host_threads word 4294967296 is out of range");
  expect_restore_death(
      forge_word(m.bytes, threads_at, std::numeric_limits<std::int64_t>::min()),
      "checkpoint restore: host_threads word -9223372036854775808 is out of "
      "range");
}

// A forged arena base must never place an image: restore takes only slot
// bases of the checkpoint window, and an image restored at another free
// slot would still point into the slot it was captured in.
TEST(CkptIntegrityDeath, ForgedArenaBaseIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string bytes;
  std::uint64_t slot = 0;
  {
    core::Program prog;
    fuzz::register_interp(prog);
    const CompletionPatterns lp = register_completion_latch(prog);
    prog.finalize();
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    MailAddr latch;
    w.boot(0, [&](Ctx& ctx) { latch = ctx.create_local(*lp.cls, {}); });
    // Node 0's slot: the one its latch was carved from.
    const auto obj = reinterpret_cast<std::uint64_t>(latch.ptr);
    slot = (obj - util::Arena::slot_base(0)) / util::Arena::kSlotStride;
    ckpt::MemSink sink;
    w.checkpoint(sink);
    bytes = sink.take();
  }
  ASSERT_LT(slot, util::Arena::kWindowSlots);
  const std::uint64_t base = util::Arena::slot_base(slot);
  // Node 0's record opens with its base: the first place the word appears
  // (the network section holds no packets, so no pointers).
  const std::string word(reinterpret_cast<const char*>(&base), sizeof base);
  const std::size_t at = bytes.find(word);
  ASSERT_NE(at, std::string::npos);

  expect_restore_death(forge_word(bytes, at, util::Arena::kReserveAuto),
                       "checkpoint restore: node 0 arena base "
                       "18446744073709551615 is not a slot base");
  expect_restore_death(forge_word(bytes, at, base + 64),
                       "checkpoint restore: node 0 arena base [0-9]+ is not "
                       "a slot base");
  const std::uint64_t free_slot =
      util::Arena::slot_base((slot + 100) % util::Arena::kWindowSlots);
  expect_restore_death(forge_word(bytes, at, free_slot),
                       "checkpoint restore: node 0 live-list head [0-9]+ "
                       "falls outside its arena image");
}

// The forgeries below restore under the Program the snapshot was captured
// under, which the test keeps alive: every unforged code pointer in the
// images is then valid, the unforged snapshot restores, and only the
// forged word can stop the restore.
void expect_restores(core::Program& prog, const std::string& bytes) {
  ckpt::MemSource src(bytes);
  EXPECT_NE(World::restore(prog, src), nullptr);
}

void expect_restore_death(core::Program& prog, const std::string& bytes,
                          const char* diagnostic) {
  ckpt::MemSource src(bytes);
  EXPECT_DEATH({ World::restore(prog, src); }, diagnostic);
}

std::string words(std::initializer_list<std::uint64_t> ws) {
  std::string s;
  for (std::uint64_t w : ws) s.append(reinterpret_cast<const char*>(&w), 8);
  return s;
}

std::uint64_t word_at(const std::string& s, std::size_t pos) {
  std::uint64_t w = 0;
  std::memcpy(&w, &s[pos], sizeof w);
  return w;
}

// Node 0 stocks two chunks of node 1. Its stock section is the record
// count (1), the key (peer << 16 | size class), the depth (2) and the two
// chunk words; `at` is where the key is.
struct StockedSnapshot {
  std::string bytes;
  std::size_t at = 0;
  std::uint64_t size_class = 0;
};

StockedSnapshot stocked_snapshot(core::Program& prog,
                                 const core::ClassInfo& cls) {
  StockedSnapshot m;
  m.size_class = util::SlabAllocator::size_class(
      core::object_alloc_bytes(cls.state_bytes));
  {
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    w.node(0).seed_stock_from(w.node(1), cls, 2);
    EXPECT_EQ(w.node(0).chunk_stock().depth(
                  1, static_cast<std::uint16_t>(m.size_class)),
              2u);
    ckpt::MemSink sink;
    w.checkpoint(sink);
    m.bytes = sink.take();
  }
  const std::string record = words({1, (1u << 16) | m.size_class, 2});
  m.at = m.bytes.find(record);
  EXPECT_NE(m.at, std::string::npos);
  EXPECT_EQ(m.bytes.find(record, m.at + 1), std::string::npos);
  m.at += 8;
  return m;
}

TEST(CkptIntegrityDeath, ForgedChunkStockKeyIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  const CompletionPatterns lp = register_completion_latch(prog);
  prog.finalize();
  const StockedSnapshot m = stocked_snapshot(prog, *lp.cls);
  ASSERT_FALSE(HasFailure());
  expect_restores(prog, m.bytes);
  const std::uint64_t off_world = (2u << 16) | m.size_class;
  expect_restore_death(prog, forge_word(m.bytes, m.at, off_world),
                       ("checkpoint restore: node 0 chunk-stock key " +
                        std::to_string(off_world) +
                        " names node 2 outside the 2-node world")
                           .c_str());
  constexpr std::uint64_t kClasses = util::SlabAllocator::kNumClasses;
  const std::uint64_t no_class = (1u << 16) | kClasses;
  expect_restore_death(prog, forge_word(m.bytes, m.at, no_class),
                       ("checkpoint restore: node 0 chunk-stock key " +
                        std::to_string(no_class) + " names size class " +
                        std::to_string(kClasses) + " \\(max " +
                        std::to_string(kClasses - 1) + "\\)")
                           .c_str());
}

// A stocked chunk is node 1's, and node 1 is restored after node 0: the
// check runs once every image is in place.
TEST(CkptIntegrityDeath, ForgedStockedChunkIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  const CompletionPatterns lp = register_completion_latch(prog);
  prog.finalize();
  const StockedSnapshot m = stocked_snapshot(prog, *lp.cls);
  ASSERT_FALSE(HasFailure());
  const std::size_t chunk_at = m.at + 16;  // past the key and the depth
  ASSERT_NE(word_at(m.bytes, chunk_at), 0u);
  expect_restore_death(prog, forge_word(m.bytes, chunk_at, std::uint64_t{8}),
                       "checkpoint restore: node 0 stocked chunk 8 falls "
                       "outside node 1's arena image");
}

// One object moved from node 0 to node 1: node 0 keeps a forwarding stub
// keyed by the old header, node 1 a migrated-object record keyed by the
// new one.
struct MigratedSnapshot {
  std::string bytes;
  std::uint64_t old_ptr = 0;
  std::uint64_t new_ptr = 0;
};

struct MigrantState {
  std::uint64_t value = 0;
};

MigratedSnapshot migrated_snapshot(core::Program& prog,
                                   const core::ClassInfo& cls) {
  MigratedSnapshot m;
  World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(1u << 30)));
  MailAddr a;
  w.boot(0, [&](Ctx& ctx) {
    a = ctx.create_local(cls, {});
    ctx.migrate_object_to(a.ptr, 1);
  });
  EXPECT_EQ(w.run().stop_reason, StopReason::kQuiesced);
  const std::optional<MailAddr> home = w.node(0).forward_target(a.ptr);
  EXPECT_TRUE(home.has_value() && home->node == 1);
  m.old_ptr = reinterpret_cast<std::uint64_t>(a.ptr);
  if (home.has_value()) m.new_ptr = reinterpret_cast<std::uint64_t>(home->ptr);
  ckpt::MemSink sink;
  w.checkpoint(sink);
  m.bytes = sink.take();
  return m;
}

core::ClassInfo& register_migrant(core::Program& prog) {
  ClassDef<MigrantState> def(prog, "CkptMigrant");
  def.migratable();
  return def.info();
}

TEST(CkptIntegrityDeath, ForgedMigrationStubKeyIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  register_completion_latch(prog);
  const core::ClassInfo& cls = register_migrant(prog);
  prog.finalize();
  const MigratedSnapshot m = migrated_snapshot(prog, cls);
  ASSERT_FALSE(HasFailure());
  expect_restores(prog, m.bytes);
  // Node 0's stub map: one entry, its key (the old header), then the
  // forwarding address {node 1, pad 0, new header}.
  const std::string entry = words({1, m.old_ptr, 1, m.new_ptr});
  const std::size_t at = m.bytes.find(entry);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(m.bytes.find(entry, at + 1), std::string::npos);
  expect_restore_death(prog, forge_word(m.bytes, at + 8, std::uint64_t{8}),
                       "checkpoint restore: node 0 migration-stub key 8 falls "
                       "outside its arena image");
}

TEST(CkptIntegrityDeath, ForgedMigratedObjectKeyIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  register_completion_latch(prog);
  const core::ClassInfo& cls = register_migrant(prog);
  prog.finalize();
  const MigratedSnapshot m = migrated_snapshot(prog, cls);
  ASSERT_FALSE(HasFailure());
  // Node 1's migrated-object map is the snapshot's last section: one
  // entry keyed by the new header, its epoch and its one prior address.
  const std::size_t at = m.bytes.size() - (8 + 4 + 8 + 16);
  ASSERT_EQ(word_at(m.bytes, at - 8), 1u);
  ASSERT_EQ(word_at(m.bytes, at), m.new_ptr);
  expect_restore_death(prog, forge_word(m.bytes, at, std::uint64_t{8}),
                       "checkpoint restore: node 1 migrated-object key 8 "
                       "falls outside its arena image");
}

// An object's vftp is a process pointer every message calls through:
// restore accepts only the restoring Program's own tables.
TEST(CkptIntegrityDeath, ForgedVftpIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  const CompletionPatterns lp = register_completion_latch(prog);
  prog.finalize();
  std::string bytes;
  {
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    w.boot(0, [&](Ctx& ctx) { ctx.create_local(*lp.cls, {}); });
    ckpt::MemSink sink;
    w.checkpoint(sink);
    bytes = sink.take();
  }
  expect_restores(prog, bytes);
  // A fresh local object awaits its lazy init: its header's first word.
  const std::string vftp =
      words({reinterpret_cast<std::uint64_t>(&lp.cls->lazy_init)});
  const std::size_t at = bytes.find(vftp);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(vftp, at + 1), std::string::npos);
  // The class record itself: a live address, but not a table. (The death
  // test's child process runs at other addresses, hence the wildcards.)
  const auto not_a_table = reinterpret_cast<std::uint64_t>(lp.cls);
  expect_restore_death(prog, forge_word(bytes, at, not_a_table),
                       "checkpoint restore: node 0 object header [0-9]+ has "
                       "vftp [0-9]+, which is not a table of the restoring "
                       "Program");
}

// The live-list walk must end after exactly the node's live-object count.
// Node 0 holds one object; its scalars write the count just before the
// list head, which is that object.
TEST(CkptIntegrityDeath, ForgedLiveObjectCountIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  fuzz::register_interp(prog);
  const CompletionPatterns lp = register_completion_latch(prog);
  prog.finalize();
  std::string bytes;
  std::uint64_t obj = 0;
  {
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    w.boot(0, [&](Ctx& ctx) {
      obj = reinterpret_cast<std::uint64_t>(ctx.create_local(*lp.cls, {}).ptr);
    });
    ckpt::MemSink sink;
    w.checkpoint(sink);
    bytes = sink.take();
  }
  const std::string scalars = words({1, obj});
  const std::size_t at = bytes.find(scalars);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(bytes.find(scalars, at + 1), std::string::npos);
  expect_restore_death(prog, forge_word(bytes, at, std::uint64_t{2}),
                       "checkpoint restore: node 0 live list ends after 1 of "
                       "2 objects");
  expect_restore_death(prog, forge_word(bytes, at, std::uint64_t{0}),
                       "checkpoint restore: node 0 live list runs past its 0 "
                       "objects");
}

// A blocked object's spilled frame ends in a trailer holding its resume
// entry, which resuming the object calls: restore accepts a frame inside
// the image only, and a resume entry of the restoring Program's methods
// only.
TEST(CkptIntegrityDeath, ForgedResumeEntryIsRejectedAtRestore) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::Program prog;
  const apps::BufferProgram bp = apps::register_buffer(prog);
  prog.finalize();
  std::string bytes;
  std::uint64_t frame = 0;
  std::uint64_t resume = 0;
  {
    World w(prog, WorldConfig{}.with_nodes(2).with_ckpt(at_config(100)));
    MailAddr buf;
    // A get on the empty buffer select-waits for a put: its frame spills.
    w.boot(0, [&](Ctx& ctx) {
      buf = ctx.create_local(*bp.cls, {});
      ctx.send_past(buf, bp.get, nullptr, 0);
    });
    w.run();
    frame = reinterpret_cast<std::uint64_t>(buf.ptr->blocked_frame());
    resume = reinterpret_cast<std::uintptr_t>(buf.ptr->resume_entry());
    ckpt::MemSink sink;
    w.checkpoint(sink);
    bytes = sink.take();
  }
  ASSERT_NE(frame, 0u);
  expect_restores(prog, bytes);
  // The frame word is the header's continuation word, the resume word the
  // trailer's first; each appears once.
  const std::size_t frame_at = bytes.find(words({frame}));
  const std::size_t resume_at = bytes.find(words({resume}));
  ASSERT_NE(frame_at, std::string::npos);
  ASSERT_NE(resume_at, std::string::npos);
  ASSERT_EQ(bytes.find(words({frame}), frame_at + 1), std::string::npos);
  ASSERT_EQ(bytes.find(words({resume}), resume_at + 1), std::string::npos);
  expect_restore_death(prog, forge_word(bytes, frame_at, std::uint64_t{8}),
                       "checkpoint restore: node 0 blocked frame 8 falls "
                       "outside its arena image");
  // The class record: a live address, but no method's resume entry.
  const auto not_an_entry = reinterpret_cast<std::uint64_t>(bp.cls);
  expect_restore_death(prog, forge_word(bytes, resume_at, not_an_entry),
                       "checkpoint restore: node 0 object header [0-9]+ has "
                       "resume entry [0-9]+, which is not an entry of the "
                       "restoring Program");
}

// A faulted packet's later copies carry their dup mark through a snapshot:
// captured after the delivered copy was polled, while its duplicate is
// still queued, the restored duplicate polls as one, and capture, restore
// and recapture give the same bytes.
TEST(CkptWorld, QueuedDuplicateKeepsItsMarkAcrossRestore) {
  core::Program prog;
  fuzz::register_interp(prog);
  register_completion_latch(prog);
  prog.finalize();
  net::FaultConfig fc;
  fc.enabled = true;
  fc.dup_ppm = net::kPpmOne;  // every delivered copy is duplicated
  std::string first;
  {
    World w(prog,
            WorldConfig{}.with_nodes(2).with_faults(fc).with_ckpt(at_config(100)));
    net::Network& net = w.network();
    net::Packet p;
    p.src = 0;
    p.dst = 1;
    p.push(42);
    net.send(p, net::AmCategory::kService);
    ASSERT_EQ(net.in_flight(), 2u);
    bool dup = true;
    net::Packet* got = net.poll(1, net.next_arrival(1), &dup);
    ASSERT_NE(got, nullptr);
    EXPECT_FALSE(dup);
    net.release(1, got);
    ASSERT_EQ(net.in_flight(), 1u);  // the duplicate, one instr behind
    ckpt::MemSink sink;
    w.checkpoint(sink);
    first = sink.take();
  }
  ckpt::MemSource src(first);
  std::unique_ptr<World> w = World::restore(prog, src);
  ckpt::MemSink again;
  w->checkpoint(again);
  EXPECT_EQ(again.bytes(), first);

  net::Network& net = w->network();
  const net::FaultStats before = net.fault_stats();
  EXPECT_EQ(before.delivered, 1u);
  EXPECT_EQ(before.dup_suppressed, 0u);
  bool dup = false;
  net::Packet* got = net.poll(1, sim::kInstrInf, &dup);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(dup);
  EXPECT_EQ(got->at(0), 42u);
  net.release(1, got);
  const net::FaultStats after = net.fault_stats();
  EXPECT_EQ(after.delivered, before.delivered);
  EXPECT_EQ(after.dup_suppressed, before.dup_suppressed + 1);
  EXPECT_TRUE(net.idle());
}

// --------------------------------------- snapshot-equivalence oracle -------

TEST(CkptEquivalence, SmokeAcrossDriversAndCrashRecovery) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(fuzz::generate(seed));
    EXPECT_TRUE(r.ok) << r.failure;
  }
}

TEST(CkptEquivalence, ExplicitBoundariesAndLateCheckpoint) {
  const fuzz::Spec spec = fuzz::generate(5);
  const fuzz::RunResult base = fuzz::run_spec(spec, kSerial);
  // A boundary past quiescence: the world drains first, the snapshot
  // captures the drained world, and the resumed run is a no-op.
  fuzz::RunResult late =
      fuzz::run_spec_with_checkpoint(spec, kSerial, base.sim_time + 1000);
  EXPECT_EQ(late.metrics_json, base.metrics_json);
  EXPECT_EQ(late.trace_hash, base.trace_hash);
  EXPECT_EQ(late.quanta, base.quanta);
  // An early boundary right after boot.
  fuzz::RunResult early = fuzz::run_spec_with_checkpoint(spec, kSerial, 1);
  EXPECT_EQ(early.metrics_json, base.metrics_json);
  EXPECT_EQ(early.trace_hash, base.trace_hash);
}

// The corpus gates. Every seed: uninterrupted serial baseline vs
// checkpoint+restore under serial and 1/2/8 workers, a cross-driver
// restore, and a crash-recovery replay — all byte-identical.
TEST(CkptFuzz, SnapshotEquivalenceCorpus) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(fuzz::generate(seed));
    ASSERT_TRUE(r.ok) << r.failure;
  }
}

TEST(CkptFuzz, SnapshotEquivalenceUnderFaultsAndMigration) {
  net::FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 80'000;
  fc.dup_ppm = 40'000;
  fc.delay_ppm = 80'000;
  fc.seed = 17;
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 8;
  mc.hysteresis = 1;
  mc.max_batch = 4;
  mc.min_queue = 2;
  mc.seed = 5;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    spec.faults = fc;
    spec.migration = mc;
    fuzz::OracleResult r = fuzz::check_spec_checkpoint(spec);
    ASSERT_TRUE(r.ok) << r.failure;
  }
}

}  // namespace
