// Fuzz subsystem tests: generator determinism, spec JSON round-trip and
// validation, interpreter semantics on hand-built specs, the committed
// 64-seed differential corpus, and shrinker minimization.
//
// The corpus test is the tier-1 fuzz gate: every seed's generated program
// must produce byte-identical metrics and trace fingerprints across the
// serial Machine and ParallelMachine at 1/2/8 workers, satisfy the
// conservation/termination invariants, and keep its flow counters under a
// network-latency scale-up. On failure the spec (plus a best-effort shrunk
// version) is written to $ABCLSIM_FUZZ_ARTIFACT_DIR for CI upload.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "fuzz/shrinker.hpp"
#include "fuzz/spec.hpp"
#include "obs/json.hpp"

namespace {

using namespace abcl;

// The committed corpus: these exact seeds gate every PR (see EXPERIMENTS.md
// for how to replay and extend them).
constexpr std::uint64_t kCorpus[] = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
    33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48,
    49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64};
constexpr std::size_t kCorpusSize = sizeof(kCorpus) / sizeof(kCorpus[0]);
static_assert(kCorpusSize == 64);

// Writes a failing spec (and context) where CI can pick it up as an
// artifact; a no-op unless ABCLSIM_FUZZ_ARTIFACT_DIR is set.
void write_repro(const fuzz::Spec& spec, const std::string& name,
                 const std::string& why) {
  const char* dir = std::getenv("ABCLSIM_FUZZ_ARTIFACT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  obs::write_file(std::string(dir) + "/" + name + ".json", spec.to_json());
  obs::write_file(std::string(dir) + "/" + name + ".txt", why);
}

TEST(ProgramGen, SameSeedSameSpecBitForBit) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1000000007ull}) {
    fuzz::Spec a = fuzz::generate(seed);
    fuzz::Spec b = fuzz::generate(seed);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.to_json(), b.to_json());
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(ProgramGen, DistinctSeedsDistinctPrograms) {
  // Not a hard guarantee, but if nearby seeds collided the corpus would be
  // worthless; these particular ones must differ.
  EXPECT_NE(fuzz::generate(1).to_json(), fuzz::generate(2).to_json());
  EXPECT_NE(fuzz::generate(2).to_json(), fuzz::generate(3).to_json());
}

TEST(ProgramGen, CorpusCoversTheStressKnobs) {
  // The 64-seed corpus must actually exercise the rare-path knobs the
  // generator biases toward; otherwise the gate tests less than it claims.
  int with_create = 0, with_select = 0, with_hybrid = 0, with_ablation = 0;
  int with_tiny_depth = 0, with_tiny_budget = 0, multi_node = 0;
  for (std::uint64_t seed : kCorpus) {
    fuzz::Spec s = fuzz::generate(seed);
    bool has_create = false, has_select = false, has_hybrid = false;
    for (const fuzz::ObjectSpec& os : s.objects) {
      for (const fuzz::Action& a : os.script) {
        has_create |= a.op == fuzz::Op::kCreate;
        has_select |= a.op == fuzz::Op::kSelectToken;
        has_hybrid |= a.op == fuzz::Op::kHybrid;
      }
    }
    with_create += has_create;
    with_select += has_select;
    with_hybrid += has_hybrid;
    with_ablation += s.disable_replenish;
    with_tiny_depth += s.max_call_depth <= 3;
    with_tiny_budget += s.reduction_budget <= 96;
    multi_node += s.nodes > 1;
  }
  EXPECT_GE(with_create, 10);
  EXPECT_GE(with_select, 10);
  EXPECT_GE(with_hybrid, 10);
  EXPECT_GE(with_ablation, 1);
  EXPECT_GE(with_tiny_depth, 5);
  EXPECT_GE(with_tiny_budget, 5);
  EXPECT_GE(multi_node, 32);
}

TEST(SpecJson, RoundTripsExactly) {
  for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
    fuzz::Spec a = fuzz::generate(seed);
    std::string err;
    std::optional<fuzz::Spec> b = fuzz::Spec::from_json(a.to_json(), &err);
    ASSERT_TRUE(b.has_value()) << err;
    EXPECT_EQ(a, *b);
    EXPECT_EQ(a.to_json(), b->to_json());
  }
}

TEST(SpecJson, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(fuzz::Spec::from_json("not json", &err).has_value());
  EXPECT_FALSE(fuzz::Spec::from_json("{}", &err).has_value());
  // Valid JSON, wrong schema tag.
  EXPECT_FALSE(
      fuzz::Spec::from_json("{\"schema\": \"something-else\"}", &err)
          .has_value());
  EXPECT_FALSE(err.empty());
}

TEST(SpecValidate, EnforcesAcyclicWaitFor) {
  fuzz::Spec s = fuzz::generate(5);
  ASSERT_TRUE(s.validate());
  // A blocking action targeting the object itself (or any lower index)
  // could deadlock; validate must reject it.
  fuzz::Spec bad = s;
  bad.objects[0].script.push_back(
      fuzz::Action{fuzz::Op::kAsk, 0, 0});
  std::string err;
  EXPECT_FALSE(bad.validate(&err));
  EXPECT_NE(err.find("higher index"), std::string::npos);
}

TEST(SpecValidate, RejectsOutOfRangeReferences) {
  fuzz::Spec s = fuzz::generate(5);
  fuzz::Spec bad = s;
  bad.boot.push_back(
      fuzz::BootMsg{static_cast<std::int32_t>(s.objects.size()), 1});
  EXPECT_FALSE(bad.validate());
  bad = s;
  bad.objects[0].script.insert(bad.objects[0].script.begin(),
                               fuzz::Action{fuzz::Op::kForward, -1, 0});
  EXPECT_FALSE(bad.validate());
}

// Interpreter semantics pinned on a hand-built two-object program: one
// chain of fuel 2 bouncing 0 -> 1 -> 0, then ending.
TEST(Interp, TinyChainAccounting) {
  fuzz::Spec s;
  s.seed = 99;
  s.nodes = 2;
  s.objects.resize(2);
  s.objects[0].node = 0;
  s.objects[0].script = {fuzz::Action{fuzz::Op::kForward, 1, 0}};
  s.objects[1].node = 1;
  s.objects[1].script = {fuzz::Action{fuzz::Op::kForward, 0, 0}};
  s.boot = {fuzz::BootMsg{0, 2}};
  ASSERT_TRUE(s.validate());

  fuzz::RunResult rr = fuzz::run_spec(s, -1);
  // Executions: boot(fuel 2) at 0, forward(fuel 1) at 1, forward(fuel 0)
  // at 0 — the last has no fuel, ends the chain.
  EXPECT_EQ(rr.total.steps_run, 3u);
  EXPECT_EQ(rr.total.steps_sent, 2u);
  EXPECT_EQ(rr.total.dones, 1u);
  EXPECT_TRUE(rr.latch_done);
  EXPECT_EQ(rr.latch_received, 1);
  EXPECT_EQ(rr.created, 3u);  // 2 statics + latch
  EXPECT_EQ(rr.waiting_objects, 0u);
  EXPECT_EQ(rr.queued_msgs, 0u);
}

// A now-type ask and a selective reception, still hand-built: object 0
// asks 1, then select-waits on a token reflected by 1.
TEST(Interp, AskAndSelectAccounting) {
  fuzz::Spec s;
  s.seed = 100;
  s.nodes = 2;
  s.objects.resize(2);
  s.objects[0].node = 0;
  s.objects[0].script = {fuzz::Action{fuzz::Op::kAsk, 1, 0},
                         fuzz::Action{fuzz::Op::kSelectToken, 1, 0}};
  s.objects[1].node = 1;
  s.boot = {fuzz::BootMsg{0, 1}};
  ASSERT_TRUE(s.validate());

  fuzz::RunResult rr = fuzz::run_spec(s, -1);
  EXPECT_EQ(rr.total.asks_made, 1u);
  EXPECT_EQ(rr.total.asks_answered, 1u);
  EXPECT_EQ(rr.total.tokens_requested, 1u);
  EXPECT_EQ(rr.total.tokens_emitted, 1u);
  EXPECT_EQ(rr.total.tokens_got + rr.total.tokens_stray, 1u);
  EXPECT_TRUE(rr.latch_done);
}

TEST(Oracle, TraceFingerprintIsSensitive) {
  // Two different programs must not share a fingerprint — otherwise the
  // differential comparison is vacuous.
  fuzz::Spec a = fuzz::generate(1);
  fuzz::Spec b = fuzz::generate(2);
  fuzz::RunResult ra = fuzz::run_spec(a, -1);
  fuzz::RunResult rb = fuzz::run_spec(b, -1);
  EXPECT_NE(ra.trace_hash, rb.trace_hash);
  EXPECT_NE(ra.metrics_json, rb.metrics_json);
}

// Each node hashes into its own lane, so the fingerprint keeps every
// node's record order but not how the nodes' events interleave, which no
// driver fixes. The crash drill's state round trip restores all lanes.
TEST(Oracle, TraceFingerprintIsOrderedPerNode) {
  using sim::TraceEv;
  fuzz::HashTracer a, b, c;
  a.record(1, 0, TraceEv::kQuantum, 1);
  a.record(1, 1, TraceEv::kQuantum, 2);
  a.record(2, 0, TraceEv::kSendRemote, 3);
  b.record(1, 1, TraceEv::kQuantum, 2);  // nodes interleaved differently
  b.record(1, 0, TraceEv::kQuantum, 1);
  b.record(2, 0, TraceEv::kSendRemote, 3);
  c.record(2, 0, TraceEv::kSendRemote, 3);  // node 0's order swapped
  c.record(1, 0, TraceEv::kQuantum, 1);
  c.record(1, 1, TraceEv::kQuantum, 2);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.events(), 3u);

  const fuzz::HashTracer::State saved = a.state();
  a.record(3, 1, TraceEv::kBlock, 4);
  EXPECT_NE(a.hash(), b.hash());
  a.restore_state(saved);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.events(), 3u);
}

// The tier-1 fuzz gate (see file comment).
TEST(Corpus, DifferentialOracleHoldsForEverySeed) {
  for (std::uint64_t seed : kCorpus) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    fuzz::OracleResult r = fuzz::check_spec(spec);
    if (!r.ok) {
      write_repro(spec, "repro_seed_" + std::to_string(seed), r.failure);
      // Best-effort minimization for the artifact; bounded so a failing CI
      // run stays fast.
      fuzz::Spec small = fuzz::shrink(
          spec, [](const fuzz::Spec& c) { return !fuzz::check_spec(c).ok; },
          nullptr, 200);
      write_repro(small, "repro_seed_" + std::to_string(seed) + "_min",
                  fuzz::check_spec(small).failure);
    }
    ASSERT_TRUE(r.ok) << r.failure << "\nspec:\n" << spec.to_json();
  }
}

// Seed-derived fault overlay for the fault-corpus gate: every corpus seed
// runs under a distinct deterministic plan, sweeping drop-only, dup/delay,
// blackout and combined regimes (seed % 5 == 0 gives an enabled-but-benign
// plan, which must behave exactly like a perfect network).
net::FaultConfig corpus_faults(std::uint64_t seed) {
  net::FaultConfig fc;
  fc.enabled = true;
  fc.seed = seed * 0x9e3779b9u + 1;
  fc.drop_ppm = static_cast<std::uint32_t>((seed % 5) * 60'000);         // 0-24%
  fc.dup_ppm = static_cast<std::uint32_t>(((seed / 5) % 4) * 40'000);    // 0-12%
  fc.delay_ppm = static_cast<std::uint32_t>(((seed / 3) % 4) * 80'000);  // 0-24%
  fc.blackout_ppm = seed % 7 == 0 ? 30'000u : 0u;
  fc.blackout_window = 512;
  return fc;
}

// The fault-corpus gate: under every seeded fault plan the program must
// still be bit-identical across drivers (fault decisions are simulated
// quantities, so serial and 1/2/8-thread runs share one fault schedule) and
// the delivery-hardening layer must achieve exactly-once dispatch — both
// enforced inside check_spec once spec.faults is set.
TEST(FaultCorpus, OracleHoldsUnderSeededFaultPlans) {
  std::uint64_t total_drops = 0, total_dups = 0, total_spurious = 0;
  for (std::uint64_t seed : kCorpus) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    spec.faults = corpus_faults(seed);
    fuzz::OracleResult r = fuzz::check_spec(spec);
    if (!r.ok) {
      write_repro(spec, "repro_fault_seed_" + std::to_string(seed), r.failure);
      fuzz::Spec small = fuzz::shrink(
          spec, [](const fuzz::Spec& c) { return !fuzz::check_spec(c).ok; },
          nullptr, 200);
      write_repro(small, "repro_fault_seed_" + std::to_string(seed) + "_min",
                  fuzz::check_spec(small).failure);
    }
    ASSERT_TRUE(r.ok) << r.failure << "\nspec:\n" << spec.to_json();
    total_drops += r.serial.fault_drops;
    total_dups += r.serial.fault_duplicates;
    total_spurious += r.serial.fault_forced + r.serial.fault_dup_suppressed;
  }
  // The sweep must actually have exercised the machinery, not vacuously
  // passed on single-node programs with no remote traffic.
  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_dups, 0u);
  EXPECT_GT(total_spurious, 0u);
}

// Seed-derived migration overlay for the policy-matrix gate: aggressive
// thresholds so the small fuzz programs still shed objects.
remote::MigrationConfig corpus_migration(std::uint64_t seed) {
  remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 16 + static_cast<std::uint32_t>(seed % 3) * 16;
  mc.hysteresis = 1;
  mc.max_batch = 2 + static_cast<std::uint32_t>(seed % 3);
  mc.min_queue = 2;
  mc.seed = seed * 0x2545f4914f6cdd1dull + 9;
  return mc;
}

// The policy-matrix gate: every corpus seed runs under one of {plain,
// faults, migration, checkpoint} (seed % 4) — sixteen seeds per cell, so
// all 4 cells gate every PR. Byte-identity across serial and 1/2/8 workers
// must hold in every cell; the checkpoint arm also exercises
// check_spec_checkpoint's restore at a different thread count (cross-driver
// restore).
TEST(PolicyMatrixCorpus, OracleHoldsForEveryCombo) {
  for (std::uint64_t seed : kCorpus) {
    const int feature = static_cast<int>(seed % 4);
    SCOPED_TRACE("seed=" + std::to_string(seed) +
                 " feature=" + std::to_string(feature));
    fuzz::Spec spec = fuzz::generate(seed);
    fuzz::OracleResult r;
    if (feature == 3) {
      r = fuzz::check_spec_checkpoint(spec);
    } else {
      if (feature == 1) spec.faults = corpus_faults(seed);
      if (feature == 2) spec.migration = corpus_migration(seed);
      r = fuzz::check_spec(spec);
    }
    if (!r.ok) {
      write_repro(spec, "repro_policy_seed_" + std::to_string(seed),
                  r.failure);
    }
    ASSERT_TRUE(r.ok) << r.failure << "\nspec:\n" << spec.to_json();
  }
}

TEST(SpecJson, FaultsBlockRoundTripsAndStaysOptional) {
  std::string err;
  fuzz::Spec s = fuzz::generate(3);
  s.faults = corpus_faults(3);
  std::optional<fuzz::Spec> back = fuzz::Spec::from_json(s.to_json(), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(*back, s);

  // Fault-free specs serialize without the block (old binaries keep reading
  // new repro files) and old fault-free files keep loading here.
  fuzz::Spec plain = fuzz::generate(3);
  EXPECT_EQ(plain.to_json().find("faults"), std::string::npos);
  std::optional<fuzz::Spec> round = fuzz::Spec::from_json(plain.to_json(), &err);
  ASSERT_TRUE(round.has_value()) << err;
  EXPECT_FALSE(round->faults.has_value());
  EXPECT_EQ(*round, plain);

  // An invalid embedded plan is rejected by validate(), not run.
  s.faults->drop_ppm = net::kPpmOne;
  std::string verr;
  EXPECT_FALSE(s.validate(&verr));
  EXPECT_NE(verr.find("livelock"), std::string::npos) << verr;
}

TEST(Shrinker, ReducesSyntheticDivergenceToTenActionsOrFewer) {
  // Synthetic "bug": any program that both selects on a token and performs
  // a remote creation. Mimics a failure tied to one op interaction, which
  // is what real divergences look like; everything else should shrink away.
  auto pred = [](const fuzz::Spec& s) {
    bool has_select = false, has_create = false;
    for (const fuzz::ObjectSpec& os : s.objects) {
      for (const fuzz::Action& a : os.script) {
        has_select |= a.op == fuzz::Op::kSelectToken;
        has_create |= a.op == fuzz::Op::kCreate;
      }
    }
    return has_select && has_create && !s.boot.empty();
  };

  // Find a corpus seed exhibiting the "bug" with a reasonably big program.
  fuzz::Spec seed_spec;
  bool found = false;
  for (std::uint64_t seed : kCorpus) {
    fuzz::Spec s = fuzz::generate(seed);
    if (pred(s) && s.total_actions() > 20) {
      seed_spec = s;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no corpus seed matches the synthetic predicate";

  fuzz::ShrinkStats st;
  fuzz::Spec small = fuzz::shrink(seed_spec, pred, &st);
  EXPECT_TRUE(pred(small));
  EXPECT_TRUE(small.validate());
  EXPECT_LE(small.total_actions(), 10u)
      << "shrunk from " << seed_spec.total_actions() << " in " << st.rounds
      << " rounds / " << st.attempts << " attempts:\n"
      << small.to_json();
  EXPECT_LT(small.total_actions(), seed_spec.total_actions());
  // The minimized spec must still be runnable (the predicate here is
  // synthetic, not a crash).
  fuzz::RunResult rr = fuzz::run_spec(small, -1);
  EXPECT_TRUE(rr.latch_done);
}

TEST(Shrinker, FixpointIsStableUnderReshrink) {
  auto pred = [](const fuzz::Spec& s) { return !s.boot.empty(); };
  fuzz::Spec small = fuzz::shrink(fuzz::generate(17), pred);
  fuzz::ShrinkStats st;
  fuzz::Spec again = fuzz::shrink(small, pred, &st);
  EXPECT_EQ(small, again);
  EXPECT_EQ(st.accepted, 0u);
}

}  // namespace
