// Deterministic fault injection: spec parsing, the pure decision functions,
// and the network-level exactly-once guarantee the delivery-hardening
// protocol provides on top of a lossy wire.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>

#include "abcl/abcl.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/program_gen.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace abcl;
using net::FaultConfig;
using net::FaultPlan;
using net::kPpmOne;
using net::Packet;
using net::Topology;
using net::TopologyKind;

// ----------------------------------------------------------- parsing -----

TEST(FaultSpec, UnsetEmptyAndOffAllDisable) {
  std::string err;
  for (const char* t : {static_cast<const char*>(nullptr), "", "off", " off "}) {
    std::optional<FaultConfig> cfg = net::parse_fault_spec(t, &err);
    ASSERT_TRUE(cfg.has_value());
    EXPECT_FALSE(cfg->enabled);
  }
}

TEST(FaultSpec, ParsesEveryKeyWithPpmPrecision) {
  std::string err;
  std::optional<FaultConfig> cfg = net::parse_fault_spec(
      "drop=0.05, dup=.25, delay=0.000001, delay_max=32, blackout=0.5,"
      " blackout_window=1024, rto=100, rto_max=4096, seed=42",
      &err);
  ASSERT_TRUE(cfg.has_value()) << err;
  EXPECT_TRUE(cfg->enabled);
  EXPECT_EQ(cfg->drop_ppm, 50'000u);
  EXPECT_EQ(cfg->dup_ppm, 250'000u);
  EXPECT_EQ(cfg->delay_ppm, 1u);  // one ppm: the finest grain representable
  EXPECT_EQ(cfg->delay_max, 32u);
  EXPECT_EQ(cfg->blackout_ppm, 500'000u);
  EXPECT_EQ(cfg->blackout_window, 1024u);
  EXPECT_EQ(cfg->rto, 100u);
  EXPECT_EQ(cfg->rto_max, 4096u);
  EXPECT_EQ(cfg->seed, 42u);
}

TEST(FaultSpec, ToStringRoundTripsExactly) {
  std::string err;
  for (const char* t :
       {"off", "drop=0.05", "drop=0.1,dup=0.01,delay=0.9,seed=7",
        "drop=0.000001,blackout=0.25,blackout_window=1,rto=3,rto_max=17"}) {
    std::optional<FaultConfig> a = net::parse_fault_spec(t, &err);
    ASSERT_TRUE(a.has_value()) << t << ": " << err;
    std::optional<FaultConfig> b =
        net::parse_fault_spec(net::to_string(*a).c_str(), &err);
    ASSERT_TRUE(b.has_value()) << net::to_string(*a) << ": " << err;
    EXPECT_EQ(*a, *b) << t;
  }
}

TEST(FaultSpec, GarbageNeverFallsBackToNoFaults) {
  // Every malformed spec must be a hard error naming the raw text — a typo
  // in ABCLSIM_FAULTS silently running fault-free would invalidate whatever
  // experiment the caller thought they were running.
  for (const char* t :
       {"bogus", "drop", "drop=", "drop=abc", "drop=1.5", "drop=0.0000001",
        "drop=0x10", "drop=0.1,drop=0.2", "unknown_key=1", "drop=0.1,,dup=0.1",
        "seed=-1", "delay_max=0", "blackout_window=0", "rto_max=0",
        "rto=100,rto_max=10"}) {
    std::string err;
    std::optional<FaultConfig> cfg = net::parse_fault_spec(t, &err);
    EXPECT_FALSE(cfg.has_value()) << t;
    EXPECT_NE(err.find(t), std::string::npos)
        << "diagnostic should quote the offending spec: " << err;
  }
}

TEST(FaultSpec, CertainLossIsRejectedAsLivelock) {
  for (const char* t : {"drop=1", "drop=1.0", "drop=1.000000", "blackout=1"}) {
    std::string err;
    EXPECT_FALSE(net::parse_fault_spec(t, &err).has_value()) << t;
    EXPECT_NE(err.find("livelock"), std::string::npos) << err;
  }
  // Certain duplication/delay is merely expensive, not divergent.
  std::string err;
  EXPECT_TRUE(net::parse_fault_spec("dup=1,delay=1", &err).has_value()) << err;
}

// ------------------------------------------------- decision functions -----

TEST(FaultPlanTest, DecisionsArePureAndSeedDependent) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop_ppm = kPpmOne / 2;
  cfg.seed = 1;
  FaultPlan a(cfg, /*min_latency=*/10);
  FaultPlan b(cfg, /*min_latency=*/10);
  cfg.seed = 2;
  FaultPlan c(cfg, /*min_latency=*/10);
  int differ = 0;
  for (std::uint64_t seq = 0; seq < 512; ++seq) {
    // Same coordinates, same config: always the same answer (re-evaluation
    // order independence is what the cross-driver determinism rests on).
    EXPECT_EQ(a.drop(3, 5, seq, 0), b.drop(3, 5, seq, 0));
    EXPECT_EQ(a.extra_delay(3, 5, seq, 1), b.extra_delay(3, 5, seq, 1));
    differ += a.drop(3, 5, seq, 0) != c.drop(3, 5, seq, 0);
  }
  EXPECT_GT(differ, 0);  // a different seed is a different fault universe
}

TEST(FaultPlanTest, DropRateTracksConfiguredProbability) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop_ppm = 200'000;  // 20%
  FaultPlan plan(cfg, 10);
  int drops = 0;
  const int kTrials = 20'000;
  for (int i = 0; i < kTrials; ++i) {
    drops += plan.drop(0, 1, static_cast<std::uint64_t>(i), 0);
  }
  const double rate = static_cast<double>(drops) / kTrials;
  EXPECT_NEAR(rate, 0.20, 0.02);
}

TEST(FaultPlanTest, ExtraDelayStaysInRange) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.delay_ppm = kPpmOne;  // every copy delayed: exercises the bound
  cfg.delay_max = 7;
  FaultPlan plan(cfg, 10);
  for (std::uint64_t seq = 0; seq < 2000; ++seq) {
    sim::Instr d = plan.extra_delay(1, 2, seq, 0);
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 7u);
  }
}

TEST(FaultPlanTest, BackoffDoublesAndSaturates) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.rto = 100;
  cfg.rto_max = 1000;
  FaultPlan plan(cfg, 10);
  EXPECT_EQ(plan.rto(), 100u);
  EXPECT_EQ(plan.backoff(0), 100u);
  EXPECT_EQ(plan.backoff(1), 200u);
  EXPECT_EQ(plan.backoff(2), 400u);
  EXPECT_EQ(plan.backoff(3), 800u);
  EXPECT_EQ(plan.backoff(4), 1000u);  // capped
  // The shift may not overflow even where rto << attempt wraps 64 bits.
  for (std::uint32_t a = 5; a < 200; ++a) {
    EXPECT_EQ(plan.backoff(a), 1000u) << a;
  }
}

TEST(FaultPlanTest, AutoRtoIsFourTimesMinLatencyCapped) {
  FaultConfig cfg;
  cfg.enabled = true;
  EXPECT_EQ(FaultPlan(cfg, 25).rto(), 100u);
  cfg.rto_max = 50;
  EXPECT_EQ(FaultPlan(cfg, 25).rto(), 50u);  // auto rto clamps to the cap
}

// --------------------------------------------- network-level guarantee -----

Packet make_pkt(int src, int dst, sim::Instr t, net::Word tag) {
  Packet p;
  p.handler = 0;
  p.src = src;
  p.dst = dst;
  p.send_time = t;
  p.push(tag);
  return p;
}

TEST(NetworkFaults, ExactlyOnceUnderHeavyFaults) {
  sim::CostModel cm = sim::CostModel::ap1000();
  FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 300'000;      // 30% loss (data and acks)
  fc.dup_ppm = 200'000;       // 20% duplication
  fc.delay_ppm = 300'000;     // 30% reorder-delay
  fc.blackout_ppm = 20'000;   // 2% of link-windows dark
  fc.blackout_window = 512;
  fc.seed = 99;
  const int kNodes = 6;
  net::Network net(Topology(TopologyKind::kFullyConnected, kNodes), &cm, {},
                   fc);
  const sim::Instr min_lat = net.min_packet_latency();

  util::Xoshiro256 rng(7);
  const int kPackets = 4000;
  std::map<std::tuple<int, int, std::uint64_t>, sim::Instr> sent;
  for (int i = 0; i < kPackets; ++i) {
    int src = static_cast<int>(rng.below(kNodes));
    int dst = static_cast<int>(rng.below(kNodes));
    if (src == dst) dst = (dst + 1) % kNodes;
    sim::Instr t = rng.below(5000);
    sent[{src, dst, static_cast<std::uint64_t>(i)}] = t;
    net.send(make_pkt(src, dst, t, static_cast<net::Word>(i)),
             net::AmCategory::kObjectMessage);
  }

  std::map<std::tuple<int, int, std::uint64_t>, int> first_deliveries;
  std::uint64_t dups_seen = 0;
  for (int d = 0; d < kNodes; ++d) {
    Packet out;
    bool dup = false;
    while (net.poll(d, sim::kInstrInf, out, &dup)) {
      auto key = std::make_tuple(static_cast<int>(out.src), d, out.at(0));
      ASSERT_TRUE(sent.count(key)) << "delivered a packet that was never sent";
      // No copy, duplicate or retry may beat the physical wire: the PDES
      // lookahead depends on this bound.
      EXPECT_GE(out.arrive_time, sent[key] + min_lat);
      if (dup) {
        // The mark sits on every copy but the first one polled: a copy
        // marked dup never precedes its packet's delivered copy.
        EXPECT_EQ(first_deliveries.count(key), 1u)
            << "a copy was polled before its delivered copy";
        ++dups_seen;
      } else {
        first_deliveries[key] += 1;
      }
    }
  }
  EXPECT_TRUE(net.idle());
  ASSERT_EQ(first_deliveries.size(), sent.size())
      << "some message was never delivered";
  for (const auto& [key, n] : first_deliveries) {
    EXPECT_EQ(n, 1) << "message dispatched more than once";
  }

  const net::FaultStats fs = net.fault_stats();
  EXPECT_EQ(fs.delivered, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(fs.dup_suppressed, dups_seen);
  EXPECT_EQ(fs.delivered + fs.dup_suppressed, fs.copies_enqueued);
  EXPECT_EQ(fs.copies_enqueued,
            fs.attempts - fs.drops - fs.blackout_drops + fs.duplicates);
  EXPECT_GT(fs.drops, 0u);        // 30% of ~4k+ attempts: faults really fired
  EXPECT_GT(fs.duplicates, 0u);
  EXPECT_GT(fs.delays, 0u);
  EXPECT_GT(fs.spurious_retransmits, 0u);
}

TEST(NetworkFaults, ZeroRatePlanHandsTheReceiverTheSendersSlot) {
  // The first delivery copy of a faulted packet is the slot the sender
  // filled; only later copies (here a certain duplicate) take slots of
  // their own, and every slot is back in the pool once polled.
  sim::CostModel cm = sim::CostModel::ap1000();
  for (std::uint32_t dup_ppm : {0u, kPpmOne}) {
    SCOPED_TRACE("dup_ppm=" + std::to_string(dup_ppm));
    FaultConfig fc;
    fc.enabled = true;
    fc.dup_ppm = dup_ppm;
    net::Network net(Topology(TopologyKind::kTorus2D, 4), &cm, {}, fc);
    Packet* sent = net.open(0, 1, 0, 0);
    sent->push(42);
    net.send(sent, net::AmCategory::kObjectMessage);
    bool dup = true;
    Packet* got = net.poll(1, sim::kInstrInf, &dup);
    ASSERT_EQ(got, sent);
    EXPECT_FALSE(dup);
    EXPECT_EQ(got->at(0), 42u);
    EXPECT_EQ(got->retries, 0u);
    net.release(1, got);
    Packet* copy = net.poll(1, sim::kInstrInf, &dup);
    if (dup_ppm == 0) {
      EXPECT_EQ(copy, nullptr);
    } else {
      ASSERT_NE(copy, nullptr);
      EXPECT_TRUE(dup);
      EXPECT_EQ(copy->at(0), 42u);
      net.release(1, copy);
    }
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.free_slots(), net.packet_pool().slabs_allocated() *
                                    net::PacketPool::kSlabPackets);
  }
}

TEST(NetworkFaults, DisabledConfigLeavesStatsUntouched) {
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(Topology(TopologyKind::kTorus2D, 4), &cm);
  EXPECT_FALSE(net.faults_enabled());
  net.send(make_pkt(0, 1, 0, 0), net::AmCategory::kObjectMessage);
  Packet out;
  bool dup = true;  // must be cleared even on the fault-free path
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out, &dup));
  EXPECT_FALSE(dup);
  const net::FaultStats fs = net.fault_stats();
  EXPECT_EQ(fs.attempts, 0u);
  EXPECT_EQ(fs.delivered, 0u);
}

// ------------------------------------------- migration x faults regime -----

// Live migration racing a lossy, duplicating, reordering wire: the full
// oracle (cross-driver byte-identity at 1/2/8 threads, exactly-once
// delivery, migration conservation, quiescence probes that follow
// forwarding stubs) must hold with BOTH blocks enabled. Migration packets —
// state fragments, kMigrateDone, kUpdateAddr, flush markers — ride the same
// hardened channels as object mail, so a dropped Done or a duplicated
// fragment is just more deterministic schedule, never a lost object.
TEST(MigrationUnderFaults, OracleHoldsWithBothPlansEnabled) {
  net::FaultConfig fc;
  fc.enabled = true;
  fc.drop_ppm = 80'000;   // 8% loss
  fc.dup_ppm = 40'000;    // 4% duplication
  fc.delay_ppm = 80'000;  // 8% reorder-delay
  fc.seed = 17;
  abcl::remote::MigrationConfig mc;
  mc.enabled = true;
  mc.interval = 8;
  mc.hysteresis = 1;
  mc.max_batch = 4;
  mc.min_queue = 2;
  mc.seed = 5;
  std::uint64_t migrated = 0;
  // Shedding is rare under fire (fault delays keep run queues shallow), so
  // sweep enough seeds that several genuinely migrate; the final EXPECT_GT
  // keeps this from silently degrading into a migration-free regime.
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    fuzz::Spec spec = fuzz::generate(seed);
    spec.faults = fc;
    spec.migration = mc;
    fuzz::OracleResult r = fuzz::check_spec(spec);
    EXPECT_TRUE(r.ok) << r.failure;
    migrated += r.serial.migrations_out;
    EXPECT_EQ(r.serial.migrations_out, r.serial.migrations_in);
  }
  EXPECT_GT(migrated, 0u);  // the regime really migrated under fire
}

// --------------------------------------------------- ABCLSIM_FAULTS env -----

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

TEST(FaultEnv, UnsetMeansDisabled) {
  ScopedEnv e("ABCLSIM_FAULTS", nullptr);
  EXPECT_FALSE(WorldConfig::from_env().faults.enabled);
}

TEST(FaultEnv, ReadsFullSpec) {
  ScopedEnv e("ABCLSIM_FAULTS", "drop=0.05,dup=0.01,seed=9");
  WorldConfig cfg = WorldConfig::from_env();
  EXPECT_TRUE(cfg.faults.enabled);
  EXPECT_EQ(cfg.faults.drop_ppm, 50'000u);
  EXPECT_EQ(cfg.faults.dup_ppm, 10'000u);
  EXPECT_EQ(cfg.faults.seed, 9u);
}

TEST(FaultEnvDeath, GarbageAbortsWithDiagnostic) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  {
    ScopedEnv e("ABCLSIM_FAULTS", "drop=lots");
    EXPECT_DEATH({ WorldConfig::from_env(); }, "ABCLSIM_FAULTS");
  }
  {
    ScopedEnv e("ABCLSIM_FAULTS", "drop=1.0");
    EXPECT_DEATH({ WorldConfig::from_env(); }, "livelock");
  }
}

}  // namespace
