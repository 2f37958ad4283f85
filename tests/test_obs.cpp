// Observability layer: deterministic JSON writer/parser, metrics snapshots
// and Chrome-trace export (bit-identical across host drivers), the
// regression comparator behind the CI gate, and field-coverage checks for
// the NodeStats / Network::Stats merge paths.
#include <gtest/gtest.h>

#include <cstring>

#include "apps/fib.hpp"
#include "apps/nqueens.hpp"
#include "apps/pingpong.hpp"
#include "net/network.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/regression.hpp"
#include "sim/trace.hpp"

namespace {

using namespace abcl;

// ---------------------------------------------------------------------------
// JSON writer
// ---------------------------------------------------------------------------

TEST(JsonWriter, GoldenOutput) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "abc\"d\n");
  w.field("count", std::uint64_t{42});
  w.field("neg", std::int64_t{-7});
  w.field("flag", true);
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("empty").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"abc\\\"d\\n\",\n"
            "  \"count\": 42,\n"
            "  \"neg\": -7,\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}");
}

TEST(JsonWriter, CompactModeAndDoubles) {
  obs::JsonWriter w(0);
  w.begin_object();
  w.field("half", 0.5);
  w.field("third", 1.0 / 3.0);
  w.end_object();
  EXPECT_EQ(w.str(), "{\"half\":0.5,\"third\":0.33333333333333331}");
}

// ---------------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------------

TEST(JsonParse, RoundTripsWriterOutput) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("s", "a\\b\"c");
  w.field("i", std::int64_t{-12345});
  w.field("u", std::uint64_t{99});
  w.field("d", 2.5);
  w.field("b", false);
  w.key("n").null();
  w.key("a").begin_array().value(1).value("x").end_array();
  w.end_object();

  std::string err;
  auto v = obs::parse_json(w.str(), &err);
  ASSERT_TRUE(v.has_value()) << err;
  ASSERT_EQ(v->kind, obs::JsonValue::Kind::kObject);
  EXPECT_EQ(v->find("s")->string, "a\\b\"c");
  EXPECT_TRUE(v->find("i")->is_integer);
  EXPECT_EQ(v->find("i")->integer, -12345);
  EXPECT_EQ(v->find("u")->integer, 99);
  EXPECT_DOUBLE_EQ(v->find("d")->number, 2.5);
  EXPECT_EQ(v->find("b")->kind, obs::JsonValue::Kind::kBool);
  EXPECT_FALSE(v->find("b")->boolean);
  EXPECT_EQ(v->find("n")->kind, obs::JsonValue::Kind::kNull);
  ASSERT_EQ(v->find("a")->array.size(), 2u);
  EXPECT_EQ(v->find("a")->array[1].string, "x");
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(JsonParse, ParsesCommittedBenchBaselineShape) {
  const char* doc = R"({
    "bench": "host_parallel_nqueens", "n": 10, "host_cores": 1,
    "results_identical_across_drivers": true,
    "runs": [
      {"nodes": 64, "host_threads": 0, "wall_ms": 93.606, "solutions": 724,
       "sim_time": 637683, "quanta": 11210}
    ]
  })";
  std::string err;
  auto v = obs::parse_json(doc, &err);
  ASSERT_TRUE(v.has_value()) << err;
  const obs::JsonValue* runs = v->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  EXPECT_EQ(runs->array[0].find("solutions")->integer, 724);
  EXPECT_DOUBLE_EQ(runs->array[0].find("wall_ms")->number, 93.606);
}

TEST(JsonParse, RejectsMalformedInput) {
  std::string err;
  EXPECT_FALSE(obs::parse_json("{", &err).has_value());
  EXPECT_FALSE(obs::parse_json("[1,]", nullptr).has_value());
  EXPECT_FALSE(obs::parse_json("{\"a\" 1}", nullptr).has_value());
  EXPECT_FALSE(obs::parse_json("1 2", nullptr).has_value());
  EXPECT_FALSE(obs::parse_json("\"unterminated", nullptr).has_value());
  EXPECT_FALSE(obs::parse_json("", nullptr).has_value());
}

// ---------------------------------------------------------------------------
// Regression comparator
// ---------------------------------------------------------------------------

obs::JsonValue parsed(const char* text) {
  auto v = obs::parse_json(text);
  EXPECT_TRUE(v.has_value());
  return *v;
}

TEST(Regression, IdenticalDocumentsPass) {
  auto b = parsed(R"({"a": 1, "b": [1, 2.5, "x"], "c": {"d": true}})");
  EXPECT_TRUE(obs::compare_json(b, b, 0.0).ok());
}

TEST(Regression, FlagsDriftBeyondTolerance) {
  auto b = parsed(R"({"sim_time": 1000})");
  auto c = parsed(R"({"sim_time": 1020})");
  EXPECT_FALSE(obs::compare_json(b, c, 1.0).ok());  // 2% > 1%
  EXPECT_TRUE(obs::compare_json(b, c, 5.0).ok());   // 2% < 5%
  obs::CompareResult r = obs::compare_json(b, c, 1.0);
  ASSERT_EQ(r.drifts.size(), 1u);
  EXPECT_EQ(r.drifts[0].path, "sim_time");
  EXPECT_NE(r.to_string().find("sim_time"), std::string::npos);
}

TEST(Regression, IgnoresHostDependentKeysAtAnyDepth) {
  auto b = parsed(R"({"runs": [{"wall_ms": 100.0, "quanta": 5}], "host_cores": 1})");
  auto c = parsed(R"({"runs": [{"wall_ms": 900.0, "quanta": 5}], "host_cores": 64})");
  EXPECT_TRUE(obs::compare_json(b, c, 0.0).ok());
}

TEST(Regression, FlagsStructuralChanges) {
  auto b = parsed(R"({"a": [1, 2], "s": "x", "flag": true})");
  EXPECT_FALSE(obs::compare_json(b, parsed(R"({"a": [1], "s": "x", "flag": true})"), 0.0).ok());
  EXPECT_FALSE(obs::compare_json(b, parsed(R"({"a": [1, 2], "s": "y", "flag": true})"), 0.0).ok());
  EXPECT_FALSE(obs::compare_json(b, parsed(R"({"a": [1, 2], "s": "x", "flag": false})"), 0.0).ok());
  EXPECT_FALSE(obs::compare_json(b, parsed(R"({"a": [1, 2], "s": "x"})"), 0.0).ok());
  EXPECT_FALSE(obs::compare_json(b, parsed(R"({"a": [1, 2], "s": "x", "flag": true, "extra": 0})"), 0.0).ok());
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

struct Snapshots {
  std::string metrics;
  std::string chrome;
  std::uint64_t quanta = 0;
};

Snapshots run_nqueens_snapshots(int host_threads, int nodes, int n) {
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(nodes);
  cfg.with_host_threads(host_threads);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(n));
  Snapshots s;
  s.metrics = obs::metrics_json(world, &r.rep);
  s.chrome = obs::chrome_trace_json(tracer.snapshot());
  s.quanta = r.rep.quanta;
  return s;
}

TEST(MetricsSnapshot, IsValidJsonWithExpectedShape) {
  Snapshots s = run_nqueens_snapshots(-1, 8, 6);
  std::string err;
  auto v = obs::parse_json(s.metrics, &err);
  ASSERT_TRUE(v.has_value()) << err;
  EXPECT_EQ(v->find("schema")->string, obs::kMetricsSchema);
  EXPECT_EQ(v->find("nodes")->integer, 8);
  EXPECT_GT(v->find("run")->find("quanta")->integer, 0);
  EXPECT_GT(v->find("network")->find("packets")->integer, 0);
  const obs::JsonValue* totals = v->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->find("remote_recv")->integer, 0);
  // Every polled packet lands in exactly one latency histogram...
  std::int64_t lat_count = 0;
  for (const auto& [cat, hist] : totals->find("msg_latency_instr")->object) {
    (void)cat;
    lat_count += hist.find("count")->integer;
  }
  EXPECT_EQ(lat_count, totals->find("remote_recv")->integer);
  // ...and the queue-depth histogram samples once per quantum.
  EXPECT_EQ(totals->find("sched_depth")->find("count")->integer,
            static_cast<std::int64_t>(s.quanta));
  EXPECT_EQ(v->find("per_node")->array.size(), 8u);
  // Host-dependent quantities must never leak into the snapshot.
  EXPECT_EQ(s.metrics.find("host"), std::string::npos);
  EXPECT_EQ(s.metrics.find("wall"), std::string::npos);
}

TEST(MetricsSnapshot, FaultsBlockOnlyWhenEnabled) {
  // Faults off: no "faults" key anywhere — the snapshot must stay
  // byte-compatible with the committed pre-fault baselines.
  Snapshots clean = run_nqueens_snapshots(-1, 8, 6);
  EXPECT_EQ(clean.metrics.find("faults"), std::string::npos);

  // Faults on: the network object gains a self-describing faults block
  // whose counters satisfy the exactly-once conservation chain.
  core::Program prog;
  auto np = apps::register_nqueens(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(8);
  cfg.faults.enabled = true;
  cfg.faults.drop_ppm = 100'000;
  cfg.faults.dup_ppm = 50'000;
  cfg.faults.seed = 5;
  World world(prog, cfg);
  auto r = apps::run_nqueens(world, np, apps::NQueensParams::paper_calibrated(6));
  std::string err;
  auto v = obs::parse_json(obs::metrics_json(world, &r.rep), &err);
  ASSERT_TRUE(v.has_value()) << err;
  const obs::JsonValue* f = v->find("network")->find("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->find("config")->find("drop_ppm")->integer, 100'000);
  EXPECT_EQ(f->find("config")->find("seed")->integer, 5);
  EXPECT_GT(f->find("attempts")->integer, 0);
  EXPECT_GT(f->find("drops")->integer, 0);
  EXPECT_EQ(f->find("delivered")->integer,
            v->find("network")->find("packets")->integer);
  EXPECT_EQ(f->find("delivered")->integer + f->find("dup_suppressed")->integer,
            f->find("copies_enqueued")->integer);
  ASSERT_NE(f->find("retry_delay_instr"), nullptr);
}

TEST(Regression, FaultsBlockIgnoredAgainstFaultsOffBaseline) {
  // "faults" sits in kDefaultIgnoredKeys so a fault-run candidate still
  // gates against the committed faults-off baselines — the comparator must
  // skip the whole block in either direction.
  auto b = parsed(R"({"network": {"packets": 10}})");
  auto c = parsed(R"({"network": {"packets": 10, "faults": {"drops": 3}}})");
  EXPECT_TRUE(obs::compare_json(b, c, 0.0).ok());
  EXPECT_TRUE(obs::compare_json(c, b, 0.0).ok());
  // ...but only that block: other additions still flag.
  auto d = parsed(R"({"network": {"packets": 10, "oops": 1}})");
  EXPECT_FALSE(obs::compare_json(b, d, 0.0).ok());
}

TEST(MetricsSnapshot, V2CarriesAllocatorCounters) {
  Snapshots s = run_nqueens_snapshots(-1, 8, 6);
  auto v = obs::parse_json(s.metrics);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("schema")->string, "abclsim-metrics-v2");
  EXPECT_EQ(v->find("pooling")->kind, obs::JsonValue::Kind::kBool);
  EXPECT_TRUE(v->find("pooling")->boolean);
  const obs::JsonValue* alloc = v->find("totals")->find("alloc");
  ASSERT_NE(alloc, nullptr);
  EXPECT_GT(alloc->find("allocs")->integer, 0);
  EXPECT_GT(alloc->find("freelist_hits")->integer, 0);
  EXPECT_GT(alloc->find("backing_bytes")->integer, 0);
  // At quiescence only long-lived structures remain live.
  EXPECT_GE(alloc->find("allocs")->integer, alloc->find("frees")->integer);
  EXPECT_EQ(alloc->find("live")->integer,
            alloc->find("allocs")->integer - alloc->find("frees")->integer);
  for (const auto& node : v->find("per_node")->array) {
    ASSERT_NE(node.find("alloc"), nullptr);
  }
}

TEST(MetricsSnapshot, WorksOnZeroQuantumWorld) {
  core::Program prog;
  apps::register_pingpong(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(2);
  World world(prog, cfg);
  // No boot, no run: every counter is zero; nothing divides by zero.
  EXPECT_DOUBLE_EQ(world.mean_utilization(), 0.0);
  std::string table = world.utilization_table().to_string();
  EXPECT_NE(table.find("0.0%"), std::string::npos);
  std::string m = obs::metrics_json(world);
  auto v = obs::parse_json(m);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->find("totals")->find("busy_instr")->integer, 0);
  EXPECT_EQ(v->find("run"), nullptr);
}

TEST(MetricsSnapshot, ByteIdenticalAcrossDrivers) {
  Snapshots serial = run_nqueens_snapshots(-1, 16, 8);
  for (int t : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    Snapshots par = run_nqueens_snapshots(t, 16, 8);
    EXPECT_EQ(par.metrics, serial.metrics);
    EXPECT_EQ(par.chrome, serial.chrome);
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsLoadableTraceEventJson) {
  sim::Tracer t(16);
  t.record(5, 0, sim::TraceEv::kQuantum, 3);
  t.record(9, 1, sim::TraceEv::kSendRemote, 7);
  std::string out = obs::chrome_trace_json(t.snapshot());
  std::string err;
  auto v = obs::parse_json(out, &err);
  ASSERT_TRUE(v.has_value()) << err;
  const obs::JsonValue* evs = v->find("traceEvents");
  ASSERT_NE(evs, nullptr);
  // 1 process-name + 2 thread-name metadata records + 2 events.
  ASSERT_EQ(evs->array.size(), 5u);
  const obs::JsonValue& q = evs->array[3];
  EXPECT_EQ(q.find("name")->string, "quantum");
  EXPECT_EQ(q.find("ph")->string, "i");
  EXPECT_EQ(q.find("ts")->integer, 5);
  EXPECT_EQ(q.find("tid")->integer, 0);
  EXPECT_EQ(q.find("args")->find("sched_queue_len")->integer, 3);
  const obs::JsonValue& s = evs->array[4];
  EXPECT_EQ(s.find("name")->string, "send");
  EXPECT_EQ(s.find("args")->find("pattern")->integer, 7);
}

TEST(ChromeTrace, PayloadsCarryRuntimeMeaning) {
  core::Program prog;
  auto fp = apps::register_fib(prog);
  prog.finalize();
  WorldConfig cfg;
  cfg.with_nodes(4);
  World world(prog, cfg);
  sim::Tracer tracer(1u << 16);
  world.attach_tracer(&tracer);
  apps::run_fib(world, fp, 10);
  bool saw_nonzero_create = false;
  for (const auto& e : tracer.snapshot()) {
    if (e.kind == sim::TraceEv::kCreate || e.kind == sim::TraceEv::kResume) {
      // fib registers a user class after the builtins; class ids are small.
      EXPECT_LT(e.payload, 16u);
      saw_nonzero_create = true;
    }
  }
  EXPECT_TRUE(saw_nonzero_create);
}

// ---------------------------------------------------------------------------
// Merge field coverage
// ---------------------------------------------------------------------------

TEST(MergeCoverage, NodeStatsMergesEveryField) {
  core::NodeStats a;
  // Assign a distinct value to every scalar counter via the field list;
  // if a new field is added without extending merge(), the static_assert
  // in scheduler.cpp fires first, and this test documents the contract.
  std::uint64_t* scalars[] = {
      &a.local_sends, &a.local_to_dormant, &a.local_to_active,
      &a.local_to_waiting_hit, &a.forced_buffer_depth, &a.remote_sends,
      &a.remote_recv, &a.replies_sent, &a.blocks_await, &a.blocks_select,
      &a.yields, &a.resumes, &a.await_fast_hits, &a.creations_local,
      &a.creations_remote, &a.chunk_stock_hits, &a.chunk_stock_misses,
      &a.sched_enqueues, &a.sched_dispatches, &a.migrations_out,
      &a.migrations_in, &a.migration_mail, &a.migration_forwards,
      &a.migration_updates, &a.migration_holds, &a.busy_instr, &a.idle_instr};
  constexpr std::size_t kScalars = sizeof(scalars) / sizeof(scalars[0]);
  // Negative compile-time guard, paired with the sizeof static_assert in
  // scheduler.cpp's merge(): if NodeStats gains a scalar counter and this
  // list is not extended, the build fails here instead of the runtime loop
  // below passing vacuously over the stale list.
  static_assert(kScalars * sizeof(std::uint64_t) +
                        sizeof(core::NodeStats::msg_latency) +
                        sizeof(core::NodeStats::sched_depth) ==
                    sizeof(core::NodeStats),
                "NodeStats gained a field this coverage list does not name");
  for (std::size_t i = 0; i < kScalars; ++i) {
    *scalars[i] = i + 1;
  }
  for (int c = 0; c < core::NodeStats::kNumAmCategories; ++c) {
    a.msg_latency[c].add(1u << c);
  }
  a.sched_depth.add(100);

  core::NodeStats m;
  m.merge(a);
  m.merge(a);
  const std::uint64_t* merged[] = {
      &m.local_sends, &m.local_to_dormant, &m.local_to_active,
      &m.local_to_waiting_hit, &m.forced_buffer_depth, &m.remote_sends,
      &m.remote_recv, &m.replies_sent, &m.blocks_await, &m.blocks_select,
      &m.yields, &m.resumes, &m.await_fast_hits, &m.creations_local,
      &m.creations_remote, &m.chunk_stock_hits, &m.chunk_stock_misses,
      &m.sched_enqueues, &m.sched_dispatches, &m.migrations_out,
      &m.migrations_in, &m.migration_mail, &m.migration_forwards,
      &m.migration_updates, &m.migration_holds, &m.busy_instr, &m.idle_instr};
  for (std::size_t i = 0; i < kScalars; ++i) {
    EXPECT_EQ(*merged[i], 2 * (i + 1)) << "scalar field index " << i;
  }
  for (int c = 0; c < core::NodeStats::kNumAmCategories; ++c) {
    EXPECT_EQ(m.msg_latency[c].count(), 2u) << "msg_latency category " << c;
  }
  EXPECT_EQ(m.sched_depth.count(), 2u);
}

// ---------------------------------------------------------------------------
// File round-trip (the bench/CI path)
// ---------------------------------------------------------------------------

TEST(Regression, FileCompareRoundTrip) {
  std::string dir = ::testing::TempDir();
  std::string base = dir + "/obs_base.json";
  std::string cand = dir + "/obs_cand.json";
  ASSERT_TRUE(obs::write_file(base, R"({"quanta": 100, "wall_ms": 5.0})"));
  ASSERT_TRUE(obs::write_file(cand, R"({"quanta": 100, "wall_ms": 95.0})"));
  EXPECT_TRUE(obs::compare_json_files(base, cand, 0.0).ok());
  ASSERT_TRUE(obs::write_file(cand, R"({"quanta": 150, "wall_ms": 5.0})"));
  EXPECT_FALSE(obs::compare_json_files(base, cand, 10.0).ok());
  EXPECT_FALSE(obs::compare_json_files(dir + "/absent.json", cand, 0.0).ok());
}

}  // namespace
