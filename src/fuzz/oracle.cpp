#include "fuzz/oracle.hpp"

#include <string>

#include "obs/metrics.hpp"

namespace abcl::fuzz {

namespace {

// Serial-machine sentinel (see WorldConfig::host_threads).
constexpr int kSerial = -1;

std::string where(int threads) {
  return threads == kSerial ? std::string("serial")
                            : "threads=" + std::to_string(threads);
}

bool set_failure(OracleResult& r, std::string msg) {
  if (r.ok) {
    r.ok = false;
    r.failure = std::move(msg);
  }
  return false;
}

#define FUZZ_EXPECT(res, cond, msg) \
  do {                              \
    if (!(cond)) {                  \
      set_failure((res), (msg));    \
      return false;                 \
    }                               \
  } while (0)

bool check_invariants(const Spec& spec, const RunResult& rr,
                      OracleResult& res) {
  const auto nboot = static_cast<std::uint64_t>(spec.boot.size());
  FUZZ_EXPECT(res, rr.latch_done, "latch not done: some chain never finished");
  FUZZ_EXPECT(res,
              rr.latch_received == static_cast<std::int64_t>(nboot) &&
                  rr.latch_total == static_cast<std::int64_t>(nboot),
              "latch count mismatch: expected " + std::to_string(nboot) +
                  ", received " + std::to_string(rr.latch_received));
  const Counters& t = rr.total;
  FUZZ_EXPECT(res, t.dones == nboot, "chain terminations != boot chains");
  FUZZ_EXPECT(res, t.steps_run == t.steps_sent + nboot,
              "step conservation violated: run " + std::to_string(t.steps_run) +
                  " != sent " + std::to_string(t.steps_sent) + " + boot " +
                  std::to_string(nboot));
  FUZZ_EXPECT(res, t.asks_made == t.asks_answered,
              "ask conservation violated: made " + std::to_string(t.asks_made) +
                  " != answered " + std::to_string(t.asks_answered));
  FUZZ_EXPECT(res, t.tokens_requested == t.tokens_emitted,
              "token requests != emissions");
  FUZZ_EXPECT(res, t.tokens_emitted == t.tokens_got + t.tokens_stray,
              "token conservation violated: emitted " +
                  std::to_string(t.tokens_emitted) + " != got " +
                  std::to_string(t.tokens_got) + " + stray " +
                  std::to_string(t.tokens_stray));
  FUZZ_EXPECT(res, t.creates_begun == t.creates_done,
              "remote creations begun != finished");
  // Chunk-stock shells (format_chunk) count toward total_created_objects:
  // seeding formats depth chunks per ordered node pair, and each
  // stock-routed create triggers at most one replenish. Every completed
  // create consumes exactly one counted object, so the count is exact when
  // no stock chunk can exist and tightly bounded otherwise.
  const std::uint64_t floor_created =
      spec.objects.size() + 1 + t.creates_done;
  const auto n = static_cast<std::uint64_t>(spec.nodes);
  const std::uint64_t seeded =
      n * (n - 1) * static_cast<std::uint64_t>(spec.seed_stock_depth);
  const std::uint64_t replenished = spec.disable_replenish ? 0 : t.creates_done;
  if (spec.seed_stock_depth == 0 && spec.disable_replenish) {
    FUZZ_EXPECT(res, rr.created == floor_created,
                "created-object count != statics + latch + dynamics "
                "(no stock chunks possible)");
  } else {
    FUZZ_EXPECT(res,
                rr.created >= floor_created &&
                    rr.created <= floor_created + seeded + replenished,
                "created-object count " + std::to_string(rr.created) +
                    " outside [" + std::to_string(floor_created) + ", " +
                    std::to_string(floor_created + seeded + replenished) +
                    "]");
  }
  FUZZ_EXPECT(res, rr.waiting_objects == 0,
              "object left in waiting mode at quiescence");
  FUZZ_EXPECT(res, rr.queued_msgs == 0,
              "message left queued at quiescence");
  if (spec.faults.has_value()) {
    // Exactly-once delivery under faults. `packets` counts logical sends
    // (the commit-side view before the retry protocol multiplies them into
    // physical copies); every one must be dispatched to its handler exactly
    // once, and every surviving extra copy must be suppressed — the
    // conservation chain attempts -> copies -> delivered closes exactly.
    FUZZ_EXPECT(res, rr.fault_delivered == rr.packets,
                "faults: delivered " + std::to_string(rr.fault_delivered) +
                    " != logical packets " + std::to_string(rr.packets) +
                    " (lost or multiply-dispatched message)");
    FUZZ_EXPECT(res,
                rr.fault_delivered + rr.fault_dup_suppressed == rr.fault_copies,
                "faults: delivered + suppressed != copies enqueued");
    FUZZ_EXPECT(res,
                rr.fault_copies ==
                    rr.fault_attempts - rr.fault_drops + rr.fault_duplicates,
                "faults: copy conservation violated (attempts " +
                    std::to_string(rr.fault_attempts) + " - losses " +
                    std::to_string(rr.fault_drops) + " + dups " +
                    std::to_string(rr.fault_duplicates) + " != copies " +
                    std::to_string(rr.fault_copies) + ")");
    FUZZ_EXPECT(res, rr.fault_attempts >= rr.packets,
                "faults: fewer physical attempts than logical packets");
  } else {
    FUZZ_EXPECT(res, rr.fault_attempts == 0 && rr.fault_copies == 0,
                "faults-off run reported fault activity");
  }
  if (spec.migration.has_value()) {
    // Object conservation: every migration that left a node was installed
    // at exactly one new home. Combined with the step/ask/token identities
    // above — which count dispatches wherever the message actually lands —
    // and the empty-queue quiescence probes (which follow forwarding
    // chains), this closes the exactly-once-at-exactly-one-home argument
    // even when shedding races the fault plan.
    FUZZ_EXPECT(res, rr.migrations_out == rr.migrations_in,
                "migration conservation violated: out " +
                    std::to_string(rr.migrations_out) + " != in " +
                    std::to_string(rr.migrations_in));
  } else {
    FUZZ_EXPECT(res,
                rr.migrations_out == 0 && rr.migrations_in == 0 &&
                    rr.migration_mail == 0 && rr.migration_forwards == 0 &&
                    rr.migration_updates == 0 && rr.migration_holds == 0,
                "migration-off run reported migration activity");
  }
  return true;
}

bool check_identical(const RunResult& a, const RunResult& b,
                     const std::string& w, OracleResult& res) {
  FUZZ_EXPECT(res, b.sim_time == a.sim_time, w + ": sim_time differs");
  FUZZ_EXPECT(res, b.quanta == a.quanta, w + ": quanta differ");
  FUZZ_EXPECT(res, b.trace_events == a.trace_events,
              w + ": trace event count differs");
  FUZZ_EXPECT(res, b.trace_hash == a.trace_hash,
              w + ": trace fingerprint differs");
  FUZZ_EXPECT(res, b.packets == a.packets, w + ": packet count differs");
  FUZZ_EXPECT(res, b.wire_words == a.wire_words, w + ": wire words differ");
  for (int c = 0; c < 4; ++c) {
    FUZZ_EXPECT(res, b.per_category[c] == a.per_category[c],
                w + ": AM category " + std::to_string(c) + " count differs");
  }
  FUZZ_EXPECT(res, b.created == a.created, w + ": created objects differ");
  FUZZ_EXPECT(res, b.per_node == a.per_node,
              w + ": per-node flow counters differ");
  FUZZ_EXPECT(res,
              b.latch_done == a.latch_done &&
                  b.latch_received == a.latch_received &&
                  b.latch_total == a.latch_total,
              w + ": latch state differs");
  FUZZ_EXPECT(res,
              b.fault_attempts == a.fault_attempts &&
                  b.fault_drops == a.fault_drops &&
                  b.fault_duplicates == a.fault_duplicates &&
                  b.fault_copies == a.fault_copies &&
                  b.fault_delivered == a.fault_delivered &&
                  b.fault_dup_suppressed == a.fault_dup_suppressed &&
                  b.fault_forced == a.fault_forced,
              w + ": fault-schedule counters differ");
  FUZZ_EXPECT(res,
              b.migrations_out == a.migrations_out &&
                  b.migrations_in == a.migrations_in &&
                  b.migration_mail == a.migration_mail &&
                  b.migration_forwards == a.migration_forwards &&
                  b.migration_updates == a.migration_updates &&
                  b.migration_holds == a.migration_holds,
              w + ": migration-schedule counters differ");
  FUZZ_EXPECT(res, b.metrics_json == a.metrics_json,
              w + ": metrics_json not byte-identical");
  return true;
}

// The flow-determined projection of a Counters record: every field whose
// value depends only on the message multiset, not on arrival interleaving.
// ask_sum/tok_sum (state-dependent reply values) and the got/stray token
// split (races) are deliberately excluded.
struct FlowCounters {
  std::uint64_t steps_run, steps_sent, asks_made, asks_answered;
  std::uint64_t tokens_requested, tokens_emitted, tokens_consumed;
  std::uint64_t creates_begun, creates_done, dones;

  explicit FlowCounters(const Counters& c)
      : steps_run(c.steps_run),
        steps_sent(c.steps_sent),
        asks_made(c.asks_made),
        asks_answered(c.asks_answered),
        tokens_requested(c.tokens_requested),
        tokens_emitted(c.tokens_emitted),
        tokens_consumed(c.tokens_got + c.tokens_stray),
        creates_begun(c.creates_begun),
        creates_done(c.creates_done),
        dones(c.dones) {}

  bool operator==(const FlowCounters&) const = default;
};

bool check_metamorphic(const Spec& spec, const RunResult& base,
                       const RunResult& scaled, OracleResult& res) {
  FUZZ_EXPECT(res, scaled.per_node.size() == base.per_node.size(),
              "metamorphic: node count changed");
  if (spec.migration.has_value() && spec.migration->enabled) {
    // Work shedding keys off run-queue depth versus gossiped neighbor load,
    // both of which shift when wire latency scales — objects legitimately
    // re-home, so per-node attribution is NOT latency-invariant. The world
    // totals still are: migration moves work, it never creates or loses it.
    FUZZ_EXPECT(res, FlowCounters(scaled.total) == FlowCounters(base.total),
                "metamorphic: total flow counters changed under latency "
                "scale-up (with migration enabled)");
  } else {
    for (std::size_t i = 0; i < base.per_node.size(); ++i) {
      FUZZ_EXPECT(res,
                  FlowCounters(scaled.per_node[i]) ==
                      FlowCounters(base.per_node[i]),
                  "metamorphic: flow counters changed under latency scale-up "
                  "(node " +
                      std::to_string(i) + ")");
    }
  }
  FUZZ_EXPECT(res,
              scaled.latch_done && scaled.latch_received == base.latch_received,
              "metamorphic: latch state changed under latency scale-up");
  // Completion time is deliberately NOT asserted monotone: sweeping seeds
  // 1..256 found workloads (e.g. 239, 255) that finish EARLIER under 4x
  // wire latency — later arrivals can turn queued dispatches into direct
  // calls (stack scheduling), shedding enough quantum/enqueue overhead to
  // beat the added wire time. Only the flow counters and the terminal
  // latch state are latency-invariant.
  return true;
}

#undef FUZZ_EXPECT

}  // namespace

namespace {

// Assembles the observable record of a finished run. `rep` must carry the
// run's cumulative quanta (for a restored world: resumed_quanta() plus the
// post-restore report), so a resumed run's record is comparable
// byte-for-byte with an uninterrupted one.
RunResult collect(FuzzWorld& fw, const HashTracer& tracer,
                  const RunReport& rep) {
  RunResult rr;
  rr.metrics_json = obs::metrics_json(fw.world(), &rep);
  rr.trace_hash = tracer.hash();
  rr.trace_events = tracer.events();
  rr.sim_time = rep.sim_time;
  rr.quanta = rep.quanta;
  rr.per_node = fw.per_node();
  rr.total = fw.total();
  const net::Network::Stats& ns = fw.world().network().stats();
  rr.packets = ns.packets;
  rr.wire_words = ns.wire_words;
  for (int c = 0; c < 4; ++c) rr.per_category[c] = ns.per_category[c];
  rr.created = fw.world().total_created_objects();
  const CompletionLatch& l = fw.latch();
  rr.latch_received = l.received;
  rr.latch_total = l.total;
  rr.latch_done = l.done();
  rr.waiting_objects = fw.waiting_static_objects();
  rr.queued_msgs = fw.queued_static_msgs();
  const core::NodeStats ts = fw.world().total_stats();
  rr.migrations_out = ts.migrations_out;
  rr.migrations_in = ts.migrations_in;
  rr.migration_mail = ts.migration_mail;
  rr.migration_forwards = ts.migration_forwards;
  rr.migration_updates = ts.migration_updates;
  rr.migration_holds = ts.migration_holds;
  if (fw.world().network().faults_enabled()) {
    const net::FaultStats fs = fw.world().network().fault_stats();
    rr.fault_attempts = fs.attempts;
    rr.fault_drops = fs.drops + fs.blackout_drops;
    rr.fault_duplicates = fs.duplicates;
    rr.fault_copies = fs.copies_enqueued;
    rr.fault_delivered = fs.delivered;
    rr.fault_dup_suppressed = fs.dup_suppressed;
    rr.fault_forced = fs.forced_deliveries;
  }
  return rr;
}

}  // namespace

RunResult run_spec(const Spec& spec, int host_threads,
                   const sim::CostModel& cost) {
  HashTracer tracer;
  FuzzWorld fw(spec, host_threads, &tracer, cost);
  RunReport rep = fw.world().run();
  return collect(fw, tracer, rep);
}

RunResult run_spec_with_checkpoint(const Spec& spec, int host_threads,
                                   std::uint64_t at, int restore_host_threads,
                                   const sim::CostModel& cost) {
  HashTracer tracer;
  ckpt::CheckpointConfig ck;
  ck.enabled = true;
  ck.at = at;
  FuzzWorld fw(spec, host_threads, &tracer, cost, ck);
  fw.world().run();  // stops at the `at` boundary (or quiesces before it)

  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  ckpt::MemSource src(sink.take());
  fw.restore_world(src, &tracer, restore_host_threads);

  RunReport rep = fw.world().run();
  rep.quanta += fw.world().resumed_quanta();
  return collect(fw, tracer, rep);
}

RunResult run_spec_with_crash(const Spec& spec, int host_threads,
                              std::uint64_t at, std::uint64_t crash_at,
                              const sim::CostModel& cost) {
  HashTracer tracer;
  ckpt::CheckpointConfig ck;
  ck.enabled = true;
  ck.at = at;
  FuzzWorld fw(spec, host_threads, &tracer, cost, ck);
  fw.world().run();  // to the checkpoint boundary

  ckpt::MemSink sink;
  fw.checkpoint_to(sink);
  const std::vector<Counters> saved_counters = fw.per_node();
  const HashTracer::State saved_trace = tracer.state();

  // Run on toward the crash instant; everything this segment does — world
  // state, counters, trace events — is about to be lost.
  fw.world().run(crash_at);

  // Crash + recovery: the world is gone; app-side effects roll back to
  // their checkpoint-time copies, then deterministic replay re-earns them.
  tracer.restore_state(saved_trace);
  fw.reset_counters(saved_counters);
  ckpt::MemSource src(sink.take());
  fw.restore_world(src, &tracer);

  RunReport rep = fw.world().run();
  rep.quanta += fw.world().resumed_quanta();
  return collect(fw, tracer, rep);
}

OracleResult check_spec(const Spec& spec, const OracleOptions& opts) {
  OracleResult res;
  res.serial = run_spec(spec, kSerial);
  if (!check_invariants(spec, res.serial, res)) return res;
  for (int t : opts.thread_counts) {
    RunResult rr = run_spec(spec, t);
    if (!check_identical(res.serial, rr, where(t), res)) return res;
  }
  if (opts.metamorphic) {
    sim::CostModel scaled = sim::CostModel::ap1000();
    scaled.wire_latency *= 4;
    scaled.per_hop *= 2;
    RunResult rr = run_spec(spec, kSerial, scaled);
    if (!check_metamorphic(spec, res.serial, rr, res)) return res;
  }
  return res;
}

OracleResult check_spec_checkpoint(const Spec& spec,
                                   const CheckpointOracleOptions& opts) {
  OracleResult res;
  res.serial = run_spec(spec, kSerial);
  if (!check_invariants(spec, res.serial, res)) return res;
  // Default boundaries land mid-workload: halfway to quiescence for the
  // checkpoint, halfway through the remainder for the crash. (`at` must be
  // >= 1; a degenerate baseline still yields a valid boundary.)
  const std::uint64_t at = opts.at != 0 ? opts.at : res.serial.sim_time / 2 + 1;
  const std::uint64_t crash_at =
      opts.crash_at != 0 ? opts.crash_at
                         : at + (res.serial.sim_time - at) / 2 + 1;
  const sim::CostModel cost = sim::CostModel::ap1000();
  {
    RunResult rr = run_spec_with_checkpoint(spec, kSerial, at, 0, cost);
    if (!check_identical(res.serial, rr, "ckpt+restore serial", res)) {
      return res;
    }
  }
  for (int t : opts.thread_counts) {
    RunResult rr = run_spec_with_checkpoint(spec, t, at, 0, cost);
    if (!check_identical(res.serial, rr, "ckpt+restore " + where(t), res)) {
      return res;
    }
  }
  {
    // Cross-driver: capture under the serial machine, resume host-parallel.
    RunResult rr = run_spec_with_checkpoint(spec, kSerial, at, 2, cost);
    if (!check_identical(res.serial, rr,
                         "ckpt serial, restore threads=2", res)) {
      return res;
    }
  }
  {
    RunResult rr = run_spec_with_crash(spec, kSerial, at, crash_at, cost);
    if (!check_identical(res.serial, rr, "crash-recovery", res)) return res;
  }
  return res;
}

}  // namespace abcl::fuzz
