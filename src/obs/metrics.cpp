#include "obs/metrics.hpp"

#include "net/active_message.hpp"
#include "obs/json.hpp"
#include "sim/parallel_machine.hpp"

namespace abcl::obs {

namespace {

void running_stat_json(JsonWriter& w, const util::RunningStat& s) {
  w.begin_object();
  w.field("count", s.count());
  w.field("mean", s.mean());
  w.field("variance", s.variance());
  w.field("min", s.min());
  w.field("max", s.max());
  w.field("sum", s.sum());
  w.end_object();
}

// The scalar counters shared by the per-node records and the totals block.
// `include_migration` is keyed off WorldConfig.migration.enabled: migration-
// off snapshots must stay byte-identical to baselines written before the
// fields existed.
void node_counters_json(JsonWriter& w, const core::NodeStats& s,
                        bool include_migration) {
  w.field("local_sends", s.local_sends);
  w.field("local_to_dormant", s.local_to_dormant);
  w.field("local_to_active", s.local_to_active);
  w.field("local_to_waiting_hit", s.local_to_waiting_hit);
  w.field("forced_buffer_depth", s.forced_buffer_depth);
  w.field("remote_sends", s.remote_sends);
  w.field("remote_recv", s.remote_recv);
  w.field("replies_sent", s.replies_sent);
  w.field("blocks_await", s.blocks_await);
  w.field("blocks_select", s.blocks_select);
  w.field("yields", s.yields);
  w.field("resumes", s.resumes);
  w.field("await_fast_hits", s.await_fast_hits);
  w.field("creations_local", s.creations_local);
  w.field("creations_remote", s.creations_remote);
  w.field("chunk_stock_hits", s.chunk_stock_hits);
  w.field("chunk_stock_misses", s.chunk_stock_misses);
  w.field("sched_enqueues", s.sched_enqueues);
  w.field("sched_dispatches", s.sched_dispatches);
  if (include_migration) {
    w.field("migrations_out", s.migrations_out);
    w.field("migrations_in", s.migrations_in);
    w.field("migration_mail", s.migration_mail);
    w.field("migration_forwards", s.migration_forwards);
    w.field("migration_updates", s.migration_updates);
    w.field("migration_holds", s.migration_holds);
  }
  w.field("busy_instr", s.busy_instr);
  w.field("idle_instr", s.idle_instr);
}

// Slab-allocator counters. Every field is a function of the node's
// simulated allocation sequence, so the block survives the cross-driver
// byte-identity contract. Magazine/depot occupancy (host-dependent) is
// deliberately NOT here.
void alloc_json(JsonWriter& w, const util::SlabAllocator::Stats& s) {
  w.key("alloc");
  w.begin_object();
  w.field("allocs", s.allocs);
  w.field("frees", s.frees);
  w.field("live", s.live());
  w.field("freelist_hits", s.freelist_hits);
  w.field("slab_refills", s.slab_refills);
  w.field("slots_carved", s.slots_carved);
  w.field("backing_bytes", s.backing_bytes);
  w.end_object();
}

void latency_histograms_json(JsonWriter& w, const core::NodeStats& s) {
  w.key("msg_latency_instr");
  w.begin_object();
  for (int c = 0; c < core::NodeStats::kNumAmCategories; ++c) {
    w.key(net::to_string(static_cast<net::AmCategory>(c)));
    histogram_json(w, s.msg_latency[c]);
  }
  w.end_object();
  w.key("sched_depth");
  histogram_json(w, s.sched_depth);
}

}  // namespace

void histogram_json(JsonWriter& w, const util::Log2Histogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("p50", h.percentile(0.50));
  w.field("p90", h.percentile(0.90));
  w.field("p99", h.percentile(0.99));
  w.key("buckets");
  w.begin_array();
  for (int i = 0; i < util::Log2Histogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    w.begin_array();
    w.value(i);
    w.value(h.bucket(i));
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

std::string metrics_json(const World& world, const RunReport* rep) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", kMetricsSchema);
  w.field("nodes", static_cast<std::int64_t>(world.num_nodes()));
  w.field("seed", world.config().seed);
  w.field("pooling", true);

  if (rep != nullptr) {
    w.key("run");
    w.begin_object();
    w.field("sim_time", rep->sim_time);
    w.field("quanta", rep->quanta);
    w.field("sim_ms", rep->sim_ms);
    w.end_object();
  }

  const net::Network::Stats& ns = world.network().stats();
  w.key("network");
  w.begin_object();
  w.field("packets", ns.packets);
  w.field("payload_words", ns.payload_words);
  w.field("wire_words", ns.wire_words);
  w.field("in_flight", world.network().in_flight());
  w.key("per_category");
  w.begin_object();
  for (int c = 0; c < 4; ++c) {
    w.field(net::to_string(static_cast<net::AmCategory>(c)),
            ns.per_category[c]);
  }
  w.end_object();
  w.key("wire_latency_instr");
  running_stat_json(w, ns.wire_latency_instr);
  // The faults block exists only when a FaultPlan is installed: faults-off
  // snapshots must stay byte-identical to the committed baselines, and the
  // regression gate additionally lists "faults" in its default ignored keys
  // so a fault-run candidate still compares against a faults-off baseline.
  if (world.network().faults_enabled()) {
    const net::FaultConfig& fc = world.network().fault_plan().config();
    const net::FaultStats fs = world.network().fault_stats();
    w.key("faults");
    w.begin_object();
    w.key("config");
    w.begin_object();
    w.field("drop_ppm", static_cast<std::uint64_t>(fc.drop_ppm));
    w.field("dup_ppm", static_cast<std::uint64_t>(fc.dup_ppm));
    w.field("delay_ppm", static_cast<std::uint64_t>(fc.delay_ppm));
    w.field("delay_max", fc.delay_max);
    w.field("blackout_ppm", static_cast<std::uint64_t>(fc.blackout_ppm));
    w.field("blackout_window", fc.blackout_window);
    w.field("rto", world.network().fault_plan().rto());
    w.field("rto_max", fc.rto_max);
    w.field("seed", fc.seed);
    w.end_object();
    w.field("attempts", fs.attempts);
    w.field("drops", fs.drops);
    w.field("blackout_drops", fs.blackout_drops);
    w.field("duplicates", fs.duplicates);
    w.field("delays", fs.delays);
    w.field("spurious_retransmits", fs.spurious_retransmits);
    w.field("forced_deliveries", fs.forced_deliveries);
    w.field("copies_enqueued", fs.copies_enqueued);
    w.field("delivered", fs.delivered);
    w.field("dup_suppressed", fs.dup_suppressed);
    w.key("retry_delay_instr");
    histogram_json(w, fs.retry_delay_instr);
    w.end_object();
  }
  w.end_object();

  // The migration block mirrors "faults": present only when the knob is on
  // (migration-off byte-identity), ignored by default in the regression
  // comparator so a migration-run candidate can diff against an off
  // baseline.
  const bool migration_on = world.config().migration.enabled;
  if (migration_on) {
    const remote::MigrationConfig& mc = world.config().migration;
    w.key("migration");
    w.begin_object();
    w.key("config");
    w.begin_object();
    w.field("interval", static_cast<std::uint64_t>(mc.interval));
    w.field("hysteresis", static_cast<std::uint64_t>(mc.hysteresis));
    w.field("max_batch", static_cast<std::uint64_t>(mc.max_batch));
    w.field("min_queue", static_cast<std::uint64_t>(mc.min_queue));
    w.field("seed", mc.seed);
    w.end_object();
    const core::NodeStats t = world.total_stats();
    w.field("migrations", t.migrations_out);
    w.field("mail_flushed", t.migration_mail);
    w.field("forwards", t.migration_forwards);
    w.field("updates", t.migration_updates);
    w.field("holds", t.migration_holds);
    w.end_object();
  }

  core::NodeStats totals = world.total_stats();
  w.key("totals");
  w.begin_object();
  node_counters_json(w, totals, migration_on);
  w.field("live_objects", static_cast<std::uint64_t>(world.total_live_objects()));
  w.field("created_objects", world.total_created_objects());
  w.field("heap_bytes", static_cast<std::uint64_t>(world.total_heap_bytes()));
  w.field("max_clock", world.max_clock());
  alloc_json(w, world.total_alloc_stats());
  latency_histograms_json(w, totals);
  w.end_object();

  w.key("per_node");
  w.begin_array();
  for (std::int32_t i = 0; i < world.num_nodes(); ++i) {
    const core::NodeRuntime& n = world.node(i);
    w.begin_object();
    w.field("node", static_cast<std::int64_t>(n.node_id()));
    w.field("clock", n.clock());
    node_counters_json(w, n.stats(), migration_on);
    w.field("live_objects", static_cast<std::uint64_t>(n.live_objects()));
    w.field("created_objects", n.total_created());
    w.field("heap_bytes", static_cast<std::uint64_t>(n.heap_bytes()));
    w.field("sched_queue_len", static_cast<std::uint64_t>(n.sched_queue_len()));
    w.field("net_pending", static_cast<std::uint64_t>(
                               world.network().pending(n.node_id())));
    alloc_json(w, n.alloc_stats());
    latency_histograms_json(w, n.stats());
    w.end_object();
  }
  w.end_array();

  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

std::string driver_metrics_json(const sim::ParallelMachine& pm) {
  JsonWriter w(/*indent=*/0);
  w.begin_object();
  w.field("windows_run", pm.windows_run());
  w.field("occupancy_sum", pm.occupancy_sum());
  w.end_object();
  return w.take();
}

}  // namespace abcl::obs
