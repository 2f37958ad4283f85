// Execution tracing and utilization reporting.
//
//   $ ./trace_demo [N] [nodes] [trace.json]
//
// Runs N-queens with a tracer attached, prints the per-node utilization
// table and a coarse text timeline of quantum activity per node — a quick
// way to see load balance and the idle tail at the end of a run. With a
// third argument, additionally writes the trace in Chrome trace-event
// format: open the file at https://ui.perfetto.dev (or chrome://tracing)
// to browse it interactively; see EXPERIMENTS.md for the recipe.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "apps/nqueens.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/json.hpp"
#include "sim/trace.hpp"

using namespace abcl;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 9;
  int nodes = argc > 2 ? std::atoi(argv[2]) : 8;
  const char* trace_path = argc > 3 ? argv[3] : nullptr;
  if (n < 4 || n > 13 || nodes < 1 || nodes > 64) {
    std::fprintf(stderr, "usage: %s [N 4..13] [nodes 1..64] [trace.json]\n",
                 argv[0]);
    return 1;
  }

  core::Program prog;
  apps::NQueensProgram np = apps::register_nqueens(prog);
  prog.finalize();

  World world(prog, WorldConfig::from_env().with_nodes(nodes));
  sim::Tracer tracer(1u << 20);
  world.attach_tracer(&tracer);

  apps::NQueensParams p;
  p.n = n;
  apps::NQueensResult r = apps::run_nqueens(world, np, p);

  std::printf("N=%d on %d nodes: %lld solutions, %.2f ms simulated, "
              "mean utilization %.0f%%\n\n",
              n, nodes, static_cast<long long>(r.solutions), r.sim_ms,
              world.mean_utilization() * 100.0);
  world.utilization_table().print();

  // One merge of the per-node rings serves both the export and the timeline.
  const auto events = tracer.snapshot();
  if (trace_path != nullptr) {
    if (obs::write_file(trace_path, obs::chrome_trace_json(events))) {
      std::printf("\nwrote %s (load it at https://ui.perfetto.dev)\n",
                  trace_path);
    } else {
      std::fprintf(stderr, "could not write %s\n", trace_path);
      return 1;
    }
  }

  // Coarse activity timeline: one row per node, 64 buckets over the run;
  // darker glyphs = more quanta started in that interval.
  sim::Instr end = world.max_clock();
  if (end == 0 || events.empty()) return 0;
  constexpr int kBuckets = 64;
  std::vector<std::vector<int>> activity(
      static_cast<std::size_t>(nodes), std::vector<int>(kBuckets, 0));
  for (const auto& e : events) {
    if (e.kind != sim::TraceEv::kQuantum) continue;
    int b = static_cast<int>(e.t * kBuckets / (end + 1));
    activity[static_cast<std::size_t>(e.node)][static_cast<std::size_t>(b)] += 1;
  }
  int peak = 1;
  for (auto& row : activity) {
    for (int v : row) peak = std::max(peak, v);
  }
  const char* glyphs = " .:-=+*#%@";
  std::printf("\nquantum-activity timeline (%.2f ms across, %d buckets; "
              "%zu of %llu events kept, each node's newest %zu at most)\n",
              r.sim_ms, kBuckets, events.size(),
              static_cast<unsigned long long>(tracer.total_recorded()),
              tracer.capacity());
  for (int nid = 0; nid < nodes; ++nid) {
    std::printf("node %2d |", nid);
    for (int b = 0; b < kBuckets; ++b) {
      int v = activity[static_cast<std::size_t>(nid)][static_cast<std::size_t>(b)];
      int g = v == 0 ? 0 : 1 + v * 8 / peak;
      std::putchar(glyphs[g]);
    }
    std::printf("|\n");
  }
  return 0;
}
