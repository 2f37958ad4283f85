// Quickstart: define a concurrent class, build a 4-node world, send some
// past- and now-type messages, and read the results.
//
//   $ ./quickstart
//
// Walkthrough:
//  1. A Program collects message patterns and classes ("compile time").
//  2. A World is the simulated multicomputer (nodes + torus network).
//  3. boot() runs code on a node: create objects, send the first messages.
//  4. run() drives the machine to quiescence; host code then reads state.
#include <cstdio>

#include "abcl/abcl.hpp"
#include "apps/counters.hpp"

using namespace abcl;

int main() {
  // 1. Build the program: the Counter class with noop/inc/add/get methods.
  core::Program prog;
  apps::CounterProgram cp = apps::register_counter(prog);
  prog.finalize();

  // 2. A 4-node torus, paper-calibrated cost model (25 MHz SPARC nodes).
  // from_env() resolves ABCLSIM_HOST_THREADS (and the fault, migration
  // and checkpoint knobs), so the same binary runs serial or host-parallel
  // via env.
  World world(prog, WorldConfig::from_env().with_nodes(4));

  // 3. Create one counter per node and send messages around.
  MailAddr counters[4];
  for (NodeId nid = 0; nid < 4; ++nid) {
    world.boot(nid, [&](Ctx& ctx) {
      Word initial = 100 * static_cast<Word>(nid);
      counters[nid] = ctx.create_local(*cp.cls, &initial, 1);
    });
  }
  world.boot(0, [&](Ctx& ctx) {
    for (NodeId nid = 0; nid < 4; ++nid) {
      ctx.send_past(counters[nid], cp.inc, nullptr, 0);  // local or remote
      Word k = 5;
      ctx.send_past(counters[nid], cp.add, &k, 1);
    }
  });

  // 4. Run to quiescence and inspect.
  RunReport rep = world.run();
  std::printf("quickstart: ran %llu quanta, simulated %.3f ms of machine time\n",
              static_cast<unsigned long long>(rep.quanta), rep.sim_ms);
  for (NodeId nid = 0; nid < 4; ++nid) {
    const auto& st = apps::counter_state(counters[nid]);
    std::printf("  counter[%d] = %lld (expected %lld)\n", nid,
                static_cast<long long>(st.count),
                static_cast<long long>(100 * nid + 6));
  }

  core::NodeStats stats = world.total_stats();
  std::printf("  local sends: %llu (dormant fast path: %llu), remote: %llu\n",
              static_cast<unsigned long long>(stats.local_sends),
              static_cast<unsigned long long>(stats.local_to_dormant),
              static_cast<unsigned long long>(stats.remote_sends));
  return 0;
}
