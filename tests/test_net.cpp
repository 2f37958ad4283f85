// Tests for the network substrate: topology metrics, FIFO delivery,
// latency pricing, and loss-freedom under random traffic (property tests).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "util/rng.hpp"

namespace {

using namespace abcl;
using net::Packet;
using net::Topology;
using net::TopologyKind;

// ------------------------------------------------------------ Topology -----

TEST(Topology, FactorizationIsNearSquare) {
  Topology t(TopologyKind::kTorus2D, 512);
  EXPECT_EQ(t.dim_x() * t.dim_y(), 512);
  EXPECT_EQ(t.dim_x(), 32);
  EXPECT_EQ(t.dim_y(), 16);
  Topology s(TopologyKind::kTorus2D, 64);
  EXPECT_EQ(s.dim_x(), 8);
  EXPECT_EQ(s.dim_y(), 8);
}

TEST(Topology, HopsZeroIffSame) {
  for (auto kind : {TopologyKind::kTorus2D, TopologyKind::kMesh2D,
                    TopologyKind::kFullyConnected}) {
    Topology t(kind, 16);
    for (int i = 0; i < 16; ++i) {
      for (int j = 0; j < 16; ++j) {
        EXPECT_EQ(t.hops(i, j) == 0, i == j);
      }
    }
  }
}

TEST(Topology, TorusWrapAroundShortens) {
  Topology t(TopologyKind::kTorus2D, 16);  // 4x4
  // Nodes 0 and 3 are 3 apart on a mesh row but 1 apart on the torus.
  EXPECT_EQ(t.hops(0, 3), 1);
  Topology m(TopologyKind::kMesh2D, 16);
  EXPECT_EQ(m.hops(0, 3), 3);
}

TEST(Topology, FullyConnectedAlwaysOneHop) {
  Topology t(TopologyKind::kFullyConnected, 10);
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i != j) {
        EXPECT_EQ(t.hops(i, j), 1);
      }
    }
  }
}

class TopologyProps
    : public ::testing::TestWithParam<std::tuple<TopologyKind, int>> {};

TEST_P(TopologyProps, HopsAreSymmetricAndBounded) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(t.hops(i, j), t.hops(j, i));
      EXPECT_LE(t.hops(i, j), t.diameter());
      EXPECT_GE(t.hops(i, j), 0);
    }
  }
}

TEST_P(TopologyProps, TriangleInequality) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  util::Xoshiro256 rng(5);
  for (int it = 0; it < 300; ++it) {
    int a = static_cast<int>(rng.below(n));
    int b = static_cast<int>(rng.below(n));
    int c = static_cast<int>(rng.below(n));
    EXPECT_LE(t.hops(a, c), t.hops(a, b) + t.hops(b, c));
  }
}

TEST_P(TopologyProps, NeighborsAreMutualAndOneHop) {
  auto [kind, n] = GetParam();
  Topology t(kind, n);
  for (int i = 0; i < n; ++i) {
    for (auto nb : t.neighbors(i)) {
      EXPECT_NE(nb, i);
      EXPECT_EQ(t.hops(i, nb), 1);
      if (kind != TopologyKind::kFullyConnected) {
        // mutual (fully-connected caps the list, so skip there)
        auto back = t.neighbors(nb);
        EXPECT_NE(std::find(back.begin(), back.end(), i), back.end());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyProps,
    ::testing::Combine(::testing::Values(TopologyKind::kTorus2D,
                                         TopologyKind::kMesh2D,
                                         TopologyKind::kFullyConnected,
                                         TopologyKind::kRing),
                       ::testing::Values(1, 2, 6, 16, 31, 64)));

INSTANTIATE_TEST_SUITE_P(
    HypercubeShapes, TopologyProps,
    ::testing::Combine(::testing::Values(TopologyKind::kHypercube),
                       ::testing::Values(1, 2, 16, 64)));

TEST(Topology, RingWrapsBothWays) {
  Topology r(TopologyKind::kRing, 10);
  EXPECT_EQ(r.hops(0, 9), 1);
  EXPECT_EQ(r.hops(0, 5), 5);
  EXPECT_EQ(r.hops(2, 8), 4);
  EXPECT_EQ(r.diameter(), 5);
  auto nb = r.neighbors(0);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], 1);
  EXPECT_EQ(nb[1], 9);
}

TEST(Topology, HypercubeHopsAreHammingDistance) {
  Topology h(TopologyKind::kHypercube, 16);
  EXPECT_EQ(h.hops(0b0000, 0b1111), 4);
  EXPECT_EQ(h.hops(0b0101, 0b0110), 2);
  EXPECT_EQ(h.diameter(), 4);
  EXPECT_EQ(h.neighbors(0).size(), 4u);
}

TEST(TopologyDeath, HypercubeRequiresPowerOfTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ Topology h(TopologyKind::kHypercube, 12); }, "power-of-two");
}

// ------------------------------------------------------------- Network -----

net::Network make_net(int nodes, const sim::CostModel* cm) {
  return net::Network(Topology(TopologyKind::kTorus2D, nodes), cm);
}

Packet make_pkt(int src, int dst, sim::Instr t, net::Word tag = 0) {
  Packet p;
  p.handler = 0;
  p.src = src;
  p.dst = dst;
  p.send_time = t;
  p.push(tag);
  return p;
}

TEST(Network, LatencyPricing) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(16, &cm);
  net.send(make_pkt(0, 1, 100), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  sim::Instr expected = 100 + cm.wire_latency + 1 * cm.per_hop +
                        static_cast<sim::Instr>(out.wire_words()) * cm.per_word;
  EXPECT_EQ(out.arrive_time, expected);
}

TEST(Network, PollRespectsArrivalTime) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net.send(make_pkt(0, 1, 0), net::AmCategory::kObjectMessage);
  Packet out;
  EXPECT_FALSE(net.poll(1, 0, out));  // not arrived yet
  EXPECT_EQ(net.next_arrival(1), cm.wire_latency + cm.per_hop + 5 * cm.per_word);
  EXPECT_TRUE(net.poll(1, net.next_arrival(1), out));
  EXPECT_TRUE(net.idle());
}

TEST(Network, ChannelFifoEvenWithReorderedSendTimes) {
  // Two sends on the same channel where the second "catches up": arrival
  // times must stay nondecreasing in send order.
  sim::CostModel cm = sim::CostModel::zero();
  cm.wire_latency = 100;
  auto net = make_net(4, &cm);
  Packet a = make_pkt(0, 1, 0, 1);
  a.push(0);  // bigger payload -> would arrive later under per-word pricing
  net.send(std::move(a), net::AmCategory::kObjectMessage);
  net.send(make_pkt(0, 1, 1, 2), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  EXPECT_EQ(out.at(0), 1u);
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  EXPECT_EQ(out.at(0), 2u);
}

// Above 1,024 nodes the channel floors and the fault layer's link seqs live
// in hash maps keyed by (src, dst) instead of flat matrices; 1,025 nodes
// takes that path. The state must stay per channel: (a, b) and (b, a), and
// channels that share a source or a destination, never share it.
TEST(Network, ChannelMapsAboveTheMatrixLimitStayPerChannel) {
  constexpr int kNodes = 1025;
  sim::CostModel cm = sim::CostModel::ap1000();
  const Topology topo(TopologyKind::kTorus2D, kNodes);
  const std::pair<int, int> channels[] = {
      {1024, 3}, {3, 1024}, {1023, 3}, {1024, 1023}, {0, 1024}};
  util::Xoshiro256 rng(7);
  std::vector<Packet> sends;
  for (net::Word i = 0; i < 400; ++i) {
    auto [src, dst] = channels[rng.below(5)];
    // Send times out of order, so the per-channel clamp engages.
    sends.push_back(make_pkt(src, dst, rng.below(2000), i));
  }
  // Reference: each channel's floor and link seq, in send order.
  std::map<std::pair<int, int>, sim::Instr> floor;
  std::map<std::pair<int, int>, std::uint64_t> next_link_seq;
  std::vector<sim::Instr> want_arrive;
  std::vector<std::uint64_t> want_link_seq;
  int clamped = 0;
  for (const Packet& p : sends) {
    const auto hops = static_cast<sim::Instr>(topo.hops(p.src, p.dst));
    sim::Instr a = p.send_time + cm.wire_latency + hops * cm.per_hop +
                   static_cast<sim::Instr>(p.wire_words()) * cm.per_word;
    sim::Instr& f = floor[{p.src, p.dst}];
    if (a < f) {
      a = f;
      ++clamped;
    }
    f = a;
    want_arrive.push_back(a);
    want_link_seq.push_back(next_link_seq[{p.src, p.dst}]++);
  }
  ASSERT_GT(clamped, 0);

  // Faults off, then a drop-heavy plan. The link seq is a fault-hash input:
  // each delivered copy's attempt number must be the first attempt the
  // drop hash lets through for the reference per-channel link seq, and it
  // arrives that attempt's backoffs after the fault-free arrival.
  for (bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "drop-heavy fault plan" : "faults off");
    net::FaultConfig fc;
    fc.enabled = faulted;
    fc.drop_ppm = 500'000;
    net::Network net(topo, &cm, {}, fc);
    for (const Packet& p : sends) net.send(p, net::AmCategory::kObjectMessage);
    std::vector<int> seen(sends.size(), 0);
    std::uint64_t retried = 0;
    for (int dst : {3, 1023, 1024}) {
      Packet out;
      bool dup = true;
      while (net.poll(dst, sim::kInstrInf, out, &dup)) {
        const auto i = static_cast<std::size_t>(out.at(0));
        ASSERT_LT(i, sends.size());
        if (dup) {
          EXPECT_TRUE(faulted);
          EXPECT_EQ(seen[i], 1) << "packet " << i;
          continue;
        }
        ++seen[i];
        sim::Instr arrive = want_arrive[i];
        if (faulted) {
          const net::FaultPlan& plan = net.fault_plan();
          std::uint32_t attempt = 0;
          while (attempt + 1 < net::FaultPlan::kMaxAttempts &&
                 plan.drop(out.src, out.dst, want_link_seq[i], attempt)) {
            arrive += plan.backoff(attempt++);
          }
          EXPECT_EQ(out.retries, attempt) << "packet " << i;
          retried += attempt != 0 ? 1 : 0;
        }
        EXPECT_EQ(out.arrive_time, arrive) << "packet " << i;
      }
    }
    for (std::size_t i = 0; i < sends.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "packet " << i;
    }
    EXPECT_TRUE(net.idle());
    if (faulted) {
      EXPECT_GT(retried, sends.size() / 4);  // the drops really fired
      const net::FaultStats fs = net.fault_stats();
      EXPECT_EQ(fs.delivered, sends.size());
      EXPECT_EQ(fs.delivered + fs.dup_suppressed, fs.copies_enqueued);
    }
  }
}

TEST(Network, MinPacketLatencyCachedAndClampedToOne) {
  // ap1000: the floor is wire_latency plus the 4 mandatory header words.
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(16, &cm);
  EXPECT_EQ(net.min_packet_latency(), cm.wire_latency + 4 * cm.per_word);

  // Free wire + free words (per-hop-only pricing, which still satisfies the
  // wire_latency + per_hop > 0 invariant): the lookahead clamps up to 1 —
  // a zero-width window could never advance.
  sim::CostModel free_wire = sim::CostModel::zero();
  free_wire.wire_latency = 0;
  free_wire.per_word = 0;
  free_wire.per_hop = 1;
  auto net0 = make_net(16, &free_wire);
  EXPECT_EQ(net0.min_packet_latency(), 1);
}

TEST(Network, InFlightCountsAndStats) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  for (int i = 0; i < 10; ++i) {
    net.send(make_pkt(0, 1, 0), net::AmCategory::kObjectMessage);
  }
  net.send(make_pkt(0, 2, 0), net::AmCategory::kCreateRequest);
  EXPECT_EQ(net.in_flight(), 11u);
  EXPECT_EQ(net.stats().packets, 11u);
  EXPECT_EQ(net.stats().per_category[0], 10u);
  EXPECT_EQ(net.stats().per_category[1], 1u);
  Packet out;
  while (net.poll(1, sim::kInstrInf, out)) {
  }
  EXPECT_EQ(net.in_flight(), 1u);
}

TEST(Network, OnDeliverableCallbackFires) {
  sim::CostModel cm = sim::CostModel::ap1000();
  std::vector<int> notified;
  net::Network net(Topology(TopologyKind::kTorus2D, 4), &cm,
                   [&](net::NodeId d) { notified.push_back(d); });
  net.send(make_pkt(0, 3, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage);
  ASSERT_EQ(notified.size(), 2u);
  EXPECT_EQ(notified[0], 3);
  EXPECT_EQ(notified[1], 2);
}

// Property: random traffic — every packet delivered exactly once, per
// channel in FIFO order, never before its send time + minimum latency.
class NetworkTraffic : public ::testing::TestWithParam<int> {};

TEST_P(NetworkTraffic, NoLossNoDupFifo) {
  const int nodes = GetParam();
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(nodes, &cm);
  util::Xoshiro256 rng(1234 + nodes);

  const int kPackets = 5000;
  std::map<std::pair<int, int>, std::uint64_t> next_tag_to_send;
  std::vector<std::uint64_t> sent_tag(kPackets);
  for (int i = 0; i < kPackets; ++i) {
    int src = static_cast<int>(rng.below(nodes));
    int dst = static_cast<int>(rng.below(nodes));
    auto& tag = next_tag_to_send[{src, dst}];
    Packet p = make_pkt(src, dst, rng.below(1000), tag++);
    net.send(std::move(p), net::AmCategory::kObjectMessage);
  }

  std::map<std::pair<int, int>, std::uint64_t> next_tag_expected;
  int received = 0;
  for (int d = 0; d < nodes; ++d) {
    Packet out;
    sim::Instr last_arrive = 0;
    while (net.poll(d, sim::kInstrInf, out)) {
      ++received;
      // Per-destination delivery in arrival order.
      EXPECT_GE(out.arrive_time, last_arrive);
      last_arrive = out.arrive_time;
      // Per-channel FIFO by tag.
      auto& expect_tag = next_tag_expected[{out.src, d}];
      EXPECT_EQ(out.at(0), expect_tag) << "src=" << out.src << " dst=" << d;
      ++expect_tag;
      // Causality: no packet arrives before send + min latency.
      EXPECT_GE(out.arrive_time, out.send_time + 1);
    }
  }
  EXPECT_EQ(received, kPackets);
  EXPECT_TRUE(net.idle());
}

INSTANTIATE_TEST_SUITE_P(Sizes, NetworkTraffic, ::testing::Values(2, 3, 16, 64));

// ------------------------------------------- Deterministic delivery order ---

TEST(Network, SameInstantArrivalsOrderedBySourceNotSendCallOrder) {
  // Fully connected: nodes 1 and 3 are both one hop from 2, so identical
  // packets sent at the same instant arrive at the same instant. The higher
  // source sends *first*, yet the lower source must be delivered first:
  // tiebreak is (arrive_time, src, seq) — simulated quantities, not host
  // call order.
  sim::CostModel cm = sim::CostModel::ap1000();
  net::Network net(Topology(TopologyKind::kFullyConnected, 4), &cm);
  net.send(make_pkt(3, 2, 0, /*tag=*/33), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0, /*tag=*/11), net::AmCategory::kObjectMessage);
  Packet out;
  ASSERT_TRUE(net.poll(2, sim::kInstrInf, out));
  EXPECT_EQ(out.src, 1);
  EXPECT_EQ(out.at(0), 11u);
  ASSERT_TRUE(net.poll(2, sim::kInstrInf, out));
  EXPECT_EQ(out.src, 3);
}

TEST(Network, SeqNumbersArePerSource) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net.send(make_pkt(0, 2, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage);
  net.send(make_pkt(0, 3, 0), net::AmCategory::kObjectMessage);
  std::map<int, std::vector<std::uint64_t>> seqs_by_src;
  Packet out;
  for (int d = 0; d < 4; ++d) {
    while (net.poll(d, sim::kInstrInf, out)) {
      seqs_by_src[out.src].push_back(out.seq);
    }
  }
  EXPECT_EQ(seqs_by_src[0], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(seqs_by_src[1], (std::vector<std::uint64_t>{0}));
}

TEST(Network, MinPacketLatencyIsAPositiveLowerBound) {
  for (auto cm : {sim::CostModel::ap1000(), sim::CostModel::zero()}) {
    auto net = make_net(16, &cm);
    sim::Instr look = net.min_packet_latency();
    EXPECT_GT(look, 0u);
    // Empirically no packet beats the bound, including the 0-hop self-send.
    for (int dst = 0; dst < 16; ++dst) {
      net.send(make_pkt(0, dst, 0), net::AmCategory::kObjectMessage);
    }
    Packet out;
    for (int dst = 0; dst < 16; ++dst) {
      while (net.poll(dst, sim::kInstrInf, out)) {
        EXPECT_GE(out.arrive_time - out.send_time, look);
      }
    }
  }
}

// ------------------------------------------------------ Outbox + merging ---

TEST(Network, OutboxBuffersUntilFlush) {
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net::Network::Outbox ob;
  net.set_outbox(0, &ob);
  net.send(make_pkt(0, 1, 0), net::AmCategory::kObjectMessage);
  EXPECT_EQ(ob.size(), 1u);
  EXPECT_EQ(net.in_flight(), 0u);
  EXPECT_EQ(net.next_arrival(1), sim::kInstrInf);  // nothing committed yet
  net::Network::Outbox* boxes[] = {&ob};
  net.flush_outboxes(boxes, 1);
  EXPECT_TRUE(ob.empty());
  EXPECT_EQ(net.in_flight(), 1u);
  Packet out;
  ASSERT_TRUE(net.poll(1, sim::kInstrInf, out));
  net.set_outbox(0, nullptr);
}

TEST(Network, PollHandsOutTheSlotTheSenderFilled) {
  // Zero copy: the slot a sender opens and fills is the one the receiver's
  // poll returns, whether the send commits directly or waits in an outbox
  // for the barrier flush.
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  Packet* direct = net.open(0, 1, 0, 0);
  direct->push(7);
  net.send(direct, net::AmCategory::kObjectMessage);
  Packet* got = net.poll(1, sim::kInstrInf);
  ASSERT_EQ(got, direct);
  EXPECT_EQ(got->at(0), 7u);
  EXPECT_EQ(got->seq, 0u);
  net.release(1, got);

  net::Network::Outbox ob;
  net.set_outbox(0, &ob);
  Packet* buffered = net.open(0, 2, 0, 5);
  buffered->push(9);
  net.send(buffered, net::AmCategory::kObjectMessage);
  net::Network::Outbox* boxes[] = {&ob};
  net.flush_outboxes(boxes, 1);
  net.set_outbox(0, nullptr);
  got = net.poll(2, sim::kInstrInf);
  ASSERT_EQ(got, buffered);
  EXPECT_EQ(got->at(0), 9u);
  EXPECT_EQ(got->seq, 1u);
  net.release(2, got);
  EXPECT_TRUE(net.idle());
}

// While a parallel run has outboxes installed, a source without one must
// not commit directly: the commit would push into destination queues that
// the workers poll and the barrier flush pushes into, from a worker thread.
// Uninstalling every outbox restores the direct path.
TEST(NetworkDeath, DirectSendWhileOutboxesInstalledAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::CostModel cm = sim::CostModel::ap1000();
  auto net = make_net(4, &cm);
  net::Network::Outbox ob;
  net.set_outbox(0, &ob);
  net.set_outbox(0, &ob);  // re-installing the same box counts once
  EXPECT_DEATH(
      net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage),
      "without an outbox while a parallel run");
  net.set_outbox(0, nullptr);
  net.send(make_pkt(1, 2, 0), net::AmCategory::kObjectMessage);
  EXPECT_EQ(net.in_flight(), 1u);
}

// Commit order across sources is free: each source's sends keep their
// program order in its one outbox, and no commit state depends on how
// sources interleave. Flushing the boxes in either order matches a
// direct-send network in seqs, arrivals and the exact stats block.
TEST(Network, FlushIsIndependentOfOutboxOrder) {
  sim::CostModel cm = sim::CostModel::ap1000();
  // Two sends per channel; the second one on each channel leaves earlier
  // and is clamped to the first one's arrival. On a 2x2 torus the four
  // wire latencies are 22, 25 on 0->2 and 23, 406 on 1->2: a Welford
  // accumulator rounds the variance of (22, 25, 23, 406) and of
  // (23, 406, 22, 25) differently.
  const Packet sends[] = {make_pkt(0, 2, 1000, 1), make_pkt(0, 2, 997, 2),
                          make_pkt(1, 2, 1000, 3), make_pkt(1, 2, 617, 4)};
  auto send_all = [&sends](net::Network& net) {
    for (const Packet& p : sends) net.send(p, net::AmCategory::kObjectMessage);
  };
  using Delivery = std::tuple<int, std::uint64_t, sim::Instr, net::Word>;
  auto drain = [](net::Network& net) {
    std::vector<Delivery> got;
    Packet out;
    while (net.poll(2, sim::kInstrInf, out)) {
      got.emplace_back(out.src, out.seq, out.arrive_time, out.at(0));
    }
    return got;
  };

  auto direct = make_net(4, &cm);
  send_all(direct);
  const net::Network::Stats want_stats = direct.stats();
  const std::vector<Delivery> want = drain(direct);
  ASSERT_EQ(want.size(), 4u);
  const util::RunningStat& lat = want_stats.wire_latency_instr;
  ASSERT_EQ(lat.min(), 22u);
  ASSERT_EQ(lat.max(), 406u);
  ASSERT_EQ(lat.sum(), 22u + 25u + 23u + 406u);
  EXPECT_EQ(lat.mean(), 119.0);
  EXPECT_EQ(lat.variance(), 36610.0);

  for (bool swapped : {false, true}) {
    SCOPED_TRACE(swapped ? "boxes {ob1, ob0}" : "boxes {ob0, ob1}");
    auto buffered = make_net(4, &cm);
    net::Network::Outbox ob0, ob1;
    buffered.set_outbox(0, &ob0);
    buffered.set_outbox(1, &ob1);
    send_all(buffered);
    net::Network::Outbox* boxes[] = {swapped ? &ob1 : &ob0,
                                     swapped ? &ob0 : &ob1};
    buffered.flush_outboxes(boxes, 2);
    buffered.set_outbox(0, nullptr);
    buffered.set_outbox(1, nullptr);
    EXPECT_EQ(std::memcmp(&buffered.stats(), &want_stats, sizeof want_stats),
              0);
    EXPECT_EQ(drain(buffered), want);
  }
}

}  // namespace
