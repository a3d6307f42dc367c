// Bit-exactness of the parallel sharded runner (emu-par).
//
// The contract under test (src/sim/parallel_runner.h): Run(threads=N) is
// bit-exact against Run(threads=1) — same per-host frame arrival digests,
// same counters, same service metrics, same fault logs, same event and
// epoch totals — for every topology shape the runner supports. Each
// scenario below runs the identical workload at threads 1/2/4/8 on fresh
// topologies and compares full digests, the same bar kernel_equiv_test.cc
// sets for the quiescence fast path.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/net/ethernet.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

// Per-host arrival log: folds (arrival time, frame bytes) in arrival order.
struct HostLog {
  u64 digest = kFnvOffset;
  u64 count = 0;

  void Note(Picoseconds at, const Packet& frame) {
    digest = Fnv1aU64(digest, static_cast<u64>(at));
    digest = Fnv1aBytes(digest, frame.bytes());
    ++count;
  }
};

// Everything a run can disagree on.
struct TopoDigest {
  std::vector<u64> host_digests;
  std::vector<u64> host_received;
  std::vector<u64> host_sent;
  std::vector<u64> node_forwarded;
  u64 metrics_digest = kFnvOffset;
  u64 faults_fired = 0;
  u64 fault_digest = 0;
  u64 events = 0;
  u64 epochs = 0;
};

void FoldMetrics(u64& h, const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.Snapshot()) {
    h = Fnv1aBytes(h, name);
    h = Fnv1aU64(h, value);
  }
}

void ExpectIdentical(const TopoDigest& serial, const TopoDigest& parallel, usize threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(parallel.host_digests, serial.host_digests);
  EXPECT_EQ(parallel.host_received, serial.host_received);
  EXPECT_EQ(parallel.host_sent, serial.host_sent);
  EXPECT_EQ(parallel.node_forwarded, serial.node_forwarded);
  EXPECT_EQ(parallel.metrics_digest, serial.metrics_digest);
  EXPECT_EQ(parallel.faults_fired, serial.faults_fired);
  EXPECT_EQ(parallel.fault_digest, serial.fault_digest);
  EXPECT_EQ(parallel.events, serial.events);
  EXPECT_EQ(parallel.epochs, serial.epochs);
}

void CaptureHosts(TopologyBuilder& topo, std::vector<HostLog>& logs, TopoDigest& d) {
  for (usize i = 0; i < topo.host_count(); ++i) {
    d.host_digests.push_back(logs[i].digest);
    d.host_received.push_back(topo.host(i).received());
    d.host_sent.push_back(topo.host(i).sent());
  }
  for (usize i = 0; i < topo.node_count(); ++i) {
    d.node_forwarded.push_back(topo.node(i).forwarded());
  }
}

// --- Scenario 1: learning switch, 4-host star ---------------------------------------

std::vector<HostSpec> FourHosts() {
  return {{"h0", MacAddress::FromU48(0x020000000001), Ipv4Address(10, 0, 0, 1)},
          {"h1", MacAddress::FromU48(0x020000000002), Ipv4Address(10, 0, 0, 2)},
          {"h2", MacAddress::FromU48(0x020000000003), Ipv4Address(10, 0, 0, 3)},
          {"h3", MacAddress::FromU48(0x020000000004), Ipv4Address(10, 0, 0, 4)}};
}

TopoDigest RunShardedSwitch(usize threads) {
  LearningSwitch service;
  const std::vector<HostSpec> specs = FourHosts();
  TopologyBuilder topo;
  topo.AddStar(service, specs);

  std::vector<HostLog> logs(specs.size());
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }

  // Teach the switch every MAC: one broadcast per host, staggered.
  for (usize i = 0; i < specs.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
    topo.host(i).scheduler().At(at, [&topo, i] {
      topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                          EtherType::kIpv4,
                                          std::vector<u8>{static_cast<u8>(i)}));
    });
  }
  // Unicast rounds: every host talks to a rotating peer.
  for (usize round = 0; round < 6; ++round) {
    for (usize i = 0; i < specs.size(); ++i) {
      const usize dst = (i + 1 + round % 3) % specs.size();
      const Picoseconds at = 100 * kPicosPerMicro +
                             static_cast<Picoseconds>(round) * 50 * kPicosPerMicro +
                             static_cast<Picoseconds>(i) * 2 * kPicosPerMicro;
      Packet frame = MakeUdpPacket(
          {specs[dst].mac, specs[i].mac, specs[i].ip, specs[dst].ip,
           static_cast<u16>(5000 + i), static_cast<u16>(6000 + dst)},
          std::vector<u8>{static_cast<u8>(round), static_cast<u8>(i)});
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  TopoDigest d;
  d.events = topo.Run({.threads = threads});
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  FoldMetrics(d.metrics_digest, metrics);
  return d;
}

TEST(ParallelEquivalence, ShardedSwitchBitExactAcrossThreadCounts) {
  const TopoDigest serial = RunShardedSwitch(1);
  // Teach broadcasts flood to 3 peers each; 24 unicasts arrive once each.
  ASSERT_EQ(serial.host_received,
            (std::vector<u64>{9, 9, 9, 9}));
  EXPECT_GT(serial.epochs, 1u);
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedSwitch(threads), threads);
  }
}

// The per-element build of the star is the same network as the single-shard
// build: same links, same latencies, same service. Frame counts must agree.
TEST(ParallelEquivalence, ShardedStarMatchesUnshardedCounts) {
  const std::vector<HostSpec> specs = FourHosts();

  std::vector<u64> unsharded_received;
  {
    LearningSwitch service;
    TopologyBuilder topo(TopologyBuilder::Placement::kSingle);
    topo.AddStar(service, specs);
    for (usize i = 0; i < specs.size(); ++i) {
      topo.host(i).SetApp([](SimHost&, Packet) {});
    }
    for (usize i = 0; i < specs.size(); ++i) {
      const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
      topo.host(i).scheduler().At(at, [&topo, i] {
        topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                            EtherType::kIpv4,
                                            std::vector<u8>{static_cast<u8>(i)}));
      });
    }
    topo.Run();
    for (usize i = 0; i < specs.size(); ++i) {
      unsharded_received.push_back(topo.host(i).received());
    }
  }

  LearningSwitch service;
  TopologyBuilder topo;
  topo.AddStar(service, specs);
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp([](SimHost&, Packet) {});
  }
  for (usize i = 0; i < specs.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
    topo.host(i).scheduler().At(at, [&topo, i] {
      topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                          EtherType::kIpv4,
                                          std::vector<u8>{static_cast<u8>(i)}));
    });
  }
  topo.Run({.threads = 4});
  for (usize i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(topo.host(i).received(), unsharded_received[i]) << "host " << i;
  }
}

// --- Scenario 2: NAT ping-pong (long cross-shard causal chains) ---------------------

// The external host echoes every UDP frame back at the translated source, and
// the internal host fires the next ping only when the previous reply lands —
// every frame in the run is causally downstream of a cross-shard delivery,
// so a single horizon miscalculation would reorder or drop the whole chain.
TopoDigest RunShardedNat(usize threads, bool with_faults) {
  NatConfig config;
  NatService service(config);
  const std::vector<HostSpec> specs = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  TopologyBuilder topo;
  topo.AddStar(service, specs);

  FaultRegistry registry(7);
  if (with_faults) {
    service.RegisterFaultPoints(registry);
    topo.node(0).target().sim().AttachFaultRegistry(&registry);
    const Expected<FaultPlan> plan =
        ParseFaultPlan("nat.table_full burst 2000 4000 0.5; nat.flows bernoulli 0.00005");
    EXPECT_TRUE(plan.ok());
    registry.ArmPlan(*plan);
  }

  std::vector<HostLog> logs(specs.size());
  constexpr usize kPings = 8;

  topo.host(0).SetApp([&logs, &topo, &config](SimHost& h, Packet frame) {
    logs[0].Note(h.scheduler().now(), frame);
    Ipv4View ip(frame);
    if (!ip.Valid() || !ip.ProtocolIs(IpProtocol::kUdp)) {
      return;
    }
    UdpView udp(frame, ip.payload_offset());
    Packet reply = MakeUdpPacket({config.external_mac, h.mac(), h.ip(), ip.source(),
                                  udp.destination_port(), udp.source_port()},
                                 std::vector<u8>{'r'});
    h.scheduler().After(3 * kPicosPerMicro, [&topo, reply] { topo.host(0).Send(reply); });
  });

  auto pings_sent = std::make_shared<usize>(1);
  topo.host(1).SetApp([&logs, &topo, &config, &specs, pings_sent](SimHost& h, Packet frame) {
    logs[1].Note(h.scheduler().now(), frame);
    if (*pings_sent >= kPings) {
      return;
    }
    const usize i = (*pings_sent)++;
    Packet next = MakeUdpPacket({config.internal_mac, specs[1].mac, specs[1].ip, specs[0].ip,
                                 static_cast<u16>(4000 + i), 53},
                                std::vector<u8>{static_cast<u8>('a' + i)});
    h.scheduler().After(5 * kPicosPerMicro, [&topo, next] { topo.host(1).Send(next); });
  });

  topo.host(1).scheduler().At(10 * kPicosPerMicro, [&topo, &config, &specs] {
    topo.host(1).Send(MakeUdpPacket(
        {config.internal_mac, specs[1].mac, specs[1].ip, specs[0].ip, 4000, 53},
        std::vector<u8>{'a'}));
  });

  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  TopoDigest d;
  d.events = topo.Run({.threads = threads});
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  FoldMetrics(d.metrics_digest, metrics);
  d.faults_fired = registry.fired_total();
  d.fault_digest = registry.LogDigest();
  return d;
}

TEST(ParallelEquivalence, ShardedNatPingPongBitExact) {
  const TopoDigest serial = RunShardedNat(1, /*with_faults=*/false);
  // The full request/reply chain must actually run: 8 translated pings out,
  // 8 translated-back replies in.
  ASSERT_EQ(serial.host_received, (std::vector<u64>{8, 8}));
  EXPECT_GT(serial.epochs, 8u);  // each hop crosses at least one barrier
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedNat(threads, /*with_faults=*/false), threads);
  }
}

TEST(ParallelEquivalence, ShardedNatWithArmedFaultPlanBitExact) {
  const TopoDigest serial = RunShardedNat(1, /*with_faults=*/true);
  EXPECT_GE(serial.host_received[0], 1u);  // at least the first ping got out
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedNat(threads, /*with_faults=*/true), threads);
  }
}

// --- Scenario 3: memcached cluster (one service node per host) ----------------------

TopoDigest RunShardedMemcachedCluster(usize threads) {
  constexpr usize kNodes = 4;
  constexpr usize kKeySpace = 24;
  constexpr usize kWorkload = 24;

  std::vector<std::unique_ptr<MemcachedService>> services;
  std::vector<Service*> service_ptrs;
  std::vector<HostSpec> specs;
  std::vector<MemcachedConfig> configs;
  for (usize i = 0; i < kNodes; ++i) {
    MemcachedConfig config;
    config.mac = MacAddress::FromU48(0x02'00'00'00'ee'00ULL + i);
    config.ip = Ipv4Address(10, 0, 0, static_cast<u8>(200 + i));
    configs.push_back(config);
    services.push_back(std::make_unique<MemcachedService>(config));
    service_ptrs.push_back(services.back().get());
    specs.push_back({"c" + std::to_string(i),
                     MacAddress::FromU48(0x02'00'00'00'c1'00ULL + i),
                     Ipv4Address(10, 0, 0, static_cast<u8>(50 + i))});
  }
  TopologyBuilder topo;
  topo.AddCluster(service_ptrs, specs);

  std::vector<HostLog> logs(kNodes);
  for (usize i = 0; i < kNodes; ++i) {
    topo.host(i).SetApp(
        [&logs, i](SimHost& h, Packet frame) { logs[i].Note(h.scheduler().now(), frame); });
  }

  // Each client prewarms then runs its own seeded 90/10 memaslap stream
  // against its own server node.
  for (usize i = 0; i < kNodes; ++i) {
    MemaslapConfig mc;
    mc.server_mac = configs[i].mac;
    mc.server_ip = configs[i].ip;
    mc.client_mac = specs[i].mac;
    mc.client_ip = specs[i].ip;
    mc.key_space = kKeySpace;
    mc.seed = 1000 + 17 * i;
    MemaslapLoadgen loadgen(mc);
    for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
      const Picoseconds at = 5 * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * 2 * kPicosPerMicro;
      Packet frame = loadgen.PrewarmFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
    for (usize k = 0; k < kWorkload; ++k) {
      const Picoseconds at = 200 * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * 3 * kPicosPerMicro +
                             static_cast<Picoseconds>(i) * kPicosPerMicro;
      Packet frame = loadgen.WorkloadFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  TopoDigest d;
  d.events = topo.Run({.threads = threads});
  d.epochs = topo.runner().epochs();
  CaptureHosts(topo, logs, d);
  for (usize i = 0; i < kNodes; ++i) {
    MetricsRegistry metrics;
    services[i]->RegisterMetrics(metrics);
    FoldMetrics(d.metrics_digest, metrics);
  }
  return d;
}

TEST(ParallelEquivalence, ShardedMemcachedClusterBitExact) {
  const TopoDigest serial = RunShardedMemcachedCluster(1);
  // Every prewarm SET and every workload request gets a reply.
  ASSERT_EQ(serial.host_received, (std::vector<u64>{48, 48, 48, 48}));
  for (usize threads : {2u, 4u, 8u}) {
    ExpectIdentical(serial, RunShardedMemcachedCluster(threads), threads);
  }
}

// --- Scenario 4: raw runner, no topology sugar --------------------------------------

// Two shards joined by one Link, ping-ponging a frame 20 times. Exercises
// ParallelRunner + Link::RouteRemote directly: sender-side serialization
// clocking, per-direction seq stamps, and horizon progress on a chain where
// each shard is quiescent until the other's frame lands.
TEST(ParallelEquivalence, RawRunnerPingPongBitExact) {
  auto run = [](usize threads) {
    EventScheduler a;
    EventScheduler b;
    Link link(a, 10'000'000'000ULL, 500'000);
    ParallelRunner runner;
    const usize shard_a = runner.AddShard(a);
    const usize shard_b = runner.AddShard(b);
    runner.ConnectDirection(link, /*to_b=*/true, shard_a, shard_b);
    runner.ConnectDirection(link, /*to_b=*/false, shard_b, shard_a);

    u64 digest = kFnvOffset;
    usize volleys = 0;
    link.AttachB([&](Packet frame) {
      digest = Fnv1aU64(digest, static_cast<u64>(b.now()));
      frame[0] = static_cast<u8>(++volleys);
      if (volleys < 20) {
        link.SendToA(std::move(frame));
      }
    });
    link.AttachA([&](Packet frame) {
      digest = Fnv1aU64(digest, static_cast<u64>(a.now()));
      link.SendToB(std::move(frame));
    });

    a.At(1'000'000, [&link] { link.SendToB(Packet(64)); });
    const u64 events = runner.Run({.threads = threads});
    digest = Fnv1aU64(digest, events);
    digest = Fnv1aU64(digest, runner.epochs());
    digest = Fnv1aU64(digest, link.delivered());
    return std::pair<u64, usize>{digest, volleys};
  };
  const auto serial = run(1);
  EXPECT_EQ(serial.second, 20u);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace emu
