// TopologyBuilder placement (src/sim/topology.h).
//
// Every shape runs through the builder's ParallelRunner. kSingle puts every
// element on shard 0, so no link direction crosses a cut; kPerElement gives
// each element its own shard and routes both directions of every link. The
// single-shard run must execute exactly the events a bare EventScheduler
// run executes, event budget included.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/net/ethernet.h"
#include "src/net/udp.h"
#include "src/services/learning_switch.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

using Placement = TopologyBuilder::Placement;

std::vector<HostSpec> Hosts(usize n) {
  std::vector<HostSpec> specs;
  for (usize i = 0; i < n; ++i) {
    specs.push_back(HostSpec{"h" + std::to_string(i), MacAddress::FromU48(0x020000000001 + i),
                             Ipv4Address(10, 0, 0, static_cast<u8>(1 + i))});
  }
  return specs;
}

TEST(TopologyPlacement, StarShardsAndCuts) {
  LearningSwitch single_service;
  TopologyBuilder single(Placement::kSingle);
  single.AddStar(single_service, Hosts(4));
  EXPECT_EQ(single.runner().shard_count(), 1u);
  EXPECT_EQ(single.runner().cuts().size(), 0u);

  LearningSwitch sharded_service;
  TopologyBuilder sharded(Placement::kPerElement);
  sharded.AddStar(sharded_service, Hosts(4));
  EXPECT_EQ(sharded.runner().shard_count(), 5u);      // node + 4 hosts
  EXPECT_EQ(sharded.runner().cuts().size(), 2u * 4);  // both directions of 4 links
}

TEST(TopologyPlacement, ClusterShardsAndCuts) {
  for (const Placement placement : {Placement::kSingle, Placement::kPerElement}) {
    std::vector<std::unique_ptr<LearningSwitch>> services;
    std::vector<Service*> service_ptrs;
    for (usize i = 0; i < 3; ++i) {
      services.push_back(std::make_unique<LearningSwitch>());
      service_ptrs.push_back(services.back().get());
    }
    TopologyBuilder topo(placement);
    topo.AddCluster(service_ptrs, Hosts(3));
    EXPECT_EQ(topo.node_count(), 3u);
    if (placement == Placement::kSingle) {
      EXPECT_EQ(topo.runner().shard_count(), 1u);
      EXPECT_EQ(topo.runner().cuts().size(), 0u);
    } else {
      EXPECT_EQ(topo.runner().shard_count(), 6u);      // 3 nodes + 3 hosts
      EXPECT_EQ(topo.runner().cuts().size(), 2u * 3);  // both directions of 3 links
    }
  }
}

TEST(TopologyPlacement, HubStarShardsAndCuts) {
  TopologyBuilder single(Placement::kSingle);
  single.AddHubStar(Hosts(5));
  EXPECT_EQ(single.runner().shard_count(), 1u);
  EXPECT_EQ(single.runner().cuts().size(), 0u);

  TopologyBuilder sharded(Placement::kPerElement);
  sharded.AddHubStar(Hosts(5));
  EXPECT_EQ(sharded.runner().shard_count(), 6u);      // hub + 5 hosts
  EXPECT_EQ(sharded.runner().cuts().size(), 2u * 5);  // both directions of 5 links
}

// The counts below were recorded from the same workload on a bare
// EventScheduler (one scheduler, Run(budget), then Run() to quiescence):
// the single-shard runner must stop where that loop stopped.
TEST(TopologyPlacement, SingleStarStopsAtTheEventBudget) {
  constexpr usize kBudget = 7;
  constexpr Picoseconds kStoppedAtPs = 21'134'400;
  constexpr u64 kTotalEvents = 40;
  LearningSwitch service;
  const std::vector<HostSpec> specs = Hosts(4);
  TopologyBuilder topo(Placement::kSingle);
  topo.AddStar(service, specs);
  for (usize i = 0; i < specs.size(); ++i) {
    topo.host(i).SetApp([](SimHost&, Packet) {});
  }
  EventScheduler& scheduler = topo.host(0).scheduler();
  for (usize i = 0; i < specs.size(); ++i) {
    const Picoseconds at = static_cast<Picoseconds>(i + 1) * 10 * kPicosPerMicro;
    scheduler.At(at, [&topo, i] {
      topo.host(i).Send(MakeEthernetFrame(MacAddress::Broadcast(), topo.host(i).mac(),
                                          EtherType::kIpv4,
                                          std::vector<u8>{static_cast<u8>(i)}));
    });
  }
  for (usize i = 0; i < specs.size(); ++i) {
    const usize dst = (i + 1) % specs.size();
    const Picoseconds at = 100 * kPicosPerMicro + static_cast<Picoseconds>(i) * 2 * kPicosPerMicro;
    Packet frame = MakeUdpPacket({specs[dst].mac, specs[i].mac, specs[i].ip, specs[dst].ip,
                                  static_cast<u16>(5000 + i), static_cast<u16>(6000 + dst)},
                                 std::vector<u8>{static_cast<u8>(i)});
    scheduler.At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
  }

  EXPECT_EQ(topo.Run({.max_events = kBudget}), kBudget);
  EXPECT_EQ(scheduler.executed(), kBudget);
  EXPECT_EQ(scheduler.now(), kStoppedAtPs);
  EXPECT_EQ(topo.runner().epochs(), 1u);
  u64 received_at_budget = 0;
  for (usize i = 0; i < specs.size(); ++i) {
    received_at_budget += topo.host(i).received();
  }
  EXPECT_EQ(received_at_budget, 2u);

  EXPECT_EQ(topo.Run(), kTotalEvents - kBudget);
  EXPECT_EQ(scheduler.executed(), kTotalEvents);
  EXPECT_EQ(topo.runner().epochs(), 2u);  // one epoch per Run: no cut, no horizon
  for (usize i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(topo.host(i).received(), 4u) << "host " << i;  // 3 floods + 1 unicast
  }
}

}  // namespace
}  // namespace emu
