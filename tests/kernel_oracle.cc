#include "tests/kernel_oracle.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/fault/fault_plan.h"
#include "src/net/udp.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/soak/workloads.h"

namespace emu::oracle {

const MacAddress kHostMacs[4] = {
    MacAddress::FromU48(0x02'00'00'00'00'01), MacAddress::FromU48(0x02'00'00'00'00'02),
    MacAddress::FromU48(0x02'00'00'00'00'03), MacAddress::FromU48(0x02'00'00'00'00'04)};
const Ipv4Address kHostIps[4] = {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                 Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4)};

Packet BroadcastFrame(u8 src, u8 tag) {
  return MakeUdpPacket(
      {MacAddress::Broadcast(), kHostMacs[src], kHostIps[src], Ipv4Address(10, 0, 0, 99), 1, 2},
      std::vector<u8>{tag});
}

Packet UnicastFrame(u8 src, u8 dst, usize len, u8 fill) {
  return MakeUdpPacket(
      {kHostMacs[dst], kHostMacs[src], kHostIps[src], kHostIps[dst], 1000, 2000},
      std::vector<u8>(len, fill));
}

const char* DesignName(Design design) {
  switch (design) {
    case Design::kSwitch: return "switch";
    case Design::kNat: return "nat";
    case Design::kMemcached: return "memcached";
    case Design::kNatFaults: return "nat_faults";
  }
  return "?";
}

const char* PacingName(Pacing pacing) {
  return pacing == Pacing::kIdle ? "idle" : "saturated";
}

const char* DriveName(Drive drive) {
  switch (drive) {
    case Drive::kExact: return "exact";
    case Drive::kFast: return "fast";
    case Drive::kRunUntil: return "run_until";
  }
  return "?";
}

void RunDigest::Capture(FpgaTarget& target, const MetricsRegistry& registry,
                        const FaultRegistry* faults) {
  final_now = target.sim().now();
  const std::vector<EgressFrame> egress = target.TakeEgress();
  egress_count = egress.size();
  egress_digest = soak::EgressDigest(egress);
  metrics = registry.Snapshot();
  profile = target.sim().ProfileReport();
  resumes_total = 0;
  for (const ProcessProfile& process : profile.processes) {
    resumes_total += process.resumes;
  }
  if (faults != nullptr) {
    faults_fired = faults->fired_total();
    fault_log_digest = faults->LogDigest();
  }
}

void ExpectEquivalent(const RunDigest& got, const RunDigest& want) {
  EXPECT_EQ(got.final_now, want.final_now);
  EXPECT_EQ(got.egress_count, want.egress_count);
  EXPECT_EQ(got.egress_digest, want.egress_digest);
  EXPECT_EQ(got.metrics, want.metrics);
  EXPECT_EQ(got.resumes_total, want.resumes_total);
  EXPECT_EQ(got.profile.edges_run + got.profile.cycles_fast_forwarded,
            want.profile.edges_run + want.profile.cycles_fast_forwarded);
  EXPECT_EQ(got.faults_fired, want.faults_fired);
  EXPECT_EQ(got.fault_log_digest, want.fault_log_digest);
}

namespace {

// Cycles between frames under saturated pacing: one frame per cycle (round
// robin over four ports for the switch and memcached, on the NAT's internal
// port), above line rate, so the wires and rx queues stay backed up. The designs sleep out their calibrated FSM costs
// (PauseFor), so a backlogged NAT or memcached pipeline alone leaves most
// cycles quiescent (at a 10-cycle gap the NAT executes 41% of its traffic
// cycles, memcached 69%); a delivery every cycle keeps every traffic cycle
// an executed edge, and the backlog it builds runs through the drain.
constexpr Cycle kSaturatedGap = 1;

struct Injection {
  u8 port = 0;
  Packet frame;
  Cycle gap = 0;  // cycles to run after the injection (0: next frame on the same cycle)
};

// One design under one pacing: warm-up frames (MAC teaching, cache
// prewarm), the traffic phase, and the drain tail that follows it.
struct Workload {
  std::unique_ptr<Service> service;
  std::vector<Injection> warm;
  std::vector<Injection> traffic;
  Cycle drain = 0;
  const char* fault_plan = nullptr;  // armed before the run, disarmed before the drain
};

Workload SwitchWorkload(Pacing pacing) {
  Workload w;
  w.service = std::make_unique<LearningSwitch>();
  const bool idle = pacing == Pacing::kIdle;
  for (u8 port = 0; port < 4; ++port) {
    w.warm.push_back({port, BroadcastFrame(port, port), idle ? Cycle{20'000} : Cycle{400}});
  }
  if (idle) {
    // Bursts of eight unicast frames, each followed by a long quiet spell.
    for (usize burst = 0; burst < 5; ++burst) {
      for (usize i = 0; i < 8; ++i) {
        const u8 src = static_cast<u8>(i % 4);
        const u8 dst = static_cast<u8>((i + 1 + burst) % 4);
        w.traffic.push_back({src, UnicastFrame(src, dst, 1 + i, static_cast<u8>(burst)),
                             i == 7 ? Cycle{50'000} : Cycle{0}});
      }
    }
    return w;
  }
  for (usize i = 0; i < 120; ++i) {
    const u8 src = static_cast<u8>(i % 4);
    const u8 dst = static_cast<u8>((i + 1 + i / 4) % 4);
    w.traffic.push_back(
        {src, UnicastFrame(src, dst, 1 + i % 16, static_cast<u8>(i)), kSaturatedGap});
  }
  w.drain = 20'000;
  return w;
}

Packet NatFrame(const NatConfig& config, u8 host, u16 src_port, std::vector<u8> payload) {
  Packet frame = MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                                Ipv4Address(192, 168, 1, host), Ipv4Address(8, 8, 8, 8),
                                src_port, 53},
                               std::move(payload));
  frame.set_src_port(1);
  return frame;
}

Workload NatWorkload(Pacing pacing) {
  Workload w;
  const NatConfig config;
  w.service = std::make_unique<NatService>(config);
  const bool idle = pacing == Pacing::kIdle;
  const usize frames = idle ? 30 : 80;
  for (usize i = 0; i < frames; ++i) {
    // Idle: mixed long gaps and back-to-back pairs.
    const Cycle gap = !idle ? kSaturatedGap : i % 3 == 0 ? 30'000 : 500;
    w.traffic.push_back({1,
                         NatFrame(config, static_cast<u8>(2 + i % 8), static_cast<u16>(5000 + i),
                                  {'q', static_cast<u8>(i)}),
                         gap});
  }
  w.drain = idle ? 100'000 : 20'000;
  return w;
}

// A small mapping table under a table-exhaustion burst over the traffic
// phase plus a rare per-tick flow fault.
Workload NatFaultsWorkload(Pacing pacing) {
  Workload w;
  NatConfig config;
  config.max_mappings = 64;
  w.service = std::make_unique<NatService>(config);
  const bool idle = pacing == Pacing::kIdle;
  const usize frames = idle ? 40 : 70;
  for (usize i = 0; i < frames; ++i) {
    w.traffic.push_back({1,
                         NatFrame(config, static_cast<u8>(2 + i % 100),
                                  static_cast<u16>(1024 + i), {'p'}),
                         idle ? Cycle{4'000} : kSaturatedGap});
  }
  if (!idle) {
    w.traffic.back().gap = 8'000;  // the backlog drains under the armed plan
  }
  w.fault_plan = idle ? "nat.table_full burst 20000 60000 0.5; nat.flows bernoulli 0.001"
                      : "nat.table_full burst 1000 5000 0.5; nat.flows bernoulli 0.001";
  w.drain = idle ? 150'000 : 20'000;
  return w;
}

Workload MemcachedWorkload(Pacing pacing) {
  Workload w;
  MemcachedConfig config;
  config.cores = 4;
  w.service = std::make_unique<MemcachedService>(config);
  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 40;
  MemaslapLoadgen loadgen(workload);
  const bool idle = pacing == Pacing::kIdle;
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    w.warm.push_back({0, loadgen.PrewarmFrame(i), idle ? Cycle{2'000} : Cycle{250}});
  }
  const usize requests = idle ? 60 : 100;
  for (usize i = 0; i < requests; ++i) {
    const Cycle gap = !idle ? kSaturatedGap : i % 5 == 0 ? 20'000 : 300;
    w.traffic.push_back({static_cast<u8>(i % 4), loadgen.WorkloadFrame(i), gap});
  }
  w.drain = idle ? 100'000 : 20'000;
  return w;
}

Workload MakeWorkload(Design design, Pacing pacing) {
  switch (design) {
    case Design::kSwitch: return SwitchWorkload(pacing);
    case Design::kNat: return NatWorkload(pacing);
    case Design::kMemcached: return MemcachedWorkload(pacing);
    case Design::kNatFaults: return NatFaultsWorkload(pacing);
  }
  return {};
}

}  // namespace

RunDigest RunDesign(Design design, Pacing pacing, Drive drive, const Setup& setup) {
  Workload w = MakeWorkload(design, pacing);
  FpgaTarget target(*w.service);
  if (drive == Drive::kExact) {
    target.sim().SetFastPath(false);
  }
  MetricsRegistry metrics;
  w.service->RegisterMetrics(metrics);
  FaultRegistry registry(7);
  if (w.fault_plan != nullptr) {
    w.service->RegisterFaultPoints(registry);
    target.sim().AttachFaultRegistry(&registry);
    const auto plan = ParseFaultPlan(w.fault_plan);
    if (!plan.ok()) {
      ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
      return RunDigest{};
    }
    registry.ArmPlan(*plan);
  }
  if (setup) {
    setup(target);
  }

  // kRunUntil advances through RunUntil with a predicate that never holds,
  // so the call runs exactly `cycles` cycles.
  const auto advance = [&](Cycle cycles) {
    if (cycles == 0) {
      return;
    }
    if (drive == Drive::kRunUntil) {
      const Cycle deadline = target.sim().now() + cycles;
      target.RunUntil([] { return false; }, cycles);
      EXPECT_EQ(target.sim().now(), deadline);
    } else {
      target.Run(cycles);
    }
  };
  const auto play = [&](std::vector<Injection>& frames) {
    for (Injection& step : frames) {
      target.Inject(step.port, std::move(step.frame));
      advance(step.gap);
    }
  };

  play(w.warm);
  const Cycle traffic_start = target.sim().now();
  const u64 edges_before = target.sim().ProfileReport().edges_run;
  play(w.traffic);
  const u64 traffic_cycles = target.sim().now() - traffic_start;
  const u64 traffic_edges = target.sim().ProfileReport().edges_run - edges_before;
  registry.DisarmAll();
  advance(w.drain);

  RunDigest digest;
  digest.Capture(target, metrics, w.fault_plan != nullptr ? &registry : nullptr);
  digest.traffic_cycles = traffic_cycles;
  digest.traffic_edges = traffic_edges;
  target.sim().AttachFaultRegistry(nullptr);
  return digest;
}

}  // namespace emu::oracle
