// Busy-path equivalence suite (emu-speed).
//
// On a fully IO-declared pipeline the fast path routes wakes to declared
// watchers, commits only the dirty queue, and scans for quiescence only
// after an edge that left no process runnable. Like fast-forwarding itself
// this is an optimization shortcut, not a semantics change — these tests
// run saturated workloads (small inter-frame gaps, so the busy path
// dominates and fast-forward windows are rare) in three modes:
//
//   exact     SetFastPath(false): every cycle executes, every predicate is
//             evaluated per edge — the reference semantics;
//   fast      the default fast path;
//   threads4  the fast path driven through RunUntil, the entry point
//             RunOptions{threads = 4} funnels into (accepted for API
//             uniformity on a single clock domain, executed on the serial
//             kernel);
//
// and require bit-exact agreement on everything observable.
//
// The suite also pins when wake routing engages and drops, the fast path's
// exact edge/fast-forward split on the bench/microbench_kernel workloads,
// and the fallback contract: attaching an EdgeObserver mid-run must drop
// the kernel back to gapless per-edge execution (the observer sees every
// cycle) without changing any digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/fault/fault_plan.h"
#include "src/hdl/elab_catalog.h"
#include "src/fault/fault_registry.h"
#include "src/net/ethernet.h"
#include "src/net/udp.h"
#include "src/services/learning_switch.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"

namespace emu {
namespace {

constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 DigestEgress(const std::vector<EgressFrame>& egress) {
  u64 h = kFnvOffset;
  for (const EgressFrame& entry : egress) {
    h = (h ^ entry.port) * kFnvPrime;
    for (u8 byte : entry.frame.bytes()) {
      h = (h ^ byte) * kFnvPrime;
    }
  }
  return h;
}

enum class Mode {
  kExact,    // SetFastPath(false)
  kFast,     // default fast path
  kThreads4  // fast path, driven like RunOptions{threads = 4}
};

struct RunDigest {
  Cycle final_now = 0;
  usize egress_count = 0;
  u64 egress_digest = 0;
  std::vector<std::pair<std::string, u64>> metrics;
  u64 resumes_total = 0;
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;

  void Capture(FpgaTarget& target, MetricsRegistry& registry) {
    final_now = target.sim().now();
    const auto egress = target.TakeEgress();
    egress_count = egress.size();
    egress_digest = DigestEgress(egress);
    metrics = registry.Snapshot();
    const SimProfile profile = target.sim().ProfileReport();
    edges_run = profile.edges_run;
    cycles_fast_forwarded = profile.cycles_fast_forwarded;
    for (const ProcessProfile& process : profile.processes) {
      resumes_total += process.resumes;
    }
  }
};

void ExpectEquivalent(const char* label, const RunDigest& got, const RunDigest& exact) {
  SCOPED_TRACE(label);
  EXPECT_EQ(got.final_now, exact.final_now);
  EXPECT_EQ(got.egress_count, exact.egress_count);
  EXPECT_EQ(got.egress_digest, exact.egress_digest);
  EXPECT_EQ(got.metrics, exact.metrics);
  EXPECT_EQ(got.resumes_total, exact.resumes_total);
  EXPECT_EQ(got.edges_run + got.cycles_fast_forwarded, exact.edges_run);
  EXPECT_EQ(exact.cycles_fast_forwarded, 0u);
}

void Configure(FpgaTarget& target, Mode mode) {
  if (mode == Mode::kExact) {
    target.sim().SetFastPath(false);
  }
}

// Drives `target.Run(cycles)` except in kThreads4, which advances through
// RunUntil — the done-predicate entry point the RunOptions overloads
// (RunUntilEgress({.threads = 4, ...})) funnel into. The predicate never
// holds, so the call runs exactly `cycles` cycles while evaluating the
// predicate before every executed edge.
void Advance(FpgaTarget& target, Mode mode, Cycle cycles) {
  if (mode == Mode::kThreads4) {
    const Cycle deadline = target.sim().now() + cycles;
    target.RunUntil([] { return false; }, cycles);
    EXPECT_EQ(target.sim().now(), deadline);
  } else {
    target.Run(cycles);
  }
}

// --- Workloads (saturated: small gaps, busy path dominates) ----------------------

const MacAddress kHostMacs[4] = {
    MacAddress::FromU48(0x02'00'00'00'00'01), MacAddress::FromU48(0x02'00'00'00'00'02),
    MacAddress::FromU48(0x02'00'00'00'00'03), MacAddress::FromU48(0x02'00'00'00'00'04)};
const Ipv4Address kHostIps[4] = {Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                 Ipv4Address(10, 0, 0, 3), Ipv4Address(10, 0, 0, 4)};

RunDigest RunLearningSwitchSaturated(Mode mode) {
  LearningSwitch service;
  FpgaTarget target(service);
  Configure(target, mode);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port,
                  MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[port], kHostIps[port],
                                 Ipv4Address(10, 0, 0, 99), 1, 2},
                                std::vector<u8>{port}));
    Advance(target, mode, 400);
  }
  // Back-to-back unicast: at most a handful of idle cycles between frames.
  for (usize i = 0; i < 120; ++i) {
    const u8 src = static_cast<u8>(i % 4);
    const u8 dst = static_cast<u8>((i + 1 + i / 4) % 4);
    target.Inject(src, MakeUdpPacket({kHostMacs[dst], kHostMacs[src], kHostIps[src],
                                      kHostIps[dst], 1000, 2000},
                                     std::vector<u8>(1 + i % 16, static_cast<u8>(i))));
    Advance(target, mode, i % 7 == 0 ? 600 : 90);
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

RunDigest RunNatSaturated(Mode mode) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  Configure(target, mode);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 80; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac, Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 8)),
         Ipv4Address(8, 8, 8, 8), static_cast<u16>(5000 + i), 53},
        std::vector<u8>{'q', static_cast<u8>(i)});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    Advance(target, mode, i % 9 == 0 ? 800 : 110);  // back-pressure most frames
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

RunDigest RunMemcachedSaturated(Mode mode) {
  MemcachedConfig config;
  config.cores = 4;
  MemcachedService service(config);
  FpgaTarget target(service);
  Configure(target, mode);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  MemaslapConfig workload;
  workload.server_mac = config.mac;
  workload.server_ip = config.ip;
  workload.key_space = 40;
  MemaslapLoadgen loadgen(workload);
  for (usize i = 0; i < loadgen.prewarm_count(); ++i) {
    target.Inject(0, loadgen.PrewarmFrame(i));
    Advance(target, mode, 250);
  }
  for (usize i = 0; i < 100; ++i) {
    target.Inject(static_cast<u8>(i % 4), loadgen.WorkloadFrame(i));
    Advance(target, mode, i % 11 == 0 ? 900 : 130);
  }
  Advance(target, mode, 20'000);

  RunDigest digest;
  digest.Capture(target, metrics);
  return digest;
}

struct FaultDigest {
  RunDigest run;
  u64 faults_fired = 0;
  u64 log_digest = 0;
};

FaultDigest RunNatUnderFaultsSaturated(Mode mode) {
  NatConfig config;
  config.max_mappings = 64;
  NatService service(config);
  FpgaTarget target(service);
  Configure(target, mode);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  FaultRegistry registry(7);
  service.RegisterFaultPoints(registry);
  target.sim().AttachFaultRegistry(&registry);
  const auto plan =
      ParseFaultPlan("nat.table_full burst 2000 9000 0.5; nat.flows bernoulli 0.001");
  EXPECT_TRUE(plan.ok());
  registry.ArmPlan(*plan);

  const MacAddress host_mac = MacAddress::FromU48(0x02'00'00'00'11'10);
  for (usize i = 0; i < 70; ++i) {
    Packet frame = MakeUdpPacket(
        {config.internal_mac, host_mac,
         Ipv4Address(192, 168, 1, static_cast<u8>(2 + i % 100)), Ipv4Address(8, 8, 8, 8),
         static_cast<u16>(1024 + i), 53},
        std::vector<u8>{'p'});
    frame.set_src_port(1);
    target.Inject(1, std::move(frame));
    Advance(target, mode, i % 8 == 0 ? 700 : 120);
  }
  Advance(target, mode, 20'000);

  FaultDigest digest;
  digest.run.Capture(target, metrics);
  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  return digest;
}

// --- The suite -------------------------------------------------------------------

void RunAllModes(RunDigest (*workload)(Mode)) {
  const RunDigest exact = workload(Mode::kExact);
  const RunDigest fast = workload(Mode::kFast);
  const RunDigest threads4 = workload(Mode::kThreads4);
  ASSERT_GT(exact.egress_count, 0u);
  ExpectEquivalent("fast vs exact", fast, exact);
  ExpectEquivalent("threads4 vs exact", threads4, exact);
}

TEST(FlatSchedule, LearningSwitchSaturatedBitExact) {
  RunAllModes(RunLearningSwitchSaturated);
}

TEST(FlatSchedule, NatSaturatedBitExact) { RunAllModes(RunNatSaturated); }

TEST(FlatSchedule, MemcachedSaturatedBitExact) { RunAllModes(RunMemcachedSaturated); }

TEST(FlatSchedule, NatUnderFaultPlanSaturatedBitExact) {
  const FaultDigest exact = RunNatUnderFaultsSaturated(Mode::kExact);
  const FaultDigest fast = RunNatUnderFaultsSaturated(Mode::kFast);
  const FaultDigest threads4 = RunNatUnderFaultsSaturated(Mode::kThreads4);
  ASSERT_GT(exact.run.egress_count, 0u);
  ASSERT_GT(exact.faults_fired, 0u);
  ExpectEquivalent("fast vs exact", fast.run, exact.run);
  ExpectEquivalent("threads4 vs exact", threads4.run, exact.run);
  EXPECT_EQ(fast.faults_fired, exact.faults_fired);
  EXPECT_EQ(threads4.faults_fired, exact.faults_fired);
  EXPECT_EQ(fast.log_digest, exact.log_digest);
  EXPECT_EQ(threads4.log_digest, exact.log_digest);
}

// RunOptions{threads = N} on a single clock domain is accepted for API
// uniformity and executes on the serial kernel: any N must produce the
// identical exchange.
TEST(FlatSchedule, RunOptionsThreadCountIsUniform) {
  auto exchange = [](usize threads) {
    LearningSwitch service;
    FpgaTarget target(service);
    target.Inject(0, MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[0], kHostIps[0],
                                    Ipv4Address(10, 0, 0, 99), 1, 2},
                                   std::vector<u8>{42}));
    FpgaTarget::RunOptions opts;
    opts.threads = threads;
    opts.limit = 100'000;
    EXPECT_TRUE(target.RunUntilEgress(opts));
    const auto egress = target.TakeEgress();
    return std::make_pair(target.sim().now(), DigestEgress(egress));
  };
  const auto serial = exchange(1);
  const auto threaded = exchange(4);
  EXPECT_EQ(serial.first, threaded.first);
  EXPECT_EQ(serial.second, threaded.second);
}

// --- Wake routing ----------------------------------------------------------------

// Every stock service pipeline declares its IO, so the first Run builds the
// route table on its own — no call, no flag.
TEST(FlatSchedule, WakeRoutingEngagesOnStockPipelineAfterFirstRun) {
  LearningSwitch service;
  FpgaTarget target(service);
  EXPECT_FALSE(target.sim().wake_routing_active());
  target.Run(1);
  EXPECT_TRUE(target.sim().wake_routing_active());
}

HwProcess SleepForever() { co_await PauseFor(1'000'000'000); }

// A process registered after routing engaged has no IO declaration the
// table was built from: routing drops for good, and the run stays
// bit-exact on global wake epochs.
TEST(FlatSchedule, LateAddProcessDropsWakeRouting) {
  auto run = [](bool late_process) {
    LearningSwitch service;
    FpgaTarget target(service);
    target.Run(1);
    EXPECT_TRUE(target.sim().wake_routing_active());
    if (late_process) {
      const usize index = target.sim().AddProcess(SleepForever(), "late");
      elab::IoDecl(target.sim().catalog(), index);  // declared afterwards: still dropped
      EXPECT_FALSE(target.sim().wake_routing_active());
    }
    for (usize i = 0; i < 16; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      target.Inject(src, MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[src], kHostIps[src],
                                        Ipv4Address(10, 0, 0, 99), 1, 2},
                                       std::vector<u8>{static_cast<u8>(i)}));
      target.Run(120);
    }
    target.Run(5'000);
    EXPECT_EQ(target.sim().wake_routing_active(), !late_process);
    return std::make_pair(target.sim().now(), DigestEgress(target.TakeEgress()));
  };
  const auto routed = run(false);
  const auto global = run(true);
  EXPECT_EQ(routed.first, global.first);
  EXPECT_EQ(routed.second, global.second);
}

// --- Edge accounting on the microbench workloads ------------------------------------

struct EdgeSplit {
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;
};

// bench/microbench_kernel's soak shape: teach two MACs, then one unicast
// frame every `frame_gap` cycles for two million cycles.
EdgeSplit RunMicrobenchWorkload(Cycle frame_gap) {
  constexpr Cycle kTotalCycles = 2'000'000;
  LearningSwitch service;
  FpgaTarget target(service);
  const MacAddress a = MacAddress::FromU48(0x020000000001);
  const MacAddress b = MacAddress::FromU48(0x020000000002);
  target.Inject(0, MakeEthernetFrame(MacAddress::Broadcast(), a, EtherType::kIpv4, {}));
  target.Inject(1, MakeEthernetFrame(MacAddress::Broadcast(), b, EtherType::kIpv4, {}));
  target.Run(50'000);
  for (Cycle cycle = 0; cycle < kTotalCycles; cycle += frame_gap) {
    target.Inject(0, MakeEthernetFrame(b, a, EtherType::kIpv4, {}));
    target.Run(std::min(frame_gap, kTotalCycles - cycle));
  }
  const SimProfile profile = target.sim().ProfileReport();
  return EdgeSplit{profile.edges_run, profile.cycles_fast_forwarded};
}

// The run loop skips the quiescence scan only where the scan could not have
// found a window, so the split equals that of a scan before every edge —
// the split bench/baselines/BENCH_kernel.json records for both workloads.
TEST(FlatSchedule, MicrobenchEdgeSplitIsPinned) {
  const EdgeSplit saturated = RunMicrobenchWorkload(10);
  EXPECT_EQ(saturated.edges_run, 1'999'935u);
  EXPECT_EQ(saturated.cycles_fast_forwarded, 50'065u);
  const EdgeSplit idle = RunMicrobenchWorkload(1'000);
  EXPECT_EQ(idle.edges_run, 32'024u);
  EXPECT_EQ(idle.cycles_fast_forwarded, 2'017'976u);
}

// --- Fallback contract -----------------------------------------------------------

// Counts edges; nothing may be fast-forwarded while one of these is
// attached, so the count must equal the full gapless cycle range it was
// attached for.
class EdgeCounter : public EdgeObserver {
 public:
  void OnEdge(Cycle now) override {
    if (count_ == 0) {
      first_ = now;
    }
    last_ = now;
    ++count_;
  }
  u64 count() const { return count_; }
  Cycle first() const { return first_; }
  Cycle last() const { return last_; }

 private:
  u64 count_ = 0;
  Cycle first_ = 0;
  Cycle last_ = 0;
};

// Attaching an EdgeObserver mid-run must fall back to gapless per-edge
// execution for the observed span, keep digests bit-exact, and resume
// fast-forwarding after detach.
TEST(FlatSchedule, EdgeObserverMidRunFallsBackToDynamicDispatch) {
  auto run = [](bool observe_middle, EdgeCounter* counter) {
    LearningSwitch service;
    FpgaTarget target(service);
    MetricsRegistry metrics;
    service.RegisterMetrics(metrics);

    for (usize i = 0; i < 40; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      target.Inject(src, MakeUdpPacket({MacAddress::Broadcast(), kHostMacs[src],
                                        kHostIps[src], Ipv4Address(10, 0, 0, 99), 1, 2},
                                       std::vector<u8>{static_cast<u8>(i)}));
      target.Run(150);
    }
    if (observe_middle && counter != nullptr) {
      target.sim().AttachEdgeObserver(counter);
    }
    for (usize i = 0; i < 40; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      const u8 dst = static_cast<u8>((i + 1) % 4);
      target.Inject(src, MakeUdpPacket({kHostMacs[dst], kHostMacs[src], kHostIps[src],
                                        kHostIps[dst], 7, 9},
                                       std::vector<u8>{static_cast<u8>(i)}));
      target.Run(150);
    }
    if (observe_middle && counter != nullptr) {
      target.sim().DetachEdgeObserver(counter);
    }
    target.Run(30'000);

    RunDigest digest;
    digest.Capture(target, metrics);
    return digest;
  };

  EdgeCounter counter;
  const RunDigest observed = run(true, &counter);
  const RunDigest unobserved = run(false, nullptr);

  // The observer saw every single edge of its span: 40 injections * 150
  // cycles, gapless — proof fast-forward stood down.
  EXPECT_EQ(counter.count(), 40u * 150u);
  EXPECT_EQ(counter.last() - counter.first() + 1, counter.count());

  // And observation changed nothing observable.
  EXPECT_EQ(observed.final_now, unobserved.final_now);
  EXPECT_EQ(observed.egress_count, unobserved.egress_count);
  EXPECT_EQ(observed.egress_digest, unobserved.egress_digest);
  EXPECT_EQ(observed.metrics, unobserved.metrics);
  EXPECT_EQ(observed.resumes_total, unobserved.resumes_total);
  EXPECT_EQ(observed.edges_run + observed.cycles_fast_forwarded,
            unobserved.edges_run + unobserved.cycles_fast_forwarded);
}

}  // namespace
}  // namespace emu
