// emu-chain: the declarative ScenarioSpec API and the composition runtime.
//
// Three layers under test. The spec layer: parser diagnostics carry verbatim
// line numbers, host lines inherit the auto-host convention, and chain shape
// violations (branches, cycles, disjoint segments, missing source) are
// rejected by LinearChainOrder/BuildScenario with the same line-anchored
// messages the CHAINSPEC lint re-reports as findings. The runtime layer: a
// spec-built chain sheds overload at the source (never mid-chain), a frame
// forced onto a full queue surfaces as a LOSTBACKPRESSURE finding, and the
// per-stage flow counters balance. The determinism layer: the chain counter
// digest and the exported Perfetto trace are byte-identical for threads=1,
// threads=4, and a same-seed replay, and the trace decomposes into a
// populated queue+service latency row for every stage (the Table 4 shape).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chain/chain_lint.h"
#include "src/chain/chain_runtime.h"
#include "src/chain/scenario_build.h"
#include "src/chain/scenario_spec.h"
#include "src/chain/stage_factory.h"
#include "src/common/status.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/net/ethernet.h"
#include "src/obs/decompose.h"
#include "src/obs/trace.h"
#include "src/sim/memaslap.h"
#include "src/sim/sim_host.h"

namespace emu {
namespace {

// The chain_soak pipeline, shrunk for tests: cache capacity 8 against a
// 32-key space guarantees L1 misses, so the pool stage sees traffic.
constexpr char kFourStageSpec[] =
    "topology hub link_delay=2us\n"
    "host client mac=0x020000000c01 ip=192.168.1.10\n"
    "host h1\nhost h2\nhost h3\nhost h4\n"
    "stage filter kind=filter    host=h1 target=fpga queue=16\n"
    "stage nat    kind=nat       host=h2 target=cpu  queue=16\n"
    "stage cache  kind=l1cache   host=h3 target=cpu  queue=32 capacity=8\n"
    "stage pool   kind=memcached host=h4 target=cpu  queue=32\n"
    "chain client -> filter -> nat -> cache -> pool\n";

// The smallest legal chain (two stages — one stage has no edges) with
// two-slot ingress queues: the world where the source's credit window
// visibly closes.
constexpr char kTwoStageSpec[] =
    "topology hub link_delay=1us\n"
    "host client mac=0x020000000c01 ip=192.168.1.10\n"
    "host h1\nhost h2\n"
    "stage nat  kind=nat       host=h1 target=cpu queue=2\n"
    "stage pool kind=memcached host=h2 target=cpu queue=2\n"
    "chain client -> nat -> pool\n";

MemaslapLoadgen TestLoadgen(u64 seed, usize key_space) {
  MemaslapConfig mc;
  const MemcachedConfig server = CanonicalMemcachedConfig();
  mc.server_mac = server.mac;
  mc.server_ip = server.ip;
  mc.client_ip = Ipv4Address(192, 168, 1, 10);  // inside the NAT's subnet
  mc.key_space = key_space;
  mc.seed = seed;
  return MemaslapLoadgen(mc);
}

// --- ScenarioSpec parsing ----------------------------------------------------

TEST(ScenarioSpecTest, ParsesTheChainSoakShape) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(kFourStageSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->topology, SpecTopology::kHub);
  EXPECT_EQ(spec->link_delay, 2 * kPicosPerMicro);
  ASSERT_EQ(spec->hosts.size(), 5u);
  ASSERT_EQ(spec->stages.size(), 4u);
  ASSERT_EQ(spec->edges.size(), 3u);
  EXPECT_EQ(spec->source_host, "client");
  EXPECT_EQ(spec->edges[0].from, "filter");
  EXPECT_EQ(spec->edges[2].to, "pool");
  const usize cache = spec->FindStage("cache");
  ASSERT_LT(cache, spec->stages.size());
  EXPECT_EQ(spec->stages[cache].kind, "l1cache");
  EXPECT_EQ(spec->stages[cache].queue, 32u);
  ASSERT_EQ(spec->stages[cache].attrs.size(), 1u);
  EXPECT_EQ(spec->stages[cache].attrs[0].first, "capacity");
  EXPECT_EQ(spec->Downstream(spec->FindStage("nat")), cache);
  EXPECT_EQ(spec->Upstream(cache), spec->FindStage("nat"));
}

TEST(ScenarioSpecTest, HostDefaultsFollowTheAutoHostConvention) {
  const Expected<ScenarioSpec> spec =
      ParseScenarioSpec("topology hub hosts=2\nhost extra\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->hosts.size(), 3u);
  EXPECT_EQ(spec->hosts[0].name, "h0");
  EXPECT_EQ(spec->hosts[1].name, "h1");
  EXPECT_EQ(spec->hosts[1].mac, AutoHost(1).mac);
  EXPECT_EQ(spec->hosts[1].ip, AutoHost(1).ip);
  // An explicit host at index 2 keeps its name but inherits slot-2 defaults.
  EXPECT_EQ(spec->hosts[2].name, "extra");
  EXPECT_EQ(spec->hosts[2].mac, AutoHost(2).mac);
}

TEST(ScenarioSpecTest, CommentsRunToEndOfLine) {
  // The ';' inside the comment must not start a phantom entry.
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "# soak topology; eight hosts around a hub\n"
      "topology hub hosts=8  # 50us links; SWIM timescale\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->hosts.size(), 8u);
}

TEST(ScenarioSpecTest, DiagnosticsCarryTheLineNumberVerbatim) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=2\n"
      "host extra\n"
      "frobnicate now\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message(),
            "scenario spec line 3: unknown keyword 'frobnicate': frobnicate now");
}

// Link delays are unsigned and must fit 64 bits once scaled: the existing
// "bad link_delay" diagnostic, not a negative or wrapped delay.
TEST(ScenarioSpecTest, RejectsSignedAndOverflowingLinkDelays) {
  for (const std::string value : {"-1ns", "+1ns", "20000000000s"}) {
    const Expected<ScenarioSpec> spec =
        ParseScenarioSpec("topology star hosts=2 link_delay=" + value);
    ASSERT_FALSE(spec.ok()) << value;
    EXPECT_EQ(spec.status().message(), "scenario spec line 1: bad link_delay '" + value +
                                           "': topology star hosts=2 link_delay=" + value);
  }
  const Expected<ScenarioSpec> rate = ParseScenarioSpec("topology star link_rate=-1G");
  ASSERT_FALSE(rate.ok());
  EXPECT_EQ(rate.status().message(),
            "scenario spec line 1: bad link_rate '-1G': topology star link_rate=-1G");
}

TEST(ScenarioSpecTest, RejectsAStageOnAnUnknownHost) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=2\n"
      "stage s kind=nat host=nope queue=4\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message(),
            "scenario spec line 2: stage 's' placed on unknown host 'nope': s");
}

TEST(ScenarioSpecTest, RejectsADanglingChainArrow) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=2\n"
      "stage s kind=nat host=h0 queue=4\n"
      "chain h1 -> s ->\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message(),
            "scenario spec line 3: chain ends with a dangling '->': chain h1 -> s ->");
}

TEST(ScenarioSpecTest, RejectsDuplicateHostsWithTheirLine) {
  const Expected<ScenarioSpec> spec =
      ParseScenarioSpec("topology hub hosts=2\nhost h1\n");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().message(),
            "scenario spec line 2: duplicate host 'h1': host h1");
}

// --- Chain shape (LinearChainOrder / BuildScenario) --------------------------

TEST(ChainShapeTest, RejectsABranchingChain) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=4\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=4\n"
      "stage c kind=nat host=h2 queue=4\n"
      "chain h3 -> a -> b\n"
      "chain a -> c\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Expected<std::vector<usize>> order = LinearChainOrder(*spec);
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().message(),
            "scenario spec line 6: stage 'a' has multiple downstream edges");
}

TEST(ChainShapeTest, RejectsACycle) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=3\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=4\n"
      "chain h2 -> a -> b\n"
      "chain b -> a\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Expected<std::vector<usize>> order = LinearChainOrder(*spec);
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().message(), "scenario spec: chain edges form a cycle");
}

TEST(ChainShapeTest, RejectsDisjointChains) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=5\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=4\n"
      "stage c kind=nat host=h2 queue=4\n"
      "stage d kind=nat host=h3 queue=4\n"
      "chain h4 -> a -> b\n"
      "chain c -> d\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Expected<std::vector<usize>> order = LinearChainOrder(*spec);
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().message(),
            "scenario spec: disjoint chains (both 'a' and 'c' are chain heads)");
}

TEST(ChainShapeTest, RejectsAChainWithNoSourceHost) {
  const Expected<ScenarioSpec> spec = ParseScenarioSpec(
      "topology hub hosts=2\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=4\n"
      "chain a -> b\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const Expected<std::vector<usize>> order = LinearChainOrder(*spec);
  ASSERT_FALSE(order.ok());
  EXPECT_EQ(order.status().message(),
            "scenario spec: chain has no source host (start the chain line with a host name)");
}

TEST(ChainShapeTest, BuildRejectsAChainOffTheHubTopology) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(
      "topology star hosts=2\n"
      "stage a kind=nat queue=4\n"
      "stage b kind=nat queue=4\n"
      "chain h0 -> a -> b\n");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().message(),
            "scenario spec: chain lines require topology hub, not star");
}

TEST(ChainShapeTest, BuildRejectsAChainedStageWithNoQueue) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(
      "topology hub hosts=3\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=0\n"
      "chain h2 -> a -> b\n");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().message(),
            "scenario spec line 3: chained stage 'b' has queue=0 and admits no traffic");
}

TEST(ChainShapeTest, BuildRejectsTwoChainedStagesOnOneHost) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(
      "topology hub hosts=2\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h0 queue=4\n"
      "chain h1 -> a -> b\n");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().message(),
            "scenario spec line 3: stages 'a' and 'b' share host 'h0'");
}

TEST(ChainShapeTest, BuildEnforcesTheStarAndClusterShapes) {
  const Expected<std::unique_ptr<Scenario>> star = BuildScenarioFromText(
      "topology star hosts=2\n"
      "stage a kind=nat queue=4\n"
      "stage b kind=nat queue=4\n");
  ASSERT_FALSE(star.ok());
  EXPECT_EQ(star.status().message(),
            "scenario spec: topology star wants exactly 1 stage, got 2");
  const Expected<std::unique_ptr<Scenario>> cluster = BuildScenarioFromText(
      "topology cluster hosts=2\n"
      "stage a kind=nat host=h0 queue=4\n");
  ASSERT_FALSE(cluster.ok());
  EXPECT_EQ(cluster.status().message(),
            "scenario spec: topology cluster wants one stage per host "
            "(1 stages, 2 hosts)");
}

TEST(ChainShapeTest, BuildRequiresARegistryWhenTheSpecImpairsLinks) {
  const Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText("topology hub hosts=2 impair=link\n");
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().message(),
            "scenario spec sets impair=link but no FaultRegistry was provided");
}

TEST(ChainShapeTest, BuildPlacesHostsAndStagesPerTheSpec) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(kTwoStageSpec);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Scenario& scenario = **built;
  ASSERT_TRUE(scenario.has_chain);
  EXPECT_EQ(scenario.topology.host_count(), 3u);
  EXPECT_EQ(scenario.topology.host(scenario.source_host).name(), "client");
  ASSERT_EQ(scenario.chain.stage_count(), 2u);
  EXPECT_EQ(scenario.chain.stage(0).name(), "nat");
  EXPECT_EQ(scenario.chain.stage(0).host().name(), "h1");
  EXPECT_EQ(scenario.chain.stage(1).name(), "pool");
  EXPECT_EQ(scenario.chain.stage(1).host().name(), "h2");
}

// --- CHAINSPEC lint ----------------------------------------------------------

TEST(ChainLintTest, CleanSpecHasNoFindings) {
  EXPECT_TRUE(CheckChainSpecText(kFourStageSpec, "spec").empty());
}

TEST(ChainLintTest, ReportsUnknownStageKinds) {
  const std::vector<Finding> findings = CheckChainSpecText(
      "topology hub hosts=2\n"
      "stage s kind=bogus host=h0 queue=4\n"
      "chain h1 -> s\n",
      "spec");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "CHAINSPEC");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].subject, "s");
  EXPECT_EQ(findings[0].message, "line 2: unknown stage kind 'bogus'");
}

TEST(ChainLintTest, ReportsParseFailuresVerbatim) {
  const std::vector<Finding> findings =
      CheckChainSpecText("nonsense\n", "spec");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].subject, "parse");
  EXPECT_EQ(findings[0].message,
            "scenario spec line 1: unknown keyword 'nonsense': nonsense");
}

TEST(ChainLintTest, WarnsOnAStageOffEveryChainEdge) {
  const std::vector<Finding> findings = CheckChainSpecText(
      "topology hub hosts=4\n"
      "stage a kind=nat host=h0 queue=4\n"
      "stage b kind=nat host=h1 queue=4\n"
      "stage dead kind=nat host=h2 queue=4\n"
      "chain h3 -> a -> b\n",
      "spec");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].subject, "dead");
  EXPECT_EQ(findings[0].message,
            "line 4: stage is on no chain edge (dead configuration)");
}

TEST(ChainLintTest, FlagsAChainedStageTheFaultPlanCrashesForGood) {
  constexpr char kSpec[] =
      "topology hub hosts=4\n"
      "stage a kind=nat host=h1 queue=4\n"
      "stage b kind=memcached host=h2 queue=4\n"
      "chain h0 -> a -> b\n";
  const auto crash_only = ParseFaultPlan("crash host=h1 at=20ms");
  ASSERT_TRUE(crash_only.ok());
  std::vector<Finding> findings = CheckChainSpecText(kSpec, "spec", &*crash_only);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].subject, "a");
  EXPECT_EQ(findings[0].message,
            "line 2: host 'h1' is crashed by the fault plan at 20000000000ps "
            "and never restarted; the chain goes dark");

  // A restart after the crash clears the finding.
  const auto recovered = ParseFaultPlan("crash host=h1 at=20ms; restart host=h1 at=30ms");
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(CheckChainSpecText(kSpec, "spec", &*recovered).empty());

  // Crashing the source host is survivable (the workload just stops) — a
  // warning, not an error.
  const auto source_crash = ParseFaultPlan("crash host=h0 at=10ms");
  ASSERT_TRUE(source_crash.ok());
  findings = CheckChainSpecText(kSpec, "spec", &*source_crash);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, Severity::kWarning);
  EXPECT_EQ(findings[0].subject, "h0");
}

// --- ChainStageIo ------------------------------------------------------------

TEST(ChainIoTest, MemcachedTailVersusL1Tier) {
  MemcachedService plain(CanonicalMemcachedConfig());
  const ChainStageIo tail = plain.ChainIo();
  EXPECT_EQ(tail.downstream_mask, 0u);  // a plain server ends the chain
  EXPECT_FALSE(tail.reply_to_upstream);

  const MemcachedConfig l1_config = CanonicalL1CacheConfig();
  MemcachedService l1(l1_config);
  const ChainStageIo io = l1.ChainIo();
  EXPECT_EQ(io.forward_in_port, 1u);
  EXPECT_EQ(io.reply_in_port, l1_config.host_port);
  EXPECT_EQ(io.downstream_mask, static_cast<u8>(1u << l1_config.host_port));
  // Host replies are routed by the client CAM, which learned the upstream
  // neighbor's hop-by-hop MAC — the ingress rewrite must restore it.
  EXPECT_TRUE(io.reply_to_upstream);
}

// --- Runtime: backpressure ---------------------------------------------------

TEST(ChainRuntimeTest, OverloadShedsAtTheSourceNeverMidChain) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(kTwoStageSpec);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Scenario& scenario = **built;
  ASSERT_TRUE(scenario.has_chain);
  ChainRuntime& chain = scenario.chain;

  // 2us between sends against a 10us service time and a 2-deep queue: the
  // source's credit window must close.
  MemaslapLoadgen gen = TestLoadgen(/*seed=*/5, /*key_space=*/8);
  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  constexpr usize kRequests = 12;
  for (usize i = 0; i < kRequests; ++i) {
    clock.At(static_cast<Picoseconds>(i + 1) * 2 * kPicosPerMicro,
             [&chain, frame = gen.WorkloadFrame(i)]() mutable {
               chain.SourceSend(std::move(frame));
             });
  }
  scenario.Run();

  EXPECT_GT(chain.source_shed(), 0u);
  EXPECT_EQ(chain.source_replies(), kRequests - chain.source_shed());
  EXPECT_EQ(chain.stage(0).serviced_forward(), kRequests - chain.source_shed());
  EXPECT_EQ(chain.stage(0).lost_backpressure(), 0u);
  EXPECT_EQ(chain.stage(1).lost_backpressure(), 0u);
  std::vector<Finding> findings;
  chain.CollectFindings(findings);
  EXPECT_TRUE(findings.empty());
}

TEST(ChainRuntimeTest, FullQueueArrivalSurfacesAsLostBackpressure) {
  const Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(kTwoStageSpec);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Scenario& scenario = **built;
  ASSERT_TRUE(scenario.has_chain);
  SimHost& client = scenario.topology.host(scenario.source_host);
  const MacAddress head_mac = scenario.chain.stage(0).host().mac();

  // Bypass SourceSend's credit window: hand-addressed frames sent straight
  // from the source host model a duplicating/credit-eating link. Eight
  // arrivals a microsecond apart against a 2-deep queue and a 10us service
  // time must overflow.
  MemaslapLoadgen gen = TestLoadgen(/*seed=*/3, /*key_space=*/8);
  EventScheduler& clock = client.scheduler();
  for (usize i = 0; i < 8; ++i) {
    Packet frame = gen.WorkloadFrame(i);
    EthernetView ev(frame);
    ev.set_source(client.mac());
    ev.set_destination(head_mac);
    clock.At(static_cast<Picoseconds>(i + 1) * kPicosPerMicro,
             [&client, frame = std::move(frame)]() mutable {
               client.Send(std::move(frame));
             });
  }
  scenario.Run();

  EXPECT_GT(scenario.chain.stage(0).lost_backpressure(), 0u);
  std::vector<Finding> findings;
  scenario.chain.CollectFindings(findings);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].check, "LOSTBACKPRESSURE");
  EXPECT_EQ(findings[0].severity, Severity::kError);
  EXPECT_EQ(findings[0].subject, "nat");
}

// --- Determinism and decomposition -------------------------------------------

struct ChainRun {
  u64 chain_digest = 0;
  u64 log_digest = 0;
  u64 attempts = 0;
  u64 shed = 0;
  u64 replies = 0;
  u64 head_forward = 0;
  std::vector<Finding> findings;
  std::string trace_json;
  std::vector<obs::StageDecomposition> rows;
};

// One chain_soak-shaped run: prewarm + 90/10 workload through the four-stage
// pipeline, traced, at the given thread count.
ChainRun RunFourStageChain(u64 seed, usize threads) {
  ChainRun out;
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText(kFourStageSpec, &registry);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) {
    return out;
  }
  Scenario& scenario = **built;
  ChainRuntime& chain = scenario.chain;

  obs::TraceSession trace;
  trace.Install();

  MemaslapLoadgen gen = TestLoadgen(seed, /*key_space=*/32);
  std::vector<Packet> frames;
  for (usize i = 0; i < gen.prewarm_count(); ++i) {
    frames.push_back(gen.PrewarmFrame(i));
  }
  for (usize i = 0; i < 60; ++i) {
    frames.push_back(gen.WorkloadFrame(i));
  }
  out.attempts = frames.size();
  EventScheduler& clock = scenario.topology.host(scenario.source_host).scheduler();
  for (usize i = 0; i < frames.size(); ++i) {
    clock.At(static_cast<Picoseconds>(i + 1) * 25 * kPicosPerMicro,
             [&chain, frame = std::move(frames[i])]() mutable {
               chain.SourceSend(std::move(frame));
             });
  }

  ParallelRunOptions opts;
  opts.threads = threads;
  scenario.Run(opts);

  out.chain_digest = chain.Digest();
  out.log_digest = registry.LogDigest();
  out.shed = chain.source_shed();
  out.replies = chain.source_replies();
  out.head_forward = chain.stage(0).serviced_forward();
  chain.CollectFindings(out.findings);
  out.trace_json = trace.ExportChromeJson();
  std::vector<std::string> stage_order;
  for (usize i = 0; i < chain.stage_count(); ++i) {
    stage_order.push_back(chain.stage(i).name());
  }
  out.rows = obs::DecomposeChainLatency(trace.MergedEvents(), stage_order);
  obs::TraceSession::Detach();
  return out;
}

TEST(ChainDeterminismTest, DigestAndTraceAreBitExactAcrossThreadsAndReplay) {
  const ChainRun serial = RunFourStageChain(/*seed=*/7, /*threads=*/1);
  const ChainRun parallel = RunFourStageChain(/*seed=*/7, /*threads=*/4);
  const ChainRun replay = RunFourStageChain(/*seed=*/7, /*threads=*/4);

  // Flow integrity on the parallel run: every admitted request reached the
  // head stage and produced exactly one reply at the source.
  EXPECT_TRUE(parallel.findings.empty());
  EXPECT_EQ(parallel.replies, parallel.attempts - parallel.shed);
  EXPECT_EQ(parallel.head_forward, parallel.attempts - parallel.shed);

  EXPECT_EQ(serial.chain_digest, parallel.chain_digest);
  EXPECT_EQ(serial.log_digest, parallel.log_digest);
  EXPECT_EQ(replay.chain_digest, parallel.chain_digest);
  ASSERT_FALSE(parallel.trace_json.empty());
  EXPECT_EQ(serial.trace_json, parallel.trace_json);
  EXPECT_EQ(replay.trace_json, parallel.trace_json);
}

TEST(ChainDeterminismTest, TraceDecomposesIntoPerStageLatencyRows) {
#ifndef EMU_TRACE
  GTEST_SKIP() << "built with EMU_TRACE=OFF: no spans to decompose";
#endif
  const ChainRun run = RunFourStageChain(/*seed=*/11, /*threads=*/2);
  ASSERT_EQ(run.rows.size(), 4u);
  EXPECT_EQ(run.rows[0].stage, "filter");
  EXPECT_EQ(run.rows[3].stage, "pool");
  for (const obs::StageDecomposition& row : run.rows) {
    // Every stage on the chain saw traffic: both the queue-wait and the
    // service span populated (the Table 4 decomposition shape).
    EXPECT_GT(row.queue.count, 0u) << row.stage;
    EXPECT_GT(row.service.count, 0u) << row.stage;
    EXPECT_GE(row.service.total, row.service.count)  // nonzero mean service time
        << row.stage;
  }
}

}  // namespace
}  // namespace emu
