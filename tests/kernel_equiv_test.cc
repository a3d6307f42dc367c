// The kernel oracle (tests/kernel_oracle.h) and the kernel's wake, commit
// and fallback contracts.
//
// The oracle lattice runs every stock design under idle and saturated
// pacing through the exact, fast and RunUntil drives, and requires the fast
// and RunUntil drives to agree with exact on everything observable: cycle
// counts, egress frames (ports and bytes), service counters, fault logs,
// resume counts and edge accounting. In fast mode it also asserts that each
// pacing exercises the path it names: idle runs fast-forward at least 90% of
// their cycles, saturated runs execute at least 90% of their traffic phase
// as edges.
//
// The rest of the file pins the WaitUntil wake contract (parked processes
// wake in registration order, on exactly the edge the predicate first
// holds), the lost-wakeup and testbench-write regressions, when wake routing
// engages and drops, the soak shape's exact edge split, and the EdgeObserver
// fallback to gapless per-edge execution.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/fnv.h"
#include "src/core/metrics.h"
#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/hdl/elab_catalog.h"
#include "src/hdl/fifo.h"
#include "src/hdl/signal.h"
#include "src/hdl/vcd_tracer.h"
#include "src/ip/bram.h"
#include "src/ip/cam.h"
#include "src/ip/hash_cam.h"
#include "src/ip/logic_cam.h"
#include "src/services/learning_switch.h"
#include "src/soak/workloads.h"
#include "tests/kernel_oracle.h"

namespace emu {
namespace {

using oracle::BroadcastFrame;
using oracle::Design;
using oracle::Drive;
using oracle::ExpectEquivalent;
using oracle::Pacing;
using oracle::RunDesign;
using oracle::RunDigest;
using oracle::UnicastFrame;

// --- The oracle lattice: design x pacing x drive ---------------------------------

struct Cell {
  Design design;
  Pacing pacing;
  Drive drive;
};

// Prints as switch_idle_fast &c.: the name ctest lists the cell under.
void PrintTo(const Cell& cell, std::ostream* out) {
  *out << oracle::DesignName(cell.design) << '_' << oracle::PacingName(cell.pacing) << '_'
       << oracle::DriveName(cell.drive);
}

std::vector<Cell> AllCells() {
  std::vector<Cell> cells;
  for (const Design design :
       {Design::kSwitch, Design::kNat, Design::kMemcached, Design::kNatFaults}) {
    for (const Pacing pacing : {Pacing::kIdle, Pacing::kSaturated}) {
      for (const Drive drive : {Drive::kExact, Drive::kFast, Drive::kRunUntil}) {
        cells.push_back({design, pacing, drive});
      }
    }
  }
  return cells;
}

class KernelOracle : public ::testing::TestWithParam<Cell> {};

TEST_P(KernelOracle, BitExact) {
  const auto [design, pacing, drive] = GetParam();
  const RunDigest exact = RunDesign(design, pacing, Drive::kExact);
  ASSERT_GT(exact.egress_count, 0u);
  EXPECT_EQ(exact.profile.cycles_fast_forwarded, 0u);
  if (design == Design::kNatFaults) {
    EXPECT_GT(exact.faults_fired, 0u);  // the plan actually fired
  }
  if (drive == Drive::kExact) {
    return;
  }
  const RunDigest got = RunDesign(design, pacing, drive);
  ExpectEquivalent(got, exact);
  if (drive != Drive::kFast) {
    return;
  }
  const u64 fast_forwarded = got.profile.cycles_fast_forwarded;
  if (design == Design::kNatFaults) {
    // An armed per-tick plan pins every edge: only the disarmed drain jumps.
    EXPECT_GT(fast_forwarded, 0u);
  } else if (pacing == Pacing::kIdle) {
    EXPECT_GE(fast_forwarded * 10, got.final_now * 9)
        << "idle pacing fast-forwarded only " << fast_forwarded << " of " << got.final_now
        << " cycles";
  } else {
    EXPECT_GE(got.traffic_edges * 10, got.traffic_cycles * 9)
        << "saturated pacing executed only " << got.traffic_edges << " of "
        << got.traffic_cycles << " traffic-phase cycles";
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, KernelOracle, ::testing::ValuesIn(AllCells()));

// --- VCD equivalence -------------------------------------------------------------
//
// An attached tracer pins the kernel per-edge, so its dump must be identical
// with the fast path nominally on or off.

std::string RenderSwitchVcd(bool fast_path) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  VcdTracer tracer(target.sim());
  tracer.AddSignal("lookups", 16, [&] { return metrics.Get("switch.lookups"); });
  tracer.AddSignal("learned", 16, [&] { return metrics.Get("switch.learned"); });
  tracer.Sample();
  tracer.Attach();
  target.Inject(0, BroadcastFrame(0, 1));
  target.Run(5'000);
  tracer.Detach();
  return tracer.Render();
}

TEST(KernelEquivalence, AttachedVcdTraceIdentical) {
  const std::string fast = RenderSwitchVcd(true);
  const std::string exact = RenderSwitchVcd(false);
  EXPECT_EQ(fast, exact);
  EXPECT_NE(fast.find("$enddefinitions"), std::string::npos);
}

// --- WaitUntil wake semantics ----------------------------------------------------

HwProcess Consumer(SyncFifo<int>& fifo, std::vector<int>& log, int tag) {
  for (;;) {
    co_await WaitUntil([&fifo] { return !fifo.Empty(); });
    log.push_back(tag * 1000 + fifo.Pop());
    co_await Pause();
  }
}

// Two consumers parked on one FIFO: pushes wake them in registration order,
// and the loser of the race re-parks without observing anything.
void CheckWakeOrdering(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "f", 8, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "first");
  sim.AddProcess(Consumer(fifo, log, 2), "second");
  sim.Run(10);  // both park
  EXPECT_TRUE(log.empty());

  fifo.Push(7);
  sim.Run(10);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 1007);  // the first-registered consumer wins

  fifo.Push(8);
  fifo.Push(9);
  sim.Run(10);
  // Both values land at one commit; first-registered pops first.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[1], 1008);
  EXPECT_EQ(log[2], 2009);
}

TEST(WaitUntilTest, WakeOrderFollowsRegistrationOrderFast) { CheckWakeOrdering(true); }
TEST(WaitUntilTest, WakeOrderFollowsRegistrationOrderExact) { CheckWakeOrdering(false); }

// A predicate that is already true must not cost an edge: WaitUntil then
// continues within the same cycle, exactly like the `if (ready) work` shape
// it replaces.
HwProcess ImmediateWaiter(SyncFifo<int>& fifo, Reg<u64>& out) {
  co_await WaitUntil([&fifo] { return !fifo.Empty(); });
  out.Write(static_cast<u64>(fifo.Pop()));
  co_await Pause();
}

TEST(WaitUntilTest, TruePredicateContinuesSameCycle) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 4, 32);
  Reg<u64> out(sim, 0);
  fifo.Push(41);
  sim.Run(1);  // commit the push before the process first runs
  sim.AddProcess(ImmediateWaiter(fifo, out), "waiter");
  sim.Run(1);
  EXPECT_EQ(out.Read(), 41u);  // popped and written on its first edge
}

// A parked producer polling for space wakes on the same edge a
// later-registered consumer frees a slot (pop visibility is intra-cycle).
HwProcess BlockedProducer(SyncFifo<int>& fifo, int count, u64& pushes) {
  for (int i = 0; i < count; ++i) {
    co_await WaitUntil([&fifo] { return fifo.PollCanPush(); });
    fifo.Push(i);
    ++pushes;
    co_await Pause();
  }
}

HwProcess SlowDrain(SyncFifo<int>& fifo, Cycle period, u64& pops) {
  for (;;) {
    co_await PauseFor(period);
    if (!fifo.Empty()) {
      fifo.Pop();
      ++pops;
    }
  }
}

void CheckBackpressureWake(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "f", 2, 32);
  u64 pushes = 0;
  u64 pops = 0;
  sim.AddProcess(BlockedProducer(fifo, 10, pushes), "producer");
  sim.AddProcess(SlowDrain(fifo, 50, pops), "drain");
  sim.Run(1'000);
  EXPECT_EQ(pushes, 10u);  // producer squeezed everything through depth 2
  EXPECT_GE(pops, 8u);
}

TEST(WaitUntilTest, BackpressuredProducerWakesOnPopFast) { CheckBackpressureWake(true); }
TEST(WaitUntilTest, BackpressuredProducerWakesOnPopExact) { CheckBackpressureWake(false); }

// A stalled FIFO un-stalls by the clock, not by any process action: the
// forced wake scheduled at stall expiry must un-park the consumer even
// though no producer bumps the epoch in between.
TEST(WaitUntilTest, StallExpiryWakesParkedConsumer) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 4, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "consumer");
  fifo.Push(5);
  sim.Run(2);  // commit, consumer pops... unless stalled first
  log.clear();
  fifo.Push(6);
  sim.Run(1);
  fifo.InjectStall(100);
  sim.Run(50);
  EXPECT_TRUE(log.empty());  // stalled: consumer sees empty
  sim.Run(100);
  ASSERT_EQ(log.size(), 1u);  // expiry wake fired with no producer activity
  EXPECT_EQ(log[0], 1006);
}

// --- Lost-wakeup regressions -----------------------------------------------------
//
// Every site that mutates state a WaitUntil predicate can observe must bump
// the wake epoch, or the fast path sleeps through the mutation while the
// exact path (which re-evaluates every parked predicate each edge) sees it.
// Each scenario below parks a watcher on one mutation site, fires the
// mutation from an otherwise-sleeping process, and requires the watcher to
// wake on the same edge with the fast path on and off.

// Runs `action` once after `at` cycles, then sleeps out of the way so the
// mutation site's own NotifyWake is the only thing that can un-park a
// watcher.
HwProcess DelayedAction(Cycle at, std::function<void()> action) {
  co_await PauseFor(at);
  action();
  co_await PauseFor(1'000'000);
}

struct WakeResult {
  bool woke = false;
  Cycle woke_at = 0;
  u64 fast_forwarded = 0;
};

HwProcess WakeWatcher(Simulator& sim, std::function<bool()> pred, WakeResult& result) {
  co_await WaitUntil([&pred] { return pred(); });
  result.woke = true;
  result.woke_at = sim.now();
  co_await PauseFor(1'000'000);
}

// A design factory builds the watched state into `sim` and returns the
// watcher predicate plus the mutation that should flip it. State is owned by
// the returned closures (shared_ptr captures) so it outlives the run.
using WakeDesign = std::function<
    std::pair<std::function<bool()>, std::function<void()>>(Simulator& sim)>;

WakeResult RunWakeScenario(bool fast_path, const WakeDesign& design) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  auto [pred, mutate] = design(sim);
  WakeResult result;
  sim.AddProcess(WakeWatcher(sim, std::move(pred), result), "watcher");
  sim.AddProcess(DelayedAction(50, std::move(mutate)), "mutator");
  sim.Run(500);
  result.fast_forwarded = sim.ProfileReport().cycles_fast_forwarded;
  return result;
}

void CheckMutationWakes(const char* site, const WakeDesign& design) {
  const WakeResult exact = RunWakeScenario(false, design);
  const WakeResult fast = RunWakeScenario(true, design);
  ASSERT_TRUE(exact.woke) << site << ": scenario broken, exact mode never woke";
  EXPECT_TRUE(fast.woke) << site << ": fast path slept through the mutation (lost wakeup)";
  EXPECT_EQ(fast.woke_at, exact.woke_at) << site;
  // The run is idle-heavy by construction; a fast run that never jumped was
  // not exercising the epoch-lazy path at all.
  EXPECT_GT(fast.fast_forwarded, 0u) << site;
}

TEST(LostWakeupRegression, BramCommitWakesParkedReader) {
  CheckMutationWakes("bram.commit", [](Simulator& sim) {
    auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [bram] { return bram->Read(3) == 42; }, [bram] { bram->Write(3, 42); });
  });
}

TEST(LostWakeupRegression, CamCommitWakesParkedReader) {
  CheckMutationWakes("cam.commit", [](Simulator& sim) {
    auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
  });
}

TEST(LostWakeupRegression, LogicCamCommitWakesParkedReader) {
  CheckMutationWakes("logic_cam.commit", [](Simulator& sim) {
    auto cam = std::make_shared<LogicCam>(sim, "lc", 8, 16, 16);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
  });
}

TEST(LostWakeupRegression, HashCamWriteWakesParkedReader) {
  CheckMutationWakes("hash_cam.write", [](Simulator& sim) {
    auto hash = std::make_shared<HashCam>(sim, "h", 8);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [hash] {
          hash->Read(7);
          return hash->matched();
        },
        [hash] { hash->Write(7, 1); });
  });
}

TEST(LostWakeupRegression, HashCamEraseWakesParkedReader) {
  CheckMutationWakes("hash_cam.erase", [](Simulator& sim) {
    auto hash = std::make_shared<HashCam>(sim, "h", 8);
    hash->Write(9, 1);  // pre-bound before any process parks
    return std::pair<std::function<bool()>, std::function<void()>>(
        [hash] {
          hash->Read(9);
          return !hash->matched();
        },
        [hash] { hash->Erase(9); });
  });
}

TEST(LostWakeupRegression, BramSeuFlipWakesParkedReader) {
  CheckMutationWakes("bram.seu", [](Simulator& sim) {
    auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [bram] { return bram->Read(0) == 1; }, [bram] { bram->InjectBitFlip(0); });
  });
}

TEST(LostWakeupRegression, CamSeuFlipWakesParkedReader) {
  CheckMutationWakes("cam.seu", [](Simulator& sim) {
    auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
    // Bit 0 is slot 0's valid flag: the flip resurrects an all-zero entry,
    // so a parked Lookup(0) starts hitting.
    return std::pair<std::function<bool()>, std::function<void()>>(
        [cam] { return cam->Lookup(0).hit; }, [cam] { cam->InjectBitFlip(0); });
  });
}

TEST(LostWakeupRegression, CaspVariableWriteWakesParkedReader) {
  CheckMutationWakes("casp.store_var", [](Simulator& sim) {
    auto controller = std::make_shared<DirectionController>();
    controller->SetWakeHook([&sim] { sim.NotifyWake(); });
    auto value = std::make_shared<u64>(0);
    controller->machine().BindVariable(
        {"v", [value] { return *value; }, [value](u64 x) { *value = x; }});
    const auto var = controller->machine().VariableId("v");
    CaspProgram program = {{CaspOp::kPushConst, 42, 0}, {CaspOp::kStoreVar, 0, *var}};
    controller->machine().InstallProcedure("poke", "t", program);
    return std::pair<std::function<bool()>, std::function<void()>>(
        [value] { return *value == 42; }, [controller] { controller->Activate("poke"); });
  });
}

// Impairer-delayed deliveries land on the wire at a future cycle while the
// pipeline is otherwise quiescent; the port's Deliver must announce each
// arrival so the fast path replays the delayed schedule bit-exactly.
RunDigest RunImpairedSwitch(bool fast_path) {
  LearningSwitch service;
  FpgaTarget target(service);
  target.sim().SetFastPath(fast_path);
  MetricsRegistry metrics;
  service.RegisterMetrics(metrics);

  FaultRegistry registry(23);
  FrameImpairer tap(registry, "ingress");
  target.sim().AttachFaultRegistry(&registry);
  const auto plan =
      ParseFaultPlan("ingress.delay bernoulli 0.4 30000; ingress.dup bernoulli 0.1");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return RunDigest{};
  }
  registry.ArmPlan(*plan);

  for (u8 port = 0; port < 4; ++port) {
    target.Inject(port, BroadcastFrame(port, port));
    target.Run(20'000);
  }
  for (usize i = 0; i < 24; ++i) {
    const u8 src = static_cast<u8>(i % 4);
    Packet frame = UnicastFrame(src, static_cast<u8>((i + 1) % 4), 1 + i % 7, static_cast<u8>(i));
    const Cycle now = target.sim().now();
    const FrameImpairer::Decision d = tap.Decide(now, frame.size());
    if (!d.drop) {
      // The tap runs on the cycle clock, so delay magnitudes are cycles.
      const Cycle at = now + static_cast<Cycle>(d.extra_delay_ps);
      if (d.duplicate) {
        target.Inject(src, frame, at);
      }
      target.Inject(src, std::move(frame), at);
    }
    target.Run(15'000);
  }
  registry.DisarmAll();
  target.Run(100'000);

  RunDigest digest;
  digest.Capture(target, metrics, &registry);
  digest.fault_log_digest = Fnv1aWord(digest.fault_log_digest, tap.delayed());
  digest.fault_log_digest = Fnv1aWord(digest.fault_log_digest, tap.duplicated());
  target.sim().AttachFaultRegistry(nullptr);
  return digest;
}

TEST(LostWakeupRegression, ImpairerDelayedDeliveryBitExact) {
  const RunDigest fast = RunImpairedSwitch(true);
  const RunDigest exact = RunImpairedSwitch(false);
  ExpectEquivalent(fast, exact);
  EXPECT_GT(fast.faults_fired, 0u);  // the delay plan actually rescheduled frames
  EXPECT_GT(fast.profile.cycles_fast_forwarded, 0u);
}

// --- Testbench writes between Run calls ------------------------------------------
//
// A write made from testbench context is buffered like a process's and must
// commit on the next executed edge: the fast path may not jump past it.
// Every element's mutators announce to the dirty queue, the only
// pending-commit check the quiescence scan makes. A watcher parked on the
// written state records the cycle the write became visible.

WakeResult RunTestbenchWrite(bool fast_path, const WakeDesign& design) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  auto [pred, mutate] = design(sim);
  WakeResult result;
  sim.AddProcess(WakeWatcher(sim, std::move(pred), result), "watcher");
  sim.Run(50);
  mutate();
  sim.Run(450);
  result.fast_forwarded = sim.ProfileReport().cycles_fast_forwarded;
  return result;
}

TEST(KernelEquivalence, TestbenchWritesBetweenRunsCommitOnNextEdge) {
  using Design = std::pair<std::function<bool()>, std::function<void()>>;
  const std::vector<std::pair<const char*, WakeDesign>> designs = {
      {"reg",
       [](Simulator& sim) {
         auto reg = std::make_shared<Reg<u32>>(sim, "r", 0u);
         return Design([reg] { return reg->Read() == 42; }, [reg] { reg->Write(42); });
       }},
      {"bram",
       [](Simulator& sim) {
         auto bram = std::make_shared<Bram>(sim, "b", 16, 32);
         return Design([bram] { return bram->Read(3) == 42; }, [bram] { bram->Write(3, 42); });
       }},
      {"cam",
       [](Simulator& sim) {
         auto cam = std::make_shared<Cam>(sim, "c", 8, 16, 16);
         return Design([cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
       }},
      {"logic_cam",
       [](Simulator& sim) {
         auto cam = std::make_shared<LogicCam>(sim, "lc", 8, 16, 16);
         return Design([cam] { return cam->Lookup(7).hit; }, [cam] { cam->Write(0, 7, 1); });
       }},
      {"fifo",
       [](Simulator& sim) {
         auto fifo = std::make_shared<SyncFifo<int>>(sim, "f", 4, 32);
         return Design([fifo] { return !fifo->Empty(); }, [fifo] { fifo->Push(7); });
       }},
  };
  for (const auto& [element, design] : designs) {
    const WakeResult exact = RunTestbenchWrite(false, design);
    const WakeResult fast = RunTestbenchWrite(true, design);
    ASSERT_TRUE(exact.woke) << element << ": scenario broken, exact mode never saw the write";
    EXPECT_EQ(exact.woke_at, 51u) << element;  // committed on the edge at cycle 50
    EXPECT_TRUE(fast.woke) << element << ": fast path jumped past a buffered write";
    EXPECT_EQ(fast.woke_at, exact.woke_at) << element;
    EXPECT_GT(fast.fast_forwarded, 0u) << element;
  }
}

// --- Forced wake inside a skipped quiescent window -------------------------------
//
// A stall expiry schedules a forced wake that lands in the middle of what
// would otherwise be one long quiescent window. The fast path must split the
// window at the wake, and the registry's per-point opportunity books (bulk
// NoteSkippedTicks for jumped spans + per-edge Tick for executed edges) must
// total exactly what per-edge sampling records.

HwProcess PopRecorder(SyncFifo<int>& fifo, Simulator& sim, std::vector<Cycle>& pops) {
  for (;;) {
    co_await WaitUntil([&fifo] { return !fifo.Empty(); });
    fifo.Pop();
    pops.push_back(sim.now());
    co_await Pause();
  }
}

// Arrives mid-stall, backpressures through it, and pushes the moment the
// stall expires — which only a consumed forced wake can announce.
HwProcess StalledProducer(SyncFifo<int>& fifo, Cycle at) {
  co_await PauseFor(at);
  co_await WaitUntil([&fifo] { return fifo.PollCanPush(); });
  fifo.Push(7);
  co_await PauseFor(1'000'000);
}

struct ForcedWakeDigest {
  std::vector<Cycle> pops;
  u64 faults_fired = 0;
  u64 log_digest = 0;
  std::vector<std::pair<std::string, u64>> opportunities;
  Cycle final_now = 0;
  u64 edges_run = 0;
  u64 cycles_fast_forwarded = 0;
};

ForcedWakeDigest RunForcedWakeMidQuiescence(bool fast_path) {
  Simulator sim;
  sim.SetFastPath(fast_path);
  SyncFifo<int> fifo(sim, "q", 4, 32);
  ForcedWakeDigest digest;
  sim.AddProcess(PopRecorder(fifo, sim, digest.pops), "consumer");
  // The producer arrives at ~450, inside the stall window [400, 700): both
  // processes then park, and the pop chain depends on the stall-expiry
  // forced wake at 700 — which the fault tick at 400 scheduled into the
  // middle of an otherwise-idle span.
  sim.AddProcess(StalledProducer(fifo, 450), "producer");

  FaultRegistry registry(11);
  registry.RegisterStallTarget("q.stall", [&fifo](u64 cycles) {
    fifo.InjectStall(static_cast<Cycle>(cycles));
  });
  sim.AttachFaultRegistry(&registry);
  const auto plan = ParseFaultPlan("q.stall oneshot 400 300");
  if (!plan.ok()) {
    ADD_FAILURE() << "bad fault plan: " << plan.status().ToString();
    return digest;
  }
  registry.ArmPlan(*plan);
  sim.Run(2'000);

  digest.faults_fired = registry.fired_total();
  digest.log_digest = registry.LogDigest();
  for (const auto& point : registry.points()) {
    digest.opportunities.emplace_back(point->name(), point->opportunities());
  }
  digest.final_now = sim.now();
  const SimProfile profile = sim.ProfileReport();
  digest.edges_run = profile.edges_run;
  digest.cycles_fast_forwarded = profile.cycles_fast_forwarded;
  sim.AttachFaultRegistry(nullptr);
  return digest;
}

TEST(KernelEquivalence, ForcedWakeMidQuiescentWindowBooksIdentically) {
  const ForcedWakeDigest fast = RunForcedWakeMidQuiescence(true);
  const ForcedWakeDigest exact = RunForcedWakeMidQuiescence(false);
  ASSERT_EQ(exact.faults_fired, 1u);  // the stall actually fired
  ASSERT_EQ(exact.pops.size(), 1u);   // and the pop waited for its expiry
  EXPECT_GT(exact.pops[0], 699u);     // the push waited out the stall
  EXPECT_EQ(fast.pops, exact.pops);
  EXPECT_EQ(fast.faults_fired, exact.faults_fired);
  EXPECT_EQ(fast.log_digest, exact.log_digest);
  // Injection-opportunity books must match per point: a fast-forward that
  // mis-books the span around the forced wake shows up here.
  EXPECT_EQ(fast.opportunities, exact.opportunities);
  EXPECT_EQ(fast.final_now, exact.final_now);
  EXPECT_EQ(fast.edges_run + fast.cycles_fast_forwarded, exact.edges_run);
  EXPECT_GT(fast.cycles_fast_forwarded, 0u);  // the idle spans actually jumped
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
      target.Inject(static_cast<u8>(i % 4), BroadcastFrame(static_cast<u8>(i % 4),
                                                           static_cast<u8>(i)));
      target.Run(120);
    }
    target.Run(5'000);
    EXPECT_EQ(target.sim().wake_routing_active(), !late_process);
    return std::make_pair(target.sim().now(), soak::EgressDigest(target.TakeEgress()));
  };
  const auto routed = run(false);
  const auto global = run(true);
  EXPECT_EQ(routed.first, global.first);
  EXPECT_EQ(routed.second, global.second);
}

// --- Edge accounting on the soak shape -------------------------------------------

// The run loop skips the quiescence scan only where the scan could not have
// found a window, so the split equals that of a scan before every edge —
// the split bench/baselines/BENCH_kernel.json records for the soak shape
// bench/microbench_kernel runs (src/soak/workloads.h), saturated and idle.
TEST(FlatSchedule, MicrobenchEdgeSplitIsPinned) {
  const soak::SwitchSoakResult saturated = soak::RunSwitchSoak(2'000'000, 10);
  EXPECT_EQ(saturated.edges_run, 1'999'935u);
  EXPECT_EQ(saturated.cycles_fast_forwarded, 50'065u);
  const soak::SwitchSoakResult idle = soak::RunSwitchSoak(2'000'000, 1'000);
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
  auto run = [](EdgeCounter* counter) {
    LearningSwitch service;
    FpgaTarget target(service);
    MetricsRegistry metrics;
    service.RegisterMetrics(metrics);

    for (usize i = 0; i < 40; ++i) {
      target.Inject(static_cast<u8>(i % 4), BroadcastFrame(static_cast<u8>(i % 4),
                                                           static_cast<u8>(i)));
      target.Run(150);
    }
    if (counter != nullptr) {
      target.sim().AttachEdgeObserver(counter);
    }
    for (usize i = 0; i < 40; ++i) {
      const u8 src = static_cast<u8>(i % 4);
      target.Inject(src, UnicastFrame(src, static_cast<u8>((i + 1) % 4), 1, static_cast<u8>(i)));
      target.Run(150);
    }
    if (counter != nullptr) {
      target.sim().DetachEdgeObserver(counter);
    }
    target.Run(30'000);

    RunDigest digest;
    digest.Capture(target, metrics);
    return digest;
  };

  EdgeCounter counter;
  const RunDigest observed = run(&counter);
  const RunDigest unobserved = run(nullptr);

  // The observer saw every single edge of its span: 40 injections * 150
  // cycles, gapless — proof fast-forward stood down.
  EXPECT_EQ(counter.count(), 40u * 150u);
  EXPECT_EQ(counter.last() - counter.first() + 1, counter.count());

  // And observation changed nothing observable; the unobserved run
  // fast-forwards what the observed one executed.
  EXPECT_GT(observed.profile.edges_run, unobserved.profile.edges_run);
  EXPECT_EQ(observed.final_now, unobserved.final_now);
  EXPECT_EQ(observed.egress_count, unobserved.egress_count);
  EXPECT_EQ(observed.egress_digest, unobserved.egress_digest);
  EXPECT_EQ(observed.metrics, unobserved.metrics);
  EXPECT_EQ(observed.resumes_total, unobserved.resumes_total);
  EXPECT_EQ(observed.profile.edges_run + observed.profile.cycles_fast_forwarded,
            unobserved.profile.edges_run + unobserved.profile.cycles_fast_forwarded);
}

// --- Profiling -------------------------------------------------------------------

TEST(ProfileReportTest, CountsResumesAndJumps) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 8, 32);
  std::vector<int> log;
  sim.AddProcess(Consumer(fifo, log, 1), "consumer");
  sim.SetProfilingMode(ProfilingMode::kSampled, /*sample_stride=*/1);
  fifo.Push(1);
  sim.Run(10'000);

  const SimProfile profile = sim.ProfileReport();
  ASSERT_EQ(profile.processes.size(), 1u);
  EXPECT_EQ(profile.processes[0].name, "consumer");
  EXPECT_GE(profile.processes[0].resumes, 1u);
  EXPECT_GT(profile.processes[0].wall_ns, 0u);
  EXPECT_GT(profile.cycles_fast_forwarded, 0u);  // parked consumer quiesces
  EXPECT_GT(profile.jumps, 0u);
  EXPECT_EQ(profile.edges_run + profile.cycles_fast_forwarded, 10'000u);
}

}  // namespace
}  // namespace emu
