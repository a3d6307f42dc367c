// emu-fault: plans, registry determinism, impairment, hardware-state faults,
// NAT hardening under table pressure, loadgen loss accounting, and the
// emu-check integration (injected faults surfacing as hazard reports).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/targets.h"
#include "src/debug/controller.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/fault/frame_impairer.h"
#include "src/hdl/fifo.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/ip/bram.h"
#include "src/ip/cam.h"
#include "src/ip/checksum_unit.h"
#include "src/ip/hash_cam.h"
#include "src/net/udp.h"
#include "src/services/nat_service.h"
#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"
#include "src/sim/loadgen.h"

#ifdef EMU_ANALYSIS
#include "src/analysis/hazard_monitor.h"
#endif

namespace emu {
namespace {

// --- Fault plan parsing ------------------------------------------------------------

TEST(FaultPlan, ParsesAllModesCommentsAndSeparators) {
  const auto plan = ParseFaultPlan(
      "# chaos plan\n"
      "ingress.drop bernoulli 0.01\n"
      "mc.csum.fold oneshot 5000; nat.* burst 100 200 0.5 8\n"
      "\n"
      "link.delay bernoulli 0.1 25000\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->entries.size(), 4u);
  EXPECT_EQ(plan->entries[0].pattern, "ingress.drop");
  EXPECT_EQ(plan->entries[0].schedule.mode, FaultSchedule::Mode::kBernoulli);
  EXPECT_DOUBLE_EQ(plan->entries[0].schedule.probability, 0.01);
  EXPECT_EQ(plan->entries[1].schedule.mode, FaultSchedule::Mode::kOneShot);
  EXPECT_EQ(plan->entries[1].schedule.at, 5000u);
  EXPECT_EQ(plan->entries[2].pattern, "nat.*");
  EXPECT_EQ(plan->entries[2].schedule.mode, FaultSchedule::Mode::kBurst);
  EXPECT_EQ(plan->entries[2].schedule.from, 100u);
  EXPECT_EQ(plan->entries[2].schedule.until, 200u);
  EXPECT_EQ(plan->entries[2].schedule.magnitude, 8u);
  EXPECT_EQ(plan->entries[3].schedule.magnitude, 25000u);
}

TEST(FaultPlan, RejectsMalformedEntries) {
  EXPECT_FALSE(ParseFaultPlan("p sometimes 0.1").ok());     // unknown mode
  EXPECT_FALSE(ParseFaultPlan("p oneshot").ok());           // missing operand
  EXPECT_FALSE(ParseFaultPlan("p bernoulli 1.5").ok());     // p out of range
  EXPECT_FALSE(ParseFaultPlan("p burst 200 100 0.5").ok()); // empty window
  EXPECT_FALSE(ParseFaultPlan("oneshot 5").ok());           // no point name
  EXPECT_FALSE(ParseFaultPlan("p oneshot -5").ok());        // signed tick
  EXPECT_FALSE(ParseFaultPlan("p oneshot 18446744073709551616").ok());  // overflow
}

TEST(FaultPlan, RejectsDuplicatePointEntries) {
  const auto plan = ParseFaultPlan("p bernoulli 1.0; p oneshot 7");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("duplicate point entry 'p'"), std::string::npos)
      << plan.status().ToString();
  // Distinct patterns that merely overlap at arm time are fine.
  EXPECT_TRUE(ParseFaultPlan("p bernoulli 1.0; p.* oneshot 7").ok());
}

TEST(FaultPlan, ParseErrorsCarryLineNumbers) {
  // The bad entry sits on physical line 3 (line 2 is blank).
  const auto plan = ParseFaultPlan(
      "ingress.drop bernoulli 0.01\n"
      "\n"
      "mc.csum.fold oneshot\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("fault plan line 3"), std::string::npos)
      << plan.status().ToString();
}

TEST(FaultPlan, SemicolonEntriesShareTheLineNumber) {
  const auto plan = ParseFaultPlan(
      "ingress.drop bernoulli 0.01\n"
      "a oneshot 5; b sometimes 0.1\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("fault plan line 2"), std::string::npos)
      << plan.status().ToString();
  EXPECT_NE(plan.status().ToString().find("unknown schedule mode"), std::string::npos);
}

TEST(FaultPlan, PatternMatching) {
  EXPECT_TRUE(FaultPatternMatches("nat.table_full", "nat.table_full"));
  EXPECT_TRUE(FaultPatternMatches("nat.*", "nat.table_full"));
  EXPECT_TRUE(FaultPatternMatches("*", "anything.at_all"));
  EXPECT_FALSE(FaultPatternMatches("nat.*", "dns.table"));
  EXPECT_FALSE(FaultPatternMatches("nat.table", "nat.table_full"));
}

// --- Registry determinism ----------------------------------------------------------

std::vector<u64> FireTicks(const FaultRegistry& registry, const std::string& site) {
  std::vector<u64> ticks;
  for (const FaultEvent& event : registry.log()) {
    if (event.site == site) {
      ticks.push_back(event.tick);
    }
  }
  return ticks;
}

TEST(FaultRegistry, SameSeedReplaysBitExactly) {
  auto run = [] {
    FaultRegistry registry(1234);
    FaultPoint* p = registry.Register("tap.drop", FaultClass::kLinkDrop);
    registry.Arm("tap.drop", FaultSchedule::Bernoulli(0.1));
    for (u64 tick = 0; tick < 2000; ++tick) {
      p->Sample(tick);
    }
    return registry.LogDigest();
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultRegistry, DifferentSeedsDiverge) {
  auto digest = [](u64 seed) {
    FaultRegistry registry(seed);
    FaultPoint* p = registry.Register("tap.drop", FaultClass::kLinkDrop);
    registry.Arm("tap.drop", FaultSchedule::Bernoulli(0.1));
    for (u64 tick = 0; tick < 2000; ++tick) {
      p->Sample(tick);
    }
    return registry.LogDigest();
  };
  EXPECT_NE(digest(1), digest(2));
}

TEST(FaultRegistry, FiringsIndependentOfRegistrationOrder) {
  // The same point must fire at the same opportunities no matter what else
  // is registered around it or in which order.
  FaultRegistry forward(99);
  FaultPoint* fa = forward.Register("alpha", FaultClass::kLinkDrop);
  FaultPoint* fb = forward.Register("beta", FaultClass::kLinkDrop);
  FaultRegistry reversed(99);
  FaultPoint* rb = reversed.Register("beta", FaultClass::kLinkDrop);
  FaultPoint* ra = reversed.Register("alpha", FaultClass::kLinkDrop);
  for (FaultRegistry* r : {&forward, &reversed}) {
    r->Arm("*", FaultSchedule::Bernoulli(0.2));
  }
  for (u64 tick = 0; tick < 1000; ++tick) {
    fa->Sample(tick);
    fb->Sample(tick);
    rb->Sample(tick);  // interleaving differs too
    ra->Sample(tick);
  }
  EXPECT_EQ(FireTicks(forward, "alpha"), FireTicks(reversed, "alpha"));
  EXPECT_EQ(FireTicks(forward, "beta"), FireTicks(reversed, "beta"));
  EXPECT_GT(fa->fired(), 0u);
}

TEST(FaultRegistry, OneShotFiresExactlyOnceAtOrAfterTick) {
  FaultRegistry registry(5);
  FaultPoint* p = registry.Register("p", FaultClass::kFifoStall);
  registry.Arm("p", FaultSchedule::OneShot(100));
  EXPECT_FALSE(p->Sample(50));
  EXPECT_TRUE(p->Sample(150));  // first opportunity past the deadline
  EXPECT_FALSE(p->Sample(200));
  EXPECT_EQ(p->fired(), 1u);
  // Re-arming resets the latch.
  registry.Arm("p", FaultSchedule::OneShot(100));
  EXPECT_TRUE(p->Sample(300));
}

TEST(FaultRegistry, BurstFiresOnlyInsideWindow) {
  FaultRegistry registry(5);
  FaultPoint* p = registry.Register("p", FaultClass::kLinkDrop);
  registry.Arm("p", FaultSchedule::Burst(10, 20, 1.0));
  EXPECT_FALSE(p->Sample(9));
  EXPECT_TRUE(p->Sample(10));
  EXPECT_TRUE(p->Sample(19));
  EXPECT_FALSE(p->Sample(20));
}

TEST(FaultRegistry, ArmAppliesToFutureRegistrations) {
  FaultRegistry registry(5);
  EXPECT_EQ(registry.Arm("late.*", FaultSchedule::Bernoulli(1.0)), 0u);
  FaultPoint* p = registry.Register("late.drop", FaultClass::kLinkDrop);
  EXPECT_TRUE(p->armed());
  EXPECT_TRUE(p->Sample(0));
}

TEST(FaultRegistry, LaterPlanEntriesOverrideEarlier) {
  // Duplicate *patterns* are a parse error now, but two distinct patterns can
  // still both match one point; the later entry wins at arm time.
  FaultRegistry registry(5);
  FaultPoint* p = registry.Register("p", FaultClass::kLinkDrop);
  const auto plan = ParseFaultPlan("p bernoulli 1.0; p* oneshot 7");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  registry.ArmPlan(*plan);
  EXPECT_EQ(p->schedule().mode, FaultSchedule::Mode::kOneShot);
  EXPECT_EQ(p->schedule().at, 7u);
}

TEST(FaultRegistry, DisarmAllStopsFiringButKeepsLog) {
  FaultRegistry registry(5);
  FaultPoint* p = registry.Register("p", FaultClass::kLinkDrop);
  registry.Arm("p", FaultSchedule::Bernoulli(1.0));
  EXPECT_TRUE(p->Sample(0));
  registry.DisarmAll();
  EXPECT_FALSE(p->Sample(1));
  EXPECT_EQ(registry.fired_total(), 1u);
}

TEST(FaultRegistry, SeuTargetReceivesBitWithinBound) {
  FaultRegistry registry(11);
  std::vector<u64> flips;
  registry.RegisterSeuTarget("seu.t", 64, [&](u64 bit) { flips.push_back(bit); });
  registry.Arm("seu.t", FaultSchedule::Bernoulli(1.0));
  EXPECT_EQ(registry.Tick(0), 1u);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_LT(flips[0], 64u);
}

TEST(FaultRegistry, StallTargetReceivesMagnitude) {
  FaultRegistry registry(11);
  std::vector<u64> stalls;
  registry.RegisterStallTarget("q.stall", [&](u64 cycles) { stalls.push_back(cycles); });
  registry.Arm("q.stall", FaultSchedule::Bernoulli(1.0, 7));
  registry.Tick(0);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], 7u);
}

TEST(FaultRegistry, DisarmedTargetsDrawNoRandomness) {
  FaultRegistry registry(11);
  FaultPoint* p =
      registry.RegisterSeuTarget("seu.t", 64, [](u64) { FAIL() << "must not fire"; });
  for (u64 tick = 0; tick < 1000; ++tick) {
    EXPECT_EQ(registry.Tick(tick), 0u);
  }
  // No opportunities consumed: arming later replays exactly as if the idle
  // period never happened (bench runs stay bit-identical).
  EXPECT_EQ(p->opportunities(), 0u);
  EXPECT_EQ(registry.fired_total(), 0u);
}

// --- FrameImpairer -----------------------------------------------------------------

TEST(FrameImpairer, DropPreemptsOtherImpairments) {
  FaultRegistry registry(3);
  FrameImpairer tap(registry, "tap");
  registry.Arm("tap.drop", FaultSchedule::Bernoulli(1.0));
  registry.Arm("tap.corrupt", FaultSchedule::Bernoulli(1.0));
  const auto d = tap.Decide(0, 64);
  EXPECT_TRUE(d.drop);
  EXPECT_EQ(d.corrupt_bit, FrameImpairer::kNoCorrupt);  // dropped frames stay whole
  EXPECT_EQ(tap.dropped(), 1u);
  EXPECT_EQ(tap.corrupted(), 0u);
}

TEST(FrameImpairer, CorruptNamesABitInsideTheFrame) {
  FaultRegistry registry(3);
  FrameImpairer tap(registry, "tap");
  registry.Arm("tap.corrupt", FaultSchedule::Bernoulli(1.0));
  for (u64 tick = 0; tick < 32; ++tick) {
    const auto d = tap.Decide(tick, 10);
    EXPECT_FALSE(d.drop);
    ASSERT_NE(d.corrupt_bit, FrameImpairer::kNoCorrupt);
    EXPECT_LT(d.corrupt_bit, 80u);
  }
  EXPECT_EQ(tap.corrupted(), 32u);
}

TEST(FrameImpairer, DelayBoundedByMagnitude) {
  FaultRegistry registry(3);
  FrameImpairer tap(registry, "tap");
  registry.Arm("tap.delay", FaultSchedule::Bernoulli(1.0, 40));
  for (u64 tick = 0; tick < 64; ++tick) {
    EXPECT_LE(tap.Decide(tick, 64).extra_delay_ps, 40u);
  }
  EXPECT_EQ(tap.delayed(), 64u);
}

TEST(FrameImpairer, FlipBitRoundTripsAndTruncateShortens) {
  Packet frame(8);
  frame.bytes()[1] = 0xA0;
  const std::vector<u8> before(frame.bytes().begin(), frame.bytes().end());
  FrameImpairer::FlipBit(frame, 13);  // byte 1, bit 5
  EXPECT_EQ(frame.bytes()[1], 0xA0 ^ (1u << 5));
  FrameImpairer::FlipBit(frame, 13);
  EXPECT_TRUE(std::equal(before.begin(), before.end(), frame.bytes().begin()));
  // Bit indices wrap modulo the frame size rather than over-reading.
  FrameImpairer::FlipBit(frame, 8 * 8 + 3);
  EXPECT_EQ(frame.bytes()[0], before[0] ^ (1u << 3));
  FrameImpairer::Truncate(frame, 5);
  EXPECT_EQ(frame.size(), 5u);
}

// --- Link impairment ---------------------------------------------------------------

TEST(LinkImpairment, DropsAndDuplicatesWithCounters) {
  EventScheduler scheduler;
  Link link(scheduler, 10'000'000'000ull, 5'000);
  std::vector<Packet> received;
  link.AttachB([&](Packet p) { received.push_back(std::move(p)); });

  FaultRegistry registry(21);
  link.EnableImpairment(/*to_b=*/true, registry, "wire");
  ASSERT_TRUE(link.impaired());

  registry.Arm("wire.drop", FaultSchedule::Bernoulli(1.0));
  link.SendToB(Packet(64));
  scheduler.Run();
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(link.dropped(), 1u);
  EXPECT_EQ(link.delivered(), 0u);

  registry.DisarmAll();
  registry.Arm("wire.dup", FaultSchedule::Bernoulli(1.0));
  link.SendToB(Packet(64));
  scheduler.Run();
  EXPECT_EQ(received.size(), 2u);  // original + duplicate
  EXPECT_EQ(link.duplicated(), 1u);
  EXPECT_EQ(link.delivered(), 2u);

  registry.DisarmAll();
  link.SendToB(Packet(64));
  scheduler.Run();
  EXPECT_EQ(received.size(), 3u);  // disarmed link delivers normally
  EXPECT_EQ(link.dropped(), 1u);
}

// --- Hardware-state faults ---------------------------------------------------------

TEST(SeuFault, RegBitFlipPersistsAcrossCommit) {
  Simulator sim;
  Reg<u32> reg(sim, 0);
  sim.Run(1);
  reg.InjectBitFlip(3);
  EXPECT_EQ(reg.Read(), 8u);
  sim.Run(1);  // a real upset survives the next clock edge
  EXPECT_EQ(reg.Read(), 8u);
  reg.InjectBitFlip(32 + 3);  // bit index wraps at the value width
  EXPECT_EQ(reg.Read(), 0u);
}

TEST(SeuFault, BramBitFlipTargetsOneWordBit) {
  Simulator sim;
  Bram bram(sim, "b", 8, 16);
  bram.Write(2, 0xABCD);
  sim.Run(1);
  bram.InjectBitFlip(2 * 16 + 0);  // word 2, bit 0
  EXPECT_EQ(bram.Read(2), 0xABCCu);
  bram.InjectBitFlip(2 * 16 + 0);
  EXPECT_EQ(bram.Read(2), 0xABCDu);
  EXPECT_EQ(bram.Read(3), 0u);  // neighbours untouched
}

TEST(SeuFault, CamValidBitFlipDropsAndResurrectsEntry) {
  Simulator sim;
  Cam cam(sim, "c", 4, 16, 8);
  cam.Write(0, 0x1234, 7);
  sim.Run(1);
  ASSERT_TRUE(cam.Lookup(0x1234).hit);
  cam.InjectBitFlip(0);  // slot 0, valid flag
  EXPECT_FALSE(cam.Lookup(0x1234).hit);
  cam.InjectBitFlip(0);
  EXPECT_TRUE(cam.Lookup(0x1234).hit);
  EXPECT_EQ(cam.state_bits(), 4u * 17u);
}

TEST(SeuFault, HashCamUpsetDegradesToMiss) {
  Simulator sim;
  HashCam cam(sim, "h", 4);
  cam.Write(0x42, 9);
  cam.Read(0x42);
  ASSERT_TRUE(cam.matched());
  // Some bit of the table holds this binding; flipping it must turn the hit
  // into a miss (degradation), never corrupt unrelated state or crash.
  bool missed = false;
  for (u64 bit = 0; bit < cam.state_bits() && !missed; ++bit) {
    cam.InjectBitFlip(bit);
    cam.Read(0x42);
    if (!cam.matched()) {
      missed = true;
    } else {
      cam.InjectBitFlip(bit);  // undo and keep scanning
    }
  }
  EXPECT_TRUE(missed);
}

TEST(FifoFault, StallFreezesBothPortsAndPreservesContents) {
  Simulator sim;
  SyncFifo<int> fifo(sim, "f", 4, 32);
  fifo.Push(1);
  fifo.Push(2);
  sim.Run(1);
  ASSERT_EQ(fifo.Size(), 2u);

  fifo.InjectStall(3);
  EXPECT_TRUE(fifo.Stalled());
  EXPECT_EQ(fifo.Size(), 0u);   // consumer sees empty
  EXPECT_FALSE(fifo.CanPush()); // producer sees full
  sim.Run(3);
  EXPECT_FALSE(fifo.Stalled());
  EXPECT_EQ(fifo.Size(), 2u);   // contents intact, in order
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_EQ(fifo.Pop(), 2);
}

TEST(ChecksumFault, AttachedFoldPointReproducesTheSection55Bug) {
  Simulator sim;
  ChecksumUnit good(sim, "good");
  ChecksumUnit buggy(sim, "buggy");
  ChecksumUnit faulted(sim, "faulted");
  buggy.InjectFoldBug(true);
  FaultRegistry registry(7);
  faulted.AttachFault(registry, "csum");

  const u8 data[] = {0xFF, 0xFF, 0xFF, 0xFF};  // forces a carry fold
  for (ChecksumUnit* unit : {&good, &buggy, &faulted}) {
    unit->AddBytes(data);
  }
  EXPECT_EQ(faulted.Result(), good.Result());  // disarmed: bit-identical
  ASSERT_NE(buggy.Result(), good.Result());

  registry.Arm("csum.fold", FaultSchedule::OneShot(0));
  EXPECT_EQ(faulted.Result(), buggy.Result());  // armed: the §5.5 bug
  EXPECT_EQ(registry.fired_total(), 1u);
  EXPECT_EQ(faulted.Result(), good.Result());  // one-shot: healed afterwards
}

// --- NAT hardening under table pressure --------------------------------------------

class NatFaultTest : public ::testing::Test {
 protected:
  static constexpr u8 kInternalPort = 1;

  Packet OutboundUdp(const NatConfig& config, u16 sport) {
    return MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                          Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8), sport, 53},
                         std::vector<u8>{'x'});
  }
};

TEST_F(NatFaultTest, FullTableRejectsNewFlowsAndKeepsOldOnes) {
  NatConfig config;
  config.max_mappings = 2;
  config.exhaustion_evict_idle_cycles = 0;  // pure reject
  NatService service(config);
  FpgaTarget target(service);

  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5001)).ok());
  // Table full, every flow recently active: the third flow is rejected...
  EXPECT_FALSE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5002), 300'000).ok());
  EXPECT_EQ(service.exhaustion_rejects(), 1u);
  EXPECT_EQ(service.active_mappings(), 2u);
  // ...and the existing translations still work, uncorrupted.
  target.TakeEgress();
  auto again = target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.active_mappings(), 2u);
  EXPECT_EQ(service.exhaustion_evictions(), 0u);
}

TEST_F(NatFaultTest, ExhaustionEvictsIdleFlowsFirst) {
  NatConfig config;
  config.max_mappings = 2;
  config.exhaustion_evict_idle_cycles = 1000;
  NatService service(config);
  FpgaTarget target(service);

  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5001)).ok());
  target.Run(2000);  // both flows go idle past the eviction threshold
  // Refresh flow 5001 so 5000 is the LRU victim.
  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5001)).ok());

  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5002)).ok());
  EXPECT_EQ(service.exhaustion_evictions(), 1u);
  EXPECT_EQ(service.active_mappings(), 2u);

  // The refreshed flow survived; the new flow plus 5001 are both active, so
  // another new flow finds no idle victim and is rejected, not installed over
  // a live translation.
  EXPECT_FALSE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5003), 300'000).ok());
  EXPECT_EQ(service.exhaustion_rejects(), 1u);
  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5001)).ok());
}

TEST_F(NatFaultTest, ExpiredMappingIsNotUsedMidPacket) {
  NatConfig config;
  config.mapping_timeout_cycles = 1000;
  NatService service(config);
  FpgaTarget target(service);

  auto out = target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000));
  ASSERT_TRUE(out.ok());
  Ipv4View ip(*out);
  UdpView udp(*out, ip.payload_offset());
  const u16 ext_port = udp.source_port();
  target.TakeEgress();

  target.Run(5000);  // mapping expires
  Packet reply = MakeUdpPacket({config.external_mac, MacAddress::FromU48(0x02'00'00'00'99'99),
                                Ipv4Address(8, 8, 8, 8), config.external_ip, 53, ext_port},
                               std::vector<u8>{'r'});
  target.Inject(0, std::move(reply));
  target.Run(300'000);
  // The stale translation is reclaimed, never half-applied: the reply is
  // dropped and no inbound rewrite happens.
  EXPECT_EQ(service.translated_in(), 0u);
  EXPECT_GE(service.dropped(), 1u);
  // The flow can re-establish afterwards.
  EXPECT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
}

TEST_F(NatFaultTest, TableFullFaultPointForcesRejectionWithoutRealPressure) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  FaultRegistry registry(13);
  service.RegisterFaultPoints(registry);

  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
  registry.Arm("nat.table_full", FaultSchedule::Bernoulli(1.0));
  target.TakeEgress();
  // New flows are rejected as if the table were full...
  EXPECT_FALSE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 6000), 300'000).ok());
  EXPECT_GE(service.exhaustion_rejects(), 1u);
  EXPECT_GE(registry.fired_total(), 1u);
  // ...but established flows use the fast path and keep translating.
  EXPECT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
  registry.DisarmAll();
  EXPECT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 6000)).ok());
}

TEST_F(NatFaultTest, FlowTableSeuDegradesWithoutCrashing) {
  NatConfig config;
  NatService service(config);
  FpgaTarget target(service);
  FaultRegistry registry(17);
  service.RegisterFaultPoints(registry);

  ASSERT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000)).ok());
  registry.Arm("nat.flows", FaultSchedule::Bernoulli(1.0));
  for (u64 tick = 0; tick < 64; ++tick) {
    registry.Tick(tick);  // pepper the flow table with upsets
  }
  registry.DisarmAll();
  EXPECT_GE(registry.fired_total(), 64u);
  // Traffic after the upsets must still be handled — translated or cleanly
  // dropped — and new flows must be installable.
  target.TakeEgress();
  (void)target.SendAndCollect(kInternalPort, OutboundUdp(config, 5000), 300'000);
  EXPECT_TRUE(target.SendAndCollect(kInternalPort, OutboundUdp(config, 7000)).ok());
}

// --- Loadgen loss accounting (satellite: impairment-aware rate search) -------------

TEST(LoadgenFault, AccountedDropsDoNotCountAsLoss) {
  // A 1-mapping NAT with pure-reject exhaustion turns all but the first flow
  // into counted service drops: raw loss is huge, unexplained loss is zero.
  NatConfig config;
  config.max_mappings = 1;
  config.exhaustion_evict_idle_cycles = 0;
  NatService service(config);
  FpgaTarget target(service);

  FrameFactory factory = [&config](usize i, u8) {
    return MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                          Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8),
                          static_cast<u16>(5000 + i), 53},
                         std::vector<u8>{'x'});
  };
  OsntLoadgen::FixedRateConfig rate;
  rate.offered_mqps = 0.5;
  rate.frames = 50;
  rate.ports = {1};
  rate.accounted_drops = [&service] { return service.dropped(); };
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);

  EXPECT_EQ(report.injected, 50u);
  EXPECT_GT(report.raw_loss_rate, 0.9);  // 49 of 50 flows rejected
  EXPECT_EQ(report.accounted_drops, 49u);
  EXPECT_DOUBLE_EQ(report.loss_rate, 0.0);  // nothing unexplained
  EXPECT_EQ(report.latency.lost(), 49u);
}

TEST(LoadgenFault, WithoutAccountingLossRateIsRaw) {
  NatConfig config;
  config.max_mappings = 1;
  config.exhaustion_evict_idle_cycles = 0;
  NatService service(config);
  FpgaTarget target(service);
  FrameFactory factory = [&config](usize i, u8) {
    return MakeUdpPacket({config.internal_mac, MacAddress::FromU48(0x02'00'00'00'11'10),
                          Ipv4Address(192, 168, 1, 10), Ipv4Address(8, 8, 8, 8),
                          static_cast<u16>(5000 + i), 53},
                         std::vector<u8>{'x'});
  };
  OsntLoadgen::FixedRateConfig rate;
  rate.offered_mqps = 0.5;
  rate.frames = 50;
  rate.ports = {1};
  const LoadgenReport report = OsntLoadgen::RunFixedRate(target, factory, rate);
  EXPECT_DOUBLE_EQ(report.loss_rate, report.raw_loss_rate);
  EXPECT_GT(report.loss_rate, 0.9);
}

// --- CASP observability ------------------------------------------------------------

TEST(ControllerFault, BindsSeedAndFiredCounters) {
  DirectionController controller;
  FaultRegistry registry(42);
  controller.AttachFaultRegistry(&registry);
  EXPECT_EQ(controller.HandleCommandText("print fault_seed"), "fault_seed=42");
  EXPECT_EQ(controller.HandleCommandText("print faults_fired"), "faults_fired=0");

  FaultPoint* p = registry.Register("p", FaultClass::kLinkDrop);
  registry.Arm("p", FaultSchedule::Bernoulli(1.0));
  p->Sample(0);
  EXPECT_EQ(controller.HandleCommandText("print faults_fired"), "faults_fired=1");
}

// --- emu-check integration: faults surface as hazards ------------------------------

#ifdef EMU_ANALYSIS

TEST(FaultHazard, BlindPushIntoStalledFifoIsLostBackpressure) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "vuln", 4, 32);
  fifo.InjectStall(5);
  EXPECT_FALSE(fifo.Push(1));  // dropped, CanPush never consulted
  EXPECT_EQ(monitor.CountOf(HazardKind::kLostBackpressure), 1u);
}

TEST(FaultHazard, CanPushHonouringProducerRidesOutStallCleanly) {
  Simulator sim;
  HazardMonitor monitor(sim);
  SyncFifo<int> fifo(sim, "polite", 4, 32);
  fifo.InjectStall(5);
  if (fifo.CanPush()) {
    fifo.Push(1);
  }
  sim.Run(6);
  ASSERT_TRUE(fifo.CanPush());  // stall over
  fifo.Push(2);
  sim.Run(1);
  EXPECT_FALSE(monitor.HasFindings()) << monitor.Summary();
  EXPECT_EQ(fifo.Size(), 1u);
}

TEST(FaultHazard, SeuOnUnwrittenRegSurfacesAsUninitRead) {
  Simulator sim;
  HazardMonitor monitor(sim);
  Reg<u32> reg(sim, "cfg", no_init);
  reg.InjectBitFlip(2);  // the upset does not count as a design write
  (void)reg.Read();
  EXPECT_EQ(monitor.CountOf(HazardKind::kUninitRead), 1u);
}

#endif  // EMU_ANALYSIS

// --- Topology-scoped events (emu-gossip): grammar and diagnostics -------------

TEST(TopoFaultPlan, ParsesCrashRestartPartition) {
  const auto plan = ParseFaultPlan(
      "# node-level chaos\n"
      "crash host=h2 at=20ms; restart host=h2 at=120ms\n"
      "partition {h0,h1}|{h3,h4} from=40ms to=70ms oneway\n"
      "ingress.drop bernoulli 0.01\n");  // point entries still coexist
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->topo_events.size(), 3u);
  ASSERT_EQ(plan->entries.size(), 1u);

  const TopoFault& crash = plan->topo_events[0];
  EXPECT_EQ(crash.kind, TopoFault::Kind::kCrash);
  EXPECT_EQ(crash.host, "h2");
  EXPECT_EQ(crash.at, 20ull * kPicosPerMilli);
  EXPECT_EQ(crash.line, 2u);
  EXPECT_EQ(crash.cls(), FaultClass::kHostCrash);

  const TopoFault& restart = plan->topo_events[1];
  EXPECT_EQ(restart.kind, TopoFault::Kind::kRestart);
  EXPECT_EQ(restart.at, 120ull * kPicosPerMilli);
  EXPECT_EQ(restart.cls(), FaultClass::kHostRestart);

  const TopoFault& part = plan->topo_events[2];
  EXPECT_EQ(part.kind, TopoFault::Kind::kPartition);
  EXPECT_EQ(part.group_a, (std::vector<std::string>{"h0", "h1"}));
  EXPECT_EQ(part.group_b, (std::vector<std::string>{"h3", "h4"}));
  EXPECT_EQ(part.from, 40ull * kPicosPerMilli);
  EXPECT_EQ(part.until, 70ull * kPicosPerMilli);
  EXPECT_TRUE(part.oneway);
  EXPECT_EQ(part.line, 3u);
  EXPECT_EQ(part.cls(), FaultClass::kPartition);
}

TEST(TopoFaultPlan, TimeSuffixesNormalizeToPicoseconds) {
  const auto plan = ParseFaultPlan(
      "crash host=a at=1500\n"         // bare ps
      "crash host=b at=2ns\n"
      "crash host=c at=3us\n"
      "crash host=d at=4ms\n"
      "crash host=e at=1s\n"
      "crash host=f at=18446744073709551615\n");  // the largest tick that fits
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->topo_events.size(), 6u);
  EXPECT_EQ(plan->topo_events[0].at, 1500u);
  EXPECT_EQ(plan->topo_events[1].at, 2'000u);
  EXPECT_EQ(plan->topo_events[2].at, 3'000'000u);
  EXPECT_EQ(plan->topo_events[3].at, 4ull * kPicosPerMilli);
  EXPECT_EQ(plan->topo_events[4].at, 1'000'000'000'000ull);
  EXPECT_EQ(plan->topo_events[5].at, 18'446'744'073'709'551'615ull);
}

TEST(TopoFaultPlan, ToStringRoundTrips) {
  const std::string text =
      "crash host=h1 at=5000000; partition {h0}|{h1,h2} from=1000 to=2000 oneway";
  const auto plan = ParseFaultPlan(text);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string rendered;
  for (const TopoFault& event : plan->topo_events) {
    rendered += (rendered.empty() ? "" : "; ") + event.ToString();
  }
  const auto reparsed = ParseFaultPlan(rendered);
  ASSERT_TRUE(reparsed.ok()) << rendered << " -> " << reparsed.status().ToString();
  ASSERT_EQ(reparsed->topo_events.size(), plan->topo_events.size());
  for (usize i = 0; i < plan->topo_events.size(); ++i) {
    EXPECT_EQ(reparsed->topo_events[i].ToString(), plan->topo_events[i].ToString());
  }
}

TEST(TopoFaultPlan, DiagnosticsNameTheDefectAndLine) {
  const auto expect_error = [](const std::string& text, const std::string& needle) {
    const auto plan = ParseFaultPlan(text);
    ASSERT_FALSE(plan.ok()) << text;
    EXPECT_NE(plan.status().ToString().find(needle), std::string::npos)
        << text << " -> " << plan.status().ToString();
  };
  expect_error("crash host=h1 at=5xs", "bad time operand '5xs' (ps, or ns/us/ms/s suffix)");
  // Times are unsigned and must fit 64 bits once scaled: never a wrapped tick.
  expect_error("crash host=h0 at=-1us", "bad time operand '-1us'");
  expect_error("crash host=h0 at=+1us", "bad time operand '+1us'");
  expect_error("crash host=h0 at=20000000000s", "bad time operand '20000000000s'");
  expect_error("crash host=h0 at=18446744073709551616", "bad time operand '18446744073709551616'");
  expect_error("partition {h0}|{h1} from=-1ms to=2ms", "bad time operand '-1ms'");
  expect_error("crash host=h1 when=5ms", "unknown operand 'when=5ms' (expected host=<h> at=<t>)");
  expect_error("crash host=h1", "crash needs 'host=<h> at=<t>'");
  expect_error("restart at=5ms", "restart needs 'host=<h> at=<t>'");
  expect_error("crash host=h1 at=5ms; crash host=h1 at=5ms",
               "duplicate crash of host 'h1' at the same tick");
  expect_error("partition {h0}|{} from=1ms to=2ms",
               "bad partition groups '{h0}|{}' (expected {a,b}|{c,d}, both sides non-empty)");
  expect_error("partition {h0}|{h1} from=1ms", "partition needs '{A}|{B} from=<t> to=<t>'");
  expect_error("partition {h0}|{h1} from=2ms to=1ms", "partition window needs from < to");
  expect_error("partition {h0,h1}|{h1,h2} from=1ms to=2ms",
               "host 'h1' appears on both sides of the partition");
  expect_error("partition {h0}|{h1} from=1ms to=2ms twoway",
               "unknown operand 'twoway' (expected {A}|{B} from=<t> to=<t> [oneway])");
  // Diagnostics carry the physical line number (line 2 here).
  const auto plan = ParseFaultPlan("crash host=h1 at=1ms\ncrash host=h2 at=bad\n");
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("fault plan line 2"), std::string::npos)
      << plan.status().ToString();
}

TEST(TopoFaultPlan, SameHostDifferentTickOrKindIsNotDuplicate) {
  EXPECT_TRUE(ParseFaultPlan("crash host=h1 at=5ms; crash host=h1 at=6ms").ok());
  EXPECT_TRUE(ParseFaultPlan("crash host=h1 at=5ms; restart host=h1 at=5ms").ok());
}

}  // namespace
}  // namespace emu
