#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/hdl/fifo.h"
#include "src/hdl/module.h"
#include "src/hdl/process.h"
#include "src/hdl/resource_model.h"
#include "src/hdl/signal.h"
#include "src/hdl/simulator.h"
#include "src/net/packet.h"

namespace emu {
namespace {

// --- Simulator basics --------------------------------------------------------

TEST(Simulator, CyclePeriodMatchesClock) {
  Simulator sim(200'000'000);
  EXPECT_EQ(sim.cycle_period_ps(), 5000);  // 200 MHz -> 5 ns
  Simulator fast(250'000'000);
  EXPECT_EQ(fast.cycle_period_ps(), 4000);  // P4FPGA baseline clock
}

TEST(Simulator, NowAdvancesPerStep) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  sim.Step();
  EXPECT_EQ(sim.now(), 1u);
  sim.Run(9);
  EXPECT_EQ(sim.now(), 10u);
  EXPECT_EQ(sim.NowPs(), 10 * 5000);
}

HwProcess CountingProcess(Reg<u64>& counter) {
  for (;;) {
    counter.Write(counter.Read() + 1);
    co_await Pause();
  }
}

TEST(Simulator, ProcessRunsOncePerCycle) {
  Simulator sim;
  Reg<u64> counter(sim, 0);
  sim.AddProcess(CountingProcess(counter), "counter");
  sim.Run(5);
  EXPECT_EQ(counter.Read(), 5u);
}

HwProcess FiniteProcess(Reg<u64>& out, int steps) {
  for (int i = 0; i < steps; ++i) {
    out.Write(out.Read() + 1);
    co_await Pause();
  }
}

TEST(Simulator, FiniteProcessStopsAfterCompletion) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(FiniteProcess(out, 3), "finite");
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Run(10);
  EXPECT_EQ(out.Read(), 3u);
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  Reg<u64> counter(sim, 0);
  sim.AddProcess(CountingProcess(counter), "counter");
  EXPECT_TRUE(sim.RunUntil([&] { return counter.Read() >= 4; }, 100));
  EXPECT_EQ(counter.Read(), 4u);
  EXPECT_EQ(sim.now(), 4u);
}

TEST(Simulator, RunUntilReportsTimeout) {
  Simulator sim;
  EXPECT_FALSE(sim.RunUntil([] { return false; }, 10));
  EXPECT_EQ(sim.now(), 10u);
}

// --- Register semantics ------------------------------------------------------

TEST(Reg, WriteVisibleOnlyAfterCommit) {
  Simulator sim;
  Reg<int> reg(sim, 0);
  reg.Write(42);
  EXPECT_EQ(reg.Read(), 0);   // pre-edge
  EXPECT_EQ(reg.Pending(), 42);
  sim.Step();
  EXPECT_EQ(reg.Read(), 42);  // post-edge
}

// Two processes exchanging values through registers in the same cycle must
// both observe pre-edge state: a classic two-register swap works without an
// intermediate temp, exactly as in RTL.
HwProcess SwapHalf(Reg<int>& from, Reg<int>& to) {
  for (;;) {
    to.Write(from.Read());
    co_await Pause();
  }
}

TEST(Reg, NonBlockingSwap) {
  Simulator sim;
  Reg<int> a(sim, 1);
  Reg<int> b(sim, 2);
  sim.AddProcess(SwapHalf(a, b), "a_to_b");
  sim.AddProcess(SwapHalf(b, a), "b_to_a");
  sim.Step();
  EXPECT_EQ(a.Read(), 2);
  EXPECT_EQ(b.Read(), 1);
  sim.Step();
  EXPECT_EQ(a.Read(), 1);
  EXPECT_EQ(b.Read(), 2);
}

// --- PauseFor ----------------------------------------------------------------

HwProcess SleepyProcess(Reg<u64>& out) {
  out.Write(1);
  co_await PauseFor(3);
  out.Write(2);
  co_await Pause();
}

TEST(PauseFor, SleepsRequestedCycles) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(SleepyProcess(out), "sleepy");
  sim.Step();
  EXPECT_EQ(out.Read(), 1u);
  sim.Step();
  sim.Step();
  EXPECT_EQ(out.Read(), 1u);  // still sleeping
  sim.Step();
  EXPECT_EQ(out.Read(), 2u);
}

HwProcess ZeroPauseProcess(Reg<u64>& out) {
  co_await PauseFor(0);  // must be a no-op
  out.Write(7);
  co_await Pause();
}

TEST(PauseFor, ZeroCyclesIsNoOp) {
  Simulator sim;
  Reg<u64> out(sim, 0);
  sim.AddProcess(ZeroPauseProcess(out), "zero");
  sim.Step();
  EXPECT_EQ(out.Read(), 7u);
}

// --- Handshake between processes (Fig. 5 style) ------------------------------

struct Handshake {
  Reg<bool> ready;
  Reg<bool> enable;
  Reg<int> data;
  explicit Handshake(Simulator& sim) : ready(sim, false), enable(sim, false), data(sim, 0) {}
};

HwProcess HandshakeProducer(Handshake& hs, int payload) {
  while (!hs.ready.Read()) {
    co_await Pause();
  }
  hs.data.Write(payload);
  hs.enable.Write(true);
  co_await Pause();
  hs.enable.Write(false);
  co_await Pause();
}

HwProcess HandshakeConsumer(Handshake& hs, Reg<int>& received) {
  hs.ready.Write(true);
  co_await Pause();
  while (!hs.enable.Read()) {
    co_await Pause();
  }
  received.Write(hs.data.Read());
  hs.ready.Write(false);
  co_await Pause();
}

TEST(Handshake, ReadyEnableProtocolDeliversData) {
  Simulator sim;
  Handshake hs(sim);
  Reg<int> received(sim, 0);
  sim.AddProcess(HandshakeProducer(hs, 99), "producer");
  sim.AddProcess(HandshakeConsumer(hs, received), "consumer");
  ASSERT_TRUE(sim.RunUntil([&] { return received.Read() == 99; }, 20));
}

// --- SyncFifo ----------------------------------------------------------------

TEST(SyncFifo, PushVisibleAfterCommit) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 4, 32);
  EXPECT_TRUE(fifo.Empty());
  EXPECT_TRUE(fifo.Push(1));
  EXPECT_TRUE(fifo.Empty());  // not yet committed
  sim.Step();
  EXPECT_EQ(fifo.Size(), 1u);
  EXPECT_EQ(fifo.Front(), 1);
}

TEST(SyncFifo, RespectsDepthIncludingPendingPushes) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);
  EXPECT_TRUE(fifo.Push(1));
  EXPECT_TRUE(fifo.Push(2));
  EXPECT_FALSE(fifo.Push(3));  // full counting pending
  sim.Step();
  EXPECT_EQ(fifo.Size(), 2u);
  EXPECT_FALSE(fifo.CanPush());
}

TEST(SyncFifo, PopFreesSpaceSameCycle) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);
  fifo.Push(1);
  fifo.Push(2);
  sim.Step();
  EXPECT_EQ(fifo.Pop(), 1);
  EXPECT_TRUE(fifo.CanPush());  // pop freed a slot for this edge
  EXPECT_TRUE(fifo.Push(3));
  sim.Step();
  EXPECT_EQ(fifo.Size(), 2u);
  EXPECT_EQ(fifo.Pop(), 2);
  EXPECT_EQ(fifo.Pop(), 3);
}

TEST(SyncFifo, OrderIsFifo) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 8, 32);
  for (int i = 0; i < 5; ++i) {
    fifo.Push(i);
  }
  sim.Step();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fifo.Pop(), i);
  }
}

HwProcess FifoProducer(SyncFifo<int>& fifo, int count) {
  for (int i = 0; i < count;) {
    if (fifo.Push(i)) {
      ++i;
    }
    co_await Pause();
  }
}

HwProcess FifoConsumer(SyncFifo<int>& fifo, std::vector<int>& out, int count) {
  while (static_cast<int>(out.size()) < count) {
    if (!fifo.Empty()) {
      out.push_back(fifo.Pop());
    }
    co_await Pause();
  }
}

TEST(SyncFifo, ProducerConsumerAcrossBackpressure) {
  Simulator sim;
  SyncFifo<int> fifo(sim, 2, 32);  // tiny: forces backpressure
  std::vector<int> out;
  sim.AddProcess(FifoProducer(fifo, 20), "producer");
  sim.AddProcess(FifoConsumer(fifo, out, 20), "consumer");
  ASSERT_TRUE(sim.RunUntil([&] { return out.size() == 20; }, 200));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(out[static_cast<usize>(i)], i);
  }
}

// Reference model of SyncFifo's RTL semantics in its simplest form: a deque
// of committed items, a vector of same-cycle pushes, and a count of
// same-cycle pops that Commit erases. The ring-buffer SyncFifo must agree with
// it on every observable after every operation.
class ReferenceFifo {
 public:
  explicit ReferenceFifo(usize depth) : depth_(depth) {}

  usize Size(Cycle now) const { return Stalled(now) ? 0 : items_.size() - pop_count_; }
  bool CanPush(Cycle now) const {
    return !Stalled(now) && items_.size() - pop_count_ + pending_.size() < depth_;
  }
  bool Push(Cycle now, std::vector<u8> bytes) {
    if (!CanPush(now)) {
      return false;
    }
    pending_.push_back(std::move(bytes));
    return true;
  }
  const std::vector<u8>& Front() const { return items_[pop_count_]; }
  std::vector<u8> Pop() { return items_[pop_count_++]; }
  void Commit() {
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(pop_count_));
    pop_count_ = 0;
    for (auto& bytes : pending_) {
      items_.push_back(std::move(bytes));
    }
    pending_.clear();
  }
  void InjectStall(Cycle now, Cycle cycles) { stall_until_ = std::max(stall_until_, now + cycles); }

 private:
  bool Stalled(Cycle now) const { return now < stall_until_; }

  usize depth_;
  std::deque<std::vector<u8>> items_;
  std::vector<std::vector<u8>> pending_;
  usize pop_count_ = 0;
  Cycle stall_until_ = 0;
};

std::vector<u8> BytesOf(const Packet& frame) {
  return std::vector<u8>(frame.bytes().begin(), frame.bytes().end());
}

// Drives a SyncFifo<Packet> and the reference model through the same calls
// and checks every observable after each one.
class FifoDifferential {
 public:
  explicit FifoDifferential(usize depth) : fifo_(sim_, "dut", depth, 64), ref_(depth) {}

  void Push(std::vector<u8> bytes) {
    const bool accepted = fifo_.Push(Packet(bytes));
    EXPECT_EQ(accepted, ref_.Push(sim_.now(), std::move(bytes)));
    Check();
  }
  void Pop() {
    const Packet popped = fifo_.Pop();
    EXPECT_EQ(BytesOf(popped), ref_.Pop());
    Check();
  }
  void Step() {
    sim_.Step();
    ref_.Commit();
    Check();
  }
  void InjectStall(Cycle cycles) {
    ref_.InjectStall(sim_.now(), cycles);
    fifo_.InjectStall(cycles);
    Check();
  }
  void Check() {
    const Cycle now = sim_.now();
    ASSERT_EQ(fifo_.Size(), ref_.Size(now)) << "cycle " << now;
    ASSERT_EQ(fifo_.Empty(), ref_.Size(now) == 0);
    ASSERT_EQ(fifo_.CanPush(), ref_.CanPush(now));
    if (!fifo_.Empty()) {
      ASSERT_EQ(BytesOf(fifo_.Front()), ref_.Front());
    }
  }
  SyncFifo<Packet>& fifo() { return fifo_; }

 private:
  Simulator sim_;
  SyncFifo<Packet> fifo_;
  ReferenceFifo ref_;
};

std::vector<u8> NumberedBytes(u32 n) {
  return {static_cast<u8>(n), static_cast<u8>(n >> 8), static_cast<u8>(n >> 16), 0x5a};
}

TEST(SyncFifo, MatchesReferenceModelUnderRandomTraffic) {
  for (const usize depth : {1u, 2u, 3u, 8u, 64u, 1024u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    Rng rng(0xF1F0 + depth);
    FifoDifferential diff(depth);
    u32 serial = 0;
    // Push-heavy and pop-heavy phases alternate so every depth is driven to
    // full and back to empty repeatedly (the head wraps and the ring grows
    // along the way).
    double push_bias = 0.5;
    for (int op = 0; op < 40000 && !::testing::Test::HasFatalFailure(); ++op) {
      if (op % 512 == 0) {
        push_bias = 0.15 + 0.7 * static_cast<double>(rng.NextBelow(3)) / 2.0;
      }
      const u64 roll = rng.NextBelow(1000);
      if (roll < 2) {
        diff.InjectStall(1 + rng.NextBelow(6));
      } else if (roll < 150) {
        diff.Step();
      } else if (roll < 200) {
        diff.fifo().CanPush();
        diff.Check();
      } else if (rng.NextDouble() < push_bias) {
        std::vector<u8> bytes = NumberedBytes(serial++);
        bytes.resize(4 + rng.NextBelow(60), static_cast<u8>(serial));
        diff.Push(std::move(bytes));
      } else if (!diff.fifo().Empty()) {
        diff.Pop();
      }
    }
  }
}

TEST(SyncFifo, GrowsWhileHeadIsWrapped) {
  FifoDifferential diff(8);
  u32 serial = 0;
  for (int i = 0; i < 4; ++i) {
    diff.Push(NumberedBytes(serial++));
  }
  diff.Step();
  for (int i = 0; i < 3; ++i) {
    diff.Pop();
  }
  diff.Step();
  // The ring doubled 1 -> 2 -> 4 slots while filling; after three pops the
  // head sits on slot 3, so these pushes wrap to slots 0-2 and the next push
  // grows a full ring whose head is not at slot 0.
  for (int i = 0; i < 3; ++i) {
    diff.Push(NumberedBytes(serial++));
  }
  diff.Step();
  for (int i = 0; i < 4; ++i) {
    diff.Push(NumberedBytes(serial++));
  }
  diff.Step();
  EXPECT_EQ(diff.fifo().Size(), 8u);
  EXPECT_FALSE(diff.fifo().CanPush());
  for (int i = 0; i < 8; ++i) {
    diff.Pop();
  }
  diff.Step();
  EXPECT_TRUE(diff.fifo().Empty());
}

TEST(SyncFifo, PushAtFullDepthInTheCycleOfAPop) {
  for (const usize depth : {1u, 2u, 3u}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    FifoDifferential diff(depth);
    u32 serial = 0;
    for (usize i = 0; i < depth; ++i) {
      diff.Push(NumberedBytes(serial++));
    }
    diff.Push(NumberedBytes(serial++));  // refused: full counting pending pushes
    diff.Step();
    for (int round = 0; round < 5; ++round) {
      EXPECT_FALSE(diff.fifo().CanPush());
      diff.Pop();
      EXPECT_TRUE(diff.fifo().CanPush());
      diff.Push(NumberedBytes(serial++));
      EXPECT_FALSE(diff.fifo().CanPush());
      diff.Step();
      EXPECT_EQ(diff.fifo().Size(), depth);
    }
  }
}

// --- Resource model -----------------------------------------------------------

TEST(ResourceModel, CamIpMatchesCalibration) {
  // 256 x 48-bit CAM: the paper attributes ~85% of the Emu switch's 3509
  // LUTs to this block, i.e. ~2980.
  const ResourceUsage cam = CamIpResources(256, 48, 8);
  EXPECT_NEAR(static_cast<double>(cam.luts), 2980.0, 15.0);
  EXPECT_GT(cam.bram_units, 0u);
}

TEST(ResourceModel, LogicCamCostsMoreLutsNoBram) {
  const ResourceUsage ip = CamIpResources(256, 48, 8);
  const ResourceUsage logic = LogicCamResources(256, 48, 8);
  EXPECT_GT(logic.luts, ip.luts);
  EXPECT_EQ(logic.bram_units, 0u);
}

TEST(ResourceModel, HlsControlCostsMoreThanRtl) {
  const ResourceUsage hls = HlsControlResources(12, 256);
  const ResourceUsage rtl = RtlControlResources(12, 256);
  EXPECT_GT(hls.luts, rtl.luts);
  EXPECT_GT(hls.regs, rtl.regs);
}

TEST(ResourceModel, BramScalesWithBits) {
  EXPECT_EQ(BramResources(18432).bram_units, 1u);
  EXPECT_EQ(BramResources(18433).bram_units, 2u);
  EXPECT_EQ(BramResources(10 * 18432).bram_units, 10u);
}

TEST(ResourceModel, UsageAddition) {
  ResourceUsage a{10, 20, 1};
  ResourceUsage b{5, 6, 2};
  const ResourceUsage sum = a + b;
  EXPECT_EQ(sum.luts, 15u);
  EXPECT_EQ(sum.regs, 26u);
  EXPECT_EQ(sum.bram_units, 3u);
}

// --- Module / Design -----------------------------------------------------------

class TestModule : public Module {
 public:
  TestModule(Simulator& sim, std::string name, ResourceUsage usage)
      : Module(sim, std::move(name)) {
    AddResources(usage);
  }
};

TEST(Design, SumsModuleResources) {
  Simulator sim;
  TestModule a(sim, "a", ResourceUsage{100, 50, 1});
  TestModule b(sim, "b", ResourceUsage{200, 70, 2});
  Design design;
  design.Add(a);
  design.Add(b);
  const ResourceUsage total = design.TotalResources();
  EXPECT_EQ(total.luts, 300u);
  EXPECT_EQ(total.regs, 120u);
  EXPECT_EQ(total.bram_units, 3u);
  const auto per_module = design.PerModule();
  ASSERT_EQ(per_module.size(), 2u);
  EXPECT_EQ(per_module[0].first, "a");
}

}  // namespace
}  // namespace emu
