#include "src/netfpga/output_queues.h"

#include <algorithm>
#include <bit>

#include "src/netfpga/axis.h"

namespace emu {

OutputQueues::OutputQueues(Simulator& sim, std::string name, SyncFifo<Packet>& core_out,
                           usize tx_fifo_depth, usize bus_bytes)
    : Module(sim, std::move(name)),
      core_out_(core_out),
      bus_bytes_(bus_bytes),
      tx_frames_(kNetFpgaPortCount, 0) {
  for (usize port = 0; port < kNetFpgaPortCount; ++port) {
    tx_fifos_.push_back(std::make_unique<SyncFifo<Packet>>(
        sim, this->name() + ".tx_fifo" + std::to_string(port), tx_fifo_depth, bus_bytes * 8));
    AddResources(tx_fifos_.back()->resources());
  }
  AddResources(ResourceUsage{520, 410, 0});  // mask decode + per-port muxing
}

u64 OutputQueues::total_tx_frames() const {
  u64 total = 0;
  for (u64 count : tx_frames_) {
    total += count;
  }
  return total;
}

HwProcess OutputQueues::MakeFanoutProcess() {
  for (;;) {
    co_await WaitUntil([this] { return !core_out_.Empty(); });
    Packet frame = core_out_.Pop();
    frame.set_core_egress_cycle(sim().now());
    const usize words = WordsForBytes(frame.size(), bus_bytes_);
    const unsigned mask = frame.dst_port_mask() & ((1u << kNetFpgaPortCount) - 1);
    // The highest destination port takes the frame itself; only the ports
    // before it get copies, so a unicast frame is never copied.
    const int last = std::bit_width(mask) - 1;
    for (int port = 0; port <= last; ++port) {
      if ((mask >> port) & 1u) {
        // Deliberate tail-drop: check CanPush so the drop is observed
        // backpressure, not an emu-check LOSTBACKPRESSURE hazard.
        if (tx_fifos_[port]->CanPush()) {
          tx_fifos_[port]->Push(port == last ? std::move(frame) : frame);
        } else {
          ++tx_drops_;
        }
      }
    }
    co_await PauseFor(words);
  }
}

HwProcess OutputQueues::MakeDrainProcess(u8 port) {
  SyncFifo<Packet>& fifo = *tx_fifos_[port];
  // Egress wire occupancy in picoseconds: pacing at the exact 10G rate
  // rather than whole fabric cycles (which would shave ~4% off line rate).
  Picoseconds wire_busy_ps = 0;
  const Picoseconds cycle_ps = sim().cycle_period_ps();
  for (;;) {
    co_await WaitUntil([&fifo] { return !fifo.Empty(); });
    Packet frame = fifo.Pop();
    wire_busy_ps = std::max(wire_busy_ps, sim().NowPs()) + SerializationPs(frame.size());
    const Picoseconds wait_ps = wire_busy_ps - sim().NowPs();
    co_await PauseFor(static_cast<Cycle>(wait_ps > 0 ? wait_ps / cycle_ps : 0));
    frame.set_egress_time(wire_busy_ps + kMacPhyLatencyPs);
    ++tx_frames_[port];
    if (sink_) {
      sink_(port, std::move(frame));
    }
  }
}

}  // namespace emu
