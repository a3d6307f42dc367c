// switch_linerate: the learning switch on the default FpgaTarget with all
// four ports carrying back-to-back 64 B frames at line rate. No network
// simulator and no runner are involved: host time goes to the HDL kernel's
// busy path and the NetFPGA/service processes it resumes.
#include <array>
#include <cstring>

#include "hostbench/bench.h"
#include "src/common/rng.h"
#include "src/core/targets.h"
#include "src/net/ethernet.h"
#include "src/netfpga/port.h"
#include "src/services/learning_switch.h"

namespace hostbench {
namespace {

using emu::Cycle;
using emu::MacAddress;
using emu::Packet;

constexpr usize kPorts = 4;
constexpr usize kFullFramesPerPort = 16384;
constexpr usize kTimedFramesPerPort = 4096;
// Frames per port generated at a time. The next chunk is generated and
// queued while the previous one is still on the wire, so the ports never
// idle and no more than two chunks exist ahead of the wire.
constexpr usize kChunk = 64;
constexpr usize kFrameBytes = 64;

// The nine derangements of four ports: every input sends to another port and
// every output receives exactly one frame per chunk row, so the switch can
// forward the full line rate without loss.
constexpr std::array<std::array<std::uint8_t, kPorts>, 9> kDerangements = {{
    {1, 0, 3, 2}, {1, 2, 3, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {2, 3, 0, 1},
    {2, 3, 1, 0}, {3, 0, 1, 2}, {3, 2, 0, 1}, {3, 2, 1, 0},
}};

MacAddress HostMac(usize port) { return MacAddress::FromU48(0x020000000001ULL + port); }

Packet MakeFrame(usize dst_port, usize src_port, std::uint32_t index) {
  std::vector<std::uint8_t> payload(kFrameBytes - emu::kEthernetHeaderSize, 0xa5);
  std::memcpy(payload.data(), &index, sizeof(index));
  return emu::MakeEthernetFrame(HostMac(dst_port), HostMac(src_port), emu::EtherType::kIpv4,
                                payload);
}

// The index MakeFrame stored, or an out-of-range index for a frame too
// short to carry one.
std::uint32_t FrameIndex(const Packet& frame) {
  std::uint32_t index = ~std::uint32_t{0};
  if (frame.size() >= emu::kEthernetHeaderSize + sizeof(index)) {
    std::memcpy(&index, frame.bytes().data() + emu::kEthernetHeaderSize, sizeof(index));
  }
  return index;
}

}  // namespace

RoundResult RunSwitchLinerate(const RoundConfig& config) {
  RoundResult r;
  SpanLog* log = config.spans;
  const usize frames_per_port = config.full ? kFullFramesPerPort : kTimedFramesPerPort;
  const u64 total = kPorts * frames_per_port;
  r.attempted = total;

  double t = WallSeconds();
  Scope build(log, "setup.build", Layer::kSetup);
  emu::LearningSwitch service;
  emu::FpgaTarget target(service);
  if (config.traced()) {
    target.sim().SetProfilingMode(emu::ProfilingMode::kSampled);
  }
  build.End();
  r.build_s = WallSeconds() - t;

  // MAC learning: one broadcast per host teaches the table every port.
  t = WallSeconds();
  Scope warm(log, "setup.warm", Layer::kSetup);
  for (usize port = 0; port < kPorts; ++port) {
    target.Inject(static_cast<std::uint8_t>(port),
                  emu::MakeEthernetFrame(MacAddress::Broadcast(), HostMac(port),
                                         emu::EtherType::kIpv4, {}));
  }
  target.Run(60'000);
  target.TakeEgress();
  warm.End();
  r.warm_s = WallSeconds() - t;

  const emu::SimProfile before = target.sim().ProfileReport();
  const u64 lookups_before = service.lookups();
  const u64 hits_before = service.hits();
  emu::Rng rng(config.seed);
  std::vector<std::uint8_t> expected_port(total);
  std::vector<std::uint8_t> seen(total, 0);
  r.latency_ps.reserve(total);
  Fnv digest;
  u64 wrong = 0;
  std::uint32_t next_index = 0;

  auto generate_chunk = [&](usize chunk) {
    Scope span(log, "loadgen.chunk", Layer::kLoadgen, static_cast<std::int64_t>(chunk));
    for (usize row = 0; row < kChunk; ++row) {
      const auto& perm = kDerangements[rng.NextBelow(kDerangements.size())];
      for (usize port = 0; port < kPorts; ++port) {
        const std::uint32_t index = next_index++;
        expected_port[index] = perm[port];
        target.Inject(static_cast<std::uint8_t>(port), MakeFrame(perm[port], port, index));
      }
    }
  };
  auto collect = [&] {
    Scope span(log, "harness.collect", Layer::kHarness);
    for (emu::EgressFrame& e : target.TakeEgress()) {
      const std::uint32_t index = FrameIndex(e.frame);
      if (index >= total || seen[index] != 0 || e.port != expected_port[index]) {
        ++wrong;
        continue;
      }
      seen[index] = 1;
      ++r.completed;
      r.latency_ps.push_back(e.frame.egress_time() - e.frame.ingress_time());
      digest.Add(e.port);
      digest.Add(index);
      digest.Add(static_cast<u64>(e.frame.egress_time()));
    }
  };
  auto run_hdl = [&](auto&& body) {
    Scope span(log, "hdl.run", Layer::kHdl);
    body();
  };

  const double cpu0 = ProcessCpuSeconds();
  t = WallSeconds();
  Scope measure(log, "measure", Layer::kHarness);
  const Cycle start = target.sim().now();
  const Picoseconds chunk_ps =
      static_cast<Picoseconds>(kChunk) * emu::SerializationPs(kFrameBytes);
  const Picoseconds cycle_ps = target.sim().cycle_period_ps();
  const usize chunks = frames_per_port / kChunk;
  generate_chunk(0);
  for (usize chunk = 1; chunk < chunks; ++chunk) {
    generate_chunk(chunk);
    // Advance to the moment chunk-1 has left the wire; `chunk` keeps it busy.
    const Cycle goal = start + static_cast<Cycle>(static_cast<Picoseconds>(chunk) * chunk_ps /
                                                  cycle_ps);
    run_hdl([&] { target.Run(goal - target.sim().now()); });
    collect();
  }
  run_hdl([&] { target.RunUntilEgressCount(total - r.completed - wrong, 2'000'000); });
  collect();
  measure.End();
  r.measure_s = WallSeconds() - t;
  r.measure_cpu_s = ProcessCpuSeconds() - cpu0;

  Scope check(log, "check.outputs", Layer::kCheck);
  const u64 drops = target.pipeline().rx_drops() + target.pipeline().tx_drops();
  if (wrong != 0 || r.completed != total || drops != 0) {
    r.error = "switch_linerate: " + std::to_string(r.completed) + "/" + std::to_string(total) +
              " frames egressed correctly, " + std::to_string(wrong) +
              " misrouted or duplicated, " + std::to_string(drops) + " netfpga drops";
  }
  r.digest = digest.value();

  const emu::SimProfile after = target.sim().ProfileReport();
  KernelDelta kernel;
  AddKernelDelta(before, after, kernel);
  r.counts["hdl.edges_per_req"] = static_cast<double>(kernel.edges) / static_cast<double>(total);
  if (config.traced()) {
    auto& L = r.layers;
    PutKernelLayers(kernel, total, r.measure_s, L);
    L["hdl.ns_per_edge"] = log->TotalNs("hdl.run") / static_cast<double>(kernel.edges);
    double netfpga_ns = 0;
    double service_ns = 0;
    for (const auto& [name, ns] : kernel.process_ns) {
      if (name.rfind("switch_", 0) == 0) {
        service_ns += ns;
      } else {
        netfpga_ns += ns;  // port*_rx, input_arbiter, oq_*
      }
    }
    L["netfpga.busy_share"] = netfpga_ns * 1e-9 / r.measure_s;
    L["netfpga.drops"] = static_cast<double>(drops);
    L["services.busy_share"] = service_ns * 1e-9 / r.measure_s;
    const u64 lookups = service.lookups() - lookups_before;
    L["services.switch_hit_ratio"] =
        lookups == 0 ? 0.0
                     : static_cast<double>(service.hits() - hits_before) /
                           static_cast<double>(lookups);
    L["sim.loadgen.ns_per_req"] = log->TotalNs("loadgen.chunk") / static_cast<double>(total);
  }
  return r;
}

}  // namespace hostbench
