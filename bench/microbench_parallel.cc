// Parallel sharded-runner (emu-par) benchmark and CI gate.
//
// Default mode sweeps a Table-4-style memcached cluster (one ServiceNode +
// memaslap client per shard group) over nodes x threads and prints wall
// time, events, epochs, and the parallel-vs-serial speedup. Every parallel
// run is checked bit-exact against its serial twin before timing counts —
// a divergence fails the binary regardless of speed.
//
//   --json <path>    write the 4-node serial-vs-parallel measurement as
//                    BENCH_parallel.json
//   --check <path>   perf gate against a committed baseline: on hosts with
//                    >= 4 hardware threads the threads=4 speedup must reach
//                    2x (and stay within 20% of the baseline ratio when the
//                    baseline itself was measured on a multicore host).
//                    Single-core hosts skip the gate: conservative epochs
//                    still run there, but wall-clock parallelism cannot.
//   --soak           3-seed mini chaos soak: the NAT ping-pong topology
//                    under an armed fault plan, threads=4 vs threads=1,
//                    requiring identical fault logs and arrival digests.
//   --requests N     workload requests per host (default 512)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/fnv.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/net/ipv4.h"
#include "src/net/udp.h"
#include "src/services/memcached_service.h"
#include "src/services/nat_service.h"
#include "src/sim/memaslap.h"
#include "src/sim/topology.h"

namespace emu {
namespace {

u64 FoldFrame(u64 h, Picoseconds at, const Packet& frame) {
  return Fnv1aBytes(Fnv1aU64(h, static_cast<u64>(at)), frame.bytes());
}

struct ClusterResult {
  double wall_seconds = 0;
  u64 events = 0;
  u64 epochs = 0;
  u64 replies = 0;
  u64 digest = kFnvOffset;
};

// The Table-4 memcached setup, clustered: `nodes` independent memcached
// service nodes, each with its own memaslap client host. The inter-shard
// link delay is a cluster-interconnect 20 us, which is also the runner's
// lookahead — big windows, so each epoch carries many request FSM
// executions and the barrier cost amortizes.
ClusterResult RunCluster(usize nodes, usize threads, usize requests_per_host) {
  constexpr usize kKeySpace = 64;
  StarTopologyConfig topo_config;
  topo_config.link_delay = 20 * kPicosPerMicro;

  std::vector<std::unique_ptr<MemcachedService>> services;
  std::vector<Service*> service_ptrs;
  std::vector<HostSpec> specs;
  std::vector<MemcachedConfig> configs;
  for (usize i = 0; i < nodes; ++i) {
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
  topo.AddCluster(service_ptrs, specs, topo_config);

  std::vector<u64> digests(nodes, kFnvOffset);
  std::vector<u64> replies(nodes, 0);
  for (usize i = 0; i < nodes; ++i) {
    topo.host(i).SetApp([&digests, &replies, i](SimHost& h, Packet frame) {
      digests[i] = FoldFrame(digests[i], h.scheduler().now(), frame);
      ++replies[i];
    });
  }

  for (usize i = 0; i < nodes; ++i) {
    MemaslapConfig mc;
    mc.server_mac = configs[i].mac;
    mc.server_ip = configs[i].ip;
    mc.client_mac = specs[i].mac;
    mc.client_ip = specs[i].ip;
    mc.key_space = kKeySpace;
    mc.seed = 1000 + 17 * i;
    MemaslapLoadgen loadgen(mc);
    for (usize k = 0; k < loadgen.prewarm_count(); ++k) {
      const Picoseconds at =
          5 * kPicosPerMicro + static_cast<Picoseconds>(k) * kPicosPerMicro;
      Packet frame = loadgen.PrewarmFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
    for (usize k = 0; k < requests_per_host; ++k) {
      const Picoseconds at = (100 + kKeySpace) * kPicosPerMicro +
                             static_cast<Picoseconds>(k) * kPicosPerMicro;
      Packet frame = loadgen.WorkloadFrame(k);
      topo.host(i).scheduler().At(at, [&topo, i, frame] { topo.host(i).Send(frame); });
    }
  }

  ClusterResult result;
  const auto start = std::chrono::steady_clock::now();
  result.events = topo.Run({.threads = threads, .max_events = 100'000'000});
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.epochs = topo.runner().epochs();
  for (usize i = 0; i < nodes; ++i) {
    result.digest = Fnv1aU64(result.digest, digests[i]);
    result.digest = Fnv1aU64(result.digest, replies[i]);
    result.replies += replies[i];
  }
  result.digest = Fnv1aU64(result.digest, result.events);
  return result;
}

bool SameResults(const ClusterResult& a, const ClusterResult& b) {
  return a.digest == b.digest && a.replies == b.replies && a.events == b.events &&
         a.epochs == b.epochs;
}

// --- Sweep + JSON + gate -------------------------------------------------------------

struct Measurement {
  usize nodes = 4;
  usize requests = 512;
  ClusterResult serial;
  ClusterResult parallel;  // threads=4
  double speedup = 0;
};

bool MeasureGatePoint(usize requests, Measurement* out) {
  out->requests = requests;
  out->serial = RunCluster(out->nodes, 1, requests);
  out->parallel = RunCluster(out->nodes, 4, requests);
  if (!SameResults(out->serial, out->parallel)) {
    std::printf("FAIL: threads=4 diverged from serial (digest %016llx vs %016llx)\n",
                static_cast<unsigned long long>(out->parallel.digest),
                static_cast<unsigned long long>(out->serial.digest));
    return false;
  }
  out->speedup = out->parallel.wall_seconds > 0
                     ? out->serial.wall_seconds / out->parallel.wall_seconds
                     : 0;
  return true;
}

// True when this host cannot exercise wall-clock parallelism: the speedup
// number exists but means nothing, so the perf gate must not judge it.
bool GateSkippedOnHost() { return std::thread::hardware_concurrency() < 4; }

std::string MeasurementJson(const Measurement& m) {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool skipped = GateSkippedOnHost();
  std::string out;
  out += "{\n";
  out += "  \"benchmark\": \"parallel_sharded_runner\",\n";
  out += "  \"workload\": {\"service\": \"memcached_cluster\", \"nodes\": " +
         std::to_string(m.nodes) + ", \"requests_per_host\": " + std::to_string(m.requests) +
         "},\n";
  out += "  \"host_threads\": " + std::to_string(hw) + ",\n";
  out += "  \"gate_skipped\": " + std::string(skipped ? "true" : "false") + ",\n";
  out += "  \"gate_skip_reason\": \"" +
         std::string(skipped ? "host has fewer than 4 hardware threads" : "") + "\",\n";
  out += "  \"serial\": {\"wall_seconds\": " + bench::FormatJsonNumber(m.serial.wall_seconds) +
         ", \"events\": " + std::to_string(m.serial.events) +
         ", \"epochs\": " + std::to_string(m.serial.epochs) + "},\n";
  out += "  \"parallel\": {\"threads\": 4, \"wall_seconds\": " +
         bench::FormatJsonNumber(m.parallel.wall_seconds) +
         ", \"events\": " + std::to_string(m.parallel.events) +
         ", \"epochs\": " + std::to_string(m.parallel.epochs) + "},\n";
  out += "  \"speedup\": " + bench::FormatJsonNumber(m.speedup) + "\n}\n";
  return out;
}

int SweepMain(usize requests) {
  std::printf("parallel sharded runner: memcached cluster, %zu requests/host, %u hw threads\n",
              requests, std::thread::hardware_concurrency());
  std::printf("%-6s %-8s %-10s %-10s %-10s %-8s\n", "nodes", "threads", "wall_ms", "events",
              "epochs", "speedup");
  for (usize nodes : {1u, 2u, 4u}) {
    ClusterResult serial;
    for (usize threads : {1u, 2u, 4u}) {
      if (threads > 1 && threads > nodes * 2) {
        continue;  // more workers than shards: clamped, nothing new to report
      }
      const ClusterResult r = RunCluster(nodes, threads, requests);
      if (threads == 1) {
        serial = r;
      } else if (!SameResults(serial, r)) {
        std::printf("FAIL: nodes=%zu threads=%zu diverged from serial\n", nodes, threads);
        return 1;
      }
      std::printf("%-6zu %-8zu %-10.2f %-10llu %-10llu %-8.2f\n", nodes, threads,
                  r.wall_seconds * 1e3, static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.epochs),
                  r.wall_seconds > 0 ? serial.wall_seconds / r.wall_seconds : 0.0);
    }
  }
  std::printf("all parallel runs bit-exact against serial\n");
  return 0;
}

int GateMain(const Measurement& m, const std::string& baseline_path) {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("  threads=4 speedup %.2fx on %u hardware threads\n", m.speedup, hw);
  if (GateSkippedOnHost()) {
    // Bit-exactness was still enforced above; only the wall-clock ratio is
    // meaningless without cores to run the shards on. Shout, don't whisper:
    // a silently-skipped gate looks identical to a passing one in CI logs,
    // which is how a real speedup regression once hid for several runs.
    std::printf(
        "::warning::PARALLEL PERF GATE SKIPPED — host has %u hardware threads (< 4); "
        "the threads=4 speedup floor was NOT enforced on this run\n",
        hw);
    std::printf("  ==============================================================\n");
    std::printf("  ==  PERF GATE SKIPPED: %u hardware threads (< 4 required)  ==\n", hw);
    std::printf("  ==  bit-exactness was checked; the speedup floor was not.  ==\n");
    std::printf("  ==============================================================\n");
    return 0;
  }
  double floor = 2.0;
  std::ifstream file(baseline_path);
  if (!file) {
    std::printf("FAIL: could not read baseline %s\n", baseline_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  double baseline_speedup = 0;
  double baseline_hw = 0;
  if (!bench::ExtractJsonNumber(buffer.str(), "speedup", &baseline_speedup) ||
      !bench::ExtractJsonNumber(buffer.str(), "host_threads", &baseline_hw)) {
    std::printf("FAIL: no \"speedup\"/\"host_threads\" in baseline %s\n",
                baseline_path.c_str());
    return 1;
  }
  // A baseline captured on a multicore host tightens the absolute 2x floor
  // to within 20% of its measured ratio; a single-core baseline (speedup
  // ~1x by construction) contributes nothing beyond the floor.
  if (baseline_hw >= 4) {
    floor = std::max(floor, baseline_speedup * 0.8);
  }
  std::printf("  baseline speedup %.2fx (on %.0f threads), gate floor %.2fx\n",
              baseline_speedup, baseline_hw, floor);
  if (m.speedup < floor) {
    std::printf("FAIL: parallel speedup %.2fx below gate floor %.2fx\n", m.speedup, floor);
    return 1;
  }
  std::printf("  perf gate passed\n");
  return 0;
}

// --- Mini chaos soak (--soak): fault plans under threads=4 ---------------------------

struct SoakDigest {
  u64 arrivals = kFnvOffset;
  u64 faults_fired = 0;
  u64 fault_digest = 0;
  u64 events = 0;
};

// The NAT ping-pong chain from tests/parallel_equiv_test.cc, under a seeded
// fault plan: every frame is causally downstream of a cross-shard delivery,
// and the armed registry must fire identically at any thread count.
SoakDigest RunNatSoak(u64 seed, usize threads) {
  NatConfig config;
  NatService service(config);
  const std::vector<HostSpec> specs = {
      {"ext", MacAddress::FromU48(0x02ffffffff01), Ipv4Address(8, 8, 8, 8)},
      {"int", MacAddress::FromU48(0x020000001110), Ipv4Address(192, 168, 1, 10)}};
  TopologyBuilder topo;
  topo.AddStar(service, specs);

  FaultRegistry registry(seed);
  service.RegisterFaultPoints(registry);
  topo.node(0).target().sim().AttachFaultRegistry(&registry);
  std::ostringstream plan_text;
  plan_text << "nat.table_full burst " << (2000 + 700 * seed) << " " << (6000 + 700 * seed)
            << " 0.5; nat.flows bernoulli 0.0001";
  const Expected<FaultPlan> plan = ParseFaultPlan(plan_text.str());
  if (!plan.ok()) {
    std::printf("FAIL: bad soak plan: %s\n", plan.status().ToString().c_str());
    return {};
  }
  registry.ArmPlan(*plan);

  SoakDigest digest;
  constexpr usize kPings = 16;
  topo.host(0).SetApp([&digest, &topo, &config](SimHost& h, Packet frame) {
    digest.arrivals = FoldFrame(digest.arrivals, h.scheduler().now(), frame);
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
  topo.host(1).SetApp([&digest, &topo, &config, &specs, pings_sent](SimHost& h, Packet frame) {
    digest.arrivals = FoldFrame(digest.arrivals, h.scheduler().now(), frame);
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

  digest.events = topo.Run({.threads = threads});
  digest.faults_fired = registry.fired_total();
  digest.fault_digest = registry.LogDigest();
  return digest;
}

int SoakMain() {
  int failures = 0;
  for (u64 seed : {1ull, 2ull, 3ull}) {
    const SoakDigest serial = RunNatSoak(seed, 1);
    const SoakDigest parallel = RunNatSoak(seed, 4);
    const bool same = serial.arrivals == parallel.arrivals &&
                      serial.faults_fired == parallel.faults_fired &&
                      serial.fault_digest == parallel.fault_digest &&
                      serial.events == parallel.events;
    std::printf("seed %llu: %s (faults %llu, log %016llx, events %llu)\n",
                static_cast<unsigned long long>(seed), same ? "bit-exact" : "DIVERGED",
                static_cast<unsigned long long>(serial.faults_fired),
                static_cast<unsigned long long>(serial.fault_digest),
                static_cast<unsigned long long>(serial.events));
    failures += same ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) {
  std::string json_path;
  std::string baseline_path;
  bool soak = false;
  emu::usize requests = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<emu::usize>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      std::printf(
          "usage: microbench_parallel [--json <path>] [--check <baseline.json>]\n"
          "                           [--soak] [--requests N]\n");
      return 2;
    }
  }

  if (soak) {
    return emu::SoakMain();
  }
  if (json_path.empty() && baseline_path.empty()) {
    return emu::SweepMain(requests);
  }

  emu::Measurement m;
  if (!emu::MeasureGatePoint(requests, &m)) {
    return 1;
  }
  std::printf("4-node cluster: serial %.2f ms, threads=4 %.2f ms, speedup %.2fx\n",
              m.serial.wall_seconds * 1e3, m.parallel.wall_seconds * 1e3, m.speedup);
  if (!json_path.empty()) {
    std::ofstream file(json_path);
    file << emu::MeasurementJson(m);
    if (!file) {
      std::printf("FAIL: could not write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!baseline_path.empty()) {
    return emu::GateMain(m, baseline_path);
  }
  return 0;
}
