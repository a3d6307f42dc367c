// SWIM membership (emu-gossip) throughput benchmark.
//
// Sweeps a gossip cluster over hosts x threads: every host of gossip_soak's
// hub world (src/soak/workloads.h) runs a SwimPeer for a fixed span of
// simulated time under a small chaos plan (one crash + restart, one
// partition window), and the wall time, executed events, conservative
// epochs, and parallel-vs-serial speedup are printed per cell. As in
// microbench_parallel, correctness gates timing: each parallel run must
// produce the bit-exact membership-event digest of its serial twin, or the
// binary exits nonzero regardless of speed.
//
//   --hosts N,N,...   cluster sizes to sweep (default 8,16,32)
//   --threads N,N,... thread counts (default 1,2,4)
//   --run-ms N        simulated span per cell (default 100)
//   --seed N          base seed (default 1)
//   --json PATH       additionally write the sweep as BENCH_gossip.json
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chain/scenario_build.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fault_registry.h"
#include "src/sim/chaos.h"
#include "src/soak/soak.h"
#include "src/soak/workloads.h"

namespace emu {
namespace {

std::string ChaosPlan(usize hosts) {
  // Scale the campaign with the cluster: crash/restart the second host and
  // cut the first quarter off from the second quarter for 20 ms.
  std::string plan = "crash host=h1 at=20ms; restart host=h1 at=60ms";
  if (hosts >= 8) {
    const usize quarter = hosts / 4;
    std::string a;
    std::string b;
    for (usize i = 0; i < quarter; ++i) {
      a += (i == 0 ? "" : ",") + ("h" + std::to_string(2 + i));
      b += (i == 0 ? "" : ",") + ("h" + std::to_string(2 + quarter + i));
    }
    plan += "; partition {" + a + "}|{" + b + "} from=30ms to=50ms";
  }
  return plan;
}

SweepCell RunCell(usize hosts, usize threads, u64 run_ms, u64 seed) {
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built =
      BuildScenarioFromText(soak::SwimHubSpec(hosts), &registry);
  if (!built.ok()) {
    std::fprintf(stderr, "hub spec rejected: %s\n", built.status().ToString().c_str());
    std::exit(2);
  }
  TopologyBuilder& topo = (*built)->topology;
  ChaosDirector director(topo, &registry);
  const Expected<FaultPlan> plan = ParseFaultPlan(ChaosPlan(hosts));
  if (!plan.ok() || !director.Apply(*plan).ok()) {
    std::fprintf(stderr, "chaos plan rejected\n");
    std::exit(2);
  }

  SwimConfig config;
  config.run_until = static_cast<Picoseconds>(run_ms) * kPicosPerMilli;
  const std::vector<std::unique_ptr<SwimPeer>> peers =
      soak::StartSwimPeers(topo, hosts, config, seed);

  SweepCell out;
  TimedRun(topo, threads, out);
  out.digest = soak::SwimDigest(peers);
  return out;
}

int Main(int argc, char** argv) {
  std::string hosts_text = "8,16,32";
  std::string threads_text = "1,2,4";
  u64 run_ms = 100;
  u64 seed = 1;
  std::string json_path;
  soak::Flags flags;
  flags.Text("--hosts", &hosts_text);
  flags.Text("--threads", &threads_text);
  flags.Number("--run-ms", &run_ms);
  flags.Number("--seed", &seed);
  flags.Text("--json", &json_path);
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr,
                 "usage: %s [--hosts 8,16] [--threads 1,4] [--run-ms N] [--seed N]"
                 " [--json PATH]\n",
                 argv[0]);
    return 2;
  }

  std::printf("# SWIM gossip cluster, %llu ms simulated, seed %llu\n",
              static_cast<unsigned long long>(run_ms),
              static_cast<unsigned long long>(seed));
  std::printf("%-8s %-8s %12s %10s %12s %10s %10s\n", "hosts", "threads", "events",
              "epochs", "wall_s", "Mev/s", "speedup");
  bool ok = true;
  std::string cells_json;
  for (usize hosts : ParseList(hosts_text)) {
    ok = SweepThreads("hosts", std::to_string(hosts), std::to_string(hosts), 8,
                      ParseList(threads_text),
                      [&](usize threads) { return RunCell(hosts, threads, run_ms, seed); },
                      cells_json) &&
         ok;
  }
  const std::string workload =
      "\"run_ms\": " + std::to_string(run_ms) + ", \"seed\": " + std::to_string(seed);
  if (!json_path.empty() && !WriteSweepJson(json_path, "gossip_cluster", workload, cells_json)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel membership history diverged from serial\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
