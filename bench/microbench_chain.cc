// In-network compute pipeline (emu-chain) throughput benchmark.
//
// Sweeps ScenarioSpec-built chains over pipeline x threads: a memaslap-style
// 90/10 GET/SET stream is paced through each pipeline from the source host,
// and the wall time, executed events, conservative epochs, and
// parallel-vs-serial speedup are printed per cell. As in microbench_gossip,
// correctness gates timing: each parallel run must reproduce the bit-exact
// chain counter digest of its serial twin, and every admitted request must
// return exactly one reply, or the binary exits nonzero regardless of speed.
//
//   --threads N,N,... thread counts (default 1,2,4)
//   --requests N      workload requests per cell (default 400)
//   --gap-us N        inter-request gap in simulated us (default 25)
//   --seed N          workload + fault seed (default 1)
//   --json PATH       additionally write the sweep as BENCH_chain.json
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chain/scenario_build.h"
#include "src/fault/fault_registry.h"
#include "src/soak/soak.h"
#include "src/soak/workloads.h"

namespace emu {
namespace {

struct Pipeline {
  const char* name;
  const char* spec;
};

// The two canonical shapes: the minimal two-stage chain and the chain_soak
// four-stage pipeline (filter on the cycle-accurate FPGA target), driven by
// the same paced workload as chain_soak (src/soak/workloads.h).
const Pipeline kPipelines[] = {
    {"nat-pool",
     "topology hub link_delay=1us\n"
     "host client mac=0x020000000c01 ip=192.168.1.10\n"
     "host h1\nhost h2\n"
     "stage nat  kind=nat       host=h1 target=cpu queue=16\n"
     "stage pool kind=memcached host=h2 target=cpu queue=32\n"
     "chain client -> nat -> pool\n"},
    {"filter-nat-cache-pool", soak::kChainSoakSpec},
};

constexpr usize kPrewarmKeys = 100;

SweepCell RunCell(const Pipeline& pipeline, usize threads, usize requests, u64 gap_us, u64 seed) {
  FaultRegistry registry(seed);
  Expected<std::unique_ptr<Scenario>> built = BuildScenarioFromText(pipeline.spec, &registry);
  if (!built.ok() || !(*built)->has_chain) {
    std::fprintf(stderr, "pipeline '%s' rejected: %s\n", pipeline.name,
                 built.ok() ? "no chain" : built.status().ToString().c_str());
    std::exit(2);
  }
  Scenario& scenario = **built;
  ChainRuntime& chain = scenario.chain;
  std::vector<Packet> frames = soak::ChainWorkloadFrames(seed, kPrewarmKeys, requests);
  const u64 attempts = frames.size();
  soak::SourceLedger ledger;
  soak::PaceChainSource(scenario, std::move(frames),
                        static_cast<Picoseconds>(gap_us) * kPicosPerMicro, ledger);

  SweepCell out;
  TimedRun(scenario.topology, threads, out);
  out.digest = chain.Digest();
  std::vector<Finding> findings;
  chain.CollectFindings(findings);
  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s\n", f.ToString().c_str());
    out.ok = false;
  }
  if (chain.source_replies() != attempts - chain.source_shed()) {
    std::fprintf(stderr, "FLOW pipeline=%s threads=%zu: %llu admitted, %llu replies\n",
                 pipeline.name, threads,
                 static_cast<unsigned long long>(attempts - chain.source_shed()),
                 static_cast<unsigned long long>(chain.source_replies()));
    out.ok = false;
  }
  return out;
}

int Main(int argc, char** argv) {
  std::string threads_text = "1,2,4";
  u64 requests = 400;
  u64 gap_us = 25;
  u64 seed = 1;
  std::string json_path;
  soak::Flags flags;
  flags.Text("--threads", &threads_text);
  flags.Number("--requests", &requests);
  flags.Number("--gap-us", &gap_us);
  flags.Number("--seed", &seed);
  flags.Text("--json", &json_path);
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr,
                 "usage: %s [--threads 1,4] [--requests N] [--gap-us N] [--seed N]"
                 " [--json PATH]\n",
                 argv[0]);
    return 2;
  }

  std::printf("# chain pipelines, %zu requests (+%zu prewarm), gap %llu us, seed %llu\n",
              requests, kPrewarmKeys, static_cast<unsigned long long>(gap_us),
              static_cast<unsigned long long>(seed));
  std::printf("%-24s %-8s %12s %10s %12s %10s %10s\n", "pipeline", "threads", "events",
              "epochs", "wall_s", "Mev/s", "speedup");
  bool ok = true;
  std::string cells_json;
  for (const Pipeline& pipeline : kPipelines) {
    ok = SweepThreads("pipeline", pipeline.name, "\"" + std::string(pipeline.name) + "\"", 24,
                      ParseList(threads_text),
                      [&](usize threads) {
                        return RunCell(pipeline, threads, requests, gap_us, seed);
                      },
                      cells_json) &&
         ok;
  }
  const std::string workload = "\"requests\": " + std::to_string(requests) +
                               ", \"prewarm\": " + std::to_string(kPrewarmKeys) +
                               ", \"gap_us\": " + std::to_string(gap_us) +
                               ", \"seed\": " + std::to_string(seed);
  if (!json_path.empty() && !WriteSweepJson(json_path, "chain_pipelines", workload, cells_json)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: chain pipeline diverged or lost flow\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace emu

int main(int argc, char** argv) { return emu::Main(argc, argv); }
