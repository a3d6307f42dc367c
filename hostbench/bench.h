// Shared types of the host-time benchmark (see README.md).
//
// A run repeats rounds of one workload. Each round builds a fresh world from
// the seed (set-up), drives a fixed amount of emulated load through it (the
// measured phase), and checks the outputs. Everything emulated in a round —
// request count, latencies, counters, digests — is a pure function of the
// seed, so every round of one run must agree on it exactly; only host times
// differ between rounds.
#ifndef HOSTBENCH_BENCH_H_
#define HOSTBENCH_BENCH_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hostbench/spans.h"
#include "src/common/types.h"
#include "src/hdl/simulator.h"
#include "src/sim/event_scheduler.h"

namespace emu::obs {
class RunnerPulse;
}  // namespace emu::obs

namespace hostbench {

using emu::Picoseconds;
using emu::u64;
using emu::usize;

struct RoundConfig {
  u64 seed = 1;
  usize threads = 1;  // ParallelRunner worker threads
  // A full round sends the workload's whole request stream, at least 50000
  // requests, and gives the emulated latency percentiles. A timed round sends
  // only the stream's first part, so that a run holds many rounds and its
  // fastest round can fall inside a short fast stretch of host time.
  bool full = true;
  SpanLog* spans = nullptr;  // non-null only in the traced run
  bool traced() const { return spans != nullptr; }
};

struct RoundResult {
  std::string error;  // empty when every output check passed
  u64 attempted = 0;
  u64 completed = 0;
  // Set-up phases, host seconds.
  double parse_s = 0;
  double build_s = 0;
  double warm_s = 0;
  // Measured phase: host wall and process CPU (all threads) seconds.
  double measure_s = 0;
  double measure_cpu_s = 0;
  // Emulated request latency, one sample per completed request.
  std::vector<Picoseconds> latency_ps;
  // Digest of the workload's outputs; equal for equal seeds.
  u64 digest = 0;
  // Deterministic per-request counts (reported with every run).
  std::map<std::string, double> counts;
  // Per-layer metrics, filled only in traced rounds.
  std::map<std::string, double> layers;
};

RoundResult RunSwitchLinerate(const RoundConfig& config);
RoundResult RunChainT1(const RoundConfig& config);

// --- helpers shared by the workloads ---

double WallSeconds();        // steady clock
double ProcessCpuSeconds();  // user+sys of every thread of the process

// FNV-1a over 64-bit words.
class Fnv {
 public:
  void Add(u64 v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
    }
  }
  u64 value() const { return hash_; }

 private:
  u64 hash_ = 14695981039346656037ull;
};

// An open-loop client: request i+1 is scheduled when request i is sent,
// `gap` later in emulated time, so the run's schedule never exists up front.
// `send(i, due)` generates and sends request i at its due time.
class OpenLoop {
 public:
  using Send = std::function<void(usize index, Picoseconds due)>;
  OpenLoop(emu::EventScheduler& clock, Picoseconds gap, usize count, Send send)
      : clock_(clock), gap_(gap), count_(count), send_(std::move(send)) {}
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Start(Picoseconds first) {
    if (count_ > 0) {
      clock_.At(first, [this, first] { Fire(0, first); });
    }
  }

 private:
  void Fire(usize i, Picoseconds due) {
    send_(i, due);
    if (i + 1 < count_) {
      const Picoseconds next = due + gap_;
      clock_.At(next, [this, i, next] { Fire(i + 1, next); });
    }
  }

  emu::EventScheduler& clock_;
  Picoseconds gap_;
  usize count_;
  Send send_;
};

// Kernel statistics of one or more simulators between two snapshots.
struct KernelDelta {
  u64 edges = 0;
  u64 ff_cycles = 0;
  u64 jumps = 0;
  u64 resumes = 0;
  u64 cycles_awake = 0;
  double resume_dispatch_ns = 0;
  double commit_sweep_ns = 0;
  double quiescence_scan_ns = 0;
  double fast_forward_ns = 0;
  // Sample-scaled resume wall time per process name.
  std::map<std::string, double> process_ns;
};

// Accumulates `after - before` of one simulator into `delta`.
void AddKernelDelta(const emu::SimProfile& before, const emu::SimProfile& after,
                    KernelDelta& delta);

// Writes the hdl.* layer metrics of `delta` over `requests` requests and a
// measured phase of `measure_s` seconds.
void PutKernelLayers(const KernelDelta& delta, u64 requests, double measure_s,
                     std::map<std::string, double>& layers);

// Writes the sim.runner.* layer metrics of one ParallelRunner::Run that had
// `pulse` attached; the counts are the runner's counter deltas.
void PutRunnerLayers(const emu::obs::RunnerPulse& pulse, u64 epochs, u64 relax_sweeps,
                     u64 frames_drained, u64 events, u64 requests, double measure_s,
                     std::map<std::string, double>& layers);

}  // namespace hostbench

#endif  // HOSTBENCH_BENCH_H_
