#include "hostbench/bench.h"

#include <algorithm>
#include <chrono>
#include <ctime>

#include "src/obs/pulse.h"

namespace hostbench {

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

double PhaseDeltaNs(const emu::PhaseProfile& before, const emu::PhaseProfile& after) {
  emu::PhaseProfile delta;
  delta.calls = after.calls - before.calls;
  delta.timed_calls = after.timed_calls - before.timed_calls;
  delta.wall_ns = after.wall_ns - before.wall_ns;
  return delta.EstimatedTotalNs();
}

}  // namespace

void AddKernelDelta(const emu::SimProfile& before, const emu::SimProfile& after,
                    KernelDelta& delta) {
  delta.edges += after.edges_run - before.edges_run;
  delta.ff_cycles += after.cycles_fast_forwarded - before.cycles_fast_forwarded;
  delta.jumps += after.jumps - before.jumps;
  delta.resume_dispatch_ns += PhaseDeltaNs(before.resume_dispatch, after.resume_dispatch);
  delta.commit_sweep_ns += PhaseDeltaNs(before.commit_sweep, after.commit_sweep);
  delta.quiescence_scan_ns += PhaseDeltaNs(before.quiescence_scan, after.quiescence_scan);
  delta.fast_forward_ns += PhaseDeltaNs(before.fast_forward, after.fast_forward);
  // Processes are only ever added, so `before` is a prefix of `after`.
  for (usize i = 0; i < after.processes.size(); ++i) {
    const emu::ProcessProfile& a = after.processes[i];
    const emu::ProcessProfile* b = i < before.processes.size() ? &before.processes[i] : nullptr;
    delta.resumes += a.resumes - (b != nullptr ? b->resumes : 0);
    delta.cycles_awake += a.cycles_awake - (b != nullptr ? b->cycles_awake : 0);
    delta.process_ns[a.name] += static_cast<double>(a.wall_ns - (b != nullptr ? b->wall_ns : 0)) *
                                static_cast<double>(after.sample_stride);
  }
}

void PutKernelLayers(const KernelDelta& delta, u64 requests, double measure_s,
                     std::map<std::string, double>& layers) {
  const double req = static_cast<double>(requests);
  const double wall_ns = measure_s * 1e9;
  const double cycles = static_cast<double>(delta.edges + delta.ff_cycles);
  layers["hdl.ff_cycle_ratio"] = cycles == 0 ? 0.0 : static_cast<double>(delta.ff_cycles) / cycles;
  layers["hdl.jumps_per_req"] = static_cast<double>(delta.jumps) / req;
  layers["hdl.resume_dispatch_share"] = delta.resume_dispatch_ns / wall_ns;
  layers["hdl.commit_sweep_share"] = delta.commit_sweep_ns / wall_ns;
  layers["hdl.quiescence_scan_share"] = delta.quiescence_scan_ns / wall_ns;
  layers["hdl.fast_forward_share"] = delta.fast_forward_ns / wall_ns;
  layers["hdl.poll_useful_ratio"] =
      delta.cycles_awake == 0 ? 0.0
                              : static_cast<double>(delta.resumes) /
                                    static_cast<double>(delta.cycles_awake);
}

void PutRunnerLayers(const emu::obs::RunnerPulse& pulse, u64 epochs, u64 relax_sweeps,
                     u64 frames_drained, u64 events, u64 requests, double measure_s,
                     std::map<std::string, double>& layers) {
  const double req = static_cast<double>(requests);
  const double ep = static_cast<double>(std::max<u64>(epochs, 1));
  double work_ns = 0;
  double wait_ns = 0;
  for (const emu::obs::ShardAggregate& shard : pulse.shard_aggregates()) {
    work_ns += static_cast<double>(shard.work_ns);
    wait_ns += static_cast<double>(shard.barrier_wait_ns);
  }
  layers["sim.runner.epochs_per_req"] = static_cast<double>(epochs) / req;
  layers["sim.runner.events_per_epoch"] = static_cast<double>(events) / ep;
  layers["sim.runner.relax_sweeps_per_epoch"] = static_cast<double>(relax_sweeps) / ep;
  layers["sim.runner.plan_share"] =
      static_cast<double>(pulse.plan_aggregate().wall_ns) / (measure_s * 1e9);
  layers["sim.runner.barrier_wait_share"] =
      work_ns + wait_ns == 0 ? 0.0 : wait_ns / (work_ns + wait_ns);
  layers["sim.runner.parallel_efficiency"] =
      pulse.run_wall_ns() == 0 ? 0.0
                               : work_ns / (static_cast<double>(pulse.threads()) *
                                            static_cast<double>(pulse.run_wall_ns()));
  layers["sim.runner.frames_drained_per_req"] = static_cast<double>(frames_drained) / req;
}

}  // namespace hostbench
