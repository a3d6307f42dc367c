#include "src/hdl/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "src/analysis/elab/elaboration.h"
#include "src/analysis/hazard_monitor.h"
#include "src/core/metrics.h"
#include "src/fault/fault_registry.h"
#include "src/obs/trace_hooks.h"
#include "src/sim/event_scheduler.h"

namespace emu {

Clocked::~Clocked() {
#ifdef EMU_ANALYSIS
  if (analysis_owner_ != nullptr) {
    analysis_owner_->NotifyClockedDestroyed(this);
  }
#endif
}

Simulator::Simulator(u64 clock_hz) : clock_hz_(clock_hz) {
  assert(clock_hz > 0);
  cycle_period_ps_ = kPicosPerSecond / static_cast<Picoseconds>(clock_hz);
}

Simulator::~Simulator() {
#ifdef EMU_ANALYSIS
  // Surviving elements may be destroyed after us (lifetime rule): sever the
  // back-pointers so their destructors do not call into a dead Simulator.
  for (Clocked* element : clocked_) {
    if (element != nullptr) {
      element->analysis_owner_ = nullptr;
    }
  }
#endif
}

usize Simulator::AddProcess(HwProcess process, std::string name) {
  assert(process.Valid());
  const usize index = processes_.size();
  processes_.push_back(NamedProcess{std::move(process), std::move(name)});
  sched_.push_back(Slot{});
  stats_.push_back(ProcessStats{});
  // A process registered now has (by definition) no IO declaration the route
  // table was built from: routed wakes can no longer prove watcher
  // completeness, so fall back to global wake epochs.
  DisableWakeRouting();
  return index;
}

void Simulator::BuildWakeRoutes() {
  routes_built_ = true;
  const std::vector<elab::ProcessIo>& io = catalog_.io();
  const usize count = processes_.size();
  if (io.size() < count ||
      !std::all_of(io.begin(), io.begin() + count,
                   [](const elab::ProcessIo& decl) { return decl.declared; })) {
    return;  // some process never declared its IO
  }
  // Element -> watcher processes: the union of every declared role. Any
  // process that reads, writes, pushes or pops an element may have a parked
  // predicate over its state, so a mutation marks them all; over-marking
  // costs a predicate poll, never a missed resume.
  const std::vector<elab::ElementDecl>& elements = catalog_.elements();
  usize refs_total = 0;
  for (usize p = 0; p < count; ++p) {
    for (const elab::IoRefs* refs : {&io[p].reads, &io[p].writes, &io[p].pops, &io[p].pushes}) {
      refs_total += refs->ids.size() + refs->names.size();
    }
  }
  std::vector<std::pair<const void*, u32>> pairs;
  pairs.reserve(refs_total);
  for (usize p = 0; p < count; ++p) {
    for (const elab::IoRefs* refs : {&io[p].reads, &io[p].writes, &io[p].pops, &io[p].pushes}) {
      for (const void* id : refs->ids) {
        pairs.emplace_back(id, static_cast<u32>(p));
      }
      // A name resolves like ElabGraph's, to the first element registered
      // under it (designs name only a handful of elements). One no element
      // registered has no address to route: its mutations wake globally.
      for (const std::string& name : refs->names) {
        auto it = std::find_if(elements.begin(), elements.end(),
                               [&name](const elab::ElementDecl& e) { return e.name == name; });
        if (it != elements.end()) {
          pairs.emplace_back(it->id, static_cast<u32>(p));
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return std::less<>()(a.first, b.first) || (a.first == b.first && a.second < b.second);
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  // At most half full, so every probe sequence reaches an empty slot.
  usize size = 2;
  wake_route_shift_ = 63;
  while (size < 2 * pairs.size()) {
    size *= 2;
    --wake_route_shift_;
  }
  wake_routes_.assign(size, WakeRoute{});
  wake_watchers_.clear();
  wake_watchers_.reserve(pairs.size());
  for (usize i = 0; i < pairs.size(); ++i) {
    const void* element = pairs[i].first;
    if (i > 0 && pairs[i - 1].first == element) {
      continue;  // this element's run was placed with its first pair
    }
    usize slot = WakeRouteHome(element);
    while (wake_routes_[slot].count != 0) {
      slot = (slot + 1) & (size - 1);
    }
    WakeRoute& route = wake_routes_[slot];
    route.element = element;
    route.first = static_cast<u32>(wake_watchers_.size());
    for (usize j = i; j < pairs.size() && pairs[j].first == element; ++j) {
      wake_watchers_.push_back(pairs[j].second);
    }
    route.count = static_cast<u32>(wake_watchers_.size()) - route.first;
  }
  wake_routes_active_ = true;
  // Force one global re-evaluation so predicates parked before routing are
  // not skipped on a stale epoch under the new regime.
  ++wake_epoch_;
}

void Simulator::RunPreFlight() {
  preflight_done_ = true;  // set first: PreFlight may Step() via helpers
  elaboration_->PreFlight(*this);
}

void Simulator::RegisterClocked(Clocked* element) {
  assert(element != nullptr);
#ifdef EMU_ANALYSIS
  element->analysis_owner_ = this;
#endif
  clocked_.push_back(element);
}

void Simulator::UnregisterClocked(Clocked* element) {
#ifdef EMU_ANALYSIS
  if (element != nullptr) {
    element->analysis_owner_ = nullptr;
  }
#endif
  auto drop = [element](std::vector<Clocked*>& list) {
    list.erase(std::remove(list.begin(), list.end(), element), list.end());
  };
  drop(clocked_);
  drop(dirty_);
  if (element != nullptr) {
    element->commit_enqueued_ = false;
  }
}

void Simulator::NotifyClockedDestroyed(Clocked* element) {
  for (Clocked*& slot : clocked_) {
    if (slot == element) {
      slot = nullptr;
      ++dead_clocked_;
    }
  }
  // The dirty queue is walked without null checks on the fast path; a dying
  // element must leave it immediately.
  dirty_.erase(std::remove(dirty_.begin(), dirty_.end(), element), dirty_.end());
}

void Simulator::AttachEdgeObserver(EdgeObserver* observer) {
  assert(observer != nullptr);
  edge_observers_.push_back(observer);
}

void Simulator::DetachEdgeObserver(EdgeObserver* observer) {
  edge_observers_.erase(std::remove(edge_observers_.begin(), edge_observers_.end(), observer),
                        edge_observers_.end());
}

void Simulator::Reclassify(usize index) {
  Slot& slot = sched_[index];
  HwProcess& process = processes_[index].process;
  if (process.Done()) {
    slot.state = Slot::kDone;
    return;
  }
  auto& promise = process.promise();
  if (promise.wait_pred != nullptr) {
    slot.state = Slot::kParked;
    slot.wait_pred = promise.wait_pred;
    slot.wait_ctx = promise.wait_ctx;
    slot.wait_epoch = kWaitEpochStale;   // force at least one evaluation
    slot.routed_stale = true;
    promise.wait_pred = nullptr;
    promise.wait_ctx = nullptr;
    return;
  }
  if (promise.sleep_cycles > 0) {
    // Suspended during the edge at now_; the old per-edge decrement resumed
    // it sleep_cycles edges after the next one.
    slot.state = Slot::kSleeping;
    slot.wake_at = now_ + 1 + promise.sleep_cycles;
    promise.sleep_cycles = 0;
    return;
  }
  slot.state = Slot::kRunnable;
}

namespace {

inline u64 ElapsedNs(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point stop) {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
}

}  // namespace

template <bool kTimed>
usize Simulator::SweepProcesses(bool lazy) {
  usize pinned = 0;
  const usize count = processes_.size();
  for (usize i = 0; i < count; ++i) {
    Slot& slot = sched_[i];
    if (slot.state == Slot::kDone) {
      continue;
    }
    if (slot.state == Slot::kSleeping) {
      if (slot.wake_at > now_) {
        pinned += slot.wake_at == now_ + 1 ? 1 : 0;  // due on the next edge
        continue;
      }
    } else if (slot.state == Slot::kParked) {
      if (lazy && !slot.routed_stale && slot.wait_epoch == wake_epoch_) {
        continue;  // no watched (or, routing off, any) state changed since the last evaluation
      }
      ProcessStats& stats = stats_[i];
      ++stats.polls;
      if (!slot.wait_pred(slot.wait_ctx)) {
        slot.wait_epoch = wake_epoch_;
        slot.routed_stale = false;
        ++stats.cycles_awake;
        continue;
      }
    }
    ProcessStats& stats = stats_[i];
    ++stats.resumes;
    ++stats.cycles_awake;
    HwProcess& process = processes_[i].process;
    if constexpr (kTimed) {
      const auto start = std::chrono::steady_clock::now();
      process.Resume();
      stats.wall_ns += ElapsedNs(start, std::chrono::steady_clock::now());
    } else {
      process.Resume();
    }
    Reclassify(i);
    // Runnable, or parked afresh (its predicate is not evaluated until the
    // next sweep): either way the next edge must execute. Re-index: a resume
    // that registers a process may reallocate sched_.
    const Slot::State state = sched_[i].state;
    pinned += (state == Slot::kRunnable || state == Slot::kParked) ? 1 : 0;
  }
  return pinned;
}

usize Simulator::SampledSweepAndCommit(bool lazy) {
  // Every edge since the last sampled one ran the plain path uncounted.
  phase_resume_.calls += sample_reload_;
  phase_commit_.calls += sample_reload_;
  // Phases are timed on every stride-th edge and per-process resumes half a
  // stride apart from them, so the sampled edges alternate between the two:
  // a resume clock pair in the phase window would bill its own cost to
  // resume_dispatch. Under stride 1 (kFull) both land on every edge.
  bool time_phases = true;
  bool time_resumes = true;
  if (sample_stride_ > 1) {
    time_phases = sample_phases_next_;
    time_resumes = !time_phases;
    sample_phases_next_ = !time_phases;
    sample_reload_ = time_phases ? sample_stride_ / 2 : sample_stride_ - sample_stride_ / 2;
  }
  sample_countdown_ = sample_reload_;
  if (!time_phases) {
    const usize pinned = SweepProcesses<true>(lazy);
    CommitEdge();
    return pinned;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const usize pinned = time_resumes ? SweepProcesses<true>(lazy) : SweepProcesses<false>(lazy);
  const auto t1 = std::chrono::steady_clock::now();
  CommitEdge();
  const auto t2 = std::chrono::steady_clock::now();
  ++phase_resume_.timed_calls;
  phase_resume_.wall_ns += ElapsedNs(t0, t1);
  ++phase_commit_.timed_calls;
  phase_commit_.wall_ns += ElapsedNs(t1, t2);
  ++edges_timed_;
  return pinned;
}

void Simulator::SetProfilingMode(ProfilingMode mode, u64 sample_stride) {
  // Bill the profiled edges since the last sampled one before the schedule
  // restarts.
  const u64 unbilled = UnbilledProfiledEdges();
  phase_resume_.calls += unbilled;
  phase_commit_.calls += unbilled;
  profiling_mode_ = mode;
  sample_stride_ = mode == ProfilingMode::kFull ? 1 : (sample_stride == 0 ? 1 : sample_stride);
  sample_phases_next_ = false;
  sample_reload_ = mode == ProfilingMode::kOff ? kNeverSample
                   : sample_stride_ == 1      ? 1
                                              : sample_stride_ / 2;
  sample_countdown_ = sample_reload_;
  scan_countdown_ = sample_stride_;
}

void Simulator::CommitEdge() {
  // Index loop: a Commit() that re-announces (none in the kernel do, but the
  // contract allows it) grows the queue mid-walk.
  for (usize i = 0; i < dirty_.size(); ++i) {
    Clocked* element = dirty_[i];
    element->commit_enqueued_ = false;
    element->Commit();
  }
  dirty_.clear();
}

void Simulator::Step() {
  if (elaboration_ != nullptr && !preflight_done_) [[unlikely]] {
    RunPreFlight();
  }
  // Armed fault callback targets sample once per edge, before processes run
  // (the tick at `now_` precedes the edge at `now_`, matching the chaos
  // harness's historical `registry.Tick(now); Run(1);` order).
  if (fault_registry_ != nullptr) [[unlikely]] {
    fault_registry_->Tick(now_);
  }
  if (!forced_wakes_.empty()) [[unlikely]] {
    ConsumeForcedWakes();
  }
#ifdef EMU_ANALYSIS
  // Keep the uninstrumented path identical to the non-analysis build: with
  // no monitor attached (and no tombstoned elements) there is exactly one
  // extra branch per Step(), not one per process.
  if (monitor_ != nullptr || dead_clocked_ > 0) [[unlikely]] {
    StepInstrumented();
    return;
  }
#endif
  // Epoch-lazy parked-predicate evaluation is only an optimization shortcut;
  // with the fast path off every parked predicate is evaluated on every
  // edge, which is the reference semantics. Only the profiler's sampled
  // edges leave this path, so an unsampled edge costs the same in every
  // profiling mode.
  if (--sample_countdown_ == 0) [[unlikely]] {
    pinned_ = SampledSweepAndCommit(/*lazy=*/fast_path_);
  } else {
    pinned_ = SweepProcesses<false>(/*lazy=*/fast_path_);
    CommitEdge();
  }
  ++now_;
  ++edges_run_;
  if (!edge_observers_.empty()) [[unlikely]] {
    for (EdgeObserver* observer : edge_observers_) {
      observer->OnEdge(now_);
    }
  }
}

#ifdef EMU_ANALYSIS
void Simulator::StepInstrumented() {
  pinned_ = 0;  // not counted here; the run loop's scan answers for itself
  if (dead_clocked_ > 0) {
    // The lifetime rule (see the header) was violated: a registered element
    // died and Step() ran anyway. With a monitor this is a report; without
    // one it is a hard stop — the non-analysis build would be corrupting
    // freed memory right here.
    if (monitor_ != nullptr) {
      monitor_->OnPostMortemStep(dead_clocked_);
    } else {
      std::fprintf(stderr,
                   "emu: fatal: Simulator::Step() after %zu registered Clocked element(s) "
                   "were destroyed (lifetime rule in src/hdl/simulator.h)\n",
                   dead_clocked_);
      std::abort();
    }
  }
  for (usize i = 0; i < processes_.size(); ++i) {
    current_process_ = static_cast<isize>(i);
    if (monitor_ != nullptr) {
      monitor_->OnProcessResume(i, processes_[i].name);
    }
    // Exact semantics, no scheduler bookkeeping: parked predicates are
    // evaluated on every edge (without freshening the lazy-skip epoch — the
    // instrumented path never converts monitor observation into fast-path
    // state), so the monitor observes everything a per-edge testbench would.
    Slot& slot = sched_[i];
    if (slot.state == Slot::kDone) {
      continue;
    }
    if (slot.state == Slot::kSleeping) {
      if (slot.wake_at > now_) {
        continue;
      }
    } else if (slot.state == Slot::kParked) {
      if (!slot.wait_pred(slot.wait_ctx)) {
        continue;
      }
    }
    processes_[i].process.Resume();
    Reclassify(i);
  }
  current_process_ = -1;
  // Commit everything registered (null-checked: slots may be tombstoned),
  // in registration order — the dirty queue is a fast-path optimization the
  // instrumented path subsumes.
  for (Clocked* element : clocked_) {
    if (element != nullptr) {
      element->Commit();
    }
  }
  for (Clocked* element : dirty_) {
    element->commit_enqueued_ = false;
  }
  dirty_.clear();
  ++now_;
  ++edges_run_;
  if (!edge_observers_.empty()) [[unlikely]] {
    for (EdgeObserver* observer : edge_observers_) {
      observer->OnEdge(now_);
    }
  }
}
#endif

Cycle Simulator::QuiescentWindow(Cycle budget) {
  if (!fast_path_ || !edge_observers_.empty()) {
    return 0;
  }
#ifdef EMU_ANALYSIS
  if (monitor_ != nullptr || dead_clocked_ > 0) {
    return 0;
  }
#endif
  // Buffered writes (testbench code mutating a Reg/FIFO/BRAM between Run
  // calls, or a process's writes from the edge it went to sleep on) need a
  // real edge to commit before time may jump. Every element announces them,
  // so the dirty queue is the whole answer.
  if (!dirty_.empty()) {
    return 0;
  }
  // Every clamp below either answers 0 or shrinks the window, so their order
  // only decides how fast a busy edge is ruled out: the slot sweep, which
  // rejects most busy edges, goes first.
  Cycle window = budget;
  for (const Slot& slot : sched_) {
    switch (slot.state) {
      case Slot::kDone:
        continue;
      case Slot::kSleeping:
        if (slot.wake_at <= now_) {
          return 0;  // due: the next edge must execute
        }
        window = std::min(window, slot.wake_at - now_);
        continue;
      case Slot::kParked:
        if (!slot.routed_stale && slot.wait_epoch == wake_epoch_) {
          continue;  // predicate provably unchanged: sleeps through any window
        }
        return 0;  // parked with a stale predicate that needs evaluation
      case Slot::kRunnable:
        return 0;
    }
  }
  if (!forced_wakes_.empty()) {
    const Cycle first = *forced_wakes_.begin();
    if (first <= now_) {
      return 0;
    }
    window = std::min(window, first - now_);
  }
  if (event_scheduler_ != nullptr && !event_scheduler_->Empty()) {
    const Cycle event_cycle =
        static_cast<Cycle>(event_scheduler_->NextEventTime() / cycle_period_ps_);
    if (event_cycle <= now_) {
      return 0;
    }
    window = std::min(window, event_cycle - now_);
  }
  if (fault_registry_ != nullptr) {
    const u64 demand = fault_registry_->NextTickDemand(now_);
    if (demand <= now_) {
      return 0;
    }
    if (demand != FaultRegistry::kNeverDemands) {
      window = std::min(window, static_cast<Cycle>(demand - now_));
    }
  }
  return window;
}

Cycle Simulator::ProfiledQuiescentWindow(Cycle budget) {
  if (profiling_mode_ == ProfilingMode::kOff) [[likely]] {
    return QuiescentWindow(budget);
  }
  ++phase_scan_.calls;
  if (--scan_countdown_ != 0) {
    return QuiescentWindow(budget);
  }
  scan_countdown_ = sample_stride_;
  const auto t0 = std::chrono::steady_clock::now();
  const Cycle window = QuiescentWindow(budget);
  ++phase_scan_.timed_calls;
  phase_scan_.wall_ns += ElapsedNs(t0, std::chrono::steady_clock::now());
  return window;
}

void Simulator::AttachFaultRegistry(FaultRegistry* registry) {
  fault_registry_ = registry;
  if (registry != nullptr) {
    registry->set_trace_tick_period_ps(cycle_period_ps_);
  }
}

void Simulator::FastForward(Cycle cycles) {
  assert(cycles > 0);
  // Jumps are rare relative to edges: always time them when profiling.
  const bool timed = profiling_mode_ != ProfilingMode::kOff;
  const auto t0 =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  // The jump itself is an observable worth tracing: a complete span covering
  // the skipped window shows exactly where the run was quiescent.
  if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
    obs::EmitComplete(tb, "sim.quiescent", NowPs(),
                      static_cast<Picoseconds>(cycles) * cycle_period_ps_);
  }
  // Sleep wake-ups are absolute cycles, so the jump is O(1): QuiescentWindow
  // bounded it by the earliest wake_at, and no slot state needs touching.
  now_ += cycles;
  cycles_fast_forwarded_ += cycles;
  ++jumps_;
  if (fault_registry_ != nullptr) {
    // Armed callback targets that allowed the jump still saw one injection
    // opportunity per skipped tick; keep their books identical to per-edge
    // sampling.
    fault_registry_->NoteSkippedTicks(cycles);
  }
  if (timed) [[unlikely]] {
    ++phase_fast_forward_.calls;
    ++phase_fast_forward_.timed_calls;
    phase_fast_forward_.wall_ns += ElapsedNs(t0, std::chrono::steady_clock::now());
  }
}

bool Simulator::RunLoop(Cycle end, const std::function<bool()>* done) {
  if (elaboration_ != nullptr && !preflight_done_) [[unlikely]] {
    RunPreFlight();
  }
  if (!routes_built_) [[unlikely]] {
    BuildWakeRoutes();
  }
  // QuiescentWindow answers 0 whenever a slot pins the next edge, so
  // skipping the scan while the last edge left one pinned takes exactly the
  // decisions a scan before every edge would. Nothing between Run calls can
  // unpin a slot (only a sweep moves slot state), so the count carries over.
  while (now_ < end) {
    // `done` is a pure function of simulation state (header contract), so it
    // cannot flip inside a quiescent window: checking once per executed edge
    // or jump is exactly equivalent to checking every cycle.
    if (done != nullptr && (*done)()) {
      return true;
    }
    if (pinned_ == 0) {
      const Cycle window = ProfiledQuiescentWindow(end - now_);
      if (window > 0) {
        FastForward(window);
        continue;
      }
    }
    Step();
  }
  return done != nullptr && (*done)();
}

void Simulator::Run(Cycle cycles) { RunLoop(now_ + cycles, nullptr); }

bool Simulator::RunUntil(const std::function<bool()>& done, Cycle limit) {
  return RunLoop(now_ + limit, &done);
}

usize Simulator::live_process_count() const {
  usize count = 0;
  for (const auto& entry : processes_) {
    if (!entry.process.Done()) {
      ++count;
    }
  }
  return count;
}

SimProfile Simulator::ProfileReport() const {
  SimProfile profile;
  profile.profiling_enabled = profiling_mode_ != ProfilingMode::kOff;
  profile.mode = profiling_mode_;
  profile.sample_stride = sample_stride_;
  profile.edges_run = edges_run_;
  profile.cycles_fast_forwarded = cycles_fast_forwarded_;
  profile.jumps = jumps_;
  profile.edges_timed = edges_timed_;
  profile.resume_dispatch = phase_resume_;
  profile.commit_sweep = phase_commit_;
  profile.resume_dispatch.calls += UnbilledProfiledEdges();
  profile.commit_sweep.calls += UnbilledProfiledEdges();
  profile.quiescence_scan = phase_scan_;
  profile.fast_forward = phase_fast_forward_;
  profile.processes.reserve(processes_.size());
  for (usize i = 0; i < processes_.size(); ++i) {
    ProcessProfile entry;
    entry.name = processes_[i].name;
    entry.resumes = stats_[i].resumes;
    entry.cycles_awake = stats_[i].cycles_awake;
    entry.polls = stats_[i].polls;
    entry.wall_ns = stats_[i].wall_ns;
    profile.processes.push_back(std::move(entry));
  }
  return profile;
}

void Simulator::RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const {
  metrics.Register(prefix + ".edges_run", &edges_run_);
  metrics.Register(prefix + ".cycles_fast_forwarded", &cycles_fast_forwarded_);
  metrics.Register(prefix + ".jumps", &jumps_);
  metrics.RegisterGauge(prefix + ".live_processes",
                        [this] { return static_cast<u64>(live_process_count()); });
}

void Simulator::DumpDependencyGraph(std::ostream& os) const {
  if (monitor_ != nullptr) {
    monitor_->DumpDot(os);
    return;
  }
  os << "digraph emu_design {\n  rankdir=LR;\n";
  for (usize i = 0; i < processes_.size(); ++i) {
    os << "  p" << i << " [shape=box,label=\"" << processes_[i].name << "\"];\n";
  }
  os << "}\n";
}

}  // namespace emu
