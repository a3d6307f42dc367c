// Cycle-accurate single-clock-domain simulator.
//
// Each Step() models one rising clock edge:
//   1. every live HwProcess is resumed once, in registration order
//      (processes observe only pre-edge values of clocked state);
//   2. every registered Clocked element commits its next-state
//      (non-blocking-assignment update).
// This is the substrate the Emu FPGA target runs on; the clock rate (200 MHz
// for NetFPGA SUME, 250 MHz for the P4FPGA baseline, §5.3) converts cycle
// counts to wall-clock latency.
//
// --- Two semantics, one run loop ---
//
// The simulator has exactly two ways to execute: the reference semantics
// (SetFastPath(false), or StepInstrumented while a HazardMonitor is
// attached) executes every edge and evaluates every parked predicate on
// every edge; the fast path (the default) produces bit-identical results
// with less work. Both go through the same Run/RunUntil loop. That loop
// executes edges back to back and only scans for a quiescent window (below)
// when the previous edge left no slot *pinning* the next one — a process
// left runnable, one parked afresh (its predicate is still unevaluated), or
// one whose sleep ends on the next edge. The scan could only answer "0"
// while a slot is pinned, so skipping it changes no decision: the same
// edges execute and the same windows are jumped.
//
// --- Busy-path structures ---
//
//   * Scheduling state lives in a struct-of-arrays Slot table owned by the
//     Simulator, not in each coroutine's promise. A process's promise fields
//     are only an announcement channel: awaiters write them at suspension and
//     Reclassify() moves them into the Slot right after Resume() returns, so
//     the sweep touches one contiguous array instead of one coroutine frame
//     per process per edge. Sleeps are absolute wake cycles (no per-edge
//     decrement), which also makes FastForward O(1).
//
//   * Commits are demand-driven. Every Clocked element's mutators announce
//     the clean→dirty transition (AnnounceDirty), and an edge commits only
//     the announced elements; a clean element's Commit() is an idempotent
//     no-op by kernel invariant, so skipping it is invisible. The dirty
//     queue is therefore the whole truth about pending commits.
//
//   * Coroutine frames bump-allocate from the Simulator's arena when design
//     construction is wrapped in a CoroFrameArenaScope (NetFpgaPipeline does
//     this), packing a pipeline's frames contiguously.
//
//   * Routed wakes. When every registered process has declared its IO
//     (elab::IoDecl), the first Run/RunUntil builds an element→watcher table
//     straight from the catalog, and NotifyWakeFor re-polls only the
//     processes that declared IO on the mutated element instead of
//     invalidating every parked predicate. Registering a process afterwards
//     turns routing off (its IO is undeclared); global NotifyWake still
//     reaches everyone either way.
//
// --- Quiescence-aware fast path ---
//
// Run()/RunUntil() fast-forward over *quiescent windows*: spans of cycles in
// which every live process is either sleeping off a PauseFor or parked on a
// WaitUntil predicate that provably cannot have changed, and no element has
// an announced commit pending. During such a window no process body runs,
// so no next-state is written, and every Commit() in the kernel is
// idempotent on clean state — skipping the edges entirely (processes,
// commits and all) is therefore invisible: now() advances in one jump and
// every observable (egress, digests, hazard reports, VCD, fault logs) is
// bit-identical to stepping edge by edge. The window is clamped by
//   - the earliest PauseFor expiry (min over slot wake cycles),
//   - forced wakes (RequestWakeAt: FIFO stall expiries),
//   - the next tick an attached FaultRegistry must sample (armed
//     callback targets, see FaultRegistry::NextTickDemand),
//   - the next pending event of an attached sim::EventScheduler.
// Anything that demands per-edge observation disables fast-forward
// entirely: an attached HazardMonitor (EMU_ANALYSIS), attached
// EdgeObservers (VCD tracers), or SetFastPath(false).
//
// Parked predicates are re-evaluated lazily via a wake epoch: every
// mutation of wake-tracked state (SyncFifo push-commits/pops/stalls,
// explicit NotifyWake calls) bumps the epoch, and a parked process whose
// predicate was last evaluated at the current epoch is skipped without
// re-evaluation. With wake routing active a mutation instead marks only the
// element's declared watchers stale — extra marks cost a predicate poll,
// never a missed resume, because watcher sets come from the same IO
// declarations the equivalence suites validate. With the fast path off (or
// a monitor attached) predicates are evaluated on every edge — the
// reference semantics the equivalence suites (tests/kernel_equiv_test.cc,
// tests/busy_path_test.cc) check the fast path against.
#ifndef SRC_HDL_SIMULATOR_H_
#define SRC_HDL_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <set>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/arena.h"
#include "src/hdl/elab_catalog.h"
#include "src/hdl/process.h"

namespace emu {

class EventScheduler;
class FaultRegistry;
class HazardMonitor;
class MetricsRegistry;
class Simulator;

namespace elab {
class Elaboration;
}  // namespace elab

// Anything with per-edge commit semantics (Reg, SyncFifo, CAM write ports...).
//
// In analysis builds (EMU_ANALYSIS) a Clocked element carries a back-pointer
// to its Simulator so its destructor can tombstone the registration slot:
// a later Step() then produces a hard POSTMORTEMSTEP diagnostic instead of
// the silent use-after-free the lifetime rule below would otherwise permit.
class Clocked {
 public:
  virtual ~Clocked();
  virtual void Commit() = 0;

 private:
  friend class Simulator;
  // Set while the element sits on its Simulator's dirty commit queue
  // (AnnounceDirty), so repeated mutations in one edge enqueue it once.
  bool commit_enqueued_ = false;
#ifdef EMU_ANALYSIS
  Simulator* analysis_owner_ = nullptr;
#endif
};

// Per-edge observer (VcdTracer and friends): OnEdge(now) runs after the
// commits of every executed edge with now() already advanced past it —
// exactly what the classic `Step(); Sample();` testbench loop observed.
// While any observer is attached every cycle is executed (no fast-forward),
// so observers see a gapless cycle stream.
class EdgeObserver {
 public:
  virtual ~EdgeObserver() = default;
  virtual void OnEdge(Cycle now) = 0;
};

// Scheduler statistics for one process (see Simulator::ProfileReport).
struct ProcessProfile {
  std::string name;
  u64 resumes = 0;       // coroutine resumptions (edges the body actually ran)
  u64 cycles_awake = 0;  // edges the scheduler did work for it (resume or poll)
  u64 polls = 0;         // parked-predicate evaluations
  // Wall time inside resumes. Exact under ProfilingMode::kFull; under
  // kSampled the resumes of one edge in sample_stride carry a clock pair, so
  // this is a 1-in-stride sample of the true total (scale by sample_stride
  // for an estimate). Those edges are not the ones the phase clocks time, so
  // the per-resume clock reads never inflate a phase estimate. Zero when
  // profiling is off.
  u64 wall_ns = 0;
};

// Wall-clock attribution granularity (see Simulator::SetProfilingMode).
enum class ProfilingMode : u8 {
  kOff = 0,      // counts only, no clock reads (the default)
  kSampled = 1,  // 1-in-stride edges timed: cheap enough to leave on in soaks
  kFull = 2,     // every edge and every resume timed (two clock reads each)
};

// Wall time attributed to one kernel phase while profiling was active.
// `calls` counts every entry into the phase; `timed_calls` counts the subset
// that carried a steady_clock pair (all of them under kFull, 1-in-stride
// under kSampled), and `wall_ns` is the time inside those timed entries.
struct PhaseProfile {
  u64 calls = 0;
  u64 timed_calls = 0;
  u64 wall_ns = 0;
  // Sample-scaled estimate of the phase's true total wall time.
  double EstimatedTotalNs() const {
    if (timed_calls == 0) {
      return 0.0;
    }
    return static_cast<double>(wall_ns) * static_cast<double>(calls) /
           static_cast<double>(timed_calls);
  }
};

struct SimProfile {
  // Whether wall-clock attribution was active when the report was taken.
  // The scalar counters below (edges_run, ...) are always valid; phase and
  // per-process wall numbers are only meaningful when `populated()`.
  bool profiling_enabled = false;
  ProfilingMode mode = ProfilingMode::kOff;
  u64 sample_stride = 1;          // 1 under kFull; the 1-in-N stride under kSampled
  u64 edges_run = 0;              // edges actually executed
  u64 cycles_fast_forwarded = 0;  // cycles skipped by quiescence jumps
  u64 jumps = 0;                  // number of fast-forward jumps
  u64 edges_timed = 0;            // executed edges that carried phase clock pairs
  // Kernel phases (src/obs/pulse.h exports these as JSON):
  PhaseProfile resume_dispatch;   // SweepProcesses: resume + parked-poll sweep
  PhaseProfile commit_sweep;      // CommitEdge: unconditional list + dirty queue
  PhaseProfile quiescence_scan;   // QuiescentWindow calls from Run/RunUntil
  PhaseProfile fast_forward;      // FastForward jumps (always timed when enabled)
  std::vector<ProcessProfile> processes;
  // True when the report carries actual wall-clock phase data (profiling was
  // on AND at least one phase was timed) — callers printing a phase table
  // should check this instead of printing all-zero rows.
  bool populated() const {
    return profiling_enabled &&
           (edges_timed > 0 || quiescence_scan.timed_calls > 0 ||
            fast_forward.timed_calls > 0);
  }
};

class Simulator {
 public:
  static constexpr u64 kNetFpgaClockHz = 200'000'000;  // NetFPGA SUME native rate (§5.1)

  explicit Simulator(u64 clock_hz = kNetFpgaClockHz);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  u64 clock_hz() const { return clock_hz_; }
  Picoseconds cycle_period_ps() const { return cycle_period_ps_; }

  Cycle now() const { return now_; }
  Picoseconds NowPs() const { return static_cast<Picoseconds>(now_) * cycle_period_ps_; }

  // Registers a process; it first runs on the next clock edge. Returns the
  // process's registration index — the handle elab::IoDecl uses to declare
  // its read/write sets.
  usize AddProcess(HwProcess process, std::string name);

  // Clocked elements register themselves on construction and promise that
  // every mutation that can leave them with a pending commit calls
  // AnnounceDirty(); the scheduler commits them only on dirty edges.
  //
  // LIFETIME RULE: a Clocked element and its Simulator may be destroyed in
  // either order, but Step() must never run after any registered element has
  // died (element destructors deliberately do not unregister, so a design
  // and its simulator can be torn down together in any member order).
  // UnregisterClocked exists for dynamic reconfiguration of a live design.
  void RegisterClocked(Clocked* element);
  void UnregisterClocked(Clocked* element);

  // Enqueues an element for commit on the current edge.
  // Idempotent per edge; called by the element's mutators on the clean→dirty
  // transition.
  void AnnounceDirty(Clocked* element) {
    if (!element->commit_enqueued_) {
      element->commit_enqueued_ = true;
      dirty_.push_back(element);
    }
  }

  // Advances one clock edge (always executed exactly; fast-forwarding only
  // happens inside Run/RunUntil).
  void Step();

  void Run(Cycle cycles);

  // Steps until `done()` is true (checked before each edge). Returns false
  // if `limit` edges elapse first. So that the fast path can skip quiescent
  // windows without missing the stop condition, `done` must be a pure
  // function of simulation state (FIFO occupancy, collected egress, ...) —
  // not of now(); bound time with `limit` instead.
  bool RunUntil(const std::function<bool()>& done, Cycle limit);

  usize live_process_count() const;

  usize process_count() const { return processes_.size(); }
  const std::string& process_name(usize index) const { return processes_[index].name; }

  // --- Quiescence control ---

  // Announces a mutation of wake-tracked state: every parked WaitUntil
  // predicate becomes eligible for re-evaluation. Call this form when the
  // mutated state has no cataloged identity (or from testbench context);
  // element mutators use NotifyWakeFor so routed mode can scope the wake.
  void NotifyWake() { ++wake_epoch_; }

  // Announces a mutation of element `element` (its catalog identity — the
  // address it registered under, e.g. `this` for a SyncFifo, the
  // CamInterface subobject for a Cam). With wake routing active only the
  // processes that declared IO on that element are marked for predicate
  // re-evaluation; otherwise (routing off, or an identity the route table
  // has never seen) this degrades to a global NotifyWake.
  void NotifyWakeFor(const void* element) {
    if (!wake_routes_active_) {
      ++wake_epoch_;
      return;
    }
    const usize mask = wake_routes_.size() - 1;
    for (usize i = WakeRouteHome(element);; i = (i + 1) & mask) {
      const WakeRoute& route = wake_routes_[i];
      if (route.count == 0) {
        ++wake_epoch_;  // an identity the table has never seen
        return;
      }
      if (route.element == element) {
        for (u32 k = 0; k < route.count; ++k) {
          sched_[wake_watchers_[route.first + k]].routed_stale = true;
        }
        return;
      }
    }
  }

  // Schedules a wake at `cycle` for time-dependent state changes that no
  // process announces (a FIFO stall expiring): the scheduler will execute
  // that edge and re-evaluate parked predicates there.
  void RequestWakeAt(Cycle cycle) { forced_wakes_.insert(cycle); }

  // Toggles the quiescence fast path (default on). With it off Run/RunUntil
  // execute every edge and evaluate every parked predicate per edge — the
  // reference semantics the equivalence suites compare against.
  void SetFastPath(bool enabled) { fast_path_ = enabled; }
  bool fast_path() const { return fast_path_; }

  // Attaches a FaultRegistry: Step() then samples its armed callback targets
  // once per edge (registry->Tick(now)) before processes run, and the fast
  // path consults NextTickDemand/NoteSkippedTicks so replay logs and
  // opportunity counts stay bit-identical to per-edge ticking. Also hands the
  // registry this clock's tick->ps scale so fault firings land on the trace
  // timeline (emu-scope). nullptr detaches. The registry must outlive the
  // attachment.
  void AttachFaultRegistry(FaultRegistry* registry);
  FaultRegistry* fault_registry() const { return fault_registry_; }

  // Attaches an EventScheduler whose pending events gate fast-forwarding:
  // the simulator never jumps past the fabric cycle of the next pending
  // event, so a testbench interleaving the two clock domains observes the
  // same interleaving with the fast path on or off. nullptr detaches.
  void AttachEventScheduler(EventScheduler* scheduler) { event_scheduler_ = scheduler; }

  // --- Per-edge observers (VCD tracers, ...) ---
  void AttachEdgeObserver(EdgeObserver* observer);
  void DetachEdgeObserver(EdgeObserver* observer);

  // --- Profiler ---
  // Resume/poll counts are always collected (they are a handful of
  // increments per edge); wall-clock attribution is off by default because
  // kFull adds two steady_clock reads per resume. kSampled times the phases
  // on one edge in `sample_stride` and the per-process resumes on another,
  // so the per-resume clock reads stay out of the phase estimates and the
  // clock reads amortize to a few per stride edges — cheap enough to leave
  // on for soak runs (bench/microbench_kernel --profile-overhead gates it
  // ≤5%). The sampling schedule restarts here: resumes are timed on edge
  // stride/2 and every stride edges after, phases on edge stride and every
  // stride edges after (stride 1: both on every edge), scans on every
  // stride-th scan.
  void SetProfilingMode(ProfilingMode mode, u64 sample_stride = kDefaultProfilingStride);
  ProfilingMode profiling_mode() const { return profiling_mode_; }
  SimProfile ProfileReport() const;

  static constexpr u64 kDefaultProfilingStride = 64;

  // Registers the kernel's scheduler statistics (the scalar SimProfile
  // fields) under `prefix` (e.g. "sim"): edges_run / cycles_fast_forwarded /
  // jumps counters plus a live_processes gauge.
  void RegisterMetrics(MetricsRegistry& metrics, const std::string& prefix) const;

  // --- Elaboration catalog (src/hdl/elab_catalog.h) ---
  // Construction-time record of the design: elements self-register here and
  // design code declares per-process IO. Read by the static analysis pass
  // (src/analysis/elab); never consulted by Step() itself.
  elab::Catalog& catalog() { return catalog_; }
  const elab::Catalog& catalog() const { return catalog_; }

  // Attaches a pre-flight elaboration (nullptr detaches): its PreFlight()
  // runs once, at the first Step()/Run() after attachment, against the
  // fully-constructed design. The elaboration object decides what to do with
  // findings (collect for a test, echo, abort on errors) and must outlive
  // the attachment.
  void AttachElaboration(elab::Elaboration* elaboration) {
    elaboration_ = elaboration;
    preflight_done_ = false;
  }
  elab::Elaboration* elaboration() const { return elaboration_; }

  // True while NotifyWakeFor routes to declared watchers (see the header
  // comment): set by the first Run/RunUntil when every process is
  // IO-declared, cleared by a later AddProcess.
  bool wake_routing_active() const { return wake_routes_active_; }

  // Arena backing the design's coroutine frames; wrap process construction
  // in CoroFrameArenaScope(sim.frame_arena()) to pack frames contiguously
  // and tie their storage to the Simulator's lifetime.
  BumpArena& frame_arena() { return frame_arena_; }

  // --- Analysis layer (src/analysis) ---
  // Attaches a HazardMonitor (nullptr detaches). The monitor only receives
  // events when the library is built with EMU_ANALYSIS; otherwise the kernel
  // contains no hooks and an attached monitor simply observes nothing.
  void AttachMonitor(HazardMonitor* monitor) { monitor_ = monitor; }
  HazardMonitor* monitor() const { return monitor_; }

  // Index of the process currently being resumed by Step(), or -1 between
  // processes / outside Step() (i.e. testbench context). Only maintained
  // while a monitor is attached.
  isize current_process_index() const { return current_process_; }

  // Graphviz dump of the process/signal dependency graph observed by the
  // attached monitor (process list only when no monitor is attached).
  void DumpDependencyGraph(std::ostream& os) const;

 private:
  friend class Clocked;

  // Called from ~Clocked in analysis builds: tombstones the registration
  // slot so the next Step() can diagnose instead of dereferencing a dead
  // element.
  void NotifyClockedDestroyed(Clocked* element);

#ifdef EMU_ANALYSIS
  // Step() with a monitor attached (or tombstoned elements to diagnose):
  // per-process bookkeeping lives here so the common path stays unchanged.
  void StepInstrumented();
#endif

  // Scheduling state for one process, struct-of-arrays style: the per-edge
  // sweep walks this table and only touches a coroutine frame to actually
  // resume it. Kept in sync with the promise announcement channel by
  // Reclassify().
  struct Slot {
    enum State : u8 {
      kRunnable = 0,  // resume on the next executed edge
      kSleeping,      // resume on the edge at wake_at
      kParked,        // resume on the first edge where wait_pred holds
      kDone,          // coroutine ran to completion
    };
    State state = kRunnable;
    // Routed-wake mark: a watched element mutated since the last predicate
    // evaluation (only meaningful while parked).
    bool routed_stale = false;
    Cycle wake_at = 0;
    bool (*wait_pred)(void*) = nullptr;
    void* wait_ctx = nullptr;
    u64 wait_epoch = kWaitEpochStale;
  };

  // Moves process `index`'s post-resume suspension announcement (promise
  // sleep/park fields) into its Slot and clears the promise.
  void Reclassify(usize index);

  // Resumes/polls every due process once (one edge's worth of process work).
  // `lazy` enables epoch/route-based parked-predicate skipping; `kTimed`
  // wraps each resume in a steady_clock pair (per-process wall attribution),
  // so an untimed edge runs a loop with no clock branch at all.
  // Returns the number of slots pinning the next edge (see pinned_).
  template <bool kTimed>
  usize SweepProcesses(bool lazy);

  // Drains the dirty queue.
  void CommitEdge();

  // The sweep + commit of an edge the profiler samples (sample_countdown_
  // reached 0): bills the profiled edges since the last sample to the phase
  // call counts, times either the phases or the per-process resumes (both
  // under stride 1) and reloads the countdown. Returns the sweep's pinned
  // count.
  usize SampledSweepAndCommit(bool lazy);

  // Profiled edges that ran since the last sampled edge and are not yet in
  // the phase call counts.
  u64 UnbilledProfiledEdges() const {
    return profiling_mode_ == ProfilingMode::kOff ? 0 : sample_reload_ - sample_countdown_;
  }

  // QuiescentWindow with phase accounting; falls through to the plain scan
  // when profiling is off.
  Cycle ProfiledQuiescentWindow(Cycle budget);

  // The Run/RunUntil loop: executes edges until `end` or until `done` (when
  // non-null) holds, fast-forwarding quiescent windows. Returns whether
  // `done` held.
  bool RunLoop(Cycle end, const std::function<bool()>* done);

  // Builds the element→watcher wake route table from the catalog's IO
  // declarations and activates routing, unless some process is undeclared.
  void BuildWakeRoutes();

  // Drops the wake route table and forces a global re-evaluation epoch.
  void DisableWakeRouting() {
    if (wake_routes_active_) {
      wake_routes_active_ = false;
      ++wake_epoch_;
    }
  }

  // Length of the quiescent window starting at now_ (0 = the next edge must
  // be executed), capped at `budget`.
  Cycle QuiescentWindow(Cycle budget);

  // Skips `cycles` edges in one jump (caller has proven the window
  // quiescent via QuiescentWindow).
  void FastForward(Cycle cycles);

  // Consumes forced wakes that have come due and bumps the wake epoch.
  void ConsumeForcedWakes() {
    bool any = false;
    while (!forced_wakes_.empty() && *forced_wakes_.begin() <= now_) {
      forced_wakes_.erase(forced_wakes_.begin());
      any = true;
    }
    if (any) {
      NotifyWake();
    }
  }

  struct NamedProcess {
    HwProcess process;
    std::string name;
  };

  struct ProcessStats {
    u64 resumes = 0;
    u64 cycles_awake = 0;
    u64 polls = 0;
    u64 wall_ns = 0;
  };

  // Runs the attached elaboration exactly once before the first edge.
  void RunPreFlight();

  // Declared first so it is destroyed last: coroutine frames allocated from
  // the arena are destroyed (handle.destroy()) when processes_ dies, which
  // must happen while their storage is still alive.
  BumpArena frame_arena_;

  u64 clock_hz_;
  Picoseconds cycle_period_ps_;
  Cycle now_ = 0;
  std::vector<NamedProcess> processes_;
  std::vector<Slot> sched_;   // parallel to processes_
  elab::Catalog catalog_;
  elab::Elaboration* elaboration_ = nullptr;
  bool preflight_done_ = false;
  std::vector<Clocked*> clocked_;  // every registered element (master list)
  std::vector<Clocked*> dirty_;    // elements pending commit
  HazardMonitor* monitor_ = nullptr;
  isize current_process_ = -1;
  usize dead_clocked_ = 0;

  // Quiescence state.
  bool fast_path_ = true;
  u64 wake_epoch_ = 0;
  std::multiset<Cycle> forced_wakes_;
  FaultRegistry* fault_registry_ = nullptr;
  EventScheduler* event_scheduler_ = nullptr;
  std::vector<EdgeObserver*> edge_observers_;
  // Slots the last executed edge left pinning the next one: runnable, parked
  // afresh, or sleeping until the next edge. Only a sweep moves slot state,
  // so a pinned slot stays pinned until the next edge runs and
  // QuiescentWindow would answer 0. A lower bound (0 after an instrumented
  // edge), which only costs a scan.
  usize pinned_ = 0;

  // Wake routing state.
  bool routes_built_ = false;  // the first Run/RunUntil tried BuildWakeRoutes
  bool wake_routes_active_ = false;
  // Element -> watcher table, open-addressed (power-of-two size, linear
  // probing, count == 0 marks an empty slot) so NotifyWakeFor costs one
  // multiply and usually one probe. Each entry names its run of watcher
  // process indices in wake_watchers_.
  struct WakeRoute {
    const void* element = nullptr;
    u32 first = 0;
    u32 count = 0;
  };
  std::vector<WakeRoute> wake_routes_;
  std::vector<u32> wake_watchers_;
  u32 wake_route_shift_ = 0;  // 64 - log2(wake_routes_.size())
  usize WakeRouteHome(const void* element) const {
    const u64 key = reinterpret_cast<std::uintptr_t>(element);
    return static_cast<usize>((key * 0x9E3779B97F4A7C15ull) >> wake_route_shift_);
  }

  // Profiler state. Counters (edges_run_ &c.) are always maintained; the
  // phase accumulators only move while profiling_mode_ != kOff.
  ProfilingMode profiling_mode_ = ProfilingMode::kOff;
  u64 sample_stride_ = kDefaultProfilingStride;
  // Sampling schedule (reset by SetProfilingMode). Step decrements
  // sample_countdown_ on every edge and samples the edge that takes it to 0;
  // sample_reload_ is the value it was last loaded with. kOff loads
  // kNeverSample, which no run reaches. Scans count down separately.
  static constexpr u64 kNeverSample = ~u64{0};
  u64 sample_countdown_ = kNeverSample;
  u64 sample_reload_ = kNeverSample;
  bool sample_phases_next_ = false;  // the next sampled edge times phases (else resumes)
  u64 scan_countdown_ = kDefaultProfilingStride;
  u64 edges_timed_ = 0;
  PhaseProfile phase_resume_;
  PhaseProfile phase_commit_;
  PhaseProfile phase_scan_;
  PhaseProfile phase_fast_forward_;
  std::vector<ProcessStats> stats_;
  u64 edges_run_ = 0;
  u64 cycles_fast_forwarded_ = 0;
  u64 jumps_ = 0;
};

}  // namespace emu

#endif  // SRC_HDL_SIMULATOR_H_
