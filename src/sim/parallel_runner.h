// Conservative parallel execution of a sharded topology (emu-par).
//
// A topology is partitioned into shards — one EventScheduler (and the hosts
// or service nodes it drives) per shard. Shards share no simulation state;
// the only coupling is the inter-shard links, whose minimum transit time
// (serialization floor + propagation delay) is a hard lower bound on how
// soon one shard's actions can become visible to another. That bound is the
// classic conservative-PDES lookahead: in each epoch every shard may run all
// events strictly before its inbound horizon
//
//   lb(r)      = next_event_time(r), then relaxed through every cut edge
//                lb(to) = min(lb(to), lb(from) + min_transit(from->to))
//                to a fixpoint (batched Chandy-Misra null messages)
//   horizon(s) = min over inbound links l from shard r of
//                lb(r) + min_transit(l)
//
// without ever receiving a frame "from the past". The relaxation step is
// what makes an IDLE shard safe: a shard with an empty queue is not silent
// for the epoch — a frame arriving mid-epoch can wake it and make it send
// (a hub between chatty hosts is the canonical case) — so its earliest
// possible action is bounded through its own inbound edges, not assumed
// infinite. Positive lookaheads guarantee both convergence of the fixpoint
// (<= |shards| sweeps) and forward progress of at least the minimum
// lookahead per epoch. Cross-shard frames travel
// through per-shard inbox queues (mutex-guarded; contention is one push per
// frame), stamped with their absolute arrival time, the routed direction's
// id, and a per-direction FIFO sequence assigned by the sender. Between
// epochs the runner drains each inbox in (arrival, link, seq) order — a
// canonical order independent of thread interleaving — so the receiving
// scheduler assigns the same tie-break sequence numbers every run.
//
// Determinism: a shard's epoch depends only on its own queue, its horizon,
// and its drained inbox, all of which are fixed at the epoch barrier. Worker
// threads therefore cannot affect results — Run(threads=N) is bit-exact
// against Run(threads=1), which executes the identical epoch schedule
// inline. Each ServiceNode's embedded Simulator keeps its quiescence
// fast-forward: idle stretches inside a shard are jumped, not stepped.
#ifndef SRC_SIM_PARALLEL_RUNNER_H_
#define SRC_SIM_PARALLEL_RUNNER_H_

#include <memory>
#include <mutex>
#include <vector>

#include "src/sim/event_scheduler.h"
#include "src/sim/link.h"

namespace emu {

namespace obs {
class RunnerPulse;
}  // namespace obs

struct ParallelRunOptions {
  // Worker threads; 1 runs the same epoch schedule inline (the bit-exact
  // serial reference). Clamped to the shard count.
  usize threads = 1;
  // Global event budget; checked at epoch barriers, so a run may overshoot
  // by at most one epoch.
  usize max_events = 10'000'000;
};

// One registered cross-shard link direction: the shard boundary it crosses
// and its conservative lookahead. Recorded by ConnectDirection for the
// static SHARDCUT check (src/analysis/elab) — the in-function assert on a
// positive transit floor compiles out under NDEBUG, but a zero-lookahead cut
// still makes the epoch horizon degenerate, so lint must see it.
struct ShardCut {
  usize from = 0;
  usize to = 0;
  u64 link_id = 0;
  Picoseconds lookahead = 0;
};

class ParallelRunner {
 public:
  ParallelRunner() = default;
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  // Registers a shard around `scheduler` (which must outlive the runner) and
  // returns its shard id.
  usize AddShard(EventScheduler& scheduler);

  // Routes `link`'s `to_b` direction across the shard boundary from `from`
  // (where the sender lives) into `to` (where the receiving end's callbacks
  // run). Impairment composes (see Link::EnableImpairment); the link's
  // transit floor must be positive — zero lookahead admits no conservative
  // window.
  void ConnectDirection(Link& link, bool to_b, usize from, usize to);

  // Runs all shards to quiescence (or the event budget); returns the number
  // of events executed. Identical results for any `threads` value.
  u64 Run(const ParallelRunOptions& opts = {});

  usize shard_count() const { return shards_.size(); }
  // Epoch barriers crossed over this runner's lifetime (for tests/bench).
  u64 epochs() const { return epochs_; }
  // Every registered cross-shard link direction, for static validation.
  const std::vector<ShardCut>& cuts() const { return cuts_; }

  // Attaches a wall-clock epoch recorder (emu-pulse; nullptr detaches). The
  // pulse must outlive the attachment. Recording is pure observation of HOST
  // time: it never touches simulation state, so attached or not, results —
  // including the deterministic trace — are bit-identical.
  void AttachPulse(obs::RunnerPulse* pulse) { pulse_ = pulse; }
  obs::RunnerPulse* pulse() const { return pulse_; }

  // Cumulative conservative-plan statistics (maintained with or without a
  // pulse attached; deterministic functions of the workload).
  u64 relax_sweeps() const { return relax_sweeps_; }
  u64 null_message_relaxations() const { return null_message_relaxations_; }
  u64 frames_drained() const { return frames_drained_; }

 private:
  struct PendingDelivery {
    Picoseconds arrival = 0;
    u64 link_id = 0;
    u64 seq = 0;
    Link* link = nullptr;
    bool to_b = true;
    Packet frame;
  };
  struct InboundEdge {
    usize from = 0;
    Picoseconds lookahead = 0;
  };
  struct Shard {
    usize index = 0;
    EventScheduler* scheduler = nullptr;
    std::vector<InboundEdge> inbound;
    std::mutex inbox_mu;
    std::vector<PendingDelivery> inbox;
    // PlanEpoch's drain buffer (coordinator only; empty between plans).
    std::vector<PendingDelivery> drain;
    // Per-epoch plan (written at the barrier, read by one worker).
    Picoseconds horizon = 0;
    usize budget = 0;
    usize epoch_executed = 0;
    // Wall stamps of this shard's epoch work (ns since RunnerPulse base);
    // written by the worker that ran the epoch, read by the coordinator
    // after the done barrier. Only maintained while a pulse is attached.
    u64 work_begin_ns = 0;
    u64 work_end_ns = 0;
  };

  // Drains inboxes, snapshots next-event times, computes horizons and
  // budgets. Returns false when every shard is quiescent.
  bool PlanEpoch(usize budget);
  void RunShardEpoch(Shard& shard);

  // Stamps per-shard epoch records into the pulse after an epoch closes
  // (coordinator only; `epoch_end_ns` is the done-barrier wall stamp).
  void FlushEpochRecords(u64 epoch_end_ns);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<ShardCut> cuts_;
  u64 next_link_id_ = 0;
  // PlanEpoch's per-shard earliest-action bounds, reused across epochs.
  std::vector<Picoseconds> lb_scratch_;
  u64 epochs_ = 0;
  u64 relax_sweeps_ = 0;
  u64 null_message_relaxations_ = 0;
  u64 frames_drained_ = 0;
  obs::RunnerPulse* pulse_ = nullptr;
};

}  // namespace emu

#endif  // SRC_SIM_PARALLEL_RUNNER_H_
