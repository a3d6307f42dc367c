#include "src/sim/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <limits>
#include <thread>
#include <tuple>

#include "src/obs/pulse.h"
#include "src/obs/trace.h"

namespace emu {
namespace {

constexpr Picoseconds kNever = std::numeric_limits<Picoseconds>::max();

}  // namespace

usize ParallelRunner::AddShard(EventScheduler& scheduler) {
  auto shard = std::make_unique<Shard>();
  shard->index = shards_.size();
  shard->scheduler = &scheduler;
  shards_.push_back(std::move(shard));
  return shards_.size() - 1;
}

void ParallelRunner::ConnectDirection(Link& link, bool to_b, usize from, usize to) {
  assert(from < shards_.size() && to < shards_.size());
  assert(from != to && "a link direction within one shard needs no routing");
  const Picoseconds lookahead = link.MinTransitPs();
  assert(lookahead > 0 && "zero-lookahead link admits no conservative window");
  const u64 link_id = next_link_id_++;
  // The assert above vanishes in release builds; the recorded cut lets the
  // static SHARDCUT check (src/analysis/elab) enforce the same rule always.
  cuts_.push_back(ShardCut{from, to, link_id, lookahead});
  Shard& receiver = *shards_[to];
  receiver.inbound.push_back(InboundEdge{from, lookahead});
  link.RouteRemote(to_b, *shards_[from]->scheduler, link_id,
                   [&receiver, &link, to_b](Link::RemoteFrame rf) {
                     std::lock_guard<std::mutex> lock(receiver.inbox_mu);
                     receiver.inbox.push_back(PendingDelivery{
                         rf.arrival, rf.link_id, rf.seq, &link, to_b, std::move(rf.frame)});
                   });
}

bool ParallelRunner::PlanEpoch(usize budget) {
  const u64 plan_begin_ns = pulse_ != nullptr ? pulse_->NowNs() : 0;
  u64 drained = 0;
  // Drain every inbox in canonical (arrival, link, seq) order so the
  // receiving scheduler's tie-break sequence numbers are independent of the
  // order worker threads pushed the frames.
  for (auto& entry : shards_) {
    Shard& shard = *entry;
    // The drain buffer trades places with the inbox, so both vectors keep
    // their capacity across epochs and a steady state allocates nothing.
    std::vector<PendingDelivery>& pending = shard.drain;
    {
      std::lock_guard<std::mutex> lock(shard.inbox_mu);
      pending.swap(shard.inbox);
    }
    if (pending.size() > 1) {
      std::sort(pending.begin(), pending.end(),
                [](const PendingDelivery& a, const PendingDelivery& b) {
                  return std::tie(a.arrival, a.link_id, a.seq) <
                         std::tie(b.arrival, b.link_id, b.seq);
                });
    }
    drained += pending.size();
    for (PendingDelivery& delivery : pending) {
      shard.scheduler->At(delivery.arrival,
                          [link = delivery.link, to_b = delivery.to_b,
                           frame = std::move(delivery.frame)]() mutable {
                            link->CompleteRemote(std::move(frame), to_b);
                          });
    }
    pending.clear();
  }
  frames_drained_ += drained;

  bool any_pending = false;
  std::vector<Picoseconds>& lb = lb_scratch_;
  lb.assign(shards_.size(), kNever);
  for (usize i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->scheduler->Empty()) {
      lb[i] = shards_[i]->scheduler->NextEventTime();
      any_pending = true;
    }
  }
  if (!any_pending) {
    return false;
  }
  // Transitive earliest-action bound. A shard with an empty queue is NOT
  // silent for the epoch: a frame arriving mid-epoch can wake it and make it
  // send (a hub shard between chatty hosts is the canonical case). Relax the
  // next-event times through the cut edges to a fixpoint — batched
  // Chandy-Misra null messages; positive lookaheads guarantee convergence in
  // at most |shards| sweeps — so lb[i] bounds the earliest time shard i can
  // execute ANY event this epoch, woken or not. lb starts as the
  // next-event times gathered above.
  u64 sweeps = 0;
  u64 relaxations = 0;
  for (bool changed = true; changed;) {
    changed = false;
    ++sweeps;
    for (auto& entry : shards_) {
      Shard& shard = *entry;
      for (const InboundEdge& edge : shard.inbound) {
        if (lb[edge.from] == kNever) {
          continue;
        }
        const Picoseconds candidate = lb[edge.from] + edge.lookahead;
        if (candidate < lb[shard.index]) {
          lb[shard.index] = candidate;
          changed = true;
          ++relaxations;
        }
      }
    }
  }
  relax_sweeps_ += sweeps;
  null_message_relaxations_ += relaxations;
  for (auto& entry : shards_) {
    Shard& shard = *entry;
    Picoseconds horizon = kNever;
    for (const InboundEdge& edge : shard.inbound) {
      if (lb[edge.from] == kNever) {
        continue;  // nothing anywhere can ever reach this sender: truly silent
      }
      horizon = std::min(horizon, lb[edge.from] + edge.lookahead);
    }
    shard.horizon = horizon;
    shard.budget = budget;
    shard.epoch_executed = 0;
  }
  ++epochs_;
  if (pulse_ != nullptr) {
    obs::PlanRecord record;
    record.epoch = epochs_;
    record.begin_ns = plan_begin_ns;
    record.wall_ns = pulse_->NowNs() - plan_begin_ns;
    record.relax_sweeps = sweeps;
    record.relaxations = relaxations;
    record.frames_drained = drained;
    pulse_->RecordPlan(record);
  }
  return true;
}

void ParallelRunner::FlushEpochRecords(u64 epoch_end_ns) {
  for (auto& entry : shards_) {
    Shard& shard = *entry;
    obs::ShardEpochRecord record;
    record.epoch = epochs_;
    record.shard = static_cast<u32>(shard.index);
    record.horizon_ps = shard.horizon == kNever ? -1 : shard.horizon;
    record.executed = shard.epoch_executed;
    record.work_begin_ns = shard.work_begin_ns;
    record.work_end_ns = shard.work_end_ns;
    record.barrier_wait_ns =
        epoch_end_ns > shard.work_end_ns ? epoch_end_ns - shard.work_end_ns : 0;
    pulse_->RecordShardEpoch(record);
  }
}

void ParallelRunner::RunShardEpoch(Shard& shard) {
  // Bind the shard's trace buffer to whichever thread runs this epoch:
  // events land in per-shard buffers regardless of the worker interleaving,
  // which is what makes the merged trace independent of the thread count.
  obs::TraceSession* session = obs::TraceSession::Current();
  obs::TraceBuffer* previous = obs::ActiveBuffer();
  if (session != nullptr) {
    obs::BindThreadToShard(session, shard.index);
  }
  if (pulse_ != nullptr) {
    // Worker-side wall stamps: safe concurrently (NowNs only reads the run
    // base) and each worker owns its shards' fields for the epoch.
    shard.work_begin_ns = pulse_->NowNs();
    shard.epoch_executed = shard.scheduler->RunWhileBefore(shard.horizon, shard.budget);
    shard.work_end_ns = pulse_->NowNs();
  } else {
    shard.epoch_executed = shard.scheduler->RunWhileBefore(shard.horizon, shard.budget);
  }
  if (session != nullptr) {
    obs::BindThreadToBuffer(previous);
  }
}

u64 ParallelRunner::Run(const ParallelRunOptions& opts) {
  const usize threads =
      std::max<usize>(1, std::min(opts.threads, shards_.size()));
  if (obs::TraceSession* session = obs::TraceSession::Current()) {
    // Grow the shard buffers before workers exist; EnsureShards is
    // single-threaded by contract.
    session->EnsureShards(shards_.size());
  }
  if (pulse_ != nullptr) {
    pulse_->BeginRun(shards_.size(), threads);
  }
  u64 total = 0;
  const auto remaining = [&]() -> usize {
    return opts.max_events > total ? static_cast<usize>(opts.max_events - total) : 0;
  };

  if (threads == 1) {
    while (remaining() > 0 && PlanEpoch(remaining())) {
      for (auto& shard : shards_) {
        RunShardEpoch(*shard);
        total += shard->epoch_executed;
      }
      if (pulse_ != nullptr) {
        FlushEpochRecords(pulse_->NowNs());
      }
    }
    if (pulse_ != nullptr) {
      pulse_->EndRun(total);
    }
    return total;
  }

  std::barrier<> start_gate(static_cast<std::ptrdiff_t>(threads) + 1);
  std::barrier<> done_gate(static_cast<std::ptrdiff_t>(threads) + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (usize w = 0; w < threads; ++w) {
    workers.emplace_back([this, w, threads, &start_gate, &done_gate, &stop] {
      for (;;) {
        start_gate.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) {
          return;
        }
        // Contiguous block partition: topology builders register each
        // service node right before its hosts, so a block keeps a node and
        // its hosts on one worker while different nodes (the heavy shards)
        // land on different workers.
        const usize begin = w * shards_.size() / threads;
        const usize end = (w + 1) * shards_.size() / threads;
        for (usize i = begin; i < end; ++i) {
          RunShardEpoch(*shards_[i]);
        }
        done_gate.arrive_and_wait();
      }
    });
  }
  for (;;) {
    // The plan (drain + horizons) runs single-threaded between barriers;
    // workers only ever touch their own shards inside an epoch.
    const bool more = remaining() > 0 && PlanEpoch(remaining());
    if (!more) {
      stop.store(true, std::memory_order_release);
      start_gate.arrive_and_wait();
      break;
    }
    start_gate.arrive_and_wait();
    done_gate.arrive_and_wait();
    // Epoch closed: every worker has passed the done barrier, so the shard
    // stamps are safely visible here (barrier = release/acquire).
    if (pulse_ != nullptr) {
      FlushEpochRecords(pulse_->NowNs());
    }
    for (auto& shard : shards_) {
      total += shard->epoch_executed;
    }
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  if (pulse_ != nullptr) {
    pulse_->EndRun(total);
  }
  return total;
}

}  // namespace emu
