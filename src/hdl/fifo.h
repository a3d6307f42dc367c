// Synchronous FIFO with RTL timing semantics.
//
// Within a cycle, Pop() returns the pre-edge head and Push() enqueues a value
// that becomes visible only after the edge commits, so a producer and a
// consumer touching the same FIFO in the same cycle behave like two RTL
// modules sharing a BRAM FIFO. Depth is enforced against committed occupancy
// plus same-cycle pushes.
//
// Design rule (enforced by emu-check in analysis builds): consult CanPush()
// before Push() in the same cycle. A Push() that returns false without a
// same-cycle CanPush() query is the LOSTBACKPRESSURE hazard — silently
// dropped data.
#ifndef SRC_HDL_FIFO_H_
#define SRC_HDL_FIFO_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "src/hdl/resource_model.h"
#include "src/hdl/simulator.h"
#include "src/obs/trace_hooks.h"

#ifdef EMU_ANALYSIS
#include "src/analysis/hazard_monitor.h"
#endif

namespace emu {

template <typename T>
class SyncFifo : public Clocked {
 public:
  // `word_bits` feeds the resource model (a FIFO of 512 x 256-bit words costs
  // more BRAM than one of 16 x 8-bit words).
  SyncFifo(Simulator& sim, usize depth, usize word_bits)
      : SyncFifo(sim, std::string(), depth, word_bits) {}

  SyncFifo(Simulator& sim, std::string name, usize depth, usize word_bits)
      : sim_(sim),
        name_(std::move(name)),
        depth_(depth),
        resources_(FifoResources(depth, word_bits)) {
    if (depth == 0) {
      Fatal("constructed with depth 0");
    }
    // Self-announcing: Push/Pop call AnnounceDirty on the clean→dirty
    // transition, so the scheduler commits this FIFO only on edges where a
    // port was actually used.
    sim_.RegisterClocked(this);
    sim_.catalog().AddElement(this, elab::NodeKind::kFifo, name_, /*no_init=*/false, depth);
  }

  SyncFifo(const SyncFifo&) = delete;
  SyncFifo& operator=(const SyncFifo&) = delete;

  // Intentionally does NOT unregister: see the lifetime rule in simulator.h
  // (a Clocked element and its Simulator may be torn down in either order,
  // provided Step() is never called after the element dies).
  ~SyncFifo() override = default;

  const std::string& name() const { return name_; }
  usize depth() const { return depth_; }
  const ResourceUsage& resources() const { return resources_; }

  // Committed occupancy minus same-cycle pops (what the consumer side sees).
  // A stalled FIFO reads as empty: the consumer port is frozen.
  usize Size() const { return Stalled() ? 0 : items_.size() - pop_count_; }
  bool Empty() const { return Size() == 0; }

  // Fault injection (emu-fault): freezes both ports for `cycles` cycles —
  // producers see full, consumers see empty; contents are preserved. A
  // CanPush()-honouring producer backpressures through the stall; one that
  // pushes blind surfaces as LOSTBACKPRESSURE in analysis builds.
  void InjectStall(Cycle cycles) {
    stall_until_ = std::max(stall_until_, sim_.now() + static_cast<Cycle>(cycles));
    // The stall ends by the clock, not by any process's action: schedule a
    // forced wake so parked consumers/producers re-evaluate at expiry.
    sim_.RequestWakeAt(stall_until_);
    // Only predicates over this FIFO's occupancy can observe the stall
    // (expiry re-wakes globally via the forced wake above).
    sim_.NotifyWakeFor(this);
  }
  bool Stalled() const { return sim_.now() < stall_until_; }

  bool CanPush() const {
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoCanPush(this, name_);
    }
#endif
    return CanPushRaw();
  }

  // CanPush() without the emu-check observation hook, for WaitUntil wake
  // predicates: a parked producer polling for space is not "consulting
  // backpressure before a push" and must not register as such. Use CanPush()
  // on the cycle you actually push.
  bool PollCanPush() const { return CanPushRaw(); }

  // Returns false (and drops nothing) when full, mirroring backpressure.
  bool Push(T value) {
    const bool accepted = CanPushRaw();
    if (accepted) {
      // Packet flight recorder: a traced frame entering a named FIFO opens a
      // residency span (closed by the Pop that drains it).
      if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
        const u64 flight = obs::FrameTraceId(value);
        if (flight != 0 && !name_.empty()) {
          obs::EmitAsyncBegin(tb, name_, sim_.NowPs(), flight);
        }
      }
      if (pending_push_.empty()) {
        sim_.AnnounceDirty(this);
      }
      pending_push_.push_back(std::move(value));
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPush(this, name_, accepted);
    }
#endif
    return accepted;
  }

  const T& Front() const {
    if (Empty()) [[unlikely]] {
      Fatal("Front() on empty FIFO (underflow)");
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPop(this, name_);
    }
#endif
    return items_[pop_count_];
  }

  T Pop() {
    if (Empty()) [[unlikely]] {
      Fatal("Pop() on empty FIFO (underflow)");
    }
#ifdef EMU_ANALYSIS
    if (HazardMonitor* m = sim_.monitor()) {
      m->OnFifoPop(this, name_);
    }
#endif
    T value = std::move(items_[pop_count_]);
    ++pop_count_;
    if (pop_count_ == 1) {
      // Deferring the commit-time erase would be state-neutral (Size/CanPush/
      // Front already index past popped items), but an uncommitted pop
      // backlog would grow without bound; enqueue a commit so popped storage
      // is reclaimed at this edge.
      sim_.AnnounceDirty(this);
    }
    if (obs::TraceBuffer* tb = obs::ActiveBuffer()) {
      const u64 flight = obs::FrameTraceId(value);
      if (flight != 0 && !name_.empty()) {
        obs::EmitAsyncEnd(tb, name_, sim_.NowPs(), flight);
      }
    }
    // Space freed by a pop is visible to CanPush in the same cycle: a parked
    // producer registered after this consumer must re-evaluate this edge.
    sim_.NotifyWakeFor(this);
    return value;
  }

  void Commit() override {
    items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(pop_count_));
    pop_count_ = 0;
    if (!pending_push_.empty()) {
      // Pushed items become visible to consumers at this edge's commit; wake
      // parked consumers for the next edge. (Pops need no commit-time wake:
      // Size/CanPush already accounted for them at Pop() time.)
      sim_.NotifyWakeFor(this);
    }
    for (auto& value : pending_push_) {
      items_.push_back(std::move(value));
    }
    pending_push_.clear();
  }

 private:
  bool CanPushRaw() const {
    return !Stalled() && items_.size() - pop_count_ + pending_push_.size() < depth_;
  }

  // Underflow/misuse is UB in RTL terms; stop with an attributable message
  // (the bare assert() this replaces vanished in NDEBUG builds and named no
  // element when it did fire).
  [[noreturn]] void Fatal(const char* what) const {
    std::fprintf(stderr, "emu: fatal: SyncFifo '%s': %s\n",
                 name_.empty() ? "<anonymous>" : name_.c_str(), what);
    std::abort();
  }

  Simulator& sim_;
  std::string name_;
  usize depth_;
  ResourceUsage resources_;
  std::deque<T> items_;
  std::vector<T> pending_push_;
  usize pop_count_ = 0;
  Cycle stall_until_ = 0;
};

}  // namespace emu

#endif  // SRC_HDL_FIFO_H_
