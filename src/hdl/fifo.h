// Synchronous FIFO with RTL timing semantics.
//
// Within a cycle, Pop() returns the pre-edge head and Push() enqueues a value
// that becomes visible only after the edge commits, so a producer and a
// consumer touching the same FIFO in the same cycle behave like two RTL
// modules sharing a BRAM FIFO. Depth is enforced against committed occupancy
// plus same-cycle pushes.
//
// Storage is one power-of-two ring of T. From the head it holds the committed
// items, then this cycle's pushes; a Pop moves the head slot's value out and
// advances the head, a Push writes the slot after the last pending item. The
// pending region starts at head + committed, which a pop leaves in place, so
// Commit() moves no data: it folds the pending count into the committed count
// (and wakes consumers when there were pushes). Every port operation and the
// commit are O(1) on the busy path.
//
// Growth follows occupancy, not depth: a ring starts with no storage and
// doubles only when a push finds it full, so a deep FIFO that never fills
// costs no more memory than its peak occupancy (rounded up to a power of
// two). Popped slots keep moved-from values (an empty Packet owns no heap).
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
#include <memory>
#include <string>

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
  usize Size() const { return Stalled() ? 0 : committed_; }
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
      if (pending_ == 0) {
        sim_.AnnounceDirty(this);
      }
      if (committed_ + pending_ == capacity_) [[unlikely]] {
        Grow();
      }
      ring_[(head_ + committed_ + pending_) & (capacity_ - 1)] = std::move(value);
      ++pending_;
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
    return ring_[head_];
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
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) & (capacity_ - 1);
    --committed_;
    if (++pop_count_ == 1) {
      // A pop leaves Commit() nothing to move, but it still enqueues one:
      // the dirty queue is the quiescence scan's "an edge is pending commit"
      // test, so announcing pops keeps the run loop's edge, jump and
      // fast-forward decisions what they are pinned to (MicrobenchEdgeSplitIsPinned).
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
    pop_count_ = 0;
    if (pending_ != 0) {
      // Pushed items become visible to consumers at this edge's commit; wake
      // parked consumers for the next edge. (Pops need no commit-time wake:
      // Size/CanPush already accounted for them at Pop() time.)
      committed_ += pending_;
      pending_ = 0;
      sim_.NotifyWakeFor(this);
    }
  }

 private:
  bool CanPushRaw() const { return !Stalled() && committed_ + pending_ < depth_; }

  // Doubles the ring (first allocation: one slot) and unwraps it so the head
  // lands on slot 0. Only called by a push that found every slot in use, so
  // the ring never outgrows the FIFO's peak occupancy rounded up to a power
  // of two.
  void Grow() {
    const usize used = committed_ + pending_;
    const usize capacity = capacity_ == 0 ? 1 : capacity_ * 2;
    auto ring = std::make_unique<T[]>(capacity);
    for (usize i = 0; i < used; ++i) {
      ring[i] = std::move(ring_[(head_ + i) & (capacity_ - 1)]);
    }
    ring_ = std::move(ring);
    capacity_ = capacity;
    head_ = 0;
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
  std::unique_ptr<T[]> ring_;
  usize capacity_ = 0;   // slots in ring_: 0 or a power of two
  usize head_ = 0;       // slot of the oldest committed, unpopped item
  usize committed_ = 0;  // committed items not yet popped
  usize pending_ = 0;    // this cycle's pushes, in the slots after the committed items
  usize pop_count_ = 0;  // this cycle's pops
  Cycle stall_until_ = 0;
};

}  // namespace emu

#endif  // SRC_HDL_FIFO_H_
