#include "src/ip/cam.h"

#include <cassert>

namespace emu {

Cam::Cam(Simulator& sim, std::string name, usize entries, usize key_bits, usize value_bits)
    : Module(sim, std::move(name)),
      key_bits_(key_bits),
      key_mask_(key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits) - 1),
      slots_(entries) {
  assert(entries > 0);
  assert(key_bits > 0 && key_bits <= 64);
  AddResources(CamIpResources(entries, key_bits, value_bits));
  sim.RegisterClocked(this);
  // Register the CamInterface subobject address: designs that hold the CAM
  // behind a unique_ptr<CamInterface> declare IO with that pointer, which
  // differs numerically from `this` under multiple inheritance.
  sim.catalog().AddElement(static_cast<const CamInterface*>(this), elab::NodeKind::kCam,
                           this->name());
}

// See the lifetime rule in simulator.h: no unregistration on destruction.
Cam::~Cam() = default;

CamLookupResult Cam::Lookup(u64 key) const {
  const u64 masked = key & key_mask_;
  // A hardware CAM matches all entries in parallel and priority-encodes the
  // lowest index; the linear scan models exactly that selection rule.
  for (usize i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].key == masked) {
      return CamLookupResult{true, slots_[i].value, i};
    }
  }
  return CamLookupResult{};
}

void Cam::Write(usize index, u64 key, u64 value) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{true, key & key_mask_, value}});
}

void Cam::Invalidate(usize index) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{}});
}

void Cam::InjectBitFlip(u64 bit) {
  const usize slot_bits = 1 + key_bits_;
  const usize index = static_cast<usize>(bit / slot_bits) % slots_.size();
  const usize in_slot = static_cast<usize>(bit % slot_bits);
  Slot& slot = slots_[index];
  if (in_slot == 0) {
    slot.valid = !slot.valid;
  } else {
    slot.key = (slot.key ^ (u64{1} << (in_slot - 1))) & key_mask_;
  }
  // Committed state changed out-of-band; wake parked Lookup predicates.
  sim().NotifyWake();
}

void Cam::Commit() {
  if (pending_.empty()) {
    return;
  }
  for (const PendingWrite& write : pending_) {
    slots_[write.index] = write.slot;
  }
  pending_.clear();
  // Lookup() results change at this edge; a process parked on a hit/miss
  // predicate must be re-evaluated. The wake identity is the CamInterface
  // subobject — the same address the catalog registered.
  sim().NotifyWakeFor(static_cast<const CamInterface*>(this));
}

}  // namespace emu
