#include "src/ip/logic_cam.h"

#include <cassert>

namespace emu {

LogicCam::LogicCam(Simulator& sim, std::string name, usize entries, usize key_bits,
                   usize value_bits)
    : Module(sim, std::move(name)),
      key_mask_(key_bits >= 64 ? ~u64{0} : (u64{1} << key_bits) - 1),
      slots_(entries) {
  assert(entries > 0);
  assert(key_bits > 0 && key_bits <= 64);
  AddResources(LogicCamResources(entries, key_bits, value_bits));
  sim.RegisterClocked(this);
  // CamInterface subobject address, for the same reason as Cam.
  sim.catalog().AddElement(static_cast<const CamInterface*>(this), elab::NodeKind::kCam,
                           this->name());
}

// See the lifetime rule in simulator.h: no unregistration on destruction.
LogicCam::~LogicCam() = default;

CamLookupResult LogicCam::Lookup(u64 key) const {
  const u64 masked = key & key_mask_;
  for (usize i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].key == masked) {
      return CamLookupResult{true, slots_[i].value, i};
    }
  }
  return CamLookupResult{};
}

void LogicCam::Write(usize index, u64 key, u64 value) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{true, key & key_mask_, value}});
}

void LogicCam::Invalidate(usize index) {
  assert(index < slots_.size());
  if (pending_.empty()) {
    sim().AnnounceDirty(this);
  }
  pending_.push_back(PendingWrite{index, Slot{}});
}

void LogicCam::Commit() {
  if (pending_.empty()) {
    return;
  }
  for (const PendingWrite& write : pending_) {
    slots_[write.index] = write.slot;
  }
  pending_.clear();
  // Same wake rule as the IP CAM: committed lookup results just changed.
  sim().NotifyWakeFor(static_cast<const CamInterface*>(this));
}

}  // namespace emu
