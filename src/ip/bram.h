// On-chip block RAM.
//
// Single-cycle, constant-latency storage — the "on-chip memory" option of
// §5.4 (NetFPGA SUME has 51 MB of it; low constant latency, limited size).
// Reads return committed contents; writes land after the next edge.
#ifndef SRC_IP_BRAM_H_
#define SRC_IP_BRAM_H_

#include <vector>

#include "src/common/types.h"
#include "src/hdl/module.h"

namespace emu {

class Bram : public Module, public Clocked {
 public:
  static constexpr Cycle kReadLatency = 1;

  Bram(Simulator& sim, std::string name, usize words, usize word_bits);
  ~Bram() override;

  usize words() const { return data_.size(); }
  usize word_bits() const { return word_bits_; }
  Cycle read_latency() const { return kReadLatency; }

  u64 Read(usize addr) const;
  void Write(usize addr, u64 value);

  // SEU-style fault injection (emu-fault): flips one committed bit. `bit`
  // indexes the whole array (addr = bit / word_bits, bit-in-word = bit %
  // word_bits), matching the bit_count an SEU target registers.
  void InjectBitFlip(u64 bit);

  void Commit() override;

 private:
  struct PendingWrite {
    usize addr;
    u64 value;
  };

  usize word_bits_;
  u64 word_mask_;
  std::vector<u64> data_;
  std::vector<PendingWrite> pending_;
};

}  // namespace emu

#endif  // SRC_IP_BRAM_H_
