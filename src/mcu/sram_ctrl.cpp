#include "mcu/sram_ctrl.hpp"

#include <algorithm>

namespace ascp::mcu {

void SramController::serialize_mem(StateArchive& ar) {
  if (ar.saving() && mem_.empty()) {
    ar.fill(0, kSamples * sizeof(std::uint16_t));  // kSamples zero words
    return;
  }
  mem_.resize(kSamples);
  for (auto& w : mem_) ar.value(w);
  if (!ar.saving() && std::all_of(mem_.begin(), mem_.end(), [](std::uint16_t w) { return w == 0; }))
    std::vector<std::uint16_t>().swap(mem_);
}

std::uint16_t SramController::read_reg(std::uint16_t reg) {
  switch (reg) {
    case 1: return node_;
    case 2: return decim_;
    case 3: return static_cast<std::uint16_t>(count_ > 0xFFFF ? 0xFFFF : count_);
    case 4: return static_cast<std::uint16_t>(rdptr_);
    case 5: {
      const std::uint16_t v = mem_.empty() ? 0 : mem_[rdptr_ % kSamples];
      rdptr_ = (rdptr_ + 1) % kSamples;
      return v;
    }
    case 6: return static_cast<std::uint16_t>((full() ? 1 : 0) | (armed_ ? 2 : 0));
    default: return 0;
  }
}

void SramController::write_reg(std::uint16_t reg, std::uint16_t value) {
  switch (reg) {
    case 0:
      if (value & 2) {
        count_ = 0;
        decim_phase_ = 0;
      }
      armed_ = value & 1;
      break;
    case 1: node_ = value; break;
    case 2: decim_ = value == 0 ? 1 : value; break;
    case 4: rdptr_ = value % kSamples; break;
    default: break;
  }
}

bool SramController::push(std::uint16_t node, std::uint16_t sample) {
  if (!armed_ || node != node_) return false;
  if (decim_phase_++ % decim_ != 0) return false;
  if (count_ >= kSamples) {
    armed_ = false;  // capture complete
    return false;
  }
  if (mem_.empty()) mem_.assign(kSamples, 0);
  mem_[count_++] = sample;
  if (count_ >= kSamples) armed_ = false;
  return true;
}

std::vector<std::uint16_t> SramController::snapshot() const {
  if (mem_.empty()) return std::vector<std::uint16_t>(count_, 0);
  return std::vector<std::uint16_t>(mem_.begin(), mem_.begin() + count_);
}

}  // namespace ascp::mcu
