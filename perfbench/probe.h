// Host-speed probe: a fixed kernel owned by the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <vector>

namespace perfbench {

/// 64-bit LCG step (Knuth's MMIX constants); returns the high 31 bits.
inline std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return s >> 33;
}

/// A dependent walk over a 16 MiB random cycle (memory latency) and
/// ordered-map churn (allocator and branches). Its time tracks the host's
/// momentary speed and does not depend on the simulator's code.
class Probe {
 public:
  Probe() : next_(kSlots) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    std::uint64_t s = 7;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) std::swap(next_[i], next_[lcg(s) % i]);
  }

  /// Host ms of one pass.
  double run_ms() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (int k = 0; k < 30000; ++k) at = next_[at];
    std::map<std::uint64_t, std::uint64_t> m;
    std::uint64_t s = at;
    for (int k = 0; k < 6000; ++k) {
      m[lcg(s) & 0xffff] = static_cast<std::uint64_t>(k);
      if (m.size() > 2048) m.erase(m.begin());
    }
    sink_ += at + m.size() + s;
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  }

 private:
  static constexpr std::uint32_t kSlots = 1u << 22;
  std::vector<std::uint32_t> next_;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
