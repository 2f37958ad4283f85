// Simulated time.
//
// Node clocks advance in *instructions* of the modeled CPU (the paper's
// 25 MHz SPARC); wall-clock microseconds are derived through the clock rate.
// Keeping the native unit integral makes the simulation bit-deterministic.
#pragma once

#include <cstdint>

namespace abcl::sim {

using Instr = std::uint64_t;  // instruction count on the modeled CPU

inline constexpr Instr kInstrInf = ~Instr{0};

// a + b clamped to kInstrInf; treats kInstrInf as absorbing.
inline Instr sat_add(Instr a, Instr b) {
  return a >= kInstrInf - b ? kInstrInf : a + b;
}

// Converts modeled instructions to microseconds at `mhz` (instructions are
// assumed to retire one per cycle, as the paper's cycle counts do).
inline double instr_to_us(Instr n, double mhz) {
  return static_cast<double>(n) / mhz;
}

inline double instr_to_ms(Instr n, double mhz) { return instr_to_us(n, mhz) / 1000.0; }

}  // namespace abcl::sim
