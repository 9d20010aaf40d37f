// rng.hpp — deterministic random sources for noise modelling.
//
// Every stochastic block in the platform (ADC thermal noise, MEMS Brownian
// noise, amplifier flicker noise, mismatch draws) pulls from one of these so
// that a simulation is fully reproducible from a single master seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "common/state_archive.hpp"

namespace ascp {

namespace detail {
/// Layer table of the 128-layer ziggurat for the standard normal density
/// f(x) = exp(-x²/2), in Doornik's ZIGNOR layout (R = 3.442619855899,
/// V = 9.91256303526217e-3): x[0] = V/f(R) is the base strip that carries
/// the tail, x[1] = R, x[i] = sqrt(-2·ln(V/x[i-1] + f(x[i-1]))), x[128] = 0,
/// and r[i] = x[i+1]/x[i]. Stored as hex-float constants (computed once in
/// 60-digit arithmetic) so every build draws the same stream whatever its
/// libm; the test suite checks them against the recurrence.
struct ZigguratTable {
  double x[129];
  double r[128];
};
extern const ZigguratTable kZiggurat;
}  // namespace detail

/// xoshiro256++ — small, fast, high-quality PRNG. We implement it directly
/// instead of using <random> engines so the bit stream is stable across
/// standard-library implementations (reproducible experiments).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via the 128-layer ziggurat (Marsaglia & Tsang 2000, in
  /// Doornik's ZIGNOR form). One next_u64() per attempt: its top 53 bits
  /// give u in [-1, 1), its low 7 bits the layer. About 97 % of draws end
  /// in the layer's inner rectangle; the rest take the wedge test (one more
  /// uniform, two exp) or the tail beyond R (logarithms).
  double gaussian() {
    const std::uint64_t bits = next_u64();
    const unsigned layer = static_cast<unsigned>(bits & 0x7F);
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-52 - 1.0;
    if (std::fabs(u) < detail::kZiggurat.r[layer]) return u * detail::kZiggurat.x[layer];
    return gaussian_outside(layer, u);
  }

  /// Normal with given standard deviation.
  double gaussian(double sigma) { return sigma * gaussian(); }

  /// Derive an independent stream for a sub-block (splitmix of seed + tag).
  Rng fork(std::uint64_t tag);

  void serialize_state(StateArchive& ar) {
    for (auto& s : s_) ar.value(s);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// Uniform in (0, 1], for the tail's logarithms.
  double uniform_open() { return static_cast<double>((next_u64() >> 11) + 1) * 0x1.0p-53; }
  /// gaussian() when u fell outside the layer's inner rectangle: the wedge
  /// test, the tail beyond R, and redraws until one is accepted.
  double gaussian_outside(unsigned layer, double u);

  std::uint64_t s_[4]{};
};

/// 1/f (flicker) noise generator — Voss–McCartney: octave-spaced sources
/// where stage k redraws every 2^k samples, so the amortized cost is ~2
/// Gaussian draws per sample regardless of octave count. The summed
/// spectrum approximates 1/f over num_octaves octaves below fs/2.
class FlickerNoise {
 public:
  /// `sigma` is the approximate RMS of the output process.
  FlickerNoise(Rng rng, double sigma, int num_octaves = 12);

  double next();

  void serialize_state(StateArchive& ar) {
    rng_.serialize_state(ar);
    for (auto& s : state_) ar.value(s);
    ar.value(sum_);
    ar.value(counter_);
  }

 private:
  Rng rng_;
  double per_stage_sigma_;
  double state_[24]{};
  double sum_ = 0.0;
  std::uint64_t counter_ = 0;
  int stages_;
};

}  // namespace ascp
