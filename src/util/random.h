#ifndef LSBENCH_UTIL_RANDOM_H_
#define LSBENCH_UTIL_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.h"

namespace lsbench {

/// SplitMix64: used to expand a single 64-bit seed into the state of larger
/// generators, and as a cheap standalone mixer.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256** — fast, high-quality, deterministic PRNG. All randomness in
/// LSBench flows through explicitly seeded instances of this class so that
/// every dataset and workload is reproducible bit-for-bit.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x1db3a2f5c7e9d401ULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single 64-bit value.
  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.Next();
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adapters).
  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// multiply-shift with rejection to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    LSBENCH_ASSERT(bound > 0);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t NextInRange(uint64_t lo, uint64_t hi) {
    LSBENCH_ASSERT(lo <= hi);
    if (lo == 0 && hi == std::numeric_limits<uint64_t>::max()) return Next();
    return lo + NextBounded(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextDoubleInRange(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Bernoulli draw with probability p of returning true.
  bool NextBool(double p = 0.5) { return NextDouble() < p; }

  /// Standard normal via Box–Muller (uses two uniforms per pair of calls).
  double NextGaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = 0.0;
    while (u1 <= 0.0) u1 = NextDouble();
    const double u2 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_gaussian_ = r * std::sin(theta);
    has_cached_gaussian_ = true;
    return r * std::cos(theta);
  }

  /// Moves the generator exactly as NextGaussian would, without computing
  /// the value: the same uniforms, the same u1 <= 0 rejection and the same
  /// toggle of the Box–Muller cache. A pair it starts leaves its second
  /// value pending but not computed, so a NextGaussian right after it would
  /// return a stale value; a skipped-to state is drawn from only where
  /// GaussianPending() is false.
  void SkipGaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return;
    }
    double u1 = 0.0;
    while (u1 <= 0.0) u1 = NextDouble();
    Next();  // u2.
    has_cached_gaussian_ = true;
  }

  /// Whether the second value of a Box–Muller pair is pending, so the next
  /// NextGaussian returns it without drawing.
  bool GaussianPending() const { return has_cached_gaussian_; }

  /// Whether this generator is at the same place in its stream as `other`:
  /// the same xoshiro state and the same Box–Muller phase. The pending
  /// value itself is not compared, because SkipGaussian does not compute
  /// it.
  bool SamePosition(const Rng& other) const {
    return s_[0] == other.s_[0] && s_[1] == other.s_[1] &&
           s_[2] == other.s_[2] && s_[3] == other.s_[3] &&
           has_cached_gaussian_ == other.has_cached_gaussian_;
  }

  /// Exponential with the given rate (mean = 1/rate). Requires rate > 0.
  double NextExponential(double rate) {
    LSBENCH_ASSERT(rate > 0.0);
    double u = 0.0;
    while (u <= 0.0) u = NextDouble();
    return -std::log(u) / rate;
  }

  /// Spawns an independent child generator; children with distinct
  /// `stream_id`s produce uncorrelated streams.
  Rng Fork(uint64_t stream_id) const {
    SplitMix64 sm(s_[0] ^ (stream_id * 0x9e3779b97f4a7c15ULL) ^ s_[3]);
    return Rng(sm.Next());
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace lsbench

#endif  // LSBENCH_UTIL_RANDOM_H_
