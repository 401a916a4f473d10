// Deterministic, fast pseudo-random generation.
//
// All stochastic components of the library (workload generation, long-range
// target selection, routing pair sampling) draw from voronet::Rng so that a
// single 64-bit seed reproduces an entire experiment bit-for-bit.
//
// The core generator is xoshiro256++ (Blackman & Vigna), seeded through
// SplitMix64.  It satisfies the C++ UniformRandomBitGenerator requirements
// so it can also feed <random> distributions when convenient.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/expect.hpp"

namespace voronet {

/// The SplitMix64 finaliser: a deterministic 64-bit mixing hash (Rng's
/// seeding, the retransmit jitter, the serving layer's cache keys).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG.  Deterministic across platforms for a given seed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    for (auto& word : state_) {
      word = mix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).  Uses the top 53 bits for full mantissa entropy.
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    VORONET_EXPECT(lo <= hi, "uniform(lo, hi) requires lo <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) {
    VORONET_EXPECT(bound > 0, "below(bound) requires bound > 0");
    __extension__ using U128 = unsigned __int128;
    U128 product = static_cast<U128>((*this)()) * bound;
    auto low = static_cast<std::uint64_t>(product);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        product = static_cast<U128>((*this)()) * bound;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform size_t index in [0, n); convenience for container sampling.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(below(static_cast<std::uint64_t>(n)));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Exponential inter-arrival delay for a Poisson process of `rate`
  /// (the one definition every event-driven churn/workload driver uses).
  double exponential(double rate) {
    VORONET_EXPECT(rate > 0.0, "exponential(rate) requires rate > 0");
    return -std::log(uniform(1e-12, 1.0)) / rate;
  }

  /// Derive an independent child generator (for per-thread streams).
  Rng fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace voronet
