// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the library (trace generators, measurement
// noise, bootstrap partitioning, neural-network initialization) draw from
// coloc::Rng so that experiments are reproducible from a single seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64.
// It is far faster than std::mt19937_64, has a 256-bit state, and passes
// BigCrush; its statistical quality is more than sufficient for simulation
// and ML workloads.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace coloc {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Also usable standalone for cheap hash-like mixing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with a std::uniform_random_bit_generator-compatible
/// interface plus convenience distributions used throughout coloc.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose full 256-bit state is derived from `seed`
  /// via SplitMix64, so distinct seeds give decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x1234abcdULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double mantissa; unbiased and fast.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Marsaglia polar method (cached spare value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Lognormal: exp(N(mu, sigma)). Used for multiplicative measurement noise.
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Zipf-like discrete sample over [0, n) with exponent s (hot-spot reuse
  /// patterns in address traces). Uses inverse-CDF over precomputable weights
  /// only for small n; otherwise rejection sampling.
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Returns a random permutation of [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Splits this generator into an independent child stream; the child's
  /// seed is derived from fresh output so parent/child remain decorrelated.
  Rng split() { return Rng(next() ^ 0x5851f42d4c957f2dULL); }

 private:
  result_type next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// Zipf sampler with the per-distribution constants (two pow() calls)
/// hoisted out of the draw loop. Rng::zipf(n, s) constructs one of these
/// per call, so sampler draws are bit-identical to Rng::zipf for the same
/// generator state — batch kernels that sample many values from one phase
/// build the sampler once and save the constant recomputation.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  /// Draws one 0-based rank; consumes exactly the uniform() sequence
  /// Rng::zipf(n, s) would.
  std::uint64_t operator()(Rng& rng) const;

 private:
  double h(double x) const;

  std::uint64_t n_;
  double s_;
  double nd_;
  double hx0_;  // h(0.5) - 1, lower bound of the inversion range
  double hn_;   // h(n + 0.5), upper bound
};

}  // namespace coloc
