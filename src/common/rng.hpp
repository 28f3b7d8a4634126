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
#include <span>
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
  /// patterns in address traces), by rejection-inversion. A one-shot draw:
  /// ZipfSampler returns the same ranks and caches the per-rank bounds.
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

/// Zipf sampler over [0, n) with exponent s (rejection-inversion, Hörmann &
/// Derflinger). The per-distribution constants are computed once at
/// construction, and the acceptance bound h(k + 0.5) - k^-s of every rank
/// k <= min(n, kCachedRanks) is computed on its first draw and kept in a
/// table (NaN marks an entry not filled yet), so a draw costs one pow()
/// instead of three. Rng::zipf(n, s) draws through the same code without
/// the table, so both return the same rank and consume the same uniform()
/// sequence. The table is per sampler and unsynchronized: a sampler must
/// not be shared between threads.
class ZipfSampler {
 public:
  /// Ranks whose acceptance bound the table keeps (512 KB of doubles).
  static constexpr std::uint64_t kCachedRanks = std::uint64_t{1} << 16;

  ZipfSampler(std::uint64_t n, double s);

  /// Draws one 0-based rank; allocates the table on first use.
  std::uint64_t operator()(Rng& rng);

 private:
  friend class Rng;

  /// One draw; `bounds` caches the acceptance bounds of ranks
  /// 1..bounds.size() (empty: compute every bound).
  std::uint64_t draw(Rng& rng, std::span<double> bounds) const;
  /// Acceptance bound of rank kd: the one definition both paths use.
  double accept_bound(double kd) const;
  double h(double x) const;

  std::uint64_t n_;
  double s_;
  double nd_;
  bool log_;        // s == 1 (to 1e-12): h is log, its inverse exp
  double hx0_;      // h(0.5) - 1, lower bound of the inversion range
  double hn_;       // h(n + 0.5), upper bound
  std::vector<double> bounds_;
};

}  // namespace coloc
