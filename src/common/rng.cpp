#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace coloc {

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  COLOC_CHECK_MSG(n > 0, "uniform_index requires n > 0");
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) {
  COLOC_CHECK_MSG(rate > 0.0, "exponential requires rate > 0");
  // 1 - uniform() is in (0, 1], avoiding log(0).
  return -std::log(1.0 - uniform()) / rate;
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  return ZipfSampler(n, s).draw(*this, {});
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s), log_(std::abs(s - 1.0) < 1e-12) {
  COLOC_CHECK_MSG(n > 0, "zipf requires n > 0");
  // Rejection-inversion sampling (Hörmann & Derflinger) over [1, n],
  // returning 0-based rank. Handles s close to or equal to 1.
  nd_ = static_cast<double>(n);
  hx0_ = h(0.5) - 1.0;  // shifted so h(x)-hx0 covers mass at 1
  hn_ = h(nd_ + 0.5);
}

double ZipfSampler::h(double x) const {
  // Integral of x^-s: x^(1-s)/(1-s) for s != 1, log(x) otherwise.
  if (log_) return std::log(x);
  return std::pow(x, 1.0 - s_) / (1.0 - s_);
}

double ZipfSampler::accept_bound(double kd) const {
  return h(kd + 0.5) - std::pow(kd, -s_);
}

std::uint64_t ZipfSampler::operator()(Rng& rng) {
  if (bounds_.empty()) {
    bounds_.assign(std::min(n_, kCachedRanks),
                   std::numeric_limits<double>::quiet_NaN());
  }
  return draw(rng, bounds_);
}

std::uint64_t ZipfSampler::draw(Rng& rng, std::span<double> bounds) const {
  if (n_ == 1) return 0;
  for (;;) {
    const double u = hx0_ + rng.uniform() * (hn_ - hx0_);
    const double x =
        log_ ? std::exp(u) : std::pow((1.0 - s_) * u, 1.0 / (1.0 - s_));
    const std::uint64_t k =
        static_cast<std::uint64_t>(std::clamp(std::floor(x + 0.5), 1.0, nd_));
    const double kd = static_cast<double>(k);
    double bound;
    if (k <= bounds.size()) {
      double& cached = bounds[k - 1];
      if (std::isnan(cached)) cached = accept_bound(kd);
      bound = cached;
    } else {
      bound = accept_bound(kd);
    }
    // Accept with probability proportional to the true mass at k.
    if (u >= bound) return k - 1;
  }
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  shuffle(p);
  return p;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  COLOC_CHECK_MSG(k <= n, "cannot sample more elements than the population");
  // Partial Fisher-Yates: O(n) memory but only k swaps; fine at our scales.
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    using std::swap;
    swap(p[i], p[j]);
  }
  p.resize(k);
  return p;
}

}  // namespace coloc
