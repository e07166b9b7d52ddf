#pragma once

// Deterministic, splittable random number generation.
//
// Every stochastic component in ssdfail derives its randomness from an
// explicit seed through this header.  Streams are *splittable*: a child
// stream for (seed, key...) is derived by hashing, so per-drive simulation
// is reproducible regardless of thread schedule or fleet size.

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace ssdfail::stats {

/// SplitMix64 step: the standard 64-bit finalizer-based generator.
/// Used both as a stand-alone mixer and to seed Pcg64.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Initial state of the hash_keys fold.
inline constexpr std::uint64_t kHashKeysInit = 0x2545f4914f6cdd1dULL;

/// One fold step of hash_keys: extend the running hash `h` by one key.
/// Exposed so hot loops can hoist a constant key prefix — e.g. a per-row
/// stream keyed {seed, drive, day} folds {seed, drive} once per drive and
/// only the day per row.  hash_fold(hash_fold(kHashKeysInit, a), b) ==
/// hash_keys({a, b}) by construction.
[[nodiscard]] constexpr std::uint64_t hash_fold(std::uint64_t h, std::uint64_t key) noexcept {
  h ^= key + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  std::uint64_t s = h;
  return splitmix64(s);
}

/// FNV-1a 64 offset basis: the initial state of an fnv1a_mix chain.
inline constexpr std::uint64_t kFnv1aInit = 1469598103934665603ULL;

/// Fold the eight bytes of `v`, least significant first, into the FNV-1a 64
/// hash `h`.  The state digests and FlatForest::structural_hash are chains
/// of this step, so its output is part of their persisted values.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash an arbitrary list of 64-bit keys into a single stream seed.
/// Order-sensitive, avalanching; used to derive per-entity substreams.
[[nodiscard]] constexpr std::uint64_t hash_keys(std::initializer_list<std::uint64_t> keys) noexcept {
  std::uint64_t h = kHashKeysInit;
  for (std::uint64_t k : keys) h = hash_fold(h, k);
  return h;
}

/// PCG-XSH-RR-like 64->32 generator extended to produce 64-bit outputs by
/// pairing draws.  Small state, fast, passes practical statistical tests,
/// and — crucially for us — cheap to construct per drive.
class Rng {
 public:
  /// Construct from a raw seed.
  explicit Rng(std::uint64_t seed) noexcept { reseed(seed); }

  /// Construct a substream for a composite key, e.g. {global, model, drive}.
  Rng(std::initializer_list<std::uint64_t> keys) noexcept : Rng(hash_keys(keys)) {}

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    state_ = splitmix64(s);
    inc_ = splitmix64(s) | 1ULL;  // stream selector must be odd
    (void)next_u32();
  }

  /// Uniform 32-bit draw.
  [[nodiscard]] std::uint32_t next_u32() noexcept {
    std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform 64-bit draw.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      std::uint64_t threshold = (0ULL - n) % n;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via the polar (Marsaglia) method with caching.
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sd) noexcept {
    return mean + sd * normal();
  }

  /// Log-normal: exp(Normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Exponential with the given rate (lambda > 0).
  [[nodiscard]] double exponential(double rate) noexcept {
    return -std::log1p(-uniform()) / rate;
  }

  /// Weibull(shape k, scale lambda).
  [[nodiscard]] double weibull(double shape, double scale) noexcept {
    return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
  }

  /// Pareto with minimum xm and tail index alpha.
  [[nodiscard]] double pareto(double xm, double alpha) noexcept {
    return xm / std::pow(1.0 - uniform(), 1.0 / alpha);
  }

  /// Log-uniform over [lo, hi]; lo > 0.
  [[nodiscard]] double loguniform(double lo, double hi) noexcept {
    return std::exp(uniform(std::log(lo), std::log(hi)));
  }

  /// Poisson draw.  Uses inversion for small means and PTRS-style normal
  /// approximation with rejection fallback for large ones.
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Pick an index from a discrete distribution given by (unnormalized)
  /// non-negative weights.  Returns weights.size()-1 if rounding slips.
  [[nodiscard]] std::size_t categorical(std::span<const double> weights) noexcept;

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 1;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ssdfail::stats
