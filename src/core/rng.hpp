#pragma once
// Deterministic random number generation.
//
// All stochastic components of the library (MCMC walks, dropout masks, TPE
// sampling, dataset splits) draw from streams created by `make_stream(seed,
// keys...)`.  A stream is keyed by a user seed plus a tuple of "site" indices
// (e.g. row index, chain index, replicate index); the key tuple is hashed with
// SplitMix64 into the state of a Xoshiro256++ engine.  Because the stream
// depends only on the key — never on thread scheduling — every parallel
// experiment is reproducible bit-for-bit at any thread count.

#include <array>
#include <cmath>
#include <limits>

#include "core/types.hpp"

namespace mcmi {

/// SplitMix64: tiny, high-quality 64-bit mixer used for seeding and key
/// hashing (Vigna, 2015).
inline u64 splitmix64(u64& state) {
  u64 z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Hash a single 64-bit value (stateless convenience wrapper).
inline u64 mix64(u64 x) { return splitmix64(x); }

/// Xoshiro256++ engine (Blackman & Vigna).  Satisfies
/// std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = u64;

  explicit Xoshiro256(u64 seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  /// Seed all four state words through SplitMix64 as recommended by the
  /// generator's authors; guarantees a non-zero state.
  void reseed(u64 seed) {
    for (auto& w : s_) w = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<u64>::max();
  }

  result_type operator()() {
    const u64 result = rotl(s_[0] + s_[3], 23) + s_[0];
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr u64 rotl(u64 x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<u64, 4> s_{};
};

/// Uniform double in [0, 1) using the top 53 bits.
inline real_t uniform01(Xoshiro256& rng) {
  return static_cast<real_t>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
inline real_t uniform(Xoshiro256& rng, real_t lo, real_t hi) {
  return lo + (hi - lo) * uniform01(rng);
}

/// Uniform integer in [0, n) without modulo bias (Lemire's method would be
/// overkill here; rejection keeps it simple and exact).
inline u64 uniform_index(Xoshiro256& rng, u64 n) {
  const u64 limit = std::numeric_limits<u64>::max() - std::numeric_limits<u64>::max() % n;
  u64 x;
  do {
    x = rng();
  } while (x >= limit);
  return x % n;
}

/// Standard normal sample via the Marsaglia polar method.  Stateless (no
/// cached spare) so streams keyed by site stay independent of call history
/// parity.
inline real_t normal01(Xoshiro256& rng) {
  while (true) {
    const real_t u = 2.0 * uniform01(rng) - 1.0;
    const real_t v = 2.0 * uniform01(rng) - 1.0;
    const real_t s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

/// Normal sample with given mean and standard deviation.
inline real_t normal(Xoshiro256& rng, real_t mean, real_t stddev) {
  return mean + stddev * normal01(rng);
}

namespace detail {
inline u64 combine_keys(u64 acc) { return acc; }
template <typename... Rest>
u64 combine_keys(u64 acc, u64 key, Rest... rest) {
  // Feed each key through the mixer with a distinct round constant so that
  // (a, b) and (b, a) produce different streams.
  u64 state = acc ^ (key + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2));
  return combine_keys(splitmix64(state), static_cast<u64>(rest)...);
}
}  // namespace detail

/// The key of the site (seed, site indices...): the seed of make_stream().
/// `substream(stream_key(seed, keys...), last)` is `make_stream(seed,
/// keys..., last)`, bit for bit, so a loop over `last` hashes the shared
/// prefix once.
template <typename... Keys>
u64 stream_key(u64 seed, Keys... keys) {
  return detail::combine_keys(mix64(seed ^ 0x2545f4914f6cdd1dULL),
                              static_cast<u64>(keys)...);
}

/// Create an independent random stream keyed by (seed, site indices...).
/// Identical keys always give identical streams; distinct keys give streams
/// that are statistically independent for all practical purposes.
template <typename... Keys>
Xoshiro256 make_stream(u64 seed, Keys... keys) {
  return Xoshiro256(stream_key(seed, keys...));
}

/// The stream of site `last` under a prefix key from stream_key().
inline Xoshiro256 substream(u64 key, u64 last) {
  return Xoshiro256(detail::combine_keys(key, last));
}

}  // namespace mcmi
