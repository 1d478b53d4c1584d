// Deterministic pseudo-random primitives for the synthetic corpus.
//
// Every stochastic decision in kernelgen must be (a) reproducible and
// (b) independent of iteration order, so decisions are keyed: the stream for
// "does construct #i survive version v" is derived by hashing (seed, i, v,
// decision tag) rather than drawn from one shared sequential generator.
#ifndef DEPSURF_SRC_UTIL_PRNG_H_
#define DEPSURF_SRC_UTIL_PRNG_H_

#include <cstdint>
#include <initializer_list>
#include <string_view>

namespace depsurf {

// SplitMix64 step; the standard 64-bit finalizer-based generator.
uint64_t SplitMix64(uint64_t& state);

// One-shot stateless mix of a single value (useful as a hash finalizer).
uint64_t Mix64(uint64_t v);

// Combines an arbitrary list of values into one well-distributed 64-bit key.
uint64_t HashCombine(std::initializer_list<uint64_t> values);

// FNV-1a over a string, for keying decisions on construct names.
uint64_t HashString(std::string_view s);

// HashString fed in pieces: Finish() after any sequence of Add() calls
// equals HashString of the pieces concatenated, without building that
// string.
class StringHasher {
 public:
  StringHasher& Add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  uint64_t Finish() const { return Mix64(h_); }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// A small deterministic PRNG with convenience distributions.
class Prng {
 public:
  explicit Prng(uint64_t seed) : state_(Mix64(seed ^ 0x9e3779b97f4a7c15ull)) {}

  // Derives an independent generator keyed on extra values; order-stable.
  Prng Fork(std::initializer_list<uint64_t> key) const;

  uint64_t NextU64() { return SplitMix64(state_); }

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool NextBool(double p);

 private:
  uint64_t state_;
};

}  // namespace depsurf

#endif  // DEPSURF_SRC_UTIL_PRNG_H_
