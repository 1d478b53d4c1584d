#include "src/util/prng.h"

namespace depsurf {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Mix64(uint64_t v) {
  uint64_t state = v;
  return SplitMix64(state);
}

uint64_t HashCombine(std::initializer_list<uint64_t> values) {
  uint64_t h = 0x2545f4914f6cdd1dull;
  for (uint64_t v : values) {
    h = Mix64(h ^ Mix64(v));
  }
  return h;
}

uint64_t HashString(std::string_view s) { return StringHasher().Add(s).Finish(); }

Prng Prng::Fork(std::initializer_list<uint64_t> key) const {
  uint64_t k = HashCombine(key);
  return Prng(state_ ^ k);
}

uint64_t Prng::NextBelow(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection-free multiply-shift; bias is negligible for our bounds.
  return static_cast<uint64_t>((static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
}

uint64_t Prng::NextInRange(uint64_t lo, uint64_t hi) {
  if (hi <= lo) {
    return lo;
  }
  return lo + NextBelow(hi - lo + 1);
}

double Prng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

bool Prng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

}  // namespace depsurf
