#include "sim/rng.h"

#include <cmath>

#include "common/check.h"

namespace xfa {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  XFA_CHECK_LE(lo, hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  XFA_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias: accept v below
  // limit = max() - max() % n. That limit exceeds max() - n for every n, so
  // a draw up to max() - n is accepted without dividing for the limit; only
  // a draw above it pays for the exact test. Same accepted values, same
  // stream.
  for (;;) {
    const std::uint64_t v = (*this)();
    if (v <= max() - n || v < max() - max() % n) return v % n;
  }
}

double Rng::exponential(double mean) {
  XFA_CHECK_GT(mean, 0);
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::chance(double p) { return uniform() < p; }

Rng Rng::fork() { return Rng((*this)()); }

}  // namespace xfa
