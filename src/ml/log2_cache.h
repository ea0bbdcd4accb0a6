// Memoized logarithms for the classifier fit hot paths.
//
// Profiling the C4.5/RIPPER fits shows ~40% of training CPU inside libm:
// entropy, split-info and FOIL terms call log over p = count/total ratios,
// and the same small rationals (1/2, 2/3, 3/4, ...) recur across thousands
// of small nodes and grow iterations. A memo keyed on the argument's bit
// pattern returns the exact double the underlying libm call produced the
// first time — results stay bit-identical by construction, the transcendental
// just runs once per distinct input.
//
// One LogMemo per fit (never shared across threads). Open addressing with a
// bounded probe; on table pressure it falls back to computing directly.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace xfa {

struct Log2Fn {
  double operator()(double x) const { return std::log2(x); }
};
struct LogFn {
  double operator()(double x) const { return std::log(x); }
};

template <class Fn>
class LogMemo {
 public:
  LogMemo() : keys_(kSlots, 0), vals_(kSlots) {}

  /// `x` must be positive (so its bit pattern is never the empty sentinel 0).
  double operator()(double x) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    std::size_t slot = hash(bits);
    for (int probe = 0; probe < 4; ++probe, slot = (slot + 1) & (kSlots - 1)) {
      if (keys_[slot] == bits) return vals_[slot];
      if (keys_[slot] == 0) {
        keys_[slot] = bits;
        return vals_[slot] = Fn{}(x);
      }
    }
    return Fn{}(x);  // table pressure: compute without caching
  }

 private:
  static constexpr std::size_t kSlots = 4096;  // power of two

  static std::size_t hash(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x) & (kSlots - 1);
  }

  std::vector<std::uint64_t> keys_;
  std::vector<double> vals_;
};

using Log2Memo = LogMemo<Log2Fn>;
using LnMemo = LogMemo<LogFn>;

struct PLog2PFn {
  double operator()(double p) const { return p * std::log2(p); }
};

/// f(c / t) for *integral* pairs 0 < c <= t, the shape of every entropy /
/// split-info / FOIL term in the fit hot paths (c and t are event counts).
/// For t below the cap the pair indexes a triangular table directly — one
/// multiply and one load replace the division and the transcendental. The
/// table is filled once per process per Fn (a function-local static, so its
/// first use is thread-safe) and is read-only after that, so every fit on
/// every thread shares it. Each slot holds Fn{}(c / t), so results are
/// bit-identical to computing f(c/t) every call. Deep tree nodes (small t)
/// dominate the call volume and hit the small, cache-resident low-t rows;
/// callers fall back to LogMemo when t >= cap.
template <class Fn>
class RatioMemo {
 public:
  /// True when (c, t) is table-representable; c <= t is the caller's
  /// invariant (counts of a subset never exceed the total).
  static bool covers(double t) { return t < static_cast<double>(kCap); }

  /// `c` and `t` must be positive integral doubles with c <= t < cap.
  double operator()(double c, double t) const {
    const auto ci = static_cast<std::size_t>(c);
    const auto ti = static_cast<std::size_t>(t);
    return vals_[ti * (ti + 1) / 2 + ci];
  }

 private:
  static constexpr std::size_t kCap = 256;

  static const std::vector<double>& table() {
    static const std::vector<double> vals = [] {
      std::vector<double> v(kCap * (kCap + 1) / 2);
      for (std::size_t t = 1; t < kCap; ++t)
        for (std::size_t c = 1; c <= t; ++c)
          v[t * (t + 1) / 2 + c] =
              Fn{}(static_cast<double>(c) / static_cast<double>(t));
      return v;
    }();
    return vals;
  }

  const double* vals_ = table().data();
};

}  // namespace xfa
