#pragma once
// Arbitrary-precision signed integer.
//
// The LP solver works over exact rationals whose numerators/denominators can
// grow far beyond 64 bits during simplex pivoting and LCM-of-denominator
// period computations (the paper's schedules are LCM-scaled rational LP
// solutions, Sec. 3.1/4.2). This module provides the minimal but complete
// integer kernel for that: sign-magnitude representation on 32-bit limbs,
// schoolbook multiplication (operand sizes stay modest in practice), Knuth
// algorithm-D division, Euclidean gcd (finishing on machine words once both
// operands fit 64 bits), and decimal I/O.
//
// Invariants:
//  * limbs_ is little-endian, base 2^32, with no trailing zero limb;
//  * zero is represented as { negative_=false, limbs_.empty() };
//  * every public operation preserves canonical form.

#include <bit>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "num/limb_vec.h"

namespace ssco::num {

struct BigIntDivMod;

class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t v);   // NOLINT(google-explicit-constructor): numeric literal convenience
  BigInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT
  explicit BigInt(std::string_view decimal);

  /// Replaces the value, reusing existing limb storage (no allocation once
  /// the capacity is there) — the workhorse of Rational's fast paths.
  void assign(std::int64_t v) {
    limbs_.clear();
    negative_ = v < 0;
    if (v == 0) return;
    // Avoid UB on INT64_MIN: negate in unsigned space.
    std::uint64_t mag = negative_ ? ~static_cast<std::uint64_t>(v) + 1
                                  : static_cast<std::uint64_t>(v);
    limbs_.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
    if (mag >> 32) limbs_.push_back(static_cast<std::uint32_t>(mag >> 32));
  }

  /// True when the value is exactly zero.
  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }
  /// True when the value is strictly negative.
  [[nodiscard]] bool is_negative() const { return negative_; }
  /// True when the value is exactly one.
  [[nodiscard]] bool is_one() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }
  /// -1, 0, or +1.
  [[nodiscard]] int signum() const {
    return is_zero() ? 0 : (negative_ ? -1 : 1);
  }

  /// Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const {
    if (limbs_.empty()) return 0;
    return (limbs_.size() - 1) * 32 +
           static_cast<std::size_t>(std::bit_width(limbs_.back()));
  }

  /// True when the value fits in a signed 64-bit integer.
  [[nodiscard]] bool fits_int64() const;
  /// Value as int64; requires fits_int64().
  [[nodiscard]] std::int64_t to_int64() const;
  /// Value as a signed 128-bit integer; empty when it lies outside
  /// [-2^127, 2^127). Exact, never throws.
  [[nodiscard]] std::optional<__int128> to_int128() const;
  /// Nearest double (may overflow to +/-inf for huge values).
  [[nodiscard]] double to_double() const;
  /// Decimal representation, e.g. "-123".
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  BigInt& operator/=(const BigInt& rhs);  // truncated toward zero
  BigInt& operator%=(const BigInt& rhs);  // sign follows dividend

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  BigInt operator-() const { return negated(); }

  /// Quotient and remainder in one pass; remainder's sign follows *this.
  [[nodiscard]] BigIntDivMod divmod(const BigInt& divisor) const;

  friend bool operator==(const BigInt& a, const BigInt& b) {
    return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& a, const BigInt& b);

  /// Greatest common divisor, always non-negative; gcd(0,0) == 0.
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);
  /// Least common multiple, always non-negative; lcm(x,0) == 0.
  [[nodiscard]] static BigInt lcm(const BigInt& a, const BigInt& b);
  /// base^exp for small non-negative exponents.
  [[nodiscard]] static BigInt pow(const BigInt& base, unsigned exp);

  friend std::ostream& operator<<(std::ostream& os, const BigInt& v);

  /// FNV-style hash usable in unordered containers.
  [[nodiscard]] std::size_t hash() const;

 private:
  // |*this| <=> |other|.
  [[nodiscard]] std::strong_ordering compare_magnitude(const BigInt& other) const;
  void add_magnitude(const BigInt& rhs);
  // Requires |*this| >= |rhs|.
  void sub_magnitude(const BigInt& rhs);
  void trim();
  // Divide magnitude in-place by a single limb; returns remainder.
  std::uint32_t div_small_inplace(std::uint32_t divisor);
  void mul_small_add_inplace(std::uint32_t factor, std::uint32_t addend);

  bool negative_ = false;
  LimbVec limbs_;
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace ssco::num

template <>
struct std::hash<ssco::num::BigInt> {
  std::size_t operator()(const ssco::num::BigInt& v) const noexcept {
    return v.hash();
  }
};
