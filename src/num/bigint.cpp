#include "num/bigint.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <stdexcept>

namespace ssco::num {

namespace {
constexpr std::uint64_t kBase = std::uint64_t{1} << 32;
}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  std::uint64_t mag = negative_ ? ~static_cast<std::uint64_t>(v) + 1
                                : static_cast<std::uint64_t>(v);
  limbs_.push_back(static_cast<std::uint32_t>(mag & 0xffffffffu));
  if (mag >> 32) limbs_.push_back(static_cast<std::uint32_t>(mag >> 32));
}

BigInt::BigInt(std::uint64_t v) {
  if (v == 0) return;
  limbs_.push_back(static_cast<std::uint32_t>(v & 0xffffffffu));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t i = 0;
  bool neg = false;
  if (i < decimal.size() && (decimal[i] == '+' || decimal[i] == '-')) {
    neg = decimal[i] == '-';
    ++i;
  }
  if (i == decimal.size()) {
    throw std::invalid_argument("BigInt: empty decimal string");
  }
  for (; i < decimal.size(); ++i) {
    char c = decimal[i];
    if (c < '0' || c > '9') {
      throw std::invalid_argument("BigInt: invalid decimal digit");
    }
    mul_small_add_inplace(10, static_cast<std::uint32_t>(c - '0'));
  }
  negative_ = neg && !limbs_.empty();
}

bool BigInt::fits_int64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  std::uint64_t mag =
      (static_cast<std::uint64_t>(limbs_[1]) << 32) | limbs_[0];
  return negative_ ? mag <= (std::uint64_t{1} << 63)
                   : mag < (std::uint64_t{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64 overflow");
  std::uint64_t mag = 0;
  if (!limbs_.empty()) mag = limbs_[0];
  if (limbs_.size() > 1) mag |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return negative_ ? -static_cast<std::int64_t>(mag - 1) - 1
                   : static_cast<std::int64_t>(mag);
}

std::optional<__int128> BigInt::to_int128() const {
  if (limbs_.size() > 4) return std::nullopt;
  unsigned __int128 mag = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) mag = (mag << 32) | limbs_[i];
  const unsigned __int128 limit = static_cast<unsigned __int128>(1) << 127;
  if (negative_ ? mag > limit : mag >= limit) return std::nullopt;
  // Negate in unsigned space: -2^127 has no positive counterpart.
  return static_cast<__int128>(negative_ ? ~mag + 1 : mag);
}

double BigInt::to_double() const {
  double result = 0.0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    result = result * 4294967296.0 + static_cast<double>(*it);
  }
  return negative_ ? -result : result;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  BigInt tmp = *this;
  std::string digits;
  while (!tmp.is_zero()) {
    std::uint32_t rem = tmp.div_small_inplace(1000000000u);
    if (tmp.is_zero()) {
      // Most significant chunk: emit digits LSB-first, no zero padding.
      while (rem != 0) {
        digits += static_cast<char>('0' + rem % 10);
        rem /= 10;
      }
    } else {
      for (int d = 0; d < 9; ++d) {
        digits += static_cast<char>('0' + rem % 10);
        rem /= 10;
      }
    }
  }
  if (negative_) digits += '-';
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

BigInt BigInt::negated() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

std::strong_ordering BigInt::compare_magnitude(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_) {
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  }
  auto mag = a.compare_magnitude(b);
  return a.negative_ ? 0 <=> mag : mag;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

void BigInt::add_magnitude(const BigInt& rhs) {
  std::uint64_t carry = 0;
  std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  limbs_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry + limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<std::uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) limbs_.push_back(static_cast<std::uint32_t>(carry));
}

void BigInt::sub_magnitude(const BigInt& rhs) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) diff -= rhs.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  trim();
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (negative_ == rhs.negative_) {
    add_magnitude(rhs);
  } else {
    auto mag = compare_magnitude(rhs);
    if (mag == std::strong_ordering::equal) {
      limbs_.clear();
      negative_ = false;
    } else if (mag == std::strong_ordering::greater) {
      sub_magnitude(rhs);
    } else {
      BigInt tmp = rhs;
      tmp.sub_magnitude(*this);
      *this = std::move(tmp);
    }
  }
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) { return *this += rhs.negated(); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (is_zero() || rhs.is_zero()) {
    limbs_.clear();
    negative_ = false;
    return *this;
  }
  LimbVec result(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      std::uint64_t cur = result[i + j] + a * rhs.limbs_[j] + carry;
      result[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry != 0) {
      std::uint64_t cur = result[k] + carry;
      result[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  limbs_ = std::move(result);
  negative_ = negative_ != rhs.negative_;
  trim();
  return *this;
}

std::uint32_t BigInt::div_small_inplace(std::uint32_t divisor) {
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    std::uint64_t cur = (rem << 32) | limbs_[i];
    limbs_[i] = static_cast<std::uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  trim();
  return static_cast<std::uint32_t>(rem);
}

void BigInt::mul_small_add_inplace(std::uint32_t factor, std::uint32_t addend) {
  std::uint64_t carry = addend;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t cur =
        static_cast<std::uint64_t>(limbs_[i]) * factor + carry;
    limbs_[i] = static_cast<std::uint32_t>(cur & 0xffffffffu);
    carry = cur >> 32;
  }
  while (carry != 0) {
    limbs_.push_back(static_cast<std::uint32_t>(carry & 0xffffffffu));
    carry >>= 32;
  }
  trim();
}

BigIntDivMod BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  BigIntDivMod out;
  auto mag = compare_magnitude(divisor);
  if (mag == std::strong_ordering::less) {
    out.remainder = *this;
    return out;
  }
  if (divisor.limbs_.size() == 1) {
    BigInt q = this->abs();
    std::uint32_t r = q.div_small_inplace(divisor.limbs_[0]);
    q.negative_ = !q.is_zero() && (negative_ != divisor.negative_);
    out.quotient = std::move(q);
    out.remainder = BigInt(static_cast<std::uint64_t>(r));
    if (negative_ && !out.remainder.is_zero()) out.remainder.negative_ = true;
    return out;
  }

  // Knuth algorithm D on normalized operands.
  const std::size_t n = divisor.limbs_.size();
  const std::size_t m = limbs_.size() - n;
  // Normalize so the top limb of the divisor has its high bit set.
  int shift = 0;
  for (std::uint32_t top = divisor.limbs_.back(); (top & 0x80000000u) == 0;
       top <<= 1) {
    ++shift;
  }
  auto shl = [shift](const LimbVec& src) {
    LimbVec dst(src.size() + 1, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] |= src[i] << shift;
      if (shift != 0) {
        dst[i + 1] = static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(src[i]) >> (32 - shift));
      }
    }
    return dst;
  };
  LimbVec u = shl(limbs_);          // size limbs+1
  LimbVec v = shl(divisor.limbs_);  // top limb may be 0
  v.resize(n);  // normalized divisor has exactly n significant limbs

  LimbVec q(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    std::uint64_t numer =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numer / v[n - 1];
    std::uint64_t rhat = numer % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                       static_cast<std::int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t s =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<std::uint32_t>(s & 0xffffffffu);
        c2 = s >> 32;
      }
      t += static_cast<std::int64_t>(c2);
      t &= static_cast<std::int64_t>(0xffffffffu);
    }
    u[j + n] = static_cast<std::uint32_t>(t);
    q[j] = static_cast<std::uint32_t>(qhat);
  }

  BigInt quotient;
  quotient.limbs_ = std::move(q);
  quotient.trim();
  quotient.negative_ =
      !quotient.is_zero() && (negative_ != divisor.negative_);

  // Denormalize remainder: u[0..n-1] >> shift.
  BigInt remainder;
  remainder.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
  if (shift != 0) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      remainder.limbs_[i] = (remainder.limbs_[i] >> shift) |
                            static_cast<std::uint32_t>(
                                static_cast<std::uint64_t>(
                                    remainder.limbs_[i + 1])
                                << (32 - shift));
    }
    remainder.limbs_[n - 1] >>= shift;
  }
  remainder.trim();
  remainder.negative_ = !remainder.is_zero() && negative_;

  out.quotient = std::move(quotient);
  out.remainder = std::move(remainder);
  return out;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = divmod(rhs).quotient;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = divmod(rhs).remainder;
  return *this;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  const auto low_word = [](const BigInt& v) {
    std::uint64_t w = v.limbs_.empty() ? 0 : v.limbs_[0];
    if (v.limbs_.size() > 1) w |= static_cast<std::uint64_t>(v.limbs_[1]) << 32;
    return w;
  };
  while (!b.is_zero()) {
    // Once both operands fit one machine word, finish Euclid on it: the
    // same exact value without a BigInt divmod per step.
    if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
      return BigInt(std::gcd(low_word(a), low_word(b)));
    }
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::lcm(const BigInt& a, const BigInt& b) {
  if (a.is_zero() || b.is_zero()) return BigInt{};
  BigInt g = gcd(a, b);
  return (a.abs() / g) * b.abs();
}

BigInt BigInt::pow(const BigInt& base, unsigned exp) {
  BigInt result{1};
  BigInt acc = base;
  while (exp != 0) {
    if (exp & 1u) result *= acc;
    exp >>= 1;
    if (exp != 0) acc *= acc;
  }
  return result;
}

std::size_t BigInt::hash() const {
  std::size_t h = negative_ ? 0x9e3779b97f4a7c15ull : 0x517cc1b727220a95ull;
  for (std::uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace ssco::num
