#include "num/bigint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "num/rational.h"

namespace ssco::num {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_FALSE(z.is_negative());
  EXPECT_EQ(z.signum(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.bit_length(), 0u);
}

TEST(BigInt, Int64Construction) {
  EXPECT_EQ(BigInt(std::int64_t{0}).to_string(), "0");
  EXPECT_EQ(BigInt(std::int64_t{42}).to_string(), "42");
  EXPECT_EQ(BigInt(std::int64_t{-42}).to_string(), "-42");
  EXPECT_EQ(BigInt(std::numeric_limits<std::int64_t>::max()).to_string(),
            "9223372036854775807");
  EXPECT_EQ(BigInt(std::numeric_limits<std::int64_t>::min()).to_string(),
            "-9223372036854775808");
}

TEST(BigInt, Uint64Construction) {
  EXPECT_EQ(BigInt(std::uint64_t{18446744073709551615ull}).to_string(),
            "18446744073709551615");
}

TEST(BigInt, StringRoundTrip) {
  const char* cases[] = {"0",
                         "1",
                         "-1",
                         "999999999",
                         "1000000000",
                         "123456789012345678901234567890",
                         "-9876543210987654321098765432109876543210"};
  for (const char* c : cases) {
    EXPECT_EQ(BigInt(c).to_string(), c) << c;
  }
}

TEST(BigInt, StringWithPlusSign) {
  EXPECT_EQ(BigInt("+17").to_string(), "17");
}

TEST(BigInt, StringMinusZeroNormalizes) {
  EXPECT_EQ(BigInt("-0").to_string(), "0");
  EXPECT_FALSE(BigInt("-0").is_negative());
}

TEST(BigInt, StringRejectsGarbage) {
  EXPECT_THROW(BigInt(""), std::invalid_argument);
  EXPECT_THROW(BigInt("-"), std::invalid_argument);
  EXPECT_THROW(BigInt("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt("1.5"), std::invalid_argument);
}

TEST(BigInt, AdditionBasics) {
  EXPECT_EQ(BigInt(2) + BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(-2) + BigInt(3), BigInt(1));
  EXPECT_EQ(BigInt(2) + BigInt(-3), BigInt(-1));
  EXPECT_EQ(BigInt(-2) + BigInt(-3), BigInt(-5));
  EXPECT_EQ(BigInt(5) + BigInt(-5), BigInt(0));
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt almost("4294967295");  // 2^32 - 1
  EXPECT_EQ((almost + BigInt(1)).to_string(), "4294967296");
  BigInt big("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((big + BigInt(1)).to_string(), "18446744073709551616");
}

TEST(BigInt, SubtractionBorrow) {
  BigInt big("18446744073709551616");  // 2^64
  EXPECT_EQ((big - BigInt(1)).to_string(), "18446744073709551615");
  EXPECT_EQ(BigInt(10) - BigInt(42), BigInt(-32));
}

TEST(BigInt, MultiplicationBasics) {
  EXPECT_EQ(BigInt(6) * BigInt(7), BigInt(42));
  EXPECT_EQ(BigInt(-6) * BigInt(7), BigInt(-42));
  EXPECT_EQ(BigInt(-6) * BigInt(-7), BigInt(42));
  EXPECT_EQ(BigInt(6) * BigInt(0), BigInt(0));
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a("123456789123456789123456789");
  BigInt b("987654321987654321");
  EXPECT_EQ((a * b).to_string(),
            "121932631356500531469135800347203169112635269");
}

TEST(BigInt, DivisionSmallDivisor) {
  BigInt a("1000000000000000000000");
  auto dm = a.divmod(BigInt(7));
  EXPECT_EQ(dm.quotient * BigInt(7) + dm.remainder, a);
  EXPECT_EQ(dm.remainder.to_string(), "6");
}

TEST(BigInt, DivisionMultiLimb) {
  BigInt a("123456789012345678901234567890123456789");
  BigInt b("98765432109876543210");
  auto dm = a.divmod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
  EXPECT_FALSE(dm.remainder.is_negative());
}

TEST(BigInt, DivisionSigns) {
  // Truncation toward zero; remainder follows the dividend.
  EXPECT_EQ(BigInt(7) / BigInt(2), BigInt(3));
  EXPECT_EQ(BigInt(-7) / BigInt(2), BigInt(-3));
  EXPECT_EQ(BigInt(7) / BigInt(-2), BigInt(-3));
  EXPECT_EQ(BigInt(-7) / BigInt(-2), BigInt(3));
  EXPECT_EQ(BigInt(7) % BigInt(2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(2), BigInt(-1));
  EXPECT_EQ(BigInt(7) % BigInt(-2), BigInt(1));
  EXPECT_EQ(BigInt(-7) % BigInt(-2), BigInt(-1));
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1).divmod(BigInt(0)), std::domain_error);
}

TEST(BigInt, DivisionAddBackCase) {
  // Exercise the rare Knuth-D "add back" correction: crafted operands where
  // the trial quotient digit overshoots.
  BigInt u("340282366920938463426481119284349108225");  // (2^64-1)^2 + ...
  BigInt v("18446744073709551615");
  auto dm = u.divmod(v);
  EXPECT_EQ(dm.quotient * v + dm.remainder, u);
  EXPECT_LT(dm.remainder, v);
}

TEST(BigInt, ComparisonTotalOrder) {
  EXPECT_LT(BigInt(-5), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), BigInt("4294967296"));
  EXPECT_GT(BigInt("100000000000000000000"), BigInt("99999999999999999999"));
}

TEST(BigInt, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)), BigInt(6));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)), BigInt(0));
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)), BigInt(12));
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)), BigInt(0));
  EXPECT_EQ(BigInt::lcm(BigInt(-4), BigInt(6)), BigInt(12));
}

// gcd finishes on machine words once both operands fit 64 bits. Check it,
// lcm and Rational normalization against a Euclid on unsigned __int128 at
// the limb and word boundaries and on mixed 1- to 4-limb operands.
using u128 = unsigned __int128;

u128 gcd_u128(u128 a, u128 b) {
  while (b != 0) {
    const u128 r = a % b;
    a = b;
    b = r;
  }
  return a;
}

BigInt big_of(u128 v) {
  return BigInt(static_cast<std::uint64_t>(v >> 64)) *
             BigInt::pow(BigInt(2), 64) +
         BigInt(static_cast<std::uint64_t>(v));
}

std::string u128_text(u128 v) {
  if (v == 0) return "0";
  std::string s;
  for (; v != 0; v /= 10) s.insert(s.begin(), static_cast<char>('0' + v % 10));
  return s;
}

TEST(BigInt, GcdLcmAndNormalizationMatchInt128Reference) {
  const u128 one = 1;
  std::vector<u128> values = {1, 2, 3, 6, 1000000007};
  for (const int bits : {31, 32, 63, 64, 95, 96, 127}) {
    values.push_back((one << bits) - 1);
    values.push_back(one << bits);
    values.push_back((one << bits) + 1);
  }
  values.push_back(~u128{0} >> 64);  // 2^64 - 1
  // Mixed limb counts sharing factors, so the gcd is nontrivial and the
  // Euclid chain crosses from multi-limb into one word midway.
  std::mt19937_64 rng(20260417);
  for (int i = 0; i < 40; ++i) {
    const u128 common = (rng() >> (rng() % 64)) | 1;
    const u128 cofactor = static_cast<u128>(rng() >> (rng() % 64)) + 1;
    values.push_back(common * cofactor);
  }
  for (const u128 a : values) {
    for (const u128 b : values) {
      SCOPED_TRACE("a=" + u128_text(a) + " b=" + u128_text(b));
      const u128 g = gcd_u128(a, b);
      const BigInt ba = big_of(a), bb = big_of(b);
      ASSERT_EQ(ba.to_string(), u128_text(a));
      EXPECT_EQ(BigInt::gcd(ba, bb), big_of(g));
      EXPECT_EQ(BigInt::gcd(-ba, bb), big_of(g));
      EXPECT_EQ(BigInt::gcd(ba, BigInt(0)), big_of(a));
      EXPECT_EQ(BigInt::lcm(ba, -bb), big_of(a / g) * bb);
      const Rational r(-ba, bb);
      EXPECT_EQ(r.num(), -big_of(a / g));
      EXPECT_EQ(r.den(), big_of(b / g));
    }
  }
}

// +, -, *, /, %, <=>, to_string and to_int128 against signed __int128 at
// the limb and word boundaries and on seeded 1- to 4-limb operands. Only
// pairs whose result fits 127 bits are compared; products take factors
// below 2^63.
using i128 = __int128;

BigInt big_of_signed(i128 v) {
  return v < 0 ? -big_of(static_cast<u128>(-v)) : big_of(static_cast<u128>(v));
}

std::string i128_text(i128 v) {
  return v < 0 ? "-" + u128_text(static_cast<u128>(-v))
               : u128_text(static_cast<u128>(v));
}

TEST(BigInt, ArithmeticMatchesInt128Reference) {
  const i128 one = 1;
  std::vector<i128> values = {0, (one << 64) - 1};
  for (const i128 m : {one, (one << 31) - 1, one << 31, (one << 32) - 1,
                       one << 32, (one << 63) - 1, one << 63, one << 64,
                       one << 95}) {
    values.push_back(m);
    values.push_back(-m);
  }
  // Seeded operands of 1 to 4 limbs, the top limb's high bit varying; four
  // limbs stop at 126 bits so a sum of two still fits 127.
  std::mt19937_64 rng(20261019);
  for (int i = 0; i < 40; ++i) {
    const int limbs = 1 + static_cast<int>(rng() % 4);
    const int bits = std::min(32 * (limbs - 1) + 1 + static_cast<int>(rng() % 32),
                              126);
    const u128 raw = (static_cast<u128>(rng()) << 64) | rng();
    const u128 mask = (static_cast<u128>(1) << bits) - 1;
    const i128 magnitude =
        static_cast<i128>((raw & mask) | (static_cast<u128>(1) << (bits - 1)));
    values.push_back(rng() % 2 == 0 ? magnitude : -magnitude);
  }
  const i128 factor_limit = one << 63;
  auto below = [](i128 v, i128 limit) { return v < limit && -v < limit; };
  for (const i128 a : values) {
    const BigInt ba = big_of_signed(a);
    ASSERT_EQ(ba.to_string(), i128_text(a));
    const std::optional<i128> back = ba.to_int128();
    ASSERT_TRUE(back.has_value()) << i128_text(a);
    EXPECT_EQ(i128_text(*back), i128_text(a));
    for (const i128 b : values) {
      SCOPED_TRACE("a=" + i128_text(a) + " b=" + i128_text(b));
      const BigInt bb = big_of_signed(b);
      i128 r = 0;
      if (!__builtin_add_overflow(a, b, &r)) {
        EXPECT_EQ((ba + bb).to_string(), i128_text(r));
      }
      if (!__builtin_sub_overflow(a, b, &r)) {
        EXPECT_EQ((ba - bb).to_string(), i128_text(r));
      }
      if (below(a, factor_limit) && below(b, factor_limit)) {
        EXPECT_EQ((ba * bb).to_string(), i128_text(a * b));
      }
      if (b != 0) {
        EXPECT_EQ((ba / bb).to_string(), i128_text(a / b));
        EXPECT_EQ((ba % bb).to_string(), i128_text(a % b));
      }
      EXPECT_EQ(ba <=> bb, a <=> b);
    }
  }
  // to_int128 is exact up to both ends of [-2^127, 2^127) and refuses one
  // past either end.
  const u128 two127 = u128{1} << 127;
  const i128 max = static_cast<i128>(two127 - 1);
  const std::optional<i128> high = big_of(two127 - 1).to_int128();
  ASSERT_TRUE(high.has_value());
  EXPECT_TRUE(*high == max);
  // -2^127 has no positive counterpart in i128: build it from 2^127.
  const std::optional<i128> low = (-big_of(two127)).to_int128();
  ASSERT_TRUE(low.has_value());
  EXPECT_TRUE(*low == -max - 1);
  EXPECT_FALSE(big_of(two127).to_int128().has_value());
  EXPECT_FALSE((-big_of(two127) - BigInt(1)).to_int128().has_value());
  EXPECT_FALSE(BigInt::pow(BigInt(2), 128).to_int128().has_value());
  EXPECT_FALSE((-BigInt::pow(BigInt(2), 128)).to_int128().has_value());
}

TEST(BigInt, Pow) {
  EXPECT_EQ(BigInt::pow(BigInt(2), 0), BigInt(1));
  EXPECT_EQ(BigInt::pow(BigInt(2), 10), BigInt(1024));
  EXPECT_EQ(BigInt::pow(BigInt(10), 30).to_string(),
            "1000000000000000000000000000000");
  EXPECT_EQ(BigInt::pow(BigInt(-3), 3), BigInt(-27));
}

TEST(BigInt, FitsInt64Boundaries) {
  EXPECT_TRUE(BigInt("9223372036854775807").fits_int64());
  EXPECT_FALSE(BigInt("9223372036854775808").fits_int64());
  EXPECT_TRUE(BigInt("-9223372036854775808").fits_int64());
  EXPECT_FALSE(BigInt("-9223372036854775809").fits_int64());
  EXPECT_EQ(BigInt("-9223372036854775808").to_int64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW((void)BigInt("9223372036854775808").to_int64(),
               std::overflow_error);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(42).to_double(), 42.0);
  EXPECT_DOUBLE_EQ(BigInt(-42).to_double(), -42.0);
  EXPECT_NEAR(BigInt("1000000000000000000000").to_double(), 1e21, 1e6);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(2).bit_length(), 2u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt("4294967296").bit_length(), 33u);
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  // Limb boundaries: bit_length() <= 31 gates every Rational int64 fast
  // path, so an off-by-one at 2^31 or across a limb would matter.
  const struct {
    BigInt value;
    std::size_t bits;
  } cases[] = {
      {BigInt(std::int64_t{2147483647}), 31},          // 2^31 - 1
      {BigInt(std::int64_t{2147483648}), 32},          // 2^31
      {BigInt(std::uint64_t{4294967295}), 32},         // 2^32 - 1
      {BigInt(std::uint64_t{1} << 63), 64},            // 2^63
      {BigInt::pow(BigInt(2), 64), 65},                // 2^64
      {BigInt::pow(BigInt(2), 95), 96},                // 2^95
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.value.bit_length(), c.bits) << c.value;
    EXPECT_EQ(c.value.negated().bit_length(), c.bits) << c.value.negated();
  }
}

TEST(BigInt, HashDistinguishesSign) {
  EXPECT_NE(BigInt(5).hash(), BigInt(-5).hash());
  EXPECT_EQ(BigInt(5).hash(), BigInt(5).hash());
}

TEST(BigInt, AbsNegated) {
  EXPECT_EQ(BigInt(-7).abs(), BigInt(7));
  EXPECT_EQ(BigInt(7).abs(), BigInt(7));
  EXPECT_EQ(BigInt(7).negated(), BigInt(-7));
  EXPECT_EQ(BigInt(0).negated(), BigInt(0));
  EXPECT_FALSE(BigInt(0).negated().is_negative());
}

// ---------------------------------------------------------------------------
// Property sweeps: divmod identity and ring laws across magnitude scales.
// ---------------------------------------------------------------------------

class BigIntPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  // Deterministic pseudo-random operand of roughly `limbs` 32-bit limbs.
  static BigInt pseudo(std::uint64_t seed, int limbs) {
    BigInt v(0);
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    for (int i = 0; i < limbs; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      v = v * BigInt(std::uint64_t{1} << 32) + BigInt(state >> 32);
    }
    if (seed % 2 == 1) v = v.negated();
    return v;
  }
};

TEST_P(BigIntPropertyTest, DivModIdentity) {
  const int limbs = GetParam();
  for (std::uint64_t s = 1; s <= 20; ++s) {
    BigInt a = pseudo(s, limbs);
    BigInt b = pseudo(s + 100, (limbs + 1) / 2);
    if (b.is_zero()) continue;
    auto dm = a.divmod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder.abs(), b.abs());
  }
}

TEST_P(BigIntPropertyTest, RingLaws) {
  const int limbs = GetParam();
  for (std::uint64_t s = 1; s <= 10; ++s) {
    BigInt a = pseudo(s, limbs);
    BigInt b = pseudo(s + 7, limbs);
    BigInt c = pseudo(s + 13, limbs);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
  }
}

TEST_P(BigIntPropertyTest, StringRoundTripRandom) {
  const int limbs = GetParam();
  for (std::uint64_t s = 1; s <= 10; ++s) {
    BigInt a = pseudo(s, limbs);
    EXPECT_EQ(BigInt(a.to_string()), a);
  }
}

TEST_P(BigIntPropertyTest, GcdDividesBoth) {
  const int limbs = GetParam();
  for (std::uint64_t s = 1; s <= 10; ++s) {
    BigInt a = pseudo(s, limbs);
    BigInt b = pseudo(s + 3, limbs);
    BigInt g = BigInt::gcd(a, b);
    if (g.is_zero()) continue;
    EXPECT_TRUE((a % g).is_zero());
    EXPECT_TRUE((b % g).is_zero());
  }
}

INSTANTIATE_TEST_SUITE_P(MagnitudeScales, BigIntPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

TEST(BigInt, GrowsAcrossTheInlineLimbBoundary) {
  // Repeated squaring walks the limb count 2 -> 4 -> 8 -> 16, crossing the
  // small-buffer boundary of the limb storage; division walks it back down.
  const BigInt base(std::uint64_t{0xfedcba9876543210ull});
  BigInt x = base;
  for (int i = 0; i < 3; ++i) x *= x;  // base^8, ~512 bits
  BigInt y = x;
  for (int i = 0; i < 7; ++i) y /= base;
  EXPECT_EQ(y, base);
  EXPECT_EQ((x % base).to_string(), "0");
}

}  // namespace
}  // namespace ssco::num
