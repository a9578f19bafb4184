#ifndef FACTION_COMMON_HEXFLOAT_H_
#define FACTION_COMMON_HEXFLOAT_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

// Bit-exact hexfloat text for doubles (DESIGN.md §17). The token is built
// from, and parsed back into, the IEEE-754 bits directly: no rounding, no
// locale, no libc. FormatHexDouble writes the same bytes as glibc's
// printf("%a"); ParseHexDouble accepts exactly what FormatHexDouble
// writes for a non-NaN double and nothing else:
//
//   normal     [-]0x1[.h{1,13}]p(+|-)e     e in [-1022, 1023]
//   zero       [-]0x0p+0
//   subnormal  [-]0x0.h{1,13}p-1022
//   infinity   [-]inf
//
// `h` is a lowercase hex digit and the fraction never ends in 0; the
// exponent is decimal without leading zeros and "p-0" is not a token.

namespace faction {

/// Longest token FormatHexDouble writes: "-0x1.fffffffffffffp+1023".
inline constexpr std::size_t kHexDoubleMaxChars = 24;

/// Writes v's hexfloat token at `out` (at least kHexDoubleMaxChars bytes,
/// no terminating NUL) and returns one past its last byte. NaN writes
/// "nan" or "-nan", as glibc does.
inline char* FormatHexDouble(char* out, double v) {
  constexpr std::uint64_t kFraction = (std::uint64_t{1} << 52) - 1;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  if ((bits >> 63) != 0) *out++ = '-';
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const std::uint64_t fraction = bits & kFraction;
  if (biased == 0x7ff) {
    std::memcpy(out, fraction == 0 ? "inf" : "nan", 3);
    return out + 3;
  }
  *out++ = '0';
  *out++ = 'x';
  *out++ = biased == 0 ? '0' : '1';
  int exponent = biased - 1023;
  if (fraction == 0) {
    if (biased == 0) exponent = 0;
  } else {
    if (biased == 0) exponent = -1022;
    *out++ = '.';
    // 13 nibbles, the trailing zero ones dropped.
    int shift = 48;
    const int last = (std::countr_zero(fraction) / 4) * 4;
    for (; shift >= last; shift -= 4) {
      *out++ = "0123456789abcdef"[(fraction >> shift) & 0xf];
    }
  }
  *out++ = 'p';
  *out++ = exponent < 0 ? '-' : '+';
  unsigned magnitude = static_cast<unsigned>(exponent < 0 ? -exponent
                                                          : exponent);
  char digits[4];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + magnitude % 10);
    magnitude /= 10;
  } while (magnitude != 0);
  while (n > 0) *out++ = digits[--n];
  return out;
}

namespace hexfloat_internal {

/// 0-15 for '0'-'9' and 'a'-'f'; 0xff for every other byte, uppercase
/// hex digits included.
inline constexpr std::array<std::uint8_t, 256> kHexDigit = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(0xff);
  for (int c = 0; c < 10; ++c) table['0' + c] = static_cast<std::uint8_t>(c);
  for (int c = 0; c < 6; ++c) {
    table['a' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return table;
}();

}  // namespace hexfloat_internal

/// Parses one whole token of the grammar above into *out; false, with
/// *out untouched, for any other input (decimal text, uppercase hex,
/// "0x2p+0", 14 fraction digits, an exponent the leading digit does not
/// allow, "nan", trailing bytes).
inline bool ParseHexDouble(std::string_view token, double* out) {
  const char* p = token.data();
  const char* const end = p + token.size();
  std::uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = std::uint64_t{1} << 63;
    ++p;
  }
  if (end - p == 3 && std::memcmp(p, "inf", 3) == 0) {
    *out = std::bit_cast<double>(bits | (std::uint64_t{0x7ff} << 52));
    return true;
  }
  // Shortest token: "0x0p+0".
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' ||
      (p[2] != '0' && p[2] != '1')) {
    return false;
  }
  const bool normal = p[2] == '1';
  p += 3;
  std::uint64_t fraction = 0;
  if (*p == '.') {
    ++p;
    int digits = 0;
    std::uint8_t digit = 0;
    for (; p != end && digits < 14; ++p, ++digits) {
      const std::uint8_t d =
          hexfloat_internal::kHexDigit[static_cast<unsigned char>(*p)];
      if (d > 15) break;
      fraction = fraction << 4 | d;
      digit = d;
    }
    // The last digit read is the fraction's last: it is never 0.
    if (digits == 0 || digits > 13 || digit == 0) return false;
    fraction <<= 4 * (13 - digits);
  }
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) {
    return false;
  }
  const bool negative = p[1] == '-';
  p += 2;
  // 1 to 4 decimal digits, no leading zero.
  if (end - p > 4 || (*p == '0' && end - p > 1)) return false;
  int exponent = 0;
  for (; p != end; ++p) {
    const unsigned d = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (d > 9) return false;
    exponent = exponent * 10 + static_cast<int>(d);
  }
  if (negative) {
    if (exponent == 0) return false;
    exponent = -exponent;
  }
  if (normal) {
    if (exponent < -1022 || exponent > 1023) return false;
    bits |= static_cast<std::uint64_t>(exponent + 1023) << 52;
  } else if (exponent != (fraction == 0 ? 0 : -1022)) {
    return false;
  }
  *out = std::bit_cast<double>(bits | fraction);
  return true;
}

}  // namespace faction

#endif  // FACTION_COMMON_HEXFLOAT_H_
