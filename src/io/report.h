#pragma once
// Small formatting helpers shared by benches and examples.

#include <cstdint>
#include <string>

#include "num/rational.h"

namespace ssco::io {

/// "2/9 (~0.2222)" — exact value with a decimal hint.
[[nodiscard]] std::string pretty(const num::Rational& value, int digits = 4);

/// "1.83x" style ratio formatting.
[[nodiscard]] std::string ratio(const num::Rational& numerator,
                                const num::Rational& denominator,
                                int digits = 2);

/// Section banner for bench output.
[[nodiscard]] std::string banner(const std::string& title);

/// "93.1%" — percentage rendering of a [0, 1] fraction.
[[nodiscard]] std::string percent(double fraction, int digits = 1);

/// Fixed-point decimal, e.g. fixed(12.345, 2) == "12.35".
[[nodiscard]] std::string fixed(double value, int digits = 2);

/// Milliseconds rendering of a nanosecond count, e.g. millis(12'345'678)
/// == "12.35 ms" — used for the solver's FTRAN/BTRAN/pricing/factor
/// wall-clock breakdown (the solver_*_ns registry counters).
[[nodiscard]] std::string millis(std::uint64_t nanos, int digits = 2);

/// JSON string-literal escaping (quotes, backslashes; control characters
/// become spaces) for the machine-readable emitters — the trace exporter
/// and metric snapshots write JSON by hand rather than pulling in a
/// dependency the container does not have.
[[nodiscard]] std::string json_escape(const std::string& text);

}  // namespace ssco::io
