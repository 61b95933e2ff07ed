#pragma once
// Sizing the private thread pools that tests inject into the solver.

#include <cstddef>
#include <cstdlib>

namespace ssco::testing {

/// Helper-thread count for the pools the bit-identity suites inject.
/// Overridable via SSCO_TEST_POOL_WORKERS so CI can run the same suites at
/// the corners of the thread matrix (0 = fully inline, 8 = heavily
/// concurrent under TSan); results must be identical at every setting.
inline std::size_t test_pool_workers() {
  if (const char* env = std::getenv("SSCO_TEST_POOL_WORKERS")) {
    return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
  }
  return 3;
}

}  // namespace ssco::testing
