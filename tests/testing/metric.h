#pragma once
// Reading registry values in tests.

#include <gtest/gtest.h>

#include <string_view>

#include "obs/metrics.h"

namespace ssco::testing {

/// Value of `name` in `snapshot` (see obs::Snapshot::Entry::as_double). An
/// absent name fails the calling test: Snapshot::value would read a
/// misspelled counter as 0, and an expectation of 0 would then pass.
inline double metric(const obs::Snapshot& snapshot, std::string_view name) {
  const obs::Snapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) {
    ADD_FAILURE() << "no metric named '" << name << "' in the snapshot";
    return 0.0;
  }
  return entry->as_double();
}

}  // namespace ssco::testing
