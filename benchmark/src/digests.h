#pragma once
// Pinned digests of each workload's generated inputs and of the exact
// throughputs it produces. Pools that do not depend on the seed are checked
// on every full-size run; seed-derived inputs only on kDefaultSeed. An
// input mismatch aborts the run ("workload inputs changed"); a throughput
// mismatch fails the output check. Every run prints the digests it
// computed ("# digest ..."), which is how these values are refreshed after
// a deliberate change to the workloads.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace bench {

struct PinnedDigest {
  const char* workload;
  const char* inputs;
  const char* throughputs;
};

inline constexpr PinnedDigest kPinnedDigests[] = {
    {"reduce_cold", "0a0740d9b86e64f0", "4f1c430a7c09d512"},
    {"scatter_cold", "2ac8407288ece0ac", "0673d0d10693714b"},
    {"drift_serve", "92d9c8873411cd7b", "c6c3d253674e356a"},
    {"exec_drift", "cdf7614728c8b6d6", "f39ae431ff7be5f4"},
};

/// `comparable`: this run generates the inputs the digests were pinned
/// from (full size; kDefaultSeed where the inputs depend on the seed).
inline const PinnedDigest* pinned_digest(const Config& cfg, bool comparable) {
  if (!comparable) return nullptr;
  for (const PinnedDigest& d : kPinnedDigests) {
    if (cfg.workload == d.workload) return &d;
  }
  return nullptr;
}

/// Whether a run of a workload whose inputs do (`seeded`) or do not
/// depend on --seed regenerates the pinned inputs.
inline bool comparable_run(const Config& cfg, bool seeded) {
  return !cfg.smoke && (!seeded || cfg.seed == kDefaultSeed);
}

/// Aborts when the generated inputs differ from the pinned ones.
inline void check_inputs(const Config& cfg, bool comparable,
                         const std::string& digest) {
  std::printf("# digest workload=%s inputs=%s\n", cfg.workload.c_str(),
              digest.c_str());
  const PinnedDigest* pin = pinned_digest(cfg, comparable);
  if (pin != nullptr && digest != pin->inputs) {
    std::fprintf(stderr,
                 "workload inputs changed: %s inputs digest %s, pinned %s\n",
                 cfg.workload.c_str(), digest.c_str(), pin->inputs);
    std::exit(3);
  }
}

/// Fails the output check when the exact throughputs differ from the
/// pinned ones.
inline void check_throughputs(Outcome& out, const Config& cfg,
                              bool comparable, const std::string& digest) {
  std::printf("# digest workload=%s throughputs=%s\n", cfg.workload.c_str(),
              digest.c_str());
  const PinnedDigest* pin = pinned_digest(cfg, comparable);
  if (pin != nullptr && digest != pin->throughputs) {
    record_failure(out, cfg, 0, "throughput_digest",
                   "exact throughputs digest " + digest + " differs from "
                   "pinned " + pin->throughputs);
  }
}

}  // namespace bench
