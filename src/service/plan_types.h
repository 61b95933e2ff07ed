#pragma once
// Request/result vocabulary of the plan service.
//
// A PlanRequest is one planning problem: an operation instance (scatter,
// gossip or reduce — the roles travel inside the instance) plus the plan
// options. The service canonicalizes it into a CacheKey — operation kind,
// the isomorphism-stable full fingerprint (platform/fingerprint.h) and the
// plan-shaping option bits — and serves a PlanResult whose payload is a
// SHARED, immutable plan: exact hits hand out another reference to the same
// core::FlowPlan / core::ReducePlan, so a hit never copies or re-solves.

#include <cstdint>
#include <memory>
#include <variant>

#include "core/steady_state.h"
#include "platform/fingerprint.h"
#include "platform/paper_instances.h"

namespace ssco::service {

enum class Operation : std::uint8_t { kScatter, kGossip, kReduce };

[[nodiscard]] const char* to_string(Operation op);

struct PlanRequest {
  std::variant<platform::ScatterInstance, platform::GossipInstance,
               platform::ReduceInstance>
      instance;
  core::PlanOptions options;
  /// Per-request fulfillment deadline in milliseconds from submit(); 0 =
  /// the service default. Delivery QoS only — deliberately NOT part of the
  /// cache identity (same_request / CacheKey ignore it), so requests that
  /// differ only in urgency share one solve and one cache entry.
  double deadline_ms = 0.0;

  [[nodiscard]] Operation operation() const {
    return static_cast<Operation>(instance.index());
  }
  [[nodiscard]] const platform::Platform& platform() const;
};

/// Cache identity of a request. Solver TUNING fields (pivot and thread
/// budgets) are deliberately not part of the key: they change how the
/// certified optimum is found, never what it is. Options that change the
/// PLAN (allow_split_messages) are folded into `option_bits`.
struct CacheKey {
  Operation op = Operation::kScatter;
  std::uint64_t fingerprint = 0;  // Fingerprint::full
  std::uint64_t option_bits = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    std::uint64_t h = k.fingerprint + 0x9e3779b97f4a7c15ull *
                                          (static_cast<std::uint64_t>(k.op) +
                                           (k.option_bits << 8) + 1);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// Canonical key + both fingerprint digests for a request.
struct RequestDigest {
  CacheKey key;
  platform::Fingerprint fingerprint;
};
[[nodiscard]] RequestDigest digest(const PlanRequest& request);

/// Exact request identity (the fingerprint-collision guard): same
/// operation, same platform/roles/sizes, same plan-shaping options.
[[nodiscard]] bool same_request(const PlanRequest& a, const PlanRequest& b);

/// Warm-start compatibility: same operation and roles on a platform of the
/// SAME SHAPE (platform/fingerprint.h: same names and edge list — so the
/// cached basis maps one-to-one onto the new LP) whose costs/speeds/sizes
/// may have drifted.
[[nodiscard]] bool warm_compatible(const PlanRequest& request,
                                   const PlanRequest& cached);

/// A solved, immutable plan as stored in the cache: the plan itself plus a
/// snapshot of the request that produced it (for exact-hit verification and
/// warm-compatibility checks).
struct PlanPayload {
  Operation op = Operation::kScatter;
  std::shared_ptr<const core::FlowPlan> flow;         // scatter / gossip
  std::shared_ptr<const core::ReducePlan> reduce;     // reduce
  PlanRequest request;

  [[nodiscard]] const num::Rational& throughput() const;
  [[nodiscard]] bool certified() const;
  [[nodiscard]] bool warm_started() const;
  [[nodiscard]] std::size_t lp_pivots() const;
};

struct PlanResult {
  enum class Source : std::uint8_t {
    kExactHit,   // served from cache, no solve
    kWarmHit,    // re-solved incrementally from a cached basis
    kColdSolve,  // solved from scratch
    kStale,      // degraded mode: last certified same-structure plan
  };

  std::shared_ptr<const PlanPayload> payload;
  Source source = Source::kColdSolve;
  platform::Fingerprint fingerprint;
  /// Wall-clock from submit() to fulfillment (queue wait + solve included;
  /// ~0 for exact hits answered inline).
  double latency_ms = 0.0;
  /// Serve-stale contract: true when the plan is NOT certified for the
  /// requested platform (deadline fired, execution faulted) but was served
  /// anyway as the best known same-structure plan. A background re-solve
  /// has been scheduled; the caller may use the plan at reduced efficiency
  /// or retry later.
  bool degraded = false;

  [[nodiscard]] const num::Rational& throughput() const {
    return payload->throughput();
  }
};

[[nodiscard]] const char* to_string(PlanResult::Source source);

}  // namespace ssco::service
