#include "exec/faults.h"

#include <algorithm>
#include <cstdio>

namespace ssco::exec {

namespace {

/// splitmix64: the standard 64-bit finalizer. Full avalanche, so adjacent
/// (edge, ordinal) pairs decorrelate; cheap enough for the scheduler lock.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from (seed, stream, ordinal).
double hash_unit(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t ordinal) {
  const std::uint64_t h =
      mix64(seed ^ mix64(stream * 0x9e3779b97f4a7c15ULL + 1) ^
            mix64(ordinal * 0xc2b2ae3d27d4eb4fULL + 2));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_code_name(FaultCode code) {
  switch (code) {
    case FaultCode::kNone: return "none";
    case FaultCode::kOneportStatic: return "oneport-static";
    case FaultCode::kNoSchedule: return "no-schedule";
    case FaultCode::kDeadlock: return "deadlock";
    case FaultCode::kWatchdogStall: return "watchdog-stall";
    case FaultCode::kDeadlineExceeded: return "deadline-exceeded";
    case FaultCode::kRetransmitLimit: return "retransmit-limit";
    case FaultCode::kIdentityUnderflow: return "identity-underflow";
    case FaultCode::kIncompleteWindow: return "incomplete-window";
    case FaultCode::kCountOverflow: return "count-overflow";
    case FaultCode::kWorkerException: return "worker-exception";
  }
  return "unknown";
}

std::string ExecFault::to_string() const {
  if (code == FaultCode::kNone) return "none";
  char head[128];
  std::snprintf(head, sizeof(head), "%s @ %.6gs", fault_code_name(code),
                at_seconds);
  std::string s(head);
  if (edge != graph::kInvalidId) {
    s += " (edge " + std::to_string(edge) + ")";
  } else if (node != graph::kInvalidId) {
    s += " (node " + std::to_string(node) + ")";
  }
  if (!message.empty()) {
    s += ": ";
    s += message;
  }
  return s;
}

FaultPlan chaos_plan(std::uint64_t seed, std::size_t num_edges,
                     std::size_t num_nodes, double period_seconds) {
  FaultPlan plan;
  plan.seed = seed;
  if (num_edges == 0) return plan;
  const auto edge_at = [&](std::uint64_t stream) {
    return static_cast<graph::EdgeId>(
        mix64(seed ^ mix64(stream)) % num_edges);
  };
  const unsigned severity = static_cast<unsigned>(seed % 4);

  // Every severity gets loss + jitter on a couple of edges; loss rates stay
  // below the retransmit budget so light scenarios finish efficient.
  const double p = 0.02 + 0.06 * severity;  // 2% .. 20%
  plan.losses.push_back({edge_at(11), p});
  if (num_edges > 1) plan.losses.push_back({edge_at(13), p * 0.5});
  plan.jitters.push_back({edge_at(17), 0.05 * period_seconds});

  if (severity >= 1) {
    // One link collapses to 40-70% after a few periods: shows up as drift.
    const double scale = 0.7 - 0.1 * severity;
    plan.rate_collapses.push_back({edge_at(19), 3.0 * period_seconds, scale});
  }
  if (severity >= 2 && num_nodes > 1) {
    const auto node = static_cast<graph::NodeId>(
        1 + mix64(seed ^ mix64(23)) % (num_nodes - 1));
    plan.slowdowns.push_back({node, 2.0 * period_seconds, 0.6});
  }
  if (severity >= 3) {
    // A short blackout: the engine waits it out and retransmission +
    // pipelining absorb the stall, at an efficiency cost.
    const graph::EdgeId e = edge_at(29);
    plan.blackouts.push_back(
        {e, 4.0 * period_seconds, 4.0 * period_seconds + 0.5 * period_seconds});
  }
  return plan;
}

FaultRuntime::FaultRuntime(const FaultPlan& plan, std::size_t num_edges,
                           std::size_t num_nodes)
    : plan_(plan), active_(!plan.empty()) {
  (void)num_nodes;
  edges_.resize(num_edges);
  for (const ChunkLoss& l : plan_.losses) {
    if (l.edge < num_edges && l.probability > 0.0) {
      edges_[l.edge].loss_probability =
          std::min(1.0, edges_[l.edge].loss_probability + l.probability);
    }
  }
  for (const Jitter& j : plan_.jitters) {
    if (j.edge < num_edges && j.max_seconds > 0.0) {
      edges_[j.edge].jitter_max =
          std::max(edges_[j.edge].jitter_max, j.max_seconds);
    }
  }
  collapse_fired_.assign(plan_.rate_collapses.size(), 0);
  slowdown_fired_.assign(plan_.slowdowns.size(), 0);
  blackout_fired_.assign(plan_.blackouts.size(), 0);
}

double FaultRuntime::rate_scale(graph::EdgeId edge, double now) {
  double scale = 1.0;
  for (std::size_t i = 0; i < plan_.rate_collapses.size(); ++i) {
    const RateCollapse& c = plan_.rate_collapses[i];
    if (c.edge == edge && now >= c.at_seconds && c.scale > 0.0) {
      scale *= std::min(c.scale, 1.0);
      if (!collapse_fired_[i]) {
        collapse_fired_[i] = 1;
        ++injected_;
      }
    }
  }
  return std::max(scale, 1e-6);
}

double FaultRuntime::node_scale(graph::NodeId node, double now) {
  double scale = 1.0;
  for (std::size_t i = 0; i < plan_.slowdowns.size(); ++i) {
    const NodeSlowdown& s = plan_.slowdowns[i];
    if (s.node == node && now >= s.at_seconds && s.scale > 0.0) {
      scale *= std::min(s.scale, 1.0);
      if (!slowdown_fired_[i]) {
        slowdown_fired_[i] = 1;
        ++injected_;
      }
    }
  }
  return std::max(scale, 1e-6);
}

double FaultRuntime::blackout_release(graph::EdgeId edge, double now) {
  double release = now;
  for (std::size_t i = 0; i < plan_.blackouts.size(); ++i) {
    const Blackout& b = plan_.blackouts[i];
    if (b.edge == edge && now >= b.from_seconds && now < b.until_seconds) {
      release = std::max(release, b.until_seconds);
      if (!blackout_fired_[i]) {
        blackout_fired_[i] = 1;
        ++injected_;
      }
    }
  }
  return release;
}

bool FaultRuntime::lose_next_chunk(graph::EdgeId edge) {
  if (edge >= edges_.size()) return false;
  EdgeState& st = edges_[edge];
  if (st.loss_probability <= 0.0) return false;
  const std::uint64_t ordinal = st.send_ordinal++;
  const bool lost =
      hash_unit(plan_.seed, 0x10000ULL + edge, ordinal) < st.loss_probability;
  if (lost) ++injected_;
  return lost;
}

double FaultRuntime::next_jitter(graph::EdgeId edge) {
  if (edge >= edges_.size()) return 0.0;
  EdgeState& st = edges_[edge];
  if (st.jitter_max <= 0.0) return 0.0;
  const std::uint64_t ordinal = st.jitter_ordinal++;
  if (!st.jitter_fired) {
    st.jitter_fired = true;
    ++injected_;
  }
  return st.jitter_max * hash_unit(plan_.seed, 0x20000ULL + edge, ordinal);
}

double FaultRuntime::backoff(std::size_t attempt) const {
  double delay = plan_.retransmit_backoff_seconds;
  for (std::size_t i = 1; i < attempt; ++i) {
    delay *= 2.0;
    if (delay >= plan_.retransmit_backoff_cap_seconds) break;
  }
  return std::min(delay, plan_.retransmit_backoff_cap_seconds);
}

}  // namespace ssco::exec
