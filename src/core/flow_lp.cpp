// The one definition of the flow-family LP (see core/flow_lp.h): the scatter,
// gossip and gather front ends validate their roles, list the commodities and
// hand them to build_flow_lp / solve_flow_lp.

#include "core/flow_lp.h"

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/gather_lp.h"
#include "core/gossip_lp.h"
#include "core/lp_names.h"
#include "core/scatter_lp.h"
#include "graph/paths.h"

namespace ssco::core {

namespace {

using lp::LinearExpr;
using lp::Model;
using lp::Sense;
using lp::VarId;
using platform::GossipInstance;
using platform::Platform;
using platform::ScatterInstance;

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

/// One message type, streamed from `origin` to `destination`; `tag` names
/// its LP entities.
struct Commodity {
  NodeId origin;
  NodeId destination;
  std::string tag;
};

/// The model with its variable layout: var_of[k][e] = send(e, commodity k),
/// kNoVar where suppressed.
struct FlowLp {
  Model model;
  std::vector<std::vector<std::size_t>> var_of;
  VarId throughput;
};

FlowLp build_flow_lp(const Platform& platform, const Rational& message_size,
                     const std::vector<Commodity>& commodities) {
  const auto& graph = platform.graph();
  FlowLp lp;
  Model& model = lp.model;
  lp.var_of.assign(commodities.size(),
                   std::vector<std::size_t>(graph.num_edges(), kNoVar));
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const Commodity& c = commodities[k];
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const auto& edge = graph.edge(e);
      // Useless variables: a commodity leaving its destination, or entering
      // its origin.
      if (edge.src == c.destination || edge.dst == c.origin) continue;
      VarId v =
          model.add_variable("send_" + edge_tag(platform, e) + "_" + c.tag);
      lp.var_of[k][e] = v.index;
    }
  }
  lp.throughput = model.add_variable("TP");
  model.set_objective(lp.throughput, Rational(1));

  // One-port rows (paper eq. 2-3 with eq. 4 substituted): per node, the time
  // spent sending (resp. receiving) within one time-unit is at most 1.
  auto add_busy = [&](LinearExpr& busy, EdgeId e) {
    const Rational unit_time = message_size * platform.edge_cost(e);
    for (const auto& vars : lp.var_of) {
      if (vars[e] != kNoVar) busy.add(VarId{vars[e]}, unit_time);
    }
  };
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    LinearExpr out_busy, in_busy;
    for (EdgeId e : graph.out_edges(n)) add_busy(out_busy, e);
    for (EdgeId e : graph.in_edges(n)) add_busy(in_busy, e);
    if (!out_busy.empty()) {
      model.add_constraint(out_busy, Sense::kLessEqual, Rational(1),
                           "oneport_out_" + node_tag(platform, n));
    }
    if (!in_busy.empty()) {
      model.add_constraint(in_busy, Sense::kLessEqual, Rational(1),
                           "oneport_in_" + node_tag(platform, n));
    }
  }

  // Conservation (paper eq. 5): every node other than the commodity's
  // endpoints forwards everything it receives.
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const Commodity& c = commodities[k];
    const auto& vars = lp.var_of[k];
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (n == c.origin || n == c.destination) continue;
      LinearExpr net;
      bool any = false;
      for (EdgeId e : graph.in_edges(n)) {
        if (vars[e] != kNoVar) {
          net.add(VarId{vars[e]}, Rational(1));
          any = true;
        }
      }
      for (EdgeId e : graph.out_edges(n)) {
        if (vars[e] != kNoVar) {
          net.add(VarId{vars[e]}, Rational(-1));
          any = true;
        }
      }
      if (any) {
        model.add_constraint(
            net, Sense::kEqual, Rational(0),
            "conserve_" + c.tag + "_n" + node_tag(platform, n));
      }
    }
  }

  // Throughput rows (paper eq. 6): each destination receives its commodity
  // at rate TP.
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    const Commodity& c = commodities[k];
    LinearExpr delivered;
    for (EdgeId e : graph.in_edges(c.destination)) {
      if (lp.var_of[k][e] != kNoVar) {
        delivered.add(VarId{lp.var_of[k][e]}, Rational(1));
      }
    }
    delivered.add(lp.throughput, Rational(-1));
    model.add_constraint(delivered, Sense::kEqual, Rational(0),
                         "throughput_" + c.tag);
  }
  return lp;
}

/// Solves the flow LP and reads the primal back through the builder's
/// layout; commodity k of the result is commodities[k].
MultiFlow solve_flow_lp(const Platform& platform, const Rational& message_size,
                        const std::vector<Commodity>& commodities,
                        const FlowLpOptions& options, const MultiFlow* previous,
                        const char* family) {
  FlowLp lp = build_flow_lp(platform, message_size, commodities);

  lp::ExactSolver solver(options.solver);
  lp::SolveContext context;
  if (previous) context.warm = previous->lp_basis;
  lp::ExactSolution sol = solver.solve(lp.model, &context);
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error(std::string(family) +
                             " LP did not reach optimality: " +
                             lp::to_string(sol.status));
  }

  MultiFlow flow;
  flow.throughput = sol.primal[lp.throughput.index];
  flow.message_size = message_size;
  flow.certified = sol.certified;
  flow.lp_method = sol.method;
  flow.lp_pivots = sol.float_iterations + sol.exact_iterations;
  flow.lp_basis = std::move(context.warm);
  flow.warm_started = sol.warm_started;
  flow.commodities.resize(commodities.size());
  for (std::size_t k = 0; k < commodities.size(); ++k) {
    CommodityFlow& c = flow.commodities[k];
    c.origin = commodities[k].origin;
    c.destination = commodities[k].destination;
    c.edge_flow.assign(lp.var_of[k].size(), Rational(0));
    for (EdgeId e = 0; e < lp.var_of[k].size(); ++e) {
      const std::size_t v = lp.var_of[k][e];
      if (v != kNoVar) c.edge_flow[e] = sol.primal[v];
    }
    c.rate = flow.throughput;
  }
  flow.prune_cycles(platform);
  return flow;
}

void check_instance(const ScatterInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.source >= graph.num_nodes()) {
    throw std::invalid_argument("scatter: bad source node");
  }
  if (instance.targets.empty()) {
    throw std::invalid_argument("scatter: no targets");
  }
  if (instance.message_size.signum() <= 0) {
    throw std::invalid_argument("scatter: message size must be positive");
  }
  std::unordered_set<NodeId> seen;
  auto reachable = graph::reachable_from(graph, instance.source);
  for (NodeId t : instance.targets) {
    if (t >= graph.num_nodes()) {
      throw std::invalid_argument("scatter: bad target node");
    }
    if (t == instance.source) {
      throw std::invalid_argument("scatter: source cannot be a target");
    }
    if (!seen.insert(t).second) {
      throw std::invalid_argument("scatter: duplicate target");
    }
    if (!reachable[t]) {
      throw std::invalid_argument("scatter: target unreachable from source");
    }
  }
}

void check_instance(const GossipInstance& instance) {
  const auto& graph = instance.platform.graph();
  if (instance.sources.empty() || instance.targets.empty()) {
    throw std::invalid_argument("gossip: need sources and targets");
  }
  if (instance.message_size.signum() <= 0) {
    throw std::invalid_argument("gossip: message size must be positive");
  }
  auto check_nodes = [&graph](const std::vector<NodeId>& nodes,
                              const char* what) {
    std::unordered_set<NodeId> seen;
    for (NodeId n : nodes) {
      if (n >= graph.num_nodes()) {
        throw std::invalid_argument(std::string("gossip: bad ") + what);
      }
      if (!seen.insert(n).second) {
        throw std::invalid_argument(std::string("gossip: duplicate ") + what);
      }
    }
  };
  check_nodes(instance.sources, "source");
  check_nodes(instance.targets, "target");
  bool any_pair = false;
  for (NodeId s : instance.sources) {
    auto reachable = graph::reachable_from(graph, s);
    for (NodeId t : instance.targets) {
      if (s == t) continue;
      any_pair = true;
      if (!reachable[t]) {
        throw std::invalid_argument("gossip: target unreachable from source");
      }
    }
  }
  // Without a pair the LP holds only TP, which is unbounded.
  if (!any_pair) {
    throw std::invalid_argument("gossip: no pair with source != target");
  }
}

/// One commodity per target, in instance order, tagged "m<target>".
std::vector<Commodity> commodities(const ScatterInstance& instance) {
  std::vector<Commodity> out;
  out.reserve(instance.targets.size());
  for (NodeId t : instance.targets) {
    out.push_back({instance.source, t, "m" + node_tag(instance.platform, t)});
  }
  return out;
}

/// One commodity per (source, target) pair with source != target, sources
/// outermost, tagged "p<src>.<dst>".
std::vector<Commodity> commodities(const GossipInstance& instance) {
  std::vector<Commodity> out;
  for (NodeId s : instance.sources) {
    for (NodeId t : instance.targets) {
      if (s == t) continue;
      out.push_back({s, t,
                     "p" + node_tag(instance.platform, s) + "." +
                         node_tag(instance.platform, t)});
    }
  }
  return out;
}

}  // namespace

lp::Model build_scatter_lp(const ScatterInstance& instance) {
  check_instance(instance);
  return build_flow_lp(instance.platform, instance.message_size,
                       commodities(instance))
      .model;
}

MultiFlow solve_scatter(const ScatterInstance& instance,
                        const FlowLpOptions& options,
                        const MultiFlow* previous) {
  check_instance(instance);
  return solve_flow_lp(instance.platform, instance.message_size,
                       commodities(instance), options, previous, "scatter");
}

lp::Model build_gossip_lp(const GossipInstance& instance) {
  check_instance(instance);
  return build_flow_lp(instance.platform, instance.message_size,
                       commodities(instance))
      .model;
}

MultiFlow solve_gossip(const GossipInstance& instance,
                       const FlowLpOptions& options,
                       const MultiFlow* previous) {
  check_instance(instance);
  return solve_flow_lp(instance.platform, instance.message_size,
                       commodities(instance), options, previous, "gossip");
}

MultiFlow solve_gather(const Platform& platform,
                       const std::vector<NodeId>& sources, NodeId sink,
                       const Rational& message_size,
                       const FlowLpOptions& options,
                       const MultiFlow* previous) {
  for (NodeId s : sources) {
    if (s == sink) {
      throw std::invalid_argument("gather: the sink cannot be a source");
    }
  }
  GossipInstance gossip;
  gossip.platform = platform;
  gossip.sources = sources;
  gossip.targets = {sink};
  gossip.message_size = message_size;
  // Commodity order from solve_gossip is (source, target) pairs with the
  // single sink: exactly one commodity per source, in source order.
  return solve_gossip(gossip, options, previous);
}

}  // namespace ssco::core
