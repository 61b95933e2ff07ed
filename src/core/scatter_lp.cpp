#include "core/scatter_lp.h"

#include <stdexcept>
#include <unordered_set>

#include "core/lp_names.h"
#include "graph/paths.h"

namespace ssco::core {

namespace {

using lp::LinearExpr;
using lp::Model;
using lp::Sense;
using lp::VarId;
using platform::ScatterInstance;

constexpr std::size_t kNoVar = static_cast<std::size_t>(-1);

/// Variable layout: var_of[k][e] = send(e, m_k); kNoVar where suppressed.
struct ScatterVars {
  std::vector<std::vector<std::size_t>> var_of;
  VarId throughput;
};

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

ScatterVars declare_scatter_vars(const ScatterInstance& instance,
                                 Model& model) {
  const auto& graph = instance.platform.graph();
  ScatterVars vars;
  vars.var_of.assign(instance.targets.size(),
                     std::vector<std::size_t>(graph.num_edges(), kNoVar));
  for (std::size_t k = 0; k < instance.targets.size(); ++k) {
    const NodeId target = instance.targets[k];
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const auto& edge = graph.edge(e);
      // Useless variables: m_k leaving its target, anything entering the
      // source.
      if (edge.src == target || edge.dst == instance.source) continue;
      VarId v = model.add_variable("send_" + edge_tag(instance.platform, e) +
                                   "_m" + node_tag(instance.platform, target));
      vars.var_of[k][e] = v.index;
    }
  }
  vars.throughput = model.add_variable("TP");
  model.set_objective(vars.throughput, Rational(1));
  return vars;
}

}  // namespace

lp::Model build_scatter_lp(const ScatterInstance& instance) {
  check_instance(instance);
  const auto& graph = instance.platform.graph();
  Model model;
  ScatterVars vars = declare_scatter_vars(instance, model);

  // One-port rows (paper eq. 2-3 with eq. 4 substituted): per node, the time
  // spent sending (resp. receiving) within one time-unit is at most 1.
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    LinearExpr out_busy, in_busy;
    for (EdgeId e : graph.out_edges(n)) {
      Rational unit_time =
          instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t k = 0; k < instance.targets.size(); ++k) {
        if (vars.var_of[k][e] != kNoVar) {
          out_busy.add(VarId{vars.var_of[k][e]}, unit_time);
        }
      }
    }
    for (EdgeId e : graph.in_edges(n)) {
      Rational unit_time =
          instance.message_size * instance.platform.edge_cost(e);
      for (std::size_t k = 0; k < instance.targets.size(); ++k) {
        if (vars.var_of[k][e] != kNoVar) {
          in_busy.add(VarId{vars.var_of[k][e]}, unit_time);
        }
      }
    }
    if (!out_busy.empty()) {
      model.add_constraint(out_busy, Sense::kLessEqual, Rational(1),
                           "oneport_out_" + node_tag(instance.platform, n));
    }
    if (!in_busy.empty()) {
      model.add_constraint(in_busy, Sense::kLessEqual, Rational(1),
                           "oneport_in_" + node_tag(instance.platform, n));
    }
  }

  // Conservation (paper eq. 5): every node that is neither the source nor
  // the type's own target forwards everything it receives.
  for (std::size_t k = 0; k < instance.targets.size(); ++k) {
    const NodeId target = instance.targets[k];
    for (NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (n == instance.source || n == target) continue;
      LinearExpr net;
      bool any = false;
      for (EdgeId e : graph.in_edges(n)) {
        if (vars.var_of[k][e] != kNoVar) {
          net.add(VarId{vars.var_of[k][e]}, Rational(1));
          any = true;
        }
      }
      for (EdgeId e : graph.out_edges(n)) {
        if (vars.var_of[k][e] != kNoVar) {
          net.add(VarId{vars.var_of[k][e]}, Rational(-1));
          any = true;
        }
      }
      if (any) {
        model.add_constraint(
            net, Sense::kEqual, Rational(0),
            "conserve_m" + node_tag(instance.platform, target) + "_n" +
                node_tag(instance.platform, n));
      }
    }
  }

  // Throughput rows (paper eq. 6): each target receives its type at rate TP.
  for (std::size_t k = 0; k < instance.targets.size(); ++k) {
    const NodeId target = instance.targets[k];
    LinearExpr delivered;
    for (EdgeId e : graph.in_edges(target)) {
      if (vars.var_of[k][e] != kNoVar) {
        delivered.add(VarId{vars.var_of[k][e]}, Rational(1));
      }
    }
    delivered.add(vars.throughput, Rational(-1));
    model.add_constraint(delivered, Sense::kEqual, Rational(0),
                         "throughput_m" + node_tag(instance.platform, target));
  }
  return model;
}

MultiFlow solve_scatter(const ScatterInstance& instance,
                        const ScatterLpOptions& options,
                        const MultiFlow* previous) {
  check_instance(instance);
  Model model = build_scatter_lp(instance);

  lp::ExactSolver solver(options.solver);
  lp::SolveContext context;
  if (previous) context.warm = previous->lp_basis;
  lp::ExactSolution sol = solver.solve(model, &context);
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error("scatter LP did not reach optimality: " +
                             lp::to_string(sol.status));
  }

  // Rebuild the variable layout to map the solution back (same declaration
  // order as in build_scatter_lp).
  const auto& graph = instance.platform.graph();
  MultiFlow flow;
  flow.message_size = instance.message_size;
  flow.certified = sol.certified;
  flow.lp_method = sol.method;
  flow.lp_pivots = sol.float_iterations + sol.exact_iterations;
  flow.lp_basis = std::move(context.warm);
  flow.warm_started = sol.warm_started;
  std::size_t next_var = 0;
  flow.commodities.resize(instance.targets.size());
  for (std::size_t k = 0; k < instance.targets.size(); ++k) {
    CommodityFlow& c = flow.commodities[k];
    c.origin = instance.source;
    c.destination = instance.targets[k];
    c.edge_flow.assign(graph.num_edges(), Rational(0));
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      const auto& edge = graph.edge(e);
      if (edge.src == instance.targets[k] || edge.dst == instance.source) {
        continue;
      }
      c.edge_flow[e] = sol.primal[next_var++];
    }
  }
  flow.throughput = sol.primal[next_var];  // TP is declared last
  for (CommodityFlow& c : flow.commodities) c.rate = flow.throughput;

  if (options.prune_cycles) flow.prune_cycles(instance.platform);
  return flow;
}

}  // namespace ssco::core
