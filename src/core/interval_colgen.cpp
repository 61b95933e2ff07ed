#include "core/interval_colgen.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/lp_names.h"

namespace ssco::core {

namespace {

using lp::GeneratedColumn;
using lp::LinearExpr;
using lp::Model;
using lp::RowId;
using lp::Sense;

// Identity tags: kind in the top bits, the two coordinates below. Node,
// edge, interval and task counts all fit 30 bits with room to spare.
constexpr std::uint64_t kSendTag = 0;
constexpr std::uint64_t kConsTag = 1;
constexpr std::uint64_t kTpTag = 2;

std::uint64_t make_tag(std::uint64_t kind, std::uint64_t a, std::uint64_t b) {
  return (kind << 62) | (a << 31) | b;
}
std::uint64_t tag_kind(std::uint64_t tag) { return tag >> 62; }
std::uint64_t tag_a(std::uint64_t tag) { return (tag >> 31) & 0x7fffffffu; }
std::uint64_t tag_b(std::uint64_t tag) { return tag & 0x7fffffffu; }

const Rational kPlusOne(1);
const Rational kMinusOne(-1);

/// Orders a column's terms by row; unused slots (row id -1) sort last.
void sort_by_row(
    std::array<std::pair<std::size_t, const Rational*>, 4>& terms) {
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::string family_name(IntervalFlowOracle::Family family) {
  return family == IntervalFlowOracle::Family::kReduce ? "reduce" : "prefix";
}

/// The merge-capable nodes of the model: `requested`, or the participants
/// when it is empty. A repeated node would get a second compute row and a
/// second copy of every cons column, so it is rejected like a bad id.
std::vector<NodeId> resolve_compute_nodes(
    const platform::ReduceInstance& instance,
    IntervalFlowOracle::Family family, std::vector<NodeId> requested) {
  if (requested.empty()) requested = instance.participants;
  std::vector<char> seen(instance.platform.num_nodes(), 0);
  for (NodeId n : requested) {
    if (n >= instance.platform.num_nodes()) {
      throw std::invalid_argument(family_name(family) + ": bad compute node");
    }
    if (seen[n]) {
      throw std::invalid_argument(family_name(family) +
                                  ": duplicate compute node");
    }
    seen[n] = 1;
  }
  return requested;
}

}  // namespace

IntervalFlowOracle::IntervalFlowOracle(
    const platform::ReduceInstance& instance, Family family,
    std::vector<NodeId> compute_nodes)
    : instance_(instance),
      family_(family),
      sp_(instance.participants.size()),
      compute_nodes_(
          resolve_compute_nodes(instance, family, std::move(compute_nodes))) {
  const auto& graph = instance_.platform.graph();
  is_compute_.assign(graph.num_nodes(), 0);
  for (NodeId n : compute_nodes_) is_compute_[n] = 1;

  edge_unit_.resize(graph.num_edges());
  edge_unit_d_.resize(graph.num_edges());
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    edge_unit_[e] = instance_.message_size * instance_.platform.edge_cost(e);
    edge_unit_d_[e] = edge_unit_[e].to_double();
  }
  node_unit_.assign(graph.num_nodes(), Rational(0));
  node_unit_d_.assign(graph.num_nodes(), 0.0);
  for (NodeId n : compute_nodes_) {
    node_unit_[n] = instance_.task_work / instance_.platform.node_speed(n);
    node_unit_d_[n] = node_unit_[n].to_double();
  }

  // Presence tables: suppression is decided once, here; every other column
  // is absent until a build materializes it or the driver reports an append.
  send_var_.assign(sp_.num_intervals(),
                   std::vector<std::size_t>(graph.num_edges(), kAbsent));
  std::size_t sends = 0;
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (suppressed(iv, graph.edge(e))) {
        send_var_[iv][e] = kSuppressed;
      } else {
        ++sends;
      }
    }
  }
  cons_var_.assign(graph.num_nodes(), {});
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    cons_var_[n].assign(sp_.num_tasks(),
                        is_compute_[n] ? kAbsent : kSuppressed);
  }
  total_columns_ = sends + compute_nodes_.size() * sp_.num_tasks() + 1;

  // --- Row skeleton: every row of the model in full-row order — one-port
  // out/in per node (paper eq. 2-3 via eq. 8), compute per compute node
  // (eq. 7 via eq. 9), then conservation per (interval, node) (eq. 10) with
  // the family's sink rows in place (eq. 11). A row exists when some column
  // of the FULL model has support in it, so a row whose columns are all
  // absent from a master still has a dual to price them with.
  auto add_row = [&](Sense sense, Rational rhs, std::string name) {
    row_specs_.push_back({std::move(name), sense, std::move(rhs)});
    return row_specs_.size() - 1;
  };
  op_out_row_.assign(graph.num_nodes(), kNoRow);
  op_in_row_.assign(graph.num_nodes(), kNoRow);
  compute_row_.assign(graph.num_nodes(), kNoRow);
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    auto port_any = [&](auto&& edges) {
      for (EdgeId e : edges) {
        for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
          if (send_var_[iv][e] != kSuppressed) return true;
        }
      }
      return false;
    };
    if (port_any(graph.out_edges(n))) {
      op_out_row_[n] =
          add_row(Sense::kLessEqual, Rational(1),
                  "oneport_out_" + node_tag(instance_.platform, n));
    }
    if (port_any(graph.in_edges(n))) {
      op_in_row_[n] = add_row(Sense::kLessEqual, Rational(1),
                              "oneport_in_" + node_tag(instance_.platform, n));
    }
  }
  for (NodeId n : compute_nodes_) {
    compute_row_[n] = add_row(Sense::kLessEqual, Rational(1),
                              "compute_" + node_tag(instance_.platform, n));
  }
  conserve_row_.assign(sp_.num_intervals(),
                       std::vector<std::size_t>(graph.num_nodes(), kNoRow));
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    auto [k, m] = sp_.interval(iv);
    for (NodeId node = 0; node < graph.num_nodes(); ++node) {
      const bool own_singleton = k == m && instance_.participants[k] == node;
      if (own_singleton) continue;  // unlimited local supply
      const bool sink = family_ == Family::kReduce
                            ? (iv == sp_.full_interval_id() &&
                               node == instance_.target)
                            : (k == 0 && instance_.participants[m] == node);
      bool any = false;
      if (!sink) {
        for (EdgeId e : graph.in_edges(node)) {
          if (send_var_[iv][e] != kSuppressed) {
            any = true;
            break;
          }
        }
        if (!any) {
          for (EdgeId e : graph.out_edges(node)) {
            if (send_var_[iv][e] != kSuppressed) {
              any = true;
              break;
            }
          }
        }
        if (!any && is_compute_[node] && sp_.num_tasks() > 0) {
          any = m > k || m + 1 < sp_.n() || k > 0;
        }
        if (!any) continue;
      }
      std::string name;
      if (!sink) {
        name = "conserve_v" + std::to_string(k) + "_" + std::to_string(m) +
               "_n" + node_tag(instance_.platform, node);
      } else if (family_ == Family::kReduce) {
        name = "throughput";
      } else {
        name = "prefix_demand_" + std::to_string(m);
      }
      conserve_row_[iv][node] =
          add_row(Sense::kEqual, Rational(0), std::move(name));
      if (sink) sink_rows_.push_back(conserve_row_[iv][node]);
    }
  }
}

bool IntervalFlowOracle::suppressed(std::size_t interval_id,
                                    const graph::Edge& edge) const {
  auto [k, m] = sp_.interval(interval_id);
  // A singleton flowing into its own owner duplicates the local supply.
  if (k == m && edge.dst == instance_.participants[k]) return true;
  if (interval_id == sp_.full_interval_id()) {
    // The complete result never usefully leaves its unique consumer.
    const NodeId consumer = family_ == Family::kReduce
                                ? instance_.target
                                : instance_.participants.back();
    if (edge.src == consumer) return true;
  }
  return false;
}

lp::Model IntervalFlowOracle::build_full_model() {
  const auto& graph = instance_.platform.graph();
  Model model;
  for (const lp::GeneratedRow& spec : row_specs_) {
    model.add_constraint(LinearExpr{}, spec.sense, spec.rhs, spec.name);
  }
  // Full row ids are model row ids here, so every column goes straight in,
  // through one reused entry buffer.
  std::vector<std::pair<RowId, Rational>> rows;
  auto append = [&](std::string name, const Support& support,
                    std::uint64_t tag) {
    rows.clear();
    for (const auto& [row, coeff] : support) {
      if (row == kNoRow) break;
      rows.emplace_back(RowId{row}, *coeff);
    }
    register_var(tag,
                 model.add_column(std::move(name), Rational(0), rows).index);
  };
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (send_var_[iv][e] == kSuppressed) continue;
      append(send_name(iv, e), send_support(iv, e),
             make_tag(kSendTag, iv, e));
    }
  }
  for (NodeId node : compute_nodes_) {
    for (std::size_t task = 0; task < sp_.num_tasks(); ++task) {
      append(cons_name(node, task), cons_support(node, task),
             make_tag(kConsTag, node, task));
    }
  }
  rows.clear();
  for (const auto& [row, coeff] : tp_entries()) {
    rows.emplace_back(RowId{row}, coeff);
  }
  register_var(make_tag(kTpTag, 0, 0),
               model.add_column("TP", Rational(1), rows).index);
  return model;
}

lp::Model IntervalFlowOracle::build_master(
    std::vector<std::pair<std::size_t, EdgeId>> send_seed,
    std::vector<std::pair<NodeId, std::size_t>> cons_seed) {
  const auto& graph = instance_.platform.graph();
  Model model;

  // Seed columns in deterministic order; then TP.
  std::sort(send_seed.begin(), send_seed.end());
  send_seed.erase(std::unique(send_seed.begin(), send_seed.end()),
                  send_seed.end());
  std::sort(cons_seed.begin(), cons_seed.end());
  cons_seed.erase(std::unique(cons_seed.begin(), cons_seed.end()),
                  cons_seed.end());

  // Seed columns carry FULL row ids; the master row for a full row is
  // created on first touch (first-touch order of the deterministic seed
  // sequence — the same activation discipline the driver follows later).
  std::vector<std::size_t> full_to_master(row_specs_.size(), kNoRow);
  auto append = [&](const GeneratedColumn& gc) {
    std::vector<std::pair<RowId, Rational>> rows;
    rows.reserve(gc.entries.size());
    for (const auto& [row, coeff] : gc.entries) {
      if (full_to_master[row] == kNoRow) {
        const lp::GeneratedRow& spec = row_specs_[row];
        full_to_master[row] =
            model.add_constraint(LinearExpr{}, spec.sense, spec.rhs, spec.name)
                .index;
        master_row_origins_.push_back(row);
      }
      rows.emplace_back(RowId{full_to_master[row]}, coeff);
    }
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.first.index < b.first.index;
    });
    lp::VarId v = model.add_column(gc.name, gc.objective, rows);
    added(gc, v);
  };

  for (const auto& [iv, e] : send_seed) {
    if (iv >= sp_.num_intervals() || e >= graph.num_edges()) {
      throw std::out_of_range("interval colgen: bad send seed");
    }
    if (send_var_[iv][e] != kAbsent) continue;  // suppressed or duplicate
    append(make_send(iv, e));
  }
  for (const auto& [node, task] : cons_seed) {
    if (node >= graph.num_nodes() || task >= sp_.num_tasks()) {
      throw std::out_of_range("interval colgen: bad cons seed");
    }
    if (cons_var_[node][task] != kAbsent) continue;
    append(make_cons(node, task));
  }

  GeneratedColumn tp;
  tp.name = "TP";
  tp.objective = Rational(1);
  tp.entries = tp_entries();
  tp.tag = make_tag(kTpTag, 0, 0);
  append(tp);
  return model;
}

IntervalFlowOracle::Support IntervalFlowOracle::send_support(
    std::size_t interval_id, EdgeId e) const {
  const auto& edge = instance_.platform.graph().edge(e);
  Support support{{{op_out_row_[edge.src], &edge_unit_[e]},
                   {op_in_row_[edge.dst], &edge_unit_[e]},
                   {conserve_row_[interval_id][edge.dst], &kPlusOne},
                   {conserve_row_[interval_id][edge.src], &kMinusOne}}};
  sort_by_row(support);
  return support;
}

IntervalFlowOracle::Support IntervalFlowOracle::cons_support(
    NodeId node, std::size_t task) const {
  auto [k, l, m] = sp_.task(task);
  Support support{
      {{compute_row_[node], &node_unit_[node]},
       {conserve_row_[sp_.interval_id(k, m)][node], &kPlusOne},
       {conserve_row_[sp_.interval_id(k, l)][node], &kMinusOne},
       {conserve_row_[sp_.interval_id(l + 1, m)][node], &kMinusOne}}};
  sort_by_row(support);
  return support;
}

std::vector<std::pair<std::size_t, Rational>> IntervalFlowOracle::entries(
    const Support& support) {
  std::vector<std::pair<std::size_t, Rational>> out;
  out.reserve(support.size());
  for (const auto& [row, coeff] : support) {
    if (row == kNoRow) break;
    out.emplace_back(row, *coeff);
  }
  return out;
}

std::vector<std::pair<std::size_t, Rational>> IntervalFlowOracle::tp_entries()
    const {
  std::vector<std::pair<std::size_t, Rational>> entries;
  entries.reserve(sink_rows_.size());
  for (std::size_t row : sink_rows_) entries.emplace_back(row, Rational(-1));
  return entries;
}

std::string IntervalFlowOracle::send_name(std::size_t interval_id,
                                          EdgeId e) const {
  auto [k, m] = sp_.interval(interval_id);
  return "send_" + edge_tag(instance_.platform, e) + "_v" +
         std::to_string(k) + "_" + std::to_string(m);
}

std::string IntervalFlowOracle::cons_name(NodeId node,
                                          std::size_t task) const {
  if (family_ == Family::kReduce) {
    auto [k, l, m] = sp_.task(task);
    return "cons_" + node_tag(instance_.platform, node) + "_T" +
           std::to_string(k) + "_" + std::to_string(l) + "_" +
           std::to_string(m);
  }
  return "cons_" + node_tag(instance_.platform, node) + "_t" +
         std::to_string(task);
}

lp::GeneratedColumn IntervalFlowOracle::make_send(std::size_t interval_id,
                                                  EdgeId e) const {
  GeneratedColumn gc;
  gc.name = send_name(interval_id, e);
  gc.objective = Rational(0);
  gc.entries = entries(send_support(interval_id, e));
  gc.tag = make_tag(kSendTag, interval_id, e);
  return gc;
}

lp::GeneratedColumn IntervalFlowOracle::make_cons(NodeId node,
                                                  std::size_t task) const {
  GeneratedColumn gc;
  gc.name = cons_name(node, task);
  gc.objective = Rational(0);
  gc.entries = entries(cons_support(node, task));
  gc.tag = make_tag(kConsTag, node, task);
  return gc;
}

void IntervalFlowOracle::seed_hints_from_names(
    const std::vector<std::string>& names,
    std::vector<std::pair<std::size_t, EdgeId>>& send_seed,
    std::vector<std::pair<NodeId, std::size_t>>& cons_seed) const {
  if (names.empty()) return;
  // One pass over the implicit column set builds the name index; a basis
  // snapshot has at most m entries, so the map amortizes immediately.
  std::unordered_map<std::string, std::uint64_t> by_name;
  by_name.reserve(total_columns_);
  const auto& graph = instance_.platform.graph();
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (send_var_[iv][e] == kSuppressed) continue;
      by_name.emplace(send_name(iv, e), make_tag(kSendTag, iv, e));
    }
  }
  for (NodeId node : compute_nodes_) {
    for (std::size_t task = 0; task < sp_.num_tasks(); ++task) {
      by_name.emplace(cons_name(node, task), make_tag(kConsTag, node, task));
    }
  }
  for (const std::string& name : names) {
    auto it = by_name.find(name);
    if (it == by_name.end()) continue;
    if (tag_kind(it->second) == kSendTag) {
      send_seed.emplace_back(tag_a(it->second), tag_b(it->second));
    } else {
      cons_seed.emplace_back(tag_a(it->second), tag_b(it->second));
    }
  }
}

void IntervalFlowOracle::register_var(std::uint64_t tag, std::size_t var) {
  if (var != var_tags_.size()) {
    throw std::logic_error("interval colgen: non-sequential column append");
  }
  var_tags_.push_back(tag);
  switch (tag_kind(tag)) {
    case kSendTag:
      send_var_[tag_a(tag)][tag_b(tag)] = var;
      break;
    case kConsTag:
      cons_var_[tag_a(tag)][tag_b(tag)] = var;
      break;
    default:
      break;  // TP
  }
}

void IntervalFlowOracle::added(const lp::GeneratedColumn& column,
                               lp::VarId var) {
  register_var(column.tag, var.index);
}

void IntervalFlowOracle::price(const std::vector<double>& y, double tolerance,
                               std::size_t max_columns,
                               std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  struct Cand {
    double d;
    std::uint64_t tag;
  };
  std::vector<Cand> cands;
  auto dual = [&](std::size_t row) { return row == kNoRow ? 0.0 : y[row]; };

  // Both grids shard over their OUTER dimension (interval rows of the send
  // grid, compute nodes of the cons grid); every candidate's reduced cost
  // is computed independently, and the shard-major merge below reproduces
  // the serial scan order exactly, so the emitted list is bit-identical to
  // a serial sweep at any thread count.
  const std::size_t n_iv = sp_.num_intervals();
  {
    const std::size_t shards = par_.shard_count(n_iv, 8);
    std::vector<lp::ShardLocal<std::vector<Cand>>> parts(shards);
    par_.for_shards(
        n_iv, 8, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t iv = begin; iv < end; ++iv) {
            const auto& present = send_var_[iv];
            const auto& conserve = conserve_row_[iv];
            for (EdgeId e = 0; e < graph.num_edges(); ++e) {
              if (present[e] != kAbsent) continue;
              const auto& edge = graph.edge(e);
              const double d =
                  edge_unit_d_[e] * (dual(op_out_row_[edge.src]) +
                                     dual(op_in_row_[edge.dst])) +
                  dual(conserve[edge.dst]) - dual(conserve[edge.src]);
              if (d < -tolerance) {
                local.push_back({d, make_tag(kSendTag, iv, e)});
              }
            }
          }
        });
    for (auto& part : parts) {
      cands.insert(cands.end(), part.value.begin(), part.value.end());
    }
  }
  {
    const std::size_t shards = par_.shard_count(compute_nodes_.size(), 1);
    std::vector<lp::ShardLocal<std::vector<Cand>>> parts(shards);
    par_.for_shards(
        compute_nodes_.size(), 1,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t c = begin; c < end; ++c) {
            const NodeId node = compute_nodes_[c];
            const double yc = dual(compute_row_[node]);
            for (std::size_t iv = 0; iv < n_iv; ++iv) {
              auto [k, m] = sp_.interval(iv);
              for (std::size_t l = k; l < m; ++l) {
                const std::size_t task = sp_.task_id(k, l, m);
                if (cons_var_[node][task] != kAbsent) continue;
                const double d =
                    node_unit_d_[node] * yc + dual(conserve_row_[iv][node]) -
                    dual(conserve_row_[sp_.interval_id(k, l)][node]) -
                    dual(conserve_row_[sp_.interval_id(l + 1, m)][node]);
                if (d < -tolerance) {
                  local.push_back({d, make_tag(kConsTag, node, task)});
                }
              }
            }
          }
        });
    for (auto& part : parts) {
      cands.insert(cands.end(), part.value.begin(), part.value.end());
    }
  }

  auto more_violated = [](const Cand& a, const Cand& b) {
    if (a.d != b.d) return a.d < b.d;
    return a.tag < b.tag;
  };
  if (cands.size() > max_columns) {
    std::nth_element(cands.begin(), cands.begin() + max_columns, cands.end(),
                     more_violated);
    cands.resize(max_columns);
  }
  std::sort(cands.begin(), cands.end(), more_violated);
  out.reserve(out.size() + cands.size());
  for (const Cand& c : cands) {
    if (tag_kind(c.tag) == kSendTag) {
      out.push_back(make_send(tag_a(c.tag), tag_b(c.tag)));
    } else {
      out.push_back(make_cons(tag_a(c.tag), tag_b(c.tag)));
    }
  }
}

void IntervalFlowOracle::price_exact(const std::vector<Rational>& y,
                                     std::size_t max_columns,
                                     std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  // Exact reduced cost straight off the skeleton (generated columns have
  // zero objective, so A'y < 0 is the violation test). The all-zero-dual
  // fast path matters: at an optimum most one-port rows are slack and most
  // conservation potentials sit at zero, so the typical absent column never
  // touches a rational.
  auto is_zero = [&](std::size_t row) {
    return row == kNoRow || y[row].is_zero();
  };
  // How many more columns this call may emit. A serial sweep stops the
  // moment `out` reaches max_columns; the sharded sweep below caps every
  // shard at `needed` and truncates the shard-major merge to `needed`,
  // which provably reproduces the serial prefix: the serial output is the
  // first `needed` violated tags in global scan order, each shard's
  // contribution to that prefix is at most `needed`, and the merge
  // preserves the global order.
  const std::size_t needed =
      max_columns > out.size() ? max_columns - out.size() : 1;

  // Violation test per grid cell, exact.
  auto send_violated = [&](std::size_t iv, EdgeId e) {
    const auto& edge = graph.edge(e);
    const std::size_t r_out = op_out_row_[edge.src];
    const std::size_t r_in = op_in_row_[edge.dst];
    const std::size_t r_dst = conserve_row_[iv][edge.dst];
    const std::size_t r_src = conserve_row_[iv][edge.src];
    if (is_zero(r_out) && is_zero(r_in) && is_zero(r_dst) && is_zero(r_src)) {
      return false;
    }
    Rational rc(0);
    if (!is_zero(r_out)) rc.add_product(edge_unit_[e], y[r_out]);
    if (!is_zero(r_in)) rc.add_product(edge_unit_[e], y[r_in]);
    if (!is_zero(r_dst)) rc += y[r_dst];
    if (!is_zero(r_src)) rc -= y[r_src];
    return rc.signum() < 0;
  };
  auto cons_violated = [&](NodeId node, std::size_t iv, std::size_t l) {
    auto [k, m] = sp_.interval(iv);
    const std::size_t r_comp = compute_row_[node];
    const std::size_t r_prod = conserve_row_[iv][node];
    const std::size_t r_left = conserve_row_[sp_.interval_id(k, l)][node];
    const std::size_t r_right = conserve_row_[sp_.interval_id(l + 1, m)][node];
    if (is_zero(r_comp) && is_zero(r_prod) && is_zero(r_left) &&
        is_zero(r_right)) {
      return false;
    }
    Rational rc(0);
    if (!is_zero(r_comp)) rc.add_product(node_unit_[node], y[r_comp]);
    if (!is_zero(r_prod)) rc += y[r_prod];
    if (!is_zero(r_left)) rc -= y[r_left];
    if (!is_zero(r_right)) rc -= y[r_right];
    return rc.signum() < 0;
  };

  // Sharded sweep collecting violated TAGS (cheap); columns materialize
  // only for the merged, truncated survivors.
  std::vector<std::uint64_t> tags;
  const std::size_t n_iv = sp_.num_intervals();
  {
    const std::size_t shards = par_.shard_count(n_iv, 8);
    std::vector<lp::ShardLocal<std::vector<std::uint64_t>>> parts(shards);
    par_.for_shards(
        n_iv, 8, [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t iv = begin; iv < end && local.size() < needed;
               ++iv) {
            const auto& present = send_var_[iv];
            for (EdgeId e = 0; e < graph.num_edges(); ++e) {
              if (present[e] != kAbsent) continue;
              if (send_violated(iv, e)) {
                local.push_back(make_tag(kSendTag, iv, e));
                if (local.size() >= needed) break;
              }
            }
          }
        });
    for (auto& part : parts) {
      tags.insert(tags.end(), part.value.begin(), part.value.end());
    }
  }
  if (tags.size() < needed) {
    const std::size_t shards = par_.shard_count(compute_nodes_.size(), 1);
    std::vector<lp::ShardLocal<std::vector<std::uint64_t>>> parts(shards);
    par_.for_shards(
        compute_nodes_.size(), 1,
        [&](std::size_t shard, std::size_t begin, std::size_t end) {
          auto& local = parts[shard].value;
          for (std::size_t c = begin; c < end && local.size() < needed; ++c) {
            const NodeId node = compute_nodes_[c];
            for (std::size_t iv = 0; iv < n_iv && local.size() < needed;
                 ++iv) {
              auto [k, m] = sp_.interval(iv);
              for (std::size_t l = k; l < m; ++l) {
                const std::size_t task = sp_.task_id(k, l, m);
                if (cons_var_[node][task] != kAbsent) continue;
                if (cons_violated(node, iv, l)) {
                  local.push_back(make_tag(kConsTag, node, task));
                  if (local.size() >= needed) break;
                }
              }
            }
          }
        });
    for (auto& part : parts) {
      tags.insert(tags.end(), part.value.begin(), part.value.end());
    }
  }
  if (tags.size() > needed) tags.resize(needed);
  out.reserve(out.size() + tags.size());
  for (std::uint64_t tag : tags) {
    if (tag_kind(tag) == kSendTag) {
      out.push_back(make_send(tag_a(tag), tag_b(tag)));
    } else {
      out.push_back(make_cons(tag_a(tag), tag_b(tag)));
    }
  }
}

void IntervalFlowOracle::materialize_all(
    std::vector<lp::GeneratedColumn>& out) {
  const auto& graph = instance_.platform.graph();
  for (std::size_t iv = 0; iv < sp_.num_intervals(); ++iv) {
    for (EdgeId e = 0; e < graph.num_edges(); ++e) {
      if (send_var_[iv][e] == kAbsent) out.push_back(make_send(iv, e));
    }
  }
  for (NodeId node : compute_nodes_) {
    for (std::size_t task = 0; task < sp_.num_tasks(); ++task) {
      if (cons_var_[node][task] == kAbsent) {
        out.push_back(make_cons(node, task));
      }
    }
  }
}

void IntervalFlowOracle::extract(const std::vector<Rational>& primal,
                                 ReduceSolution& out) const {
  const auto& graph = instance_.platform.graph();
  out.num_participants = instance_.participants.size();
  out.send.assign(sp_.num_intervals(),
                  std::vector<Rational>(graph.num_edges(), Rational(0)));
  out.cons.assign(graph.num_nodes(),
                  std::vector<Rational>(sp_.num_tasks(), Rational(0)));
  for (std::size_t var = 0; var < var_tags_.size(); ++var) {
    const std::uint64_t tag = var_tags_[var];
    switch (tag_kind(tag)) {
      case kSendTag:
        out.send[tag_a(tag)][tag_b(tag)] = primal[var];
        break;
      case kConsTag:
        out.cons[tag_a(tag)][tag_b(tag)] = primal[var];
        break;
      default:
        out.throughput = primal[var];
        break;
    }
  }
}

namespace {

/// Warm-start seeds from a previous solution: its support, and the
/// structural columns of its basis snapshot.
void add_warm_seeds(const IntervalFlowOracle& oracle,
                    const platform::ReduceInstance& instance,
                    const ReduceSolution& previous, IntervalSeeds& seeds) {
  if (previous.num_participants != instance.participants.size()) return;
  const IntervalSpace& sp = oracle.space();
  // The previous tables are sized (and id-keyed) by the OLD platform; on a
  // mutated one, ids past the current ranges are dropped and surviving ids
  // may denote remapped entities — both only degrade the seed, never
  // correctness (the basis-name seeding below is the id-stable part, and
  // every solution is certified regardless).
  const std::size_t max_iv = std::min(previous.send.size(), sp.num_intervals());
  for (std::size_t iv = 0; iv < max_iv; ++iv) {
    const std::size_t max_e = std::min<std::size_t>(
        previous.send[iv].size(), instance.platform.num_edges());
    for (EdgeId e = 0; e < max_e; ++e) {
      if (!previous.send[iv][e].is_zero()) seeds.send.emplace_back(iv, e);
    }
  }
  const std::size_t max_n = std::min<std::size_t>(
      previous.cons.size(), instance.platform.num_nodes());
  for (NodeId n = 0; n < max_n; ++n) {
    const std::size_t max_t =
        std::min(previous.cons[n].size(), sp.num_tasks());
    for (std::size_t t = 0; t < max_t; ++t) {
      if (!previous.cons[n][t].is_zero()) seeds.cons.emplace_back(n, t);
    }
  }
  // The basis snapshot names columns the solution tables cannot reveal
  // (degenerate basics at zero); the master must contain them or the warm
  // basis maps onto a singular selection.
  std::vector<std::string> basis_names;
  for (const auto& entry : previous.lp_basis.entries) {
    if (entry.kind == lp::BasisColumn::Kind::kStructural && !entry.bound_row) {
      basis_names.push_back(entry.name);
    }
  }
  oracle.seed_hints_from_names(basis_names, seeds.send, seeds.cons);
}

}  // namespace

ReduceSolution solve_interval_lp(
    const platform::ReduceInstance& instance, IntervalFlowOracle::Family family,
    const ReduceLpOptions& options,
    const std::function<IntervalSeeds()>& heuristic_seeds,
    const ReduceSolution* previous) {
  IntervalFlowOracle oracle(instance, family, options.compute_nodes);
  lp::ExactSolver solver(options.solver);
  lp::SolveContext context;
  if (previous) context.warm = previous->lp_basis;

  const bool use_colgen =
      options.colgen == ColGenMode::kAlways ||
      (options.colgen == ColGenMode::kAuto &&
       oracle.total_columns() >= kColGenMinColumns);
  lp::ExactSolution sol;
  if (use_colgen) {
    IntervalSeeds seeds = heuristic_seeds();
    if (previous) add_warm_seeds(oracle, instance, *previous, seeds);
    lp::Model master = oracle.build_master(std::move(seeds));
    sol = solver.solve_colgen(master, oracle, lp::ColGenOptions{}, &context);
  } else {
    const lp::Model model = oracle.build_full_model();
    sol = solver.solve(model, &context);
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error(family_name(family) +
                             " LP did not reach optimality: " +
                             lp::to_string(sol.status));
  }

  ReduceSolution out;
  oracle.extract(sol.primal, out);
  out.certified = sol.certified;
  out.lp_method = sol.method;
  out.lp_pivots = sol.float_iterations + sol.exact_iterations;
  out.lp_basis = std::move(context.warm);
  out.warm_started = sol.warm_started;
  out.lp_colgen_rounds = sol.colgen.rounds;
  out.lp_columns_generated = sol.colgen.columns_generated;
  out.lp_columns_total = sol.colgen.columns_total;
  out.lp_rows_active = sol.colgen.rows_active;
  out.lp_rows_total = sol.colgen.rows_total;
  out.lp_stab_rounds = sol.colgen.stab_rounds;
  out.lp_phase_times = sol.phase_times;
  out.prune_cycles(instance);
  return out;
}

}  // namespace ssco::core
