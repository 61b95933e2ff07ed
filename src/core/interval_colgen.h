#pragma once
// The reduce-family steady-state LP — SSR (paper Sec. 4.2) and its
// parallel-prefix extension (Sec. 6) — defined once, by IntervalFlowOracle.
//
// Both programs share one variable space: a send variable per (adjacent
// interval, edge) — O(N^2 * |E|) of them — and merge-task placements
// cons(node, T(k,l,m)), under the same one-port, compute and interval
// conservation rows. They differ only in the sink rule (reduce: v[0,N-1]
// absorbed at the target; prefix: every v[0,i] absorbed at participant i)
// and the matching suppression rule, which are parameters of the oracle.
//
// The constructor enumerates the full row skeleton (names, senses,
// right-hand sides); every column's support is derived from it. Two builds
// read that one definition:
//
//  * build_full_model() materializes every row, then every column — the
//    dense model that build_reduce_lp / build_prefix_lp return;
//  * build_master() materializes only the seed columns (heuristic plans,
//    the support of a previous solution), the TP column and the rows they
//    touch — the restricted master of column generation (lp/colgen.h). The
//    oracle is also the row generator (full_row_count/row_spec): the colgen
//    driver activates further rows as priced-in columns first reference
//    them. Every skeleton row is zero-feasible (<= with rhs 1, == with
//    rhs 0), so a master solution extends to the full model with zeros over
//    absent columns and inactive rows, and master duals lifted with zeros
//    price absent columns; price() / price_exact() walk the implicit send
//    and cons grids in one structured pass.
//
// Dense and colgen models therefore agree on every name and coefficient by
// construction, and warm-start snapshots map across them. Scatter, gossip
// and gather share one dense flow builder instead (core/flow_lp.h): their
// column count is linear in sources x edges, so a restricted master would
// only add rounds (measured in DESIGN.md "Column generation").

#include <array>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/intervals.h"
#include "core/reduce_solution.h"
#include "lp/colgen.h"
#include "lp/exact_solver.h"
#include "platform/paper_instances.h"

namespace ssco::core {

/// Column-generation policy of the reduce-family solvers.
enum class ColGenMode {
  /// Use column generation when the full model exceeds the option's column
  /// threshold; dense below it (small models certify faster dense).
  kAuto,
  kAlways,
  kNever,
};

/// Options of the reduce-family solvers (solve_reduce, and solve_prefix
/// through the PrefixLpOptions alias).
struct ReduceLpOptions {
  lp::ExactSolverOptions solver;
  /// Nodes allowed to execute merge tasks; empty = instance participants.
  /// Routers forward but do not compute.
  std::vector<NodeId> compute_nodes;
  /// Delayed column generation over the quadratic send/cons space: the
  /// restricted master is seeded from the family's heuristic plan (reduce:
  /// the flat/chain/binomial reduction trees of baselines/reduce_trees.h;
  /// prefix: a chain-of-prefixes plan) plus the support of `previous` on a
  /// warm re-solve, and grows by pricing until one exact sweep certifies
  /// the COMPLETE paper LP. kAuto switches it on once the full model has
  /// kColGenMinColumns columns; the certified objective is bit-identical
  /// either way.
  ColGenMode colgen = ColGenMode::kAuto;
};

/// Full-model column count from which ColGenMode::kAuto uses column
/// generation.
inline constexpr std::size_t kColGenMinColumns = 8192;

/// Seed hints for a restricted master: (interval, edge) send pairs and
/// (node, task) merge placements.
struct IntervalSeeds {
  std::vector<std::pair<std::size_t, EdgeId>> send;
  std::vector<std::pair<NodeId, std::size_t>> cons;
};

class IntervalFlowOracle final : public lp::PricingOracle {
 public:
  enum class Family { kReduce, kPrefix };

  /// `instance` must outlive the oracle and already be validated by the
  /// caller (check_instance of the respective solver). `compute_nodes`
  /// empty means the participants; an out-of-range or repeated node throws
  /// std::invalid_argument.
  IntervalFlowOracle(const platform::ReduceInstance& instance, Family family,
                     std::vector<NodeId> compute_nodes);

  /// The dense model: every skeleton row in full-row order, then every
  /// column — sends in (interval, edge) order, cons in compute-node x task
  /// order, then TP. Registers every column, so extract() reads its primal.
  /// Call at most once, instead of build_master.
  [[nodiscard]] lp::Model build_full_model();

  /// Builds the restricted master: the seed columns, the TP column and the
  /// skeleton rows they touch. Seed hints are deduplicated and sorted
  /// (deterministic master layout); suppressed pairs are dropped;
  /// out-of-range hints throw. Call at most once, instead of
  /// build_full_model.
  [[nodiscard]] lp::Model build_master(
      std::vector<std::pair<std::size_t, EdgeId>> send_seed,
      std::vector<std::pair<NodeId, std::size_t>> cons_seed);
  [[nodiscard]] lp::Model build_master(IntervalSeeds seeds) {
    return build_master(std::move(seeds.send), std::move(seeds.cons));
  }

  // --- lp::PricingOracle --------------------------------------------------
  [[nodiscard]] std::size_t total_columns() const override {
    return total_columns_;
  }
  /// Row generation: build_master materializes only the skeleton rows its
  /// seed columns and the TP column touch (at n=256 that leaves ~10k
  /// conservation/one-port rows out), and the colgen driver activates the
  /// rest lazily as priced-in columns first reference them. All emitted
  /// column entries are in FULL row ids.
  [[nodiscard]] std::size_t full_row_count() const override {
    return row_specs_.size();
  }
  [[nodiscard]] lp::GeneratedRow row_spec(
      std::size_t full_row) const override {
    return row_specs_[full_row];
  }
  [[nodiscard]] std::vector<std::size_t> master_row_origins() const override {
    return master_row_origins_;
  }
  void price(const std::vector<double>& y, double tolerance,
             std::size_t max_columns,
             std::vector<lp::GeneratedColumn>& out) override;
  void price_exact(const std::vector<Rational>& y, std::size_t max_columns,
                   std::vector<lp::GeneratedColumn>& out) override;
  void added(const lp::GeneratedColumn& column, lp::VarId var) override;
  void materialize_all(std::vector<lp::GeneratedColumn>& out) override;
  /// Shards the price()/price_exact() grid scans across the solve's pool.
  /// Candidates are collected per shard and merged shard-major — the exact
  /// serial scan order — so the emitted column list is bit-identical to a
  /// serial sweep at every thread count (see price_exact for the truncation
  /// argument).
  void set_parallel(const lp::Parallel& parallel) override {
    par_ = parallel;
  }

  /// Maps a model-space primal onto the solution tables (send, cons,
  /// throughput); absent columns are zero.
  void extract(const std::vector<Rational>& primal, ReduceSolution& out) const;

  /// Resolves structural column NAMES — a previous basis snapshot — back to
  /// seed hints. A warm re-solve must seed these explicitly: the previous
  /// SOLUTION tables miss every degenerate basic column (they sit at zero),
  /// and a master without them maps the old basis onto a singular
  /// selection. Unknown names are ignored. Call before build_master.
  void seed_hints_from_names(
      const std::vector<std::string>& names,
      std::vector<std::pair<std::size_t, EdgeId>>& send_seed,
      std::vector<std::pair<NodeId, std::size_t>>& cons_seed) const;

  [[nodiscard]] const IntervalSpace& space() const { return sp_; }

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  static constexpr std::size_t kSuppressed = static_cast<std::size_t>(-2);

  /// A column's support in the skeleton: (full row, coefficient) terms in
  /// increasing row order; slots without a row hold kNoRow and sort last.
  /// Fixed-size, so the dense build allocates nothing per column.
  using Support = std::array<std::pair<std::size_t, const Rational*>, 4>;

  /// True when the send column (interval, edge) is provably useless.
  [[nodiscard]] bool suppressed(std::size_t interval_id,
                                const graph::Edge& edge) const;
  [[nodiscard]] Support send_support(std::size_t interval_id, EdgeId e) const;
  [[nodiscard]] Support cons_support(NodeId node, std::size_t task) const;
  /// The present terms of `support`, as GeneratedColumn entries.
  [[nodiscard]] static std::vector<std::pair<std::size_t, Rational>> entries(
      const Support& support);
  [[nodiscard]] std::vector<std::pair<std::size_t, Rational>> tp_entries()
      const;
  [[nodiscard]] std::string send_name(std::size_t interval_id, EdgeId e) const;
  [[nodiscard]] std::string cons_name(NodeId node, std::size_t task) const;
  [[nodiscard]] lp::GeneratedColumn make_send(std::size_t interval_id,
                                              EdgeId e) const;
  [[nodiscard]] lp::GeneratedColumn make_cons(NodeId node,
                                              std::size_t task) const;
  /// Registers a seeded/appended column's identity at the next var index.
  void register_var(std::uint64_t tag, std::size_t var);

  const platform::ReduceInstance& instance_;
  Family family_;
  IntervalSpace sp_;
  lp::Parallel par_;  // serial unless the colgen driver hands us a pool
  std::vector<NodeId> compute_nodes_;
  std::vector<char> is_compute_;

  // Full row skeleton (FULL row ids into row_specs_; kNoRow where the full
  // model has no such row).
  std::vector<std::size_t> op_out_row_;
  std::vector<std::size_t> op_in_row_;
  std::vector<std::size_t> compute_row_;
  std::vector<std::vector<std::size_t>> conserve_row_;  // [interval][node]
  /// Rows absorbing the result at rate TP (the family's sink rule).
  std::vector<std::size_t> sink_rows_;
  /// Name/sense/rhs of every full-model row, indexed by full row id.
  std::vector<lp::GeneratedRow> row_specs_;
  /// Full row id behind each master row of the freshly built master (the
  /// rows the seed columns and TP touch), in master row order.
  std::vector<std::size_t> master_row_origins_;

  // Column registry: model var index per implicit column, or kAbsent /
  // kSuppressed; identity tags per model var (for extract()).
  std::vector<std::vector<std::size_t>> send_var_;  // [interval][edge]
  std::vector<std::vector<std::size_t>> cons_var_;  // [node][task]
  std::vector<std::uint64_t> var_tags_;
  std::size_t total_columns_ = 0;

  // Cached per-edge / per-node units (message_size * cost, work / speed).
  std::vector<Rational> edge_unit_;
  std::vector<double> edge_unit_d_;
  std::vector<Rational> node_unit_;
  std::vector<double> node_unit_d_;
};

/// The one solve path of solve_reduce / solve_prefix, for an instance the
/// caller has validated. Builds the oracle once; takes the dense path
/// (build_full_model) under kNever or below the kAuto column threshold,
/// else column generation seeded by `heuristic_seeds()` — a callback, so
/// dense solves never pay the heuristic — plus, on a warm re-solve, the
/// support and basis names of `previous`. Throws std::runtime_error when
/// the LP does not reach optimality; otherwise fills the solution tables
/// and the lp_* telemetry, and prunes cycles.
[[nodiscard]] ReduceSolution solve_interval_lp(
    const platform::ReduceInstance& instance, IntervalFlowOracle::Family family,
    const ReduceLpOptions& options,
    const std::function<IntervalSeeds()>& heuristic_seeds,
    const ReduceSolution* previous);

}  // namespace ssco::core
