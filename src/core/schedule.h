#pragma once
// Periodic schedule intermediate representation.
//
// The output of the paper's constructions (Sec. 3.3 for scatter/gossip,
// Sec. 4.3 for reduce): a period length and a set of timed activities that
// repeat every period. Communication activities transfer `messages` units of
// one message type over one edge during [start, end); computation activities
// execute `count` merge tasks on one node. The one-port model demands that
// activities sharing an out-port (edge source) or an in-port (edge
// destination) never overlap — sim/oneport_check.h verifies that.
//
// The schedule describes itself. The builders record which node supplies
// each message type without limit and which absorbs it as a finished
// operation, and each merge's operand and product types; the fluid
// simulator (sim/fluid_sim.h) and ExecProgram compilation (exec/program.h)
// read these roles instead of re-deriving them. A type is the commodity
// index for scatter/gossip schedules and the IntervalSpace interval id for
// reduce schedules (participant i supplies [i,i], the target absorbs the
// full interval).

#include <string>
#include <vector>

#include "graph/digraph.h"
#include "num/rational.h"
#include "platform/platform.h"

namespace ssco::core {

using num::Rational;

struct CommActivity {
  graph::EdgeId edge = graph::kInvalidId;
  std::size_t type = 0;
  Rational start;
  Rational end;
  Rational messages;
};

struct CompActivity {
  graph::NodeId node = graph::kInvalidId;
  std::size_t task = 0;  // IntervalSpace task id
  Rational start;
  Rational end;
  Rational count;
  /// Types of the merge: left ⊕ right -> product.
  std::size_t left = 0;
  std::size_t right = 0;
  std::size_t product = 0;
};

struct PeriodicSchedule {
  Rational period;
  std::vector<CommActivity> comms;
  std::vector<CompActivity> comps;
  /// Per type: the node with unlimited supply of it, kInvalidId for none.
  std::vector<graph::NodeId> supplier_of_type;
  /// Per type: the node that absorbs it as a finished operation,
  /// kInvalidId for none.
  std::vector<graph::NodeId> sink_of_type;

  [[nodiscard]] std::size_t num_types() const {
    return supplier_of_type.size();
  }

  /// Multiplies the period, all instants and all counts by `factor` (> 0).
  /// Used to turn a split-message schedule into a no-split one (Fig. 4(b):
  /// period 12 -> 48). Roles are unchanged.
  void scale(const Rational& factor);

  /// True when every communication activity carries an integer number of
  /// messages (no message is split across time slices).
  [[nodiscard]] bool has_integral_messages() const;

  /// Messages of `type` delivered per period into `node`.
  [[nodiscard]] Rational delivered_per_period(graph::NodeId node,
                                              std::size_t type,
                                              const graph::Digraph& graph) const;

  /// Human-readable timeline (one line per activity, sorted by start time).
  [[nodiscard]] std::string to_string() const;
};

struct ScheduleOptions {
  /// False: rescale the schedule until every activity carries whole
  /// messages (Fig. 4(b)).
  bool allow_split_messages = true;
};

/// Messages of one type crossing one edge per period.
struct Traffic {
  graph::EdgeId edge = graph::kInvalidId;
  std::size_t type = 0;
  Rational messages;
};

/// The communication half of both builders. Colors the bipartite port
/// graph of `traffic` (a sender and a receiver port per node, one edge per
/// entry weighted by its busy time) and lays the color classes back to back
/// from time 0 as `schedule.comms`, so every port serves at most one
/// transfer at a time. Without split messages it then rescales the whole
/// schedule, computations included, until every activity carries whole
/// messages. Throws std::logic_error when the coloring exceeds the period
/// (one-port constraints violated upstream).
void lay_out_comms(PeriodicSchedule& schedule,
                   const platform::Platform& platform,
                   const Rational& message_size,
                   const std::vector<Traffic>& traffic,
                   const ScheduleOptions& options);

}  // namespace ssco::core
