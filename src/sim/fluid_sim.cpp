#include "sim/fluid_sim.h"

#include <algorithm>
#include <stdexcept>

namespace ssco::sim {

FluidSimResult simulate_schedule(const platform::Platform& platform,
                                 const core::PeriodicSchedule& schedule,
                                 std::size_t periods) {
  const auto& graph = platform.graph();
  const std::size_t num_types = schedule.num_types();

  // Every activity withdraws its volume of its input types at one node and
  // deposits what it got as its output type at another: a transfer moves
  // one type over an edge (left == right == product), a merge turns its two
  // operand types into their product on one node.
  struct Move {
    graph::NodeId from, to;
    std::size_t left, right, product;
    const Rational* volume;
  };
  std::vector<Move> moves;
  moves.reserve(schedule.comms.size() + schedule.comps.size());
  for (const core::CommActivity& c : schedule.comms) {
    const auto& edge = graph.edge(c.edge);
    moves.push_back({edge.src, edge.dst, c.type, c.type, c.type, &c.messages});
  }
  for (const core::CompActivity& c : schedule.comps) {
    moves.push_back({c.node, c.node, c.left, c.right, c.product, &c.count});
  }
  for (const Move& m : moves) {
    if (std::max({m.left, m.right, m.product}) >= num_types) {
      throw std::invalid_argument("simulate_schedule: type out of range");
    }
  }

  // Event order within one period: by time, deposits before withdrawals at
  // equal instants (a fully received message can be forwarded or merged
  // immediately). Transfers are listed before merges, so ties always
  // resolve the same way.
  struct Event {
    Rational time;
    bool is_deposit;
    std::size_t move;
  };
  std::vector<Event> events;
  events.reserve(2 * moves.size());
  const auto add_events = [&events](const auto& activities,
                                    std::size_t first_move) {
    for (std::size_t i = 0; i < activities.size(); ++i) {
      events.push_back({activities[i].start, false, first_move + i});
      events.push_back({activities[i].end, true, first_move + i});
    }
  };
  add_events(schedule.comms, 0);
  add_events(schedule.comps, schedule.comms.size());
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.is_deposit && !b.is_deposit;
  });

  FluidSimResult result;
  result.delivered.assign(num_types, Rational(0));
  std::vector<std::vector<Rational>> buffers(
      graph.num_nodes(), std::vector<Rational>(num_types, Rational(0)));
  // Amount actually withdrawn by each in-flight activity this period.
  std::vector<Rational> in_flight(moves.size());
  const auto unlimited = [&schedule](graph::NodeId node, std::size_t type) {
    return schedule.supplier_of_type[type] == node;
  };

  for (std::size_t p = 0; p < periods; ++p) {
    bool full_volume = true;
    for (const Event& ev : events) {
      const Move& m = moves[ev.move];
      Rational& amount = in_flight[ev.move];
      if (ev.is_deposit) {
        Rational& into = schedule.sink_of_type[m.product] == m.to
                             ? result.delivered[m.product]
                             : buffers[m.to][m.product];
        into += amount;
        continue;
      }
      amount = *m.volume;
      for (const std::size_t t : {m.left, m.right}) {
        if (!unlimited(m.from, t) && buffers[m.from][t] < amount) {
          amount = buffers[m.from][t];
        }
      }
      if (!unlimited(m.from, m.left)) buffers[m.from][m.left] -= amount;
      if (m.right != m.left && !unlimited(m.from, m.right)) {
        buffers[m.from][m.right] -= amount;
      }
      full_volume = full_volume && amount == *m.volume;
    }
    bool first = true;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (schedule.sink_of_type[t] == graph::kInvalidId) continue;
      if (first || result.delivered[t] < result.completed_operations) {
        result.completed_operations = result.delivered[t];
      }
      first = false;
    }
    result.delivered_by_period.push_back(result.delivered);
    result.completed_by_period.push_back(result.completed_operations);
    if (p + 1 == periods) result.steady_state_reached = full_volume;
  }

  result.horizon =
      schedule.period * Rational(static_cast<std::int64_t>(periods));
  return result;
}

}  // namespace ssco::sim
