#include "exec/program.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/intervals.h"
#include "sim/oneport_check.h"

namespace ssco::exec {

namespace {

/// Balanced integer partition: share i of `total` over `parts`.
std::uint64_t share(std::uint64_t total, std::size_t parts, std::size_t i) {
  return total * (i + 1) / parts - total * i / parts;
}

/// Schedule activities sorted by (start, end, original index): the one-port
/// admission order every port replays, period after period. Same-edge
/// transfers land in the same relative order on the sender's out-port, the
/// receiver's in-port and the edge channel — the FIFO invariant the engine
/// relies on.
template <typename Activity>
std::vector<std::size_t> schedule_order(const std::vector<Activity>& acts) {
  std::vector<std::size_t> order(acts.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (acts[a].start != acts[b].start) return acts[a].start < acts[b].start;
    if (acts[a].end != acts[b].end) return acts[a].end < acts[b].end;
    return a < b;
  });
  return order;
}

/// Picks the wire size of one model message: kBytesPerMessage, shrunk so one
/// period's total traffic stays within the byte budget (large-LCM schedules
/// can carry hundreds of thousands of messages per period — at a fixed 64KB
/// each no real machine could pace them).
std::size_t resolve_bytes_per_message(double msgs_per_period) {
  std::size_t bytes = kBytesPerMessage;
  if (msgs_per_period > 0) {
    const double fit =
        static_cast<double>(kBytesPerPeriodBudget) / msgs_per_period;
    bytes = std::min(
        bytes, std::max<std::size_t>(8, static_cast<std::size_t>(fit)));
  }
  return bytes;
}

/// Wall seconds per model time unit: one period takes target_period_seconds,
/// stretched until the period's wire traffic fits under kMaxBytesPerSec of
/// real memory movement.
double resolve_seconds_per_unit(const ExecOptions& options,
                                const Rational& period,
                                double wire_bytes_per_period) {
  const double p = period.to_double();
  if (p <= 0.0) throw std::invalid_argument("exec: non-positive period");
  const double period_seconds =
      std::max(options.target_period_seconds,
               wire_bytes_per_period / kMaxBytesPerSec);
  return period_seconds / p;
}

double rate_scale(const ExecOptions& options, graph::EdgeId e) {
  return e < options.link_rate_scale.size() && options.link_rate_scale[e] > 0.0
             ? options.link_rate_scale[e]
             : 1.0;
}

/// Chunks one transfer. Wire time tracks the exact message share (the model
/// quantity the schedule's feasibility argument is about); bytes are a
/// balanced integer partition for the actual memcpy traffic.
void chunk_transfer(TransferTemplate& t, const Rational& unit_model_time,
                    double seconds_per_unit, double scale, bool verify) {
  std::size_t n = std::max<std::uint64_t>(
      1, (t.wire_bytes + kChunkBytes - 1) / kChunkBytes);
  n = std::min(n, kMaxChunksPerTransfer);
  std::uint64_t whole = 0;
  if (verify) {
    whole = static_cast<std::uint64_t>(t.messages.num().to_int64());
    n = std::max<std::size_t>(
        1, std::min<std::size_t>(n, static_cast<std::size_t>(whole)));
  }
  t.chunks.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ChunkSpec c;
    if (verify) {
      c.whole_msgs = share(whole, n, i);
      c.messages = Rational(static_cast<std::int64_t>(c.whole_msgs));
      c.bytes = whole == 0 ? 0 : c.whole_msgs * (t.wire_bytes / whole);
    } else {
      c.messages = t.messages * Rational(1, static_cast<std::int64_t>(n));
      c.bytes = share(t.wire_bytes, n, i);
    }
    c.seconds =
        (c.messages * unit_model_time).to_double() * seconds_per_unit / scale;
    t.chunks.push_back(std::move(c));
  }
}

/// First pass over the schedule: transfer skeletons (roles, messages, wire
/// bytes) in schedule order. Chunking happens after pacing is resolved.
double build_transfers(ExecProgram& program,
                       const std::vector<core::CommActivity>& comms,
                       std::size_t bytes_per_message) {
  const auto& graph = program.platform->graph();
  double total_wire = 0.0;
  program.transfers.reserve(comms.size());
  for (std::size_t i : schedule_order(comms)) {
    const core::CommActivity& act = comms[i];
    if (act.type >= program.num_types) {
      throw std::invalid_argument("exec: activity type out of range");
    }
    TransferTemplate t;
    t.edge = act.edge;
    t.src = graph.edge(act.edge).src;
    t.dst = graph.edge(act.edge).dst;
    t.type = act.type;
    t.messages = act.messages;
    t.wire_bytes = static_cast<std::uint64_t>(std::llround(
        (act.messages *
         Rational(static_cast<std::int64_t>(bytes_per_message)))
            .to_double()));
    total_wire += static_cast<double>(t.wire_bytes);
    program.transfers.push_back(std::move(t));
  }
  return total_wire;
}

void fill_rates(ExecProgram& program, const Rational& message_size,
                const ExecOptions& options) {
  const platform::Platform& pf = *program.platform;
  const double B = static_cast<double>(program.bytes_per_message);
  program.modeled_rate.resize(pf.num_edges());
  program.actual_rate.resize(pf.num_edges());
  for (graph::EdgeId e = 0; e < pf.num_edges(); ++e) {
    const double unit_seconds =
        (message_size * pf.edge_cost(e)).to_double() * program.seconds_per_unit;
    program.modeled_rate[e] = B / unit_seconds;
    program.actual_rate[e] = program.modeled_rate[e] * rate_scale(options, e);
  }
}

void chunk_all(ExecProgram& program, const Rational& message_size,
               const ExecOptions& options) {
  for (TransferTemplate& t : program.transfers) {
    chunk_transfer(t, message_size * program.platform->edge_cost(t.edge),
                   program.seconds_per_unit, rate_scale(options, t.edge),
                   program.verify);
  }
}

void build_port_orders(ExecProgram& program) {
  const std::size_t n = program.num_nodes();
  program.out_order.assign(n, {});
  program.in_order.assign(n, {});
  program.cpu_order.assign(n, {});
  for (std::size_t i = 0; i < program.transfers.size(); ++i) {
    program.out_order[program.transfers[i].src].push_back(i);
    program.in_order[program.transfers[i].dst].push_back(i);
  }
  for (std::size_t i = 0; i < program.comps.size(); ++i) {
    program.cpu_order[program.comps[i].node].push_back(i);
  }
}

double total_messages_per_period(const std::vector<core::CommActivity>& comms) {
  double total = 0.0;
  for (const core::CommActivity& act : comms) {
    total += act.messages.to_double();
  }
  return total;
}

}  // namespace

ExecProgram compile_flow_program(const platform::Platform& platform,
                                 const core::MultiFlow& flow,
                                 const core::PeriodicSchedule& schedule,
                                 const ExecOptions& options) {
  ExecProgram program;
  program.kind = ExecProgram::Kind::kFlow;
  program.platform = &platform;
  program.period = schedule.period;
  program.throughput = flow.throughput;

  sim::OneportCheckOptions check;
  check.message_size = flow.message_size;
  program.oneport_error = sim::check_oneport(schedule, platform, check);

  program.num_types = flow.commodities.size();
  program.supplier_of_type.resize(program.num_types);
  program.sink_of_type.resize(program.num_types);
  for (std::size_t k = 0; k < program.num_types; ++k) {
    program.supplier_of_type[k] = flow.commodities[k].origin;
    program.sink_of_type[k] = flow.commodities[k].destination;
  }

  const double msgs_per_period = total_messages_per_period(schedule.comms);
  program.bytes_per_message = resolve_bytes_per_message(msgs_per_period);
  program.verify =
      schedule.has_integral_messages() &&
      msgs_per_period <= static_cast<double>(kMaxVerifyMsgsPerPeriod);
  program.op_payload_bytes = program.num_types * program.bytes_per_message;

  const double total_wire =
      build_transfers(program, schedule.comms, program.bytes_per_message);
  program.seconds_per_unit =
      resolve_seconds_per_unit(options, schedule.period, total_wire);
  fill_rates(program, flow.message_size, options);

  // Ops per period = the common per-commodity delivery count; verify mode
  // additionally needs every count integral (message identity is whole).
  const auto& graph = platform.graph();
  Rational ops;
  bool first = true;
  program.msgs_per_period.resize(program.num_types);
  for (std::size_t k = 0; k < program.num_types; ++k) {
    const Rational d =
        schedule.delivered_per_period(program.sink_of_type[k], k, graph);
    ops = first ? d : Rational::min(ops, d);
    first = false;
    if (d.is_integer()) {
      program.msgs_per_period[k] =
          static_cast<std::uint64_t>(d.num().to_int64());
    } else {
      program.verify = false;
    }
  }
  program.ops_per_period = ops;
  if (!program.verify) program.msgs_per_period.clear();

  chunk_all(program, flow.message_size, options);
  build_port_orders(program);
  return program;
}

ExecProgram compile_reduce_program(const platform::ReduceInstance& instance,
                                   const Rational& throughput,
                                   const core::PeriodicSchedule& schedule,
                                   const ExecOptions& options) {
  const platform::Platform& platform = instance.platform;
  ExecProgram program;
  program.kind = ExecProgram::Kind::kReduce;
  program.platform = &platform;
  program.period = schedule.period;
  program.throughput = throughput;

  sim::OneportCheckOptions check;
  check.message_size = instance.message_size;
  check.task_work = instance.task_work;
  program.oneport_error = sim::check_oneport(schedule, platform, check);

  const core::IntervalSpace sp(instance.participants.size());
  const std::size_t full = sp.full_interval_id();
  program.num_types = sp.num_intervals();
  program.supplier_of_type.assign(program.num_types, graph::kInvalidId);
  program.sink_of_type.assign(program.num_types, graph::kInvalidId);
  for (std::size_t id = 0; id < sp.num_intervals(); ++id) {
    auto [k, m] = sp.interval(id);
    if (k == m) program.supplier_of_type[id] = instance.participants[k];
  }
  program.sink_of_type[full] = instance.target;

  // Message identity is a per-tree notion the aggregated reduce schedule
  // deliberately drops; the reduce data model verifies legality structurally
  // instead: only adjacent intervals ever merge (see exec tests).
  program.verify = false;
  const double msgs_per_period = total_messages_per_period(schedule.comms);
  program.bytes_per_message = resolve_bytes_per_message(msgs_per_period);
  program.op_payload_bytes =
      instance.participants.size() * program.bytes_per_message;

  const double total_wire =
      build_transfers(program, schedule.comms, program.bytes_per_message);
  program.seconds_per_unit =
      resolve_seconds_per_unit(options, schedule.period, total_wire);
  fill_rates(program, instance.message_size, options);
  chunk_all(program, instance.message_size, options);

  program.comps.reserve(schedule.comps.size());
  for (std::size_t i : schedule_order(schedule.comps)) {
    const core::CompActivity& act = schedule.comps[i];
    auto [k, l, m] = sp.task(act.task);
    ComputeTemplate c;
    c.node = act.node;
    c.left = sp.interval_id(k, l);
    c.right = sp.interval_id(l + 1, m);
    c.product = sp.interval_id(k, m);
    c.count = act.count;
    const Rational unit_time =
        instance.task_work / platform.node_speed(act.node);
    auto slices = static_cast<std::size_t>(
        std::max(1.0, std::ceil(act.count.to_double())));
    slices = std::min(slices, kMaxChunksPerTransfer);
    c.slices.reserve(slices);
    for (std::size_t s = 0; s < slices; ++s) {
      ComputeSlice slice;
      slice.count = act.count * Rational(1, static_cast<std::int64_t>(slices));
      slice.seconds =
          (slice.count * unit_time).to_double() * program.seconds_per_unit;
      c.slices.push_back(std::move(slice));
    }
    program.comps.push_back(std::move(c));
  }
  build_port_orders(program);

  // Ops per period: full-interval arrivals at the target, by wire or by a
  // local final merge.
  Rational ops(0);
  for (const TransferTemplate& t : program.transfers) {
    if (t.type == full && t.dst == instance.target) ops += t.messages;
  }
  for (const ComputeTemplate& c : program.comps) {
    if (c.product == full && c.node == instance.target) ops += c.count;
  }
  program.ops_per_period = ops;
  return program;
}

}  // namespace ssco::exec
