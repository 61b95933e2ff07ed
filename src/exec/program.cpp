#include "exec/program.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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
  if (msgs_per_period <= 0) return kBytesPerMessage;
  const double fit =
      static_cast<double>(kBytesPerPeriodBudget) / msgs_per_period;
  return fit >= static_cast<double>(kBytesPerMessage)
             ? kBytesPerMessage
             : std::max<std::size_t>(8, static_cast<std::size_t>(fit));
}

/// Wire bytes of one transfer per period, capped at 2^53 before the
/// conversion: exact in a double, and kMaxChunksPerTransfer times it still
/// fits 64 bits, so the chunk partition below cannot wrap. With at least 8
/// bytes per message the cap binds only past 2^50 messages per transfer.
std::uint64_t wire_bytes(const Rational& messages,
                         std::size_t bytes_per_message) {
  constexpr std::uint64_t kMaxWireBytes = std::uint64_t{1} << 53;
  const double bytes =
      (messages * Rational(static_cast<std::int64_t>(bytes_per_message)))
          .to_double();
  return bytes < static_cast<double>(kMaxWireBytes)
             ? static_cast<std::uint64_t>(std::llround(bytes))
             : kMaxWireBytes;
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

/// What a front end knows that the schedule does not.
struct FrontEnd {
  ExecProgram::Kind kind;
  const platform::Platform& platform;
  const Rational& throughput;
  const Rational& message_size;
  const Rational& task_work;
  bool verifiable;              // exactly-once verification may turn on
  std::size_t messages_per_op;  // application payload per operation
};

ExecProgram compile(const FrontEnd& in, const core::PeriodicSchedule& schedule,
                    const ExecOptions& options) {
  const platform::Platform& pf = in.platform;
  ExecProgram program;
  program.kind = in.kind;
  program.platform = &pf;
  program.period = schedule.period;
  program.throughput = in.throughput;
  program.oneport_error =
      sim::check_oneport(schedule, pf, {in.message_size, in.task_work});
  program.num_types = schedule.num_types();
  program.supplier_of_type = schedule.supplier_of_type;
  program.sink_of_type = schedule.sink_of_type;
  const auto check_type = [&program](std::size_t type) {
    if (type >= program.num_types) {
      throw std::invalid_argument("exec: activity type out of range");
    }
  };

  double msgs_per_period = 0.0;
  for (const core::CommActivity& act : schedule.comms) {
    msgs_per_period += act.messages.to_double();
  }
  program.bytes_per_message = resolve_bytes_per_message(msgs_per_period);
  program.verify =
      in.verifiable && schedule.has_integral_messages() &&
      msgs_per_period <= static_cast<double>(kMaxVerifyMsgsPerPeriod);
  program.op_payload_bytes = in.messages_per_op * program.bytes_per_message;

  // Transfers in schedule order; they are chunked once pacing is known.
  // `arrived` sums, per sink type, what reaches the sink per period by wire
  // or by a local merge.
  std::vector<Rational> arrived(program.num_types);
  double total_wire = 0.0;
  program.transfers.reserve(schedule.comms.size());
  for (std::size_t i : schedule_order(schedule.comms)) {
    const core::CommActivity& act = schedule.comms[i];
    check_type(act.type);
    TransferTemplate t;
    t.edge = act.edge;
    t.src = pf.graph().edge(act.edge).src;
    t.dst = pf.graph().edge(act.edge).dst;
    t.type = act.type;
    t.messages = act.messages;
    t.wire_bytes = wire_bytes(act.messages, program.bytes_per_message);
    total_wire += static_cast<double>(t.wire_bytes);
    if (program.sink_of_type[t.type] == t.dst) arrived[t.type] += t.messages;
    program.transfers.push_back(std::move(t));
  }

  // Wall seconds per model time unit: one period takes
  // target_period_seconds, stretched until the period's wire traffic fits
  // under kMaxBytesPerSec of real memory movement.
  const double period = schedule.period.to_double();
  if (period <= 0.0) throw std::invalid_argument("exec: non-positive period");
  program.seconds_per_unit =
      std::max(options.target_period_seconds, total_wire / kMaxBytesPerSec) /
      period;
  const double B = static_cast<double>(program.bytes_per_message);
  program.modeled_rate.resize(pf.num_edges());
  program.actual_rate.resize(pf.num_edges());
  for (graph::EdgeId e = 0; e < pf.num_edges(); ++e) {
    const double unit_seconds =
        (in.message_size * pf.edge_cost(e)).to_double() *
        program.seconds_per_unit;
    program.modeled_rate[e] = B / unit_seconds;
    program.actual_rate[e] = program.modeled_rate[e] * rate_scale(options, e);
  }

  // Merges whose product reaches its sink complete operations locally.
  for (const core::CompActivity& act : schedule.comps) {
    for (const std::size_t type : {act.left, act.right, act.product}) {
      check_type(type);
    }
    if (program.sink_of_type[act.product] == act.node) {
      arrived[act.product] += act.count;
    }
  }
  // An operation needs every sink type. Verify mode also needs each count
  // whole (message identity is whole).
  bool first = true;
  for (std::size_t k = 0; k < program.num_types; ++k) {
    if (program.sink_of_type[k] == graph::kInvalidId) continue;
    if (first || arrived[k] < program.ops_per_period) {
      program.ops_per_period = arrived[k];
    }
    first = false;
    program.verify = program.verify && arrived[k].is_integer();
  }
  if (program.verify) {
    for (const Rational& a : arrived) {
      program.msgs_per_period.push_back(
          static_cast<std::uint64_t>(a.num().to_int64()));
    }
  }

  const std::size_t n = pf.num_nodes();
  program.out_order.assign(n, {});
  program.in_order.assign(n, {});
  program.cpu_order.assign(n, {});
  for (std::size_t i = 0; i < program.transfers.size(); ++i) {
    TransferTemplate& t = program.transfers[i];
    chunk_transfer(t, in.message_size * pf.edge_cost(t.edge),
                   program.seconds_per_unit, rate_scale(options, t.edge),
                   program.verify);
    program.out_order[t.src].push_back(i);
    program.in_order[t.dst].push_back(i);
  }

  // Computations in schedule order, sliced into one piece per whole merge
  // up to kMaxChunksPerTransfer. The count is clamped before it becomes an
  // integer: a count past 2^64 has no size_t value.
  program.comps.reserve(schedule.comps.size());
  for (std::size_t i : schedule_order(schedule.comps)) {
    const core::CompActivity& act = schedule.comps[i];
    ComputeTemplate c{act.node, act.left, act.right, act.product, act.count,
                      {}};
    const Rational unit_time = in.task_work / pf.node_speed(act.node);
    const auto slices = static_cast<std::size_t>(
        std::clamp(std::ceil(act.count.to_double()), 1.0,
                   static_cast<double>(kMaxChunksPerTransfer)));
    c.slices.reserve(slices);
    for (std::size_t s = 0; s < slices; ++s) {
      ComputeSlice slice;
      slice.count = act.count * Rational(1, static_cast<std::int64_t>(slices));
      slice.seconds =
          (slice.count * unit_time).to_double() * program.seconds_per_unit;
      c.slices.push_back(std::move(slice));
    }
    program.cpu_order[c.node].push_back(program.comps.size());
    program.comps.push_back(std::move(c));
  }
  return program;
}

}  // namespace

ExecProgram compile_flow_program(const platform::Platform& platform,
                                 const core::MultiFlow& flow,
                                 const core::PeriodicSchedule& schedule,
                                 const ExecOptions& options) {
  const Rational unit_work(1);  // flow schedules have no merges
  return compile({ExecProgram::Kind::kFlow, platform, flow.throughput,
                  flow.message_size, unit_work, /*verifiable=*/true,
                  flow.commodities.size()},
                 schedule, options);
}

ExecProgram compile_reduce_program(const platform::ReduceInstance& instance,
                                   const Rational& throughput,
                                   const core::PeriodicSchedule& schedule,
                                   const ExecOptions& options) {
  return compile({ExecProgram::Kind::kReduce, instance.platform, throughput,
                  instance.message_size, instance.task_work,
                  /*verifiable=*/false, instance.participants.size()},
                 schedule, options);
}

}  // namespace ssco::exec
