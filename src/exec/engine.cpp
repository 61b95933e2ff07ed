#include "exec/engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"

namespace ssco::exec {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact stock of one type k, counted in units of 1/D_k messages, where D_k
/// is the LCM of the denominators of every quantity of type k the engine
/// adds or compares (Engine::init_stock). Every step then adds and compares
/// integers; a D_k, quantity or running sum past 127 bits ends the run with
/// a typed kCountOverflow.
using Units = __int128;

/// `v` in units of 1/den, where den is a multiple of v's denominator;
/// empty when the result does not fit 127 bits.
std::optional<Units> to_units(const Rational& v, Units den) {
  const std::optional<Units> num = v.num().to_int128();
  const std::optional<Units> vden = v.den().to_int128();
  Units out = 0;
  if (!num || !vden || __builtin_mul_overflow(*num, den / *vden, &out)) {
    return std::nullopt;
  }
  return out;
}

/// A merge slice's count in the units of its left, right and product types.
struct SliceUnits {
  Units left = 0, right = 0, product = 0;
};

/// Deterministic payload byte for (type, message id): lets the receiver
/// detect misrouted or corrupted chunks without any side channel.
std::uint8_t pattern_byte(std::size_t type, std::uint64_t id) {
  return static_cast<std::uint8_t>(0x5Au ^ (type * 131u) ^ (id * 7u) ^
                                   (id >> 8));
}

/// A port's kind; port p = 3u + kind, so ports sort by node, then OUT, IN,
/// CPU — the scheduler's priority order.
enum class StepKind : std::uint8_t { kSend = 0, kRecv = 1, kComp = 2 };
constexpr std::size_t kKinds = 3;

/// Runtime state of one port (a node's OUT, IN or CPU lane).
struct PortRt {
  const std::vector<std::size_t>* order = nullptr;
  std::size_t pos = 0;  // current template within *order
  std::size_t sub = 0;  // current chunk / slice within that template
  double tat = 0.0;     // GCRA theoretical arrival time (pacing)
  double busy = 0.0;    // accumulated occupation, token seconds
  double busy_t0 = 0.0;
  bool in_flight = false;
  // Retransmission state (out-ports under fault injection): consecutive
  // losses of the head chunk, and the backoff gate before the next attempt.
  std::size_t attempts = 0;
  double retry_at = 0.0;
};

/// A step the scheduler admitted; byte work happens outside the lock.
struct Admitted {
  StepKind kind = StepKind::kSend;
  graph::NodeId node = graph::kInvalidId;
  std::size_t tmpl = 0;
  Chunk chunk;          // send: to fill + push; recv: popped, to validate
  bool payload_ok = true;
  bool lost = false;    // injected chunk loss: wire time burned, no delivery
};

class Engine {
 public:
  Engine(const ExecProgram& p, const ExecOptions& opt, bool threaded)
      : p_(p), opt_(opt), threaded_(threaded) {}

  ExecReport run() {
    ExecReport report;
    report.simulated = !threaded_;
    if (!p_.oneport_error.empty()) {
      report.fault.code = FaultCode::kOneportStatic;
      report.fault.message = "one-port check failed: " + p_.oneport_error;
      report.oneport_violations = 1;
      return report;
    }
    if (p_.ops_per_period <= Rational(0)) {
      report.fault.code = FaultCode::kNoSchedule;
      report.fault.message = "schedule delivers no operations";
      return report;
    }
    init();
    if (!done_) {
      init_trace();
      if (threaded_) {
        run_threaded();
      } else {
        run_event();
      }
    }
    fill_report(report);
    return report;
  }

 private:
  // ---- setup -------------------------------------------------------------

  void init() {
    // Operation counters are 64-bit; a plan whose window holds more
    // operations than that fails typed instead of throwing from BigInt.
    const std::int64_t periods = static_cast<std::int64_t>(
        opt_.warmup_periods + opt_.measure_periods);
    const num::BigInt total =
        (Rational(periods) * p_.ops_per_period).ceil();
    if (!total.fits_int64()) {
      set_fault(0.0, FaultCode::kCountOverflow,
                std::to_string(periods) + " periods of " +
                    p_.ops_per_period.to_string() +
                    " operations overflow the 64-bit operation counter");
      return;
    }
    total_ops_ = static_cast<std::uint64_t>(total.to_int64());
    warmup_ops_ = static_cast<std::uint64_t>(
        (Rational(static_cast<std::int64_t>(opt_.warmup_periods)) *
         p_.ops_per_period)
            .ceil()
            .to_int64());
    if (total_ops_ <= warmup_ops_) total_ops_ = warmup_ops_ + 1;

    const std::size_t nodes = p_.num_nodes();
    faults_ = FaultRuntime(opt_.faults, p_.platform->num_edges(), nodes);
    init_stock();
    if (done_) return;
    delivered_floor_.assign(p_.num_types, 0);
    for (std::size_t k = 0; k < p_.num_types; ++k) {
      if (p_.sink_of_type[k] != graph::kInvalidId) full_type_ = k;
    }
    forwards_.assign(nodes, std::vector<char>(p_.num_types, 0));
    channels_.reserve(p_.transfers.size());
    reserved_.assign(p_.transfers.size(), 0);
    for (std::size_t i = 0; i < p_.transfers.size(); ++i) {
      channels_.emplace_back(kChannelChunks);
    }

    verify_ = p_.verify;
    if (verify_) {
      next_id_.assign(p_.num_types, 0);
      idq_.assign(nodes, std::vector<std::deque<
                             std::pair<std::uint64_t, std::uint64_t>>>(
                             p_.num_types));
      marks_.assign(p_.num_types, std::vector<bool>());
    }

    // Token buckets: rate = the ACTUAL (drift-scaled) link rate; burst must
    // cover the largest chunk on the edge or that chunk could never start.
    std::vector<double> max_chunk(p_.platform->num_edges(),
                                  static_cast<double>(kChunkBytes));
    for (const TransferTemplate& t : p_.transfers) {
      forwards_[t.src][t.type] = 1;
      for (const ChunkSpec& c : t.chunks) {
        max_chunk[t.edge] =
            std::max(max_chunk[t.edge], static_cast<double>(c.bytes));
      }
    }
    buckets_.resize(p_.platform->num_edges());
    for (graph::EdgeId e = 0; e < p_.platform->num_edges(); ++e) {
      buckets_[e] = TokenBucket(p_.actual_rate[e],
                                kBurstChunks * max_chunk[e]);
    }
    edge_bytes_.assign(p_.platform->num_edges(), 0);
    edge_busy_.assign(p_.platform->num_edges(), 0.0);
    edge_bytes_t0_ = edge_bytes_;
    edge_busy_t0_ = edge_busy_;

    // Exactly-once identities of the primed stock (init_stock).
    if (verify_) {
      for (graph::NodeId u = 0; u < nodes; ++u) {
        for (std::size_t k = 0; k < p_.num_types; ++k) {
          const Units primed = avail_[u][k];
          if (primed == 0) continue;
          if (primed % den_[k] != 0) {
            verify_ = false;
            break;
          }
          const auto count = static_cast<std::uint64_t>(primed / den_[k]);
          idq_[u][k].emplace_back(next_id_[k], count);
          next_id_[k] += count;
        }
        if (!verify_) break;
      }
    }

    ports_.resize(kKinds * nodes);
    for (graph::NodeId u = 0; u < nodes; ++u) {
      ports_[port_of(u, StepKind::kSend)].order = &p_.out_order[u];
      ports_[port_of(u, StepKind::kRecv)].order = &p_.in_order[u];
      ports_[port_of(u, StepKind::kComp)].order = &p_.cpu_order[u];
    }
    const std::size_t words = (ports_.size() + 63) / 64;
    pending_.assign(words, 0);
    timed_.assign(words, 0);
    wake_.assign(ports_.size(), kInf);
    from_now_.assign(ports_.size(), 0);
    for (std::size_t p = 0; p < ports_.size(); ++p) mark(p);
  }

  /// Sets up the exact stock (see Units): each type's D_k, every chunk and
  /// slice quantity in its type's units, and the pipeline priming. A D_k,
  /// quantity or primed sum past 127 bits ends the run with a typed
  /// kCountOverflow.
  void init_stock() {
    std::vector<num::BigInt> lcm(p_.num_types, num::BigInt(1));
    const auto note = [&lcm](std::size_t k, const Rational& v) {
      lcm[k] = num::BigInt::lcm(lcm[k], v.den());
    };
    for (const TransferTemplate& t : p_.transfers) {
      note(t.type, t.messages);
      for (const ChunkSpec& c : t.chunks) note(t.type, c.messages);
    }
    for (const ComputeTemplate& ct : p_.comps) {
      for (const std::size_t k : {ct.left, ct.right, ct.product}) {
        note(k, ct.count);
        for (const ComputeSlice& s : ct.slices) note(k, s.count);
      }
    }
    den_.resize(p_.num_types);
    for (std::size_t k = 0; k < p_.num_types; ++k) {
      const std::optional<Units> d = lcm[k].to_int128();
      if (!d) {
        set_fault(0.0, FaultCode::kCountOverflow,
                  "type " + std::to_string(k) + " needs a " +
                      std::to_string(lcm[k].bit_length()) +
                      "-bit common denominator; exact stock holds 127 bits");
        return;
      }
      den_[k] = *d;
    }
    const auto units = [&](std::size_t k, const Rational& v) {
      const std::optional<Units> u = to_units(v, den_[k]);
      if (!u && !done_) {
        set_fault(0.0, FaultCode::kCountOverflow,
                  "a quantity of type " + std::to_string(k) +
                      " exceeds 127 bits in units of 1/" + lcm[k].to_string());
      }
      return u.value_or(0);
    };
    // Pipeline priming: one full period of everything each node consumes, so
    // period p always works on stock produced by period p-1 and intra-period
    // availability waits never cycle (deadlock freedom; warmup absorbs the
    // resulting transient).
    avail_.assign(p_.num_nodes(), std::vector<Units>(p_.num_types, 0));
    delivered_.assign(p_.num_types, 0);
    chunk_units_.resize(p_.transfers.size());
    for (std::size_t i = 0; i < p_.transfers.size(); ++i) {
      const TransferTemplate& t = p_.transfers[i];
      if (!unlimited(t.src, t.type)) {
        credit(avail_[t.src][t.type], units(t.type, t.messages), 0.0, t.type);
      }
      chunk_units_[i].reserve(t.chunks.size());
      for (const ChunkSpec& c : t.chunks) {
        chunk_units_[i].push_back(units(t.type, c.messages));
      }
    }
    slice_units_.resize(p_.comps.size());
    for (std::size_t i = 0; i < p_.comps.size(); ++i) {
      const ComputeTemplate& ct = p_.comps[i];
      for (const std::size_t k : {ct.left, ct.right}) {
        if (!unlimited(ct.node, k)) {
          credit(avail_[ct.node][k], units(k, ct.count), 0.0, k);
        }
      }
      slice_units_[i].reserve(ct.slices.size());
      for (const ComputeSlice& s : ct.slices) {
        slice_units_[i].push_back({units(ct.left, s.count),
                                   units(ct.right, s.count),
                                   units(ct.product, s.count)});
      }
    }
  }

  /// stock += v and stock -= v, exact: a result past 127 bits ends the run
  /// with a typed kCountOverflow instead of wrapping.
  void credit(Units& stock, Units v, double now, std::size_t type) {
    if (__builtin_add_overflow(stock, v, &stock)) stock_overflow(now, type);
  }
  void debit(Units& stock, Units v, double now, std::size_t type) {
    if (__builtin_sub_overflow(stock, v, &stock)) stock_overflow(now, type);
  }
  void stock_overflow(double now, std::size_t type) {
    set_fault(now, FaultCode::kCountOverflow,
              "exact stock of type " + std::to_string(type) +
                  " exceeds 127 bits");
  }

  [[nodiscard]] bool unlimited(graph::NodeId u, std::size_t type) const {
    return p_.supplier_of_type[type] == u;
  }

  // ---- tracing -----------------------------------------------------------

  /// One trace lane per (node, port): occupations render as rows under the
  /// solver/service thread rows on the same timeline. Engine time (wall for
  /// the threaded backend, virtual for the event backend) maps onto the
  /// trace clock via the offset captured here, so a simulate run's spans
  /// still land where the run happened.
  void init_trace() {
    if (!obs::Trace::enabled()) return;
    tracing_ = true;
    trace_offset_ = obs::Trace::now_ns();
    lanes_.resize(ports_.size());
    for (graph::NodeId u = 0; u < p_.num_nodes(); ++u) {
      const std::string name = p_.platform->node_name(u);
      lanes_[port_of(u, StepKind::kSend)] = obs::Trace::lane(name + " out");
      lanes_[port_of(u, StepKind::kRecv)] = obs::Trace::lane(name + " in");
      lanes_[port_of(u, StepKind::kComp)] = obs::Trace::lane(name + " cpu");
    }
  }

  [[nodiscard]] std::uint64_t ns_at(double t) const {
    return trace_offset_ + static_cast<std::uint64_t>(t * 1e9);
  }

  /// Emits the just-committed occupation [end - seconds, end] on `lane`,
  /// preceded by a "wait" span covering the admission gap since the port's
  /// previous occupation ended.
  void trace_span(std::size_t port, const char* name, double prev_end,
                  double end, double seconds, std::uint64_t bytes,
                  bool has_bytes) {
    if (!tracing_) return;
    const std::uint32_t lane = lanes_[port];
    const double start = end - seconds;
    if (start - prev_end > 1e-12) {
      obs::Trace::emit(lane, "wait", "exec", ns_at(prev_end),
                       ns_at(start) - ns_at(prev_end));
    }
    obs::Trace::emit(lane, name, "exec", ns_at(start),
                     static_cast<std::uint64_t>(seconds * 1e9), bytes,
                     has_bytes);
  }

  // ---- scheduler (lock held) ---------------------------------------------
  //
  // Both drivers admit steps through admit_next, which admits exactly the
  // step a full scan of all ports in order would admit, without rescanning.
  // A port that is neither pending nor timed is blocked on data, a channel
  // slot or its own completion, and stays so until a commit changes what
  // its check reads. Each commit therefore marks the ports that read the
  // state it changed:
  //   * a recv pops the channel: the sender's OUT port;
  //   * a recv, or a merge whose product stays local, raises the node's
  //     stock: its OUT and CPU ports;
  //   * a send or a merge lowers the node's stock: the other stock reader,
  //     if it is timed (lower stock can only block it, and its stale wake
  //     must not pick the next instant);
  //   * complete: the port itself, and after a send the receiver's IN port.
  // A timed port's wake_ is the instant a full scan would compute for it,
  // so next_wake() is the full scan's next instant. The exception is a
  // ready time computed from `now` itself: a token deficit gives
  // now + deficit/rate, whose last bits depend on now, and a blackout
  // check reads now. Such ports (from_now_) are re-checked at every
  // instant, as the full scan re-checks everything.

  [[nodiscard]] static std::size_t port_of(graph::NodeId u, StepKind kind) {
    return kKinds * u + static_cast<std::size_t>(kind);
  }

  void mark(std::size_t p) { pending_[p / 64] |= std::uint64_t{1} << (p % 64); }

  void mark_if_timed(std::size_t p) {
    if ((timed_[p / 64] >> (p % 64)) & 1) mark(p);
  }

  template <typename Fn>
  void for_each_timed(Fn fn) const {
    for (std::size_t w = 0; w < timed_.size(); ++w) {
      for (std::uint64_t bits = timed_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// The clock moved to `now`: re-check every port whose wake has passed or
  /// was computed from an earlier instant.
  void advance(double now) {
    for_each_timed([&](std::size_t p) {
      if (from_now_[p] || wake_[p] <= now) mark(p);
    });
  }

  /// Earliest wake of a time-blocked port; kInf if none (every blocked step
  /// waits on another step). Exact once admit_next has returned false.
  [[nodiscard]] double next_wake() const {
    double t = kInf;
    for_each_timed([&](std::size_t p) { t = std::min(t, wake_[p]); });
    return t;
  }

  /// Admits the lowest-numbered admissible pending port at `now`. On
  /// success fills `out` (all bookkeeping already committed) and returns
  /// true; the next call starts again from port 0, since the commit may
  /// have marked lower ports.
  bool admit_next(double now, Admitted& out) {
    for (std::size_t w = 0; w < pending_.size(); ++w) {
      while (pending_[w] != 0) {
        const std::size_t p =
            w * 64 + static_cast<std::size_t>(std::countr_zero(pending_[w]));
        pending_[w] &= pending_[w] - 1;
        timed_[w] &= ~(std::uint64_t{1} << (p % 64));
        double ready = kInf;
        bool from_now = false;
        if (admit_port(p, now, out, ready, from_now)) return true;
        if (ready != kInf) {
          timed_[w] |= std::uint64_t{1} << (p % 64);
          wake_[p] = ready;
          from_now_[p] = from_now ? 1 : 0;
        }
      }
    }
    return false;
  }

  /// Checks port `p` at `now` and commits its step if admissible. A port
  /// blocked only by time sets `ready` to the instant it becomes ready and
  /// `from_now` when that instant was computed from `now`.
  bool admit_port(std::size_t p, double now, Admitted& out, double& ready,
                  bool& from_now) {
    PortRt& port = ports_[p];
    if (port.in_flight || port.order->empty()) return false;
    const auto u = static_cast<graph::NodeId>(p / kKinds);
    const std::size_t tmpl = (*port.order)[port.pos];
    switch (static_cast<StepKind>(p % kKinds)) {
      case StepKind::kSend:
        return admit_send(p, u, tmpl, now, out, ready, from_now);
      case StepKind::kRecv:
        return admit_recv(p, u, tmpl, now, out, ready);
      case StepKind::kComp:
        return admit_comp(p, u, tmpl, now, out, ready);
    }
    return false;
  }

  bool admit_send(std::size_t p, graph::NodeId u, std::size_t tmpl,
                  double now, Admitted& out, double& ready, bool& from_now) {
    PortRt& port = ports_[p];
    const TransferTemplate& t = p_.transfers[tmpl];
    const ChunkSpec& c = t.chunks[port.sub];
    if (channels_[tmpl].size() + reserved_[tmpl] >= channels_[tmpl].capacity()) {
      return false;  // backpressure: the receiver's pop marks this port
    }
    const Units need = chunk_units_[tmpl][port.sub];
    if (!unlimited(u, t.type) && avail_[u][t.type] < need) {
      return false;  // the producer's commit marks this port
    }
    const double slack = kBurstChunks * c.seconds;
    const double bucket =
        buckets_[t.edge].ready_time(now, static_cast<double>(c.bytes));
    double rt = std::max(port.tat - slack, bucket);
    if (faults_.active()) {
      rt = std::max(rt, port.retry_at);  // retransmit backoff gate
      rt = std::max(rt, faults_.blackout_release(t.edge, now));
    }
    if (rt > now) {
      ready = rt;
      from_now = bucket > now || faults_.active();
      return false;
    }
    // Commit. A collapsed link stretches the chunk's wire time by 1/scale,
    // so its effective rate drops and drift inference sees the fault; a
    // lost chunk burns that wire time (and its tokens) but delivers
    // nothing, and the port retries the SAME chunk after a capped
    // exponential backoff.
    double seconds = c.seconds;
    bool lost = false;
    if (faults_.active()) {
      seconds /= faults_.rate_scale(t.edge, now);
      if (port.attempts > 0) ++retransmits_;
      lost = faults_.lose_next_chunk(t.edge);
    }
    buckets_[t.edge].consume(now, static_cast<double>(c.bytes));
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + seconds;
    port.busy += seconds;
    edge_busy_[t.edge] += seconds;
    out.kind = StepKind::kSend;
    out.node = u;
    out.tmpl = tmpl;
    out.chunk = Chunk{};
    port.in_flight = true;
    if (lost) {
      // No availability debit, no identity consumption, no channel push:
      // exactly-once bookkeeping never saw this crossing.
      ++chunks_lost_;
      ++port.attempts;
      port.retry_at = port.tat + faults_.backoff(port.attempts);
      if (port.attempts > faults_.max_retransmits()) {
        set_fault(now, FaultCode::kRetransmitLimit,
                  "chunk lost " + std::to_string(port.attempts) +
                      " consecutive times",
                  t.edge, u);
      }
      trace_span(p, "lost", prev_end, port.tat, seconds, c.bytes, true);
      out.lost = true;
      return true;
    }
    port.attempts = 0;
    port.retry_at = 0.0;
    if (!unlimited(u, t.type)) {
      debit(avail_[u][t.type], need, now, t.type);
      mark_if_timed(port_of(u, StepKind::kComp));
    }
    edge_bytes_[t.edge] += c.bytes;
    trace_span(p, "send", prev_end, port.tat, seconds, c.bytes, true);
    out.chunk.type = t.type;
    out.chunk.bytes = c.bytes;
    out.chunk.arrive_time = port.tat;  // fully crossed once the wire time ran
    if (faults_.active()) {
      out.chunk.arrive_time += faults_.next_jitter(t.edge);
    }
    if (verify_) {
      if (unlimited(u, t.type)) {
        out.chunk.msg_ranges.emplace_back(next_id_[t.type], c.whole_msgs);
        next_id_[t.type] += c.whole_msgs;
      } else if (!take_ids(idq_[u][t.type], c.whole_msgs,
                           out.chunk.msg_ranges)) {
        set_fault(now, FaultCode::kIdentityUnderflow,
                  "message identity underflow at node " +
                      p_.platform->node_name(u),
                  t.edge, u);
      }
    }
    ++reserved_[tmpl];
    return true;
  }

  bool admit_recv(std::size_t p, graph::NodeId u, std::size_t tmpl,
                  double now, Admitted& out, double& ready) {
    PortRt& port = ports_[p];
    const TransferTemplate& t = p_.transfers[tmpl];
    const ChunkSpec& c = t.chunks[port.sub];
    if (channels_[tmpl].empty()) return false;  // the sender's push marks us
    const double slack = kBurstChunks * c.seconds;
    const double rt =
        std::max(channels_[tmpl].front().arrive_time, port.tat - slack);
    if (rt > now) {
      ready = rt;
      return false;
    }
    // Commit: the one-port model charges receive time too.
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + c.seconds;
    port.busy += c.seconds;
    trace_span(p, "recv", prev_end, port.tat, c.seconds, c.bytes, true);
    out.kind = StepKind::kRecv;
    out.node = u;
    out.tmpl = tmpl;
    out.chunk = channels_[tmpl].pop();
    mark(port_of(t.src, StepKind::kSend));
    const Units got = chunk_units_[tmpl][port.sub];
    credit(avail_[u][t.type], got, now, t.type);
    mark(port_of(u, StepKind::kSend));
    mark(port_of(u, StepKind::kComp));
    const bool sink = p_.sink_of_type[t.type] == u;
    if (sink) {
      credit(delivered_[t.type], got, now, t.type);
      update_ops(t.type, now);
    }
    if (verify_) {
      if (sink) {
        for (const auto& [begin, count] : out.chunk.msg_ranges) {
          mark_delivered(t.type, begin, count);
        }
      }
      if (!sink || forwards_[u][t.type]) {
        auto& q = idq_[u][t.type];
        for (const auto& range : out.chunk.msg_ranges) q.push_back(range);
      }
    }
    port.in_flight = true;
    return true;
  }

  bool admit_comp(std::size_t p, graph::NodeId u, std::size_t tmpl,
                  double now, Admitted& out, double& ready) {
    PortRt& port = ports_[p];
    const ComputeTemplate& ct = p_.comps[tmpl];
    const ComputeSlice& s = ct.slices[port.sub];
    const SliceUnits& su = slice_units_[tmpl][port.sub];
    if (!unlimited(u, ct.left) && avail_[u][ct.left] < su.left) return false;
    if (!unlimited(u, ct.right) && avail_[u][ct.right] < su.right) return false;
    const double slack = kBurstChunks * s.seconds;
    const double rt = port.tat - slack;
    if (rt > now) {
      ready = rt;
      return false;
    }
    // Commit the merge v[k,l] (+) v[l+1,m] -> v[k,m]. A slowed-down node
    // stretches the slice by 1/scale, same convention as link collapse.
    double seconds = s.seconds;
    if (faults_.active()) seconds /= faults_.node_scale(u, now);
    if (!unlimited(u, ct.left)) {
      debit(avail_[u][ct.left], su.left, now, ct.left);
    }
    if (!unlimited(u, ct.right)) {
      debit(avail_[u][ct.right], su.right, now, ct.right);
    }
    mark_if_timed(port_of(u, StepKind::kSend));
    check_occupancy(port, now, slack);
    const double prev_end = port.tat;
    port.tat = std::max(port.tat, now) + seconds;
    port.busy += seconds;
    trace_span(p, "comp", prev_end, port.tat, seconds, 0, false);
    if (p_.sink_of_type[ct.product] == u) {
      credit(delivered_[ct.product], su.product, now, ct.product);
      update_ops(ct.product, now);
    } else {
      credit(avail_[u][ct.product], su.product, now, ct.product);
      mark(port_of(u, StepKind::kSend));
    }
    out.kind = StepKind::kComp;
    out.node = u;
    out.tmpl = tmpl;
    port.in_flight = true;
    return true;
  }

  /// Online one-port monitor: admission with the burst slack may start at
  /// most `slack` before the port's previous occupation ended; anything
  /// beyond that is a genuine overlap (an engine bug worth counting).
  void check_occupancy(const PortRt& port, double now, double slack) {
    if (now + slack + 1e-9 < port.tat) ++violations_;
  }

  static bool take_ids(
      std::deque<std::pair<std::uint64_t, std::uint64_t>>& q,
      std::uint64_t count,
      std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
    while (count > 0) {
      if (q.empty()) return false;
      auto& [begin, len] = q.front();
      const std::uint64_t take = std::min(len, count);
      out.emplace_back(begin, take);
      begin += take;
      len -= take;
      count -= take;
      if (len == 0) q.pop_front();
    }
    return true;
  }

  void mark_delivered(std::size_t type, std::uint64_t begin,
                      std::uint64_t count) {
    auto& marks = marks_[type];
    if (begin + count > marks.size()) {
      marks.resize(std::max<std::size_t>(2 * marks.size(),
                                         static_cast<std::size_t>(begin + count)),
                   false);
    }
    for (std::uint64_t id = begin; id < begin + count; ++id) {
      if (marks[id]) {
        ++delivery_errors_;  // the same message arrived twice
      } else {
        marks[id] = true;
      }
    }
  }

  /// A delivery of `type` reached its sink: refresh the completed-operation
  /// count (flow: the slowest commodity; reduce: the full interval) and
  /// stamp the window edges.
  void update_ops(std::size_t type, double now) {
    const Units d = den_[type];
    Units whole = delivered_[type] / d;
    if (whole * d > delivered_[type]) --whole;  // floor, not truncation
    if (whole > std::numeric_limits<std::int64_t>::max() ||
        whole < std::numeric_limits<std::int64_t>::min()) {
      set_fault(now, FaultCode::kCountOverflow,
                "deliveries overflow the 64-bit operation counter");
      return;
    }
    delivered_floor_[type] =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(whole));
    ops_done_ = p_.kind == ExecProgram::Kind::kFlow
                    ? *std::min_element(delivered_floor_.begin(),
                                        delivered_floor_.end())
                    : delivered_floor_[full_type_];
    if (!t0_stamped_ && ops_done_ >= warmup_ops_) {
      t0_stamped_ = true;
      t0_ = now;
      ops0_ = ops_done_;
      edge_bytes_t0_ = edge_bytes_;
      edge_busy_t0_ = edge_busy_;
      for (PortRt& port : ports_) port.busy_t0 = port.busy;
    }
    if (t0_stamped_ && !t1_stamped_ && ops_done_ >= total_ops_) {
      t1_stamped_ = true;
      t1_ = now;
      ops1_ = ops_done_;
      edge_bytes_t1_ = edge_bytes_;
      edge_busy_t1_ = edge_busy_;
      port_busy_t1_.clear();
      for (const PortRt& port : ports_) {
        port_busy_t1_.push_back(port.busy - port.busy_t0);
      }
      done_ = true;
    }
  }

  void set_fault(double now, FaultCode code, std::string message,
                 graph::EdgeId edge = graph::kInvalidId,
                 graph::NodeId node = graph::kInvalidId) {
    if (fault_.ok()) {
      fault_.code = code;
      fault_.message = std::move(message);
      fault_.edge = edge;
      fault_.node = node;
      fault_.at_seconds = now;
    }
    done_ = true;
  }

  // ---- completion --------------------------------------------------------

  /// Payload work done outside the scheduler lock (threaded mode only).
  void byte_work(Admitted& a) {
    if (a.kind == StepKind::kSend) {
      if (a.lost) return;  // nothing crossed; nothing to materialize
      a.chunk.payload.resize(a.chunk.bytes);
      fill_payload(a.chunk);
    } else if (a.kind == StepKind::kRecv) {
      a.payload_ok = validate_payload(a.chunk);
      a.chunk.payload.clear();
    }
  }

  void fill_payload(Chunk& chunk) const {
    if (chunk.msg_ranges.empty()) {
      std::memset(chunk.payload.data(), pattern_byte(chunk.type, 0),
                  chunk.payload.size());
      return;
    }
    std::size_t offset = 0;
    const std::size_t B = p_.bytes_per_message;
    for (const auto& [begin, count] : chunk.msg_ranges) {
      for (std::uint64_t id = begin; id < begin + count; ++id) {
        const std::size_t len = std::min(B, chunk.payload.size() - offset);
        std::memset(chunk.payload.data() + offset,
                    pattern_byte(chunk.type, id), len);
        offset += len;
      }
    }
  }

  [[nodiscard]] bool validate_payload(const Chunk& chunk) const {
    auto check_region = [&](std::size_t begin, std::size_t len,
                            std::uint8_t expect) {
      if (len == 0) return true;
      const std::uint8_t* d = chunk.payload.data() + begin;
      if (d[0] != expect || d[len - 1] != expect || d[len / 2] != expect) {
        return false;
      }
      for (std::size_t i = 0; i < len; i += 1021) {
        if (d[i] != expect) return false;
      }
      return true;
    };
    if (chunk.msg_ranges.empty()) {
      return check_region(0, chunk.payload.size(),
                          pattern_byte(chunk.type, 0));
    }
    std::size_t offset = 0;
    const std::size_t B = p_.bytes_per_message;
    for (const auto& [begin, count] : chunk.msg_ranges) {
      for (std::uint64_t id = begin; id < begin + count; ++id) {
        const std::size_t len = std::min(B, chunk.payload.size() - offset);
        if (!check_region(offset, len, pattern_byte(chunk.type, id))) {
          return false;
        }
        offset += len;
      }
    }
    return true;
  }

  /// Re-acquires the scheduler lock conceptually: called with it held.
  void complete(Admitted& a, double now) {
    const std::size_t p = port_of(a.node, a.kind);
    PortRt& port = ports_[p];
    port.in_flight = false;
    last_progress_ = now;
    mark(p);
    std::size_t steps = 0;
    if (a.kind == StepKind::kSend) {
      // A lost chunk stays at (pos, sub): the port retransmits it once its
      // backoff gate opens. Losses still count as liveness for the
      // watchdog — the engine is making (doomed) wire progress.
      if (a.lost) return;
      const TransferTemplate& t = p_.transfers[a.tmpl];
      steps = t.chunks.size();
      --reserved_[a.tmpl];
      channels_[a.tmpl].push(std::move(a.chunk));
      mark(port_of(t.dst, StepKind::kRecv));
    } else if (a.kind == StepKind::kRecv) {
      steps = p_.transfers[a.tmpl].chunks.size();
      if (!a.payload_ok) ++delivery_errors_;
    } else {
      steps = p_.comps[a.tmpl].slices.size();
    }
    ++port.sub;
    if (port.sub >= steps) {
      port.sub = 0;
      port.pos = (port.pos + 1) % port.order->size();
    }
  }

  // ---- drivers -----------------------------------------------------------

  void run_event() {
    double vnow = 0.0;
    while (!done_) {
      Admitted a;
      if (admit_next(vnow, a)) {
        complete(a, vnow);  // no byte work on the virtual path
        continue;
      }
      const double next_time = next_wake();
      if (next_time == kInf) {
        set_fault(vnow, FaultCode::kDeadlock,
                  "discrete-event executor deadlocked (no admissible "
                  "step and no pending wake time)");
        return;
      }
      if (opt_.deadline_seconds > 0 && next_time > opt_.deadline_seconds) {
        set_fault(opt_.deadline_seconds, FaultCode::kDeadlineExceeded,
                  "run deadline of " + std::to_string(opt_.deadline_seconds) +
                      "s fired before the window closed");
        return;
      }
      vnow = next_time;
      advance(vnow);
    }
  }

  void run_threaded() {
    const auto start = std::chrono::steady_clock::now();
    auto now_fn = [start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    std::size_t workers = opt_.workers;
    if (workers == 0) {
      workers = std::min<std::size_t>(
          std::max(1u, std::thread::hardware_concurrency()), 8);
    }
    workers_used_ = workers;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([this, now_fn] { worker_loop(now_fn); });
    }
    for (std::thread& t : pool) t.join();
  }

  template <typename NowFn>
  void worker_loop(NowFn now_fn) {
    std::unique_lock lock(mu_, std::defer_lock);
    // An exception must not escape a std::thread (that calls
    // std::terminate): it ends the run as a typed fault instead.
    std::optional<std::string> thrown;
    try {
      run_worker(now_fn, lock);
    } catch (const std::exception& e) {
      thrown = e.what();
    } catch (...) {
      thrown = "non-standard exception";
    }
    if (!lock.owns_lock()) lock.lock();
    if (thrown) {
      set_fault(now_fn(), FaultCode::kWorkerException,
                "worker thread threw: " + *thrown);
    }
    cv_.notify_all();
  }

  template <typename NowFn>
  void run_worker(NowFn now_fn, std::unique_lock<std::mutex>& lock) {
    // Sanitizer builds run 5-20x slower; scale the watchdog so instrumented
    // CI can't fire it on a healthy run.
    const double watchdog =
        kWatchdogSeconds * (sanitized_build() ? 5.0 : 1.0);
    lock.lock();
    while (!done_) {
      const double now = now_fn();
      if (opt_.deadline_seconds > 0 && now > opt_.deadline_seconds) {
        set_fault(now, FaultCode::kDeadlineExceeded,
                  "run deadline of " + std::to_string(opt_.deadline_seconds) +
                      "s fired before the window closed");
        cv_.notify_all();
        break;
      }
      advance(now);
      Admitted a;
      if (admit_next(now, a)) {
        lock.unlock();
        byte_work(a);
        lock.lock();
        complete(a, now_fn());
        cv_.notify_all();
        continue;
      }
      if (now > last_progress_ + watchdog) {
        set_fault(now, FaultCode::kWatchdogStall,
                  "watchdog: no progress for " + std::to_string(watchdog) +
                      "s");
        cv_.notify_all();
        break;
      }
      double wake = std::min(next_wake(), last_progress_ + watchdog + 1e-3);
      if (opt_.deadline_seconds > 0) {
        wake = std::min(wake, opt_.deadline_seconds + 1e-3);
      }
      cv_.wait_for(lock, std::chrono::duration<double>(
                             std::max(1e-5, wake - now_fn())));
    }
  }

  // ---- reporting ---------------------------------------------------------

  void fill_report(ExecReport& r) {
    r.workers = threaded_ ? workers_used_ : 1;
    r.fault = fault_;
    r.oneport_violations = violations_;
    r.delivery_errors = delivery_errors_;
    r.faults_injected = faults_.injected();
    r.chunks_lost = chunks_lost_;
    r.retransmits = retransmits_;
    r.total_operations = ops1_;
    r.total_seconds = t1_;
    r.warmup_seconds = t0_;
    if (!t1_stamped_) {
      if (r.fault.ok()) {
        r.fault.code = FaultCode::kIncompleteWindow;
        r.fault.message = "execution ended before the window";
      }
      return;
    }
    r.operations = ops1_ - ops0_;
    r.elapsed_seconds = t1_ - t0_;
    r.payload_bytes = r.operations * p_.op_payload_bytes;
    const double certified_ops =
        p_.throughput.to_double() / p_.seconds_per_unit;
    r.certified_ops_per_sec = certified_ops;
    r.certified_bytes_per_sec =
        certified_ops * static_cast<double>(p_.op_payload_bytes);
    if (r.elapsed_seconds > 0) {
      r.achieved_ops_per_sec =
          static_cast<double>(r.operations) / r.elapsed_seconds;
      r.achieved_bytes_per_sec =
          static_cast<double>(r.payload_bytes) / r.elapsed_seconds;
      r.efficiency = r.achieved_ops_per_sec / certified_ops;
    }
    r.edges.resize(p_.platform->num_edges());
    for (graph::EdgeId e = 0; e < p_.platform->num_edges(); ++e) {
      EdgeTraffic& t = r.edges[e];
      t.edge = e;
      t.wire_bytes = edge_bytes_t1_[e] - edge_bytes_t0_[e];
      t.busy_seconds = edge_busy_t1_[e] - edge_busy_t0_[e];
      t.modeled_bytes_per_sec = p_.modeled_rate[e];
      t.effective_bytes_per_sec =
          t.busy_seconds > 0
              ? static_cast<double>(t.wire_bytes) / t.busy_seconds
              : 0.0;
      r.wire_bytes += t.wire_bytes;
    }
    r.ports.resize(p_.num_nodes());
    const std::size_t n = p_.num_nodes();
    for (graph::NodeId u = 0; u < n; ++u) {
      if (r.elapsed_seconds <= 0) break;
      r.ports[u].out =
          port_busy_t1_[port_of(u, StepKind::kSend)] / r.elapsed_seconds;
      r.ports[u].in =
          port_busy_t1_[port_of(u, StepKind::kRecv)] / r.elapsed_seconds;
      r.ports[u].cpu =
          port_busy_t1_[port_of(u, StepKind::kComp)] / r.elapsed_seconds;
    }
  }

  const ExecProgram& p_;
  ExecOptions opt_;
  bool threaded_;
  bool verify_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  ExecFault fault_;
  FaultRuntime faults_;
  std::uint64_t chunks_lost_ = 0;
  std::uint64_t retransmits_ = 0;
  double last_progress_ = 0.0;
  std::size_t workers_used_ = 1;

  // Exact stock in units (init_stock): D_k per type, each chunk and slice
  // quantity in its type's units, and the running stock per node and type.
  std::vector<Units> den_;
  std::vector<std::vector<Units>> chunk_units_;  // [transfer][chunk]
  std::vector<std::vector<SliceUnits>> slice_units_;  // [merge][slice]
  std::vector<std::vector<Units>> avail_;
  std::vector<Units> delivered_;
  std::vector<std::uint64_t> delivered_floor_;  // floor(delivered_ / D_k)
  std::size_t full_type_ = 0;  // reduce: the type whose deliveries count
  std::vector<std::vector<char>> forwards_;
  std::vector<BoundedChannel> channels_;
  std::vector<std::size_t> reserved_;
  std::vector<TokenBucket> buckets_;
  std::vector<PortRt> ports_;  // port_of(node, kind)

  // Scheduler state (admit_next): bitsets over ports, plus the ready time
  // of each timed port and whether it was computed from `now`.
  std::vector<std::uint64_t> pending_, timed_;
  std::vector<double> wake_;
  std::vector<char> from_now_;

  std::vector<std::uint64_t> next_id_;
  std::vector<std::vector<std::deque<std::pair<std::uint64_t, std::uint64_t>>>>
      idq_;
  std::vector<std::vector<bool>> marks_;

  std::vector<std::uint64_t> edge_bytes_, edge_bytes_t0_, edge_bytes_t1_;
  std::vector<double> edge_busy_, edge_busy_t0_, edge_busy_t1_;
  std::vector<double> port_busy_t1_;

  std::uint64_t warmup_ops_ = 0, total_ops_ = 0;
  std::uint64_t ops_done_ = 0, ops0_ = 0, ops1_ = 0;
  bool t0_stamped_ = false, t1_stamped_ = false;
  double t0_ = 0.0, t1_ = 0.0;
  std::size_t violations_ = 0, delivery_errors_ = 0;

  // Tracing (init_trace): one lane per port.
  bool tracing_ = false;
  std::uint64_t trace_offset_ = 0;
  std::vector<std::uint32_t> lanes_;
};

}  // namespace

ExecReport run_threaded(const ExecProgram& program,
                        const ExecOptions& options) {
  Engine engine(program, options, /*threaded=*/true);
  return engine.run();
}

ExecReport run_event(const ExecProgram& program, const ExecOptions& options) {
  Engine engine(program, options, /*threaded=*/false);
  return engine.run();
}

}  // namespace ssco::exec
