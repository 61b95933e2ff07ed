#pragma once
// The benchmark's own span list and its fold into per-layer self time.
//
// Spans are recorded by ssco_bench itself, around each call into a public layer
// (core/, exec/, sim/, service/), on the obs::Trace timeline. They are kept
// in this list — not only in the library's bounded trace rings — so a ring
// overwrite can drop an event from the Chrome export but never layer time
// from the ledger. Each span is also mirrored into obs::Trace so the export
// shows the benchmark's layers above the library's own spans in Perfetto.
//
// Not thread-safe: one Ledger is written by one thread.

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace bench {

class Ledger {
 public:
  struct Span {
    const char* name;  // string literal (mirrored into obs::Trace)
    int parent;        // index of the parent span, -1 for a request root
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };

  /// RAII span: a child of the innermost open span, or a root.
  class Scope {
   public:
    Scope(Ledger* ledger, const char* name) : ledger_(ledger) {
      if (ledger_ != nullptr) id_ = ledger_->open(name);
    }
    ~Scope() {
      if (ledger_ != nullptr) ledger_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger* ledger_;
    int id_ = -1;
  };

  /// Records an already-timed span (times on the obs::Trace timeline).
  int add(const char* name, int parent, std::uint64_t start_ns,
          std::uint64_t end_ns) {
    spans_.push_back({name, parent, start_ns, std::max(start_ns, end_ns)});
    ssco::obs::Trace::record(name, "bench", start_ns,
                             spans_.back().end_ns - start_ns);
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Self time per span name, ms, summed over the ledger.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    const std::vector<double> self = self_ns();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += self[i] / 1e6;
    }
    return out;
  }

  /// Share of request (root) time that some layer span accounts for.
  [[nodiscard]] double attributed_frac() const {
    const std::vector<double> self = self_ns();
    double roots = 0.0, layers = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent < 0) {
        roots += duration(spans_[i]);
      } else {
        layers += self[i];
      }
    }
    return roots > 0.0 ? layers / roots : 0.0;
  }

 private:
  static double duration(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns);
  }
  /// Duration minus the direct children's durations.
  [[nodiscard]] std::vector<double> self_ns() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(spans_[i]);
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= duration(s);
    }
    return self;
  }

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, ssco::obs::Trace::now_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = ssco::obs::Trace::now_ns();
    ssco::obs::Trace::record(s.name, "bench", s.start_ns, s.end_ns - s.start_ns);
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace bench
