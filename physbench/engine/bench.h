// Shared pieces of the physbench engine: wall clock, the raw-results
// writer the Python runner reads back, report equality, peak memory, and
// the span recorder used by traced runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <sys/types.h>
#include <thread>
#include <vector>

#include "core/report.h"

namespace physbench {

using bench_clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             bench_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

// Threads the benchmark uses for parallel work (sweep jobs, generator
// connections): fixed at four, never more than the machine has.
inline int bench_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

// Run parameters shared by every workload.
struct run_args {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;     // repository checkout (committed inputs)
  std::string bin_dir;  // directory holding physnet_serve / physnet_proxy
  std::string out_dir;  // private scratch directory for this run
};

// Everything one workload measured, as raw numbers. Percentiles, ratios
// and medians are computed by the runner from these, never here, so the
// exact-sample rule lives in one place.
class raw_results {
 public:
  void set(const std::string& key, double v) { scalars_[key] = v; }
  void add(const std::string& key, double v) { scalars_[key] += v; }
  void push(const std::string& key, double v) { series_[key].push_back(v); }
  void note(const std::string& key, const std::string& v) {
    notes_[key] = v;
  }
  // A correctness failure: the run reports correct = false.
  void mismatch(const std::string& what);
  [[nodiscard]] bool correct() const { return mismatches_.empty(); }
  void write_json(std::ostream& out) const;

 private:
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> mismatches_;
};

// Field-by-field equality of two reports, doubles compared bit for bit.
// eval_total_ms is wall time and is ignored. On a difference, names the
// first differing field in *why.
[[nodiscard]] bool same_report(const pn::deployability_report& a,
                               const pn::deployability_report& b,
                               std::string* why);

[[nodiscard]] bool same_bits(double a, double b);

// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mb(pid_t pid);

// In-memory span recorder. Each span has a name, start, end, parent span
// and the id of the design / row / request it belongs to. Spans are only
// written out when the run ends.
class tracer {
 public:
  explicit tracer(std::string workload) : workload_(std::move(workload)) {}

  class scope {
   public:
    scope(tracer* t, std::size_t idx) : t_(t), idx_(idx) {}
    ~scope() {
      if (t_ != nullptr) t_->close(idx_);
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

   private:
    tracer* t_;
    std::size_t idx_;
  };

  // `name` must be a string literal (stored by pointer).
  [[nodiscard]] scope open(const char* name, std::uint64_t op);

  // One line per span: workload, id, parent (-1 = root), name, op,
  // start_ns, end_ns.
  void write_tsv(std::ostream& out) const;

 private:
  struct span {
    const char* name;
    std::int64_t parent;
    std::uint64_t op;
    std::int64_t start;
    std::int64_t end;
  };
  void close(std::size_t idx);

  std::string workload_;
  std::vector<span> spans_;
  std::vector<std::size_t> stack_;
};

// A span when `t` is set, nothing otherwise: lets one code path serve the
// traced and the untraced pass.
inline tracer::scope maybe_open(tracer* t, const char* name,
                                std::uint64_t op) {
  return t != nullptr ? t->open(name, op) : tracer::scope(nullptr, 0);
}

}  // namespace physbench
