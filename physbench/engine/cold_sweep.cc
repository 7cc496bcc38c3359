// cold_sweep: a fixed grid over all ten build_family families, evaluated
// serially through evaluate_design and then through run_sweep.
#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/evaluator.h"
#include "core/sweep.h"
#include "layers.h"
#include "topology/generators/families.h"
#include "workloads.h"

namespace physbench {

namespace {

struct grid_point {
  const char* family;
  int size;
};

// Sizes give each family one to three designs of comparable work (about
// 1-30 ms each). vl2 24 and 32 are in the grid on purpose: build_family
// rejects them today (see physbench/README.md, known bugs), and the
// benchmark counts them as failed operations instead of avoiding them.
constexpr grid_point kGrid[] = {
    {"fat_tree", 8},          {"fat_tree", 12},
    {"fat_tree", 16},         {"leaf_spine", 32},
    {"leaf_spine", 48},       {"leaf_spine", 64},
    {"jellyfish", 64},        {"jellyfish", 128},
    {"jellyfish", 256},       {"xpander", 64},
    {"xpander", 128},         {"xpander", 256},
    {"flattened_butterfly", 6}, {"flattened_butterfly", 8},
    {"flattened_butterfly", 10}, {"slim_fly", 5},
    {"slim_fly", 13},         {"vl2", 16},
    {"vl2", 24},              {"vl2", 32},
    {"dragonfly", 8},         {"dragonfly", 12},
    {"dragonfly", 16},        {"jupiter_fat_tree", 4},
    {"jupiter_fat_tree", 8},  {"jupiter_fat_tree", 12},
    {"jupiter_direct", 4},    {"jupiter_direct", 8},
    {"jupiter_direct", 12},
};

// Grid builds timed per set-up: building is short, so each set-up takes
// several samples.
constexpr int kSetupRepeats = 3;

struct design {
  std::string label;
  std::uint64_t eval_seed = 0;
  std::optional<pn::network_graph> graph;  // empty: unbuildable
  std::string error;
};

// Builds every grid point. A build that fails — by error or by a thrown
// PN_CHECK — is recorded, not fatal.
std::vector<design> build_grid(std::uint64_t seed) {
  std::vector<design> out;
  std::size_t i = 0;
  for (const grid_point& p : kGrid) {
    design d;
    d.label = std::string(p.family) + "/" + std::to_string(p.size);
    d.eval_seed = pn::sweep_point_seed(seed, i);
    try {
      auto g = pn::build_family(p.family, p.size,
                                pn::sweep_point_seed(~seed, i));
      if (g.is_ok()) {
        d.graph = std::move(g).value();
      } else {
        d.error = g.error().message();
      }
    } catch (const std::exception& e) {
      d.error = e.what();
    }
    out.push_back(std::move(d));
    ++i;
  }
  return out;
}

struct grid_state {
  std::vector<design> designs;
  std::vector<std::size_t> buildable;  // indices into designs
  std::vector<pn::sweep_point> points;  // one per buildable design
  std::size_t unbuildable = 0;
};

// One serial evaluate_design pass; fills `ref` on first use and checks
// later passes against it. Returns the pass wall time in ms.
double serial_pass(const grid_state& st, const pn::evaluation_options& base,
                   std::vector<std::optional<pn::deployability_report>>& ref,
                   raw_results& out, const char* sample_key) {
  double total = 0.0;
  for (std::size_t k = 0; k < st.buildable.size(); ++k) {
    const design& d = st.designs[st.buildable[k]];
    pn::evaluation_options o = base;
    o.seed = d.eval_seed;
    const std::int64_t t0 = now_ns();
    auto ev = pn::evaluate_design(*d.graph, d.label, o);
    const double dt = ms_since(t0);
    total += dt;
    if (sample_key != nullptr) out.push(sample_key, dt);
    out.add("attempted", 1);
    if (!ev.is_ok()) {
      out.add("failed", 1);
      continue;
    }
    std::string why;
    if (!ref[k].has_value()) {
      ref[k] = ev.value().report;
    } else if (!same_report(*ref[k], ev.value().report, &why)) {
      out.mismatch(d.label + ": repeated evaluate_design differs in " + why);
    }
  }
  // Unbuildable designs are attempted (and fail) on every pass.
  out.add("attempted", static_cast<double>(st.unbuildable));
  out.add("failed", static_cast<double>(st.unbuildable));
  return total;
}

// Set-up: build every design and its sweep point, `kSetupRepeats` times
// (keeping the last); each build's wall time is one set-up sample. Then,
// outside the timer, one serial pass whose reports are the reference every
// later pass is checked against (evaluation speed is what eval_ms and
// sweep_designs_per_s measure, not set-up).
grid_state set_up(const run_args& a, raw_results& out,
                  std::vector<std::optional<pn::deployability_report>>& ref) {
  grid_state st;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    st = grid_state{};
    st.designs = build_grid(a.seed);
    for (std::size_t i = 0; i < st.designs.size(); ++i) {
      const design& d = st.designs[i];
      if (!d.graph.has_value()) {
        ++st.unbuildable;
        continue;
      }
      st.buildable.push_back(i);
      const pn::network_graph* g = &*d.graph;
      st.points.push_back(pn::sweep_point{
          d.label, [g] { return *g; }, {}, d.eval_seed});
    }
    out.push("setup_s", ms_since(t0) / 1e3);
  }
  ref.assign(st.buildable.size(), std::nullopt);
  serial_pass(st, pn::evaluation_options{}, ref, out, nullptr);
  return st;
}

// One run_sweep pass over the buildable designs; checks every report
// against the serial reference, field by field and as CSV bytes.
double sweep_pass(const grid_state& st, const pn::evaluation_options& base,
                  const std::vector<std::optional<pn::deployability_report>>&
                      ref,
                  raw_results& out) {
  pn::sweep_options sopt;
  sopt.jobs = bench_threads();
  const std::int64_t t0 = now_ns();
  const pn::sweep_results res = pn::run_sweep(st.points, base, sopt);
  const double dt = ms_since(t0);
  out.add("attempted", static_cast<double>(st.designs.size()));
  out.add("failed",
          static_cast<double>(st.unbuildable + res.failures.size()));
  if (!res.failures.empty()) {
    out.mismatch("run_sweep failed a point the serial pass evaluated: " +
                 res.failures.front().to_string());
    return dt;
  }
  pn::sweep_results serial;
  for (std::size_t k = 0; k < st.buildable.size(); ++k) {
    if (!ref[k].has_value()) continue;
    serial.reports.push_back(*ref[k]);
    std::string why;
    if (k >= res.reports.size() ||
        !same_report(*ref[k], res.reports[k], &why)) {
      out.mismatch(st.designs[st.buildable[k]].label +
                   ": run_sweep report differs from evaluate_design in " +
                   why);
    }
  }
  if (pn::sweep_to_csv(serial) != pn::sweep_to_csv(res)) {
    out.mismatch("run_sweep CSV differs from the serial reports' CSV");
  }
  return dt;
}

}  // namespace

void cold_sweep(const run_args& a, raw_results& out) {
  const pn::evaluation_options base;  // library defaults: repair + ECMP on
  std::vector<std::optional<pn::deployability_report>> ref;
  const grid_state st = set_up(a, out, ref);
  for (const design& d : st.designs) {
    if (!d.graph.has_value()) out.note("unbuildable." + d.label, d.error);
  }
  out.set("grid_points", static_cast<double>(st.designs.size()));
  out.set("unbuildable", static_cast<double>(st.unbuildable));
  out.set("jobs", bench_threads());
  // The set-up is repeated every eighth of the run, so its samples span
  // the run like every other metric's; each repeat must rebuild designs
  // that evaluate to the same reference reports.
  const double setup_every_ms = a.seconds * 1e3 / 8.0;
  const std::int64_t start = now_ns();
  std::int64_t last_setup = start;
  do {
    serial_pass(st, base, ref, out, "op_ms");
    const double dt = sweep_pass(st, base, ref, out);
    out.push("throughput_per_s",
             static_cast<double>(st.buildable.size()) / (dt / 1e3));
    if (ms_since(last_setup) >= setup_every_ms) {
      std::vector<std::optional<pn::deployability_report>> again;
      (void)set_up(a, out, again);
      std::string why;
      for (std::size_t k = 0; k < ref.size(); ++k) {
        if (ref[k].has_value() != again[k].has_value() ||
            (ref[k].has_value() && !same_report(*ref[k], *again[k], &why))) {
          out.mismatch(st.designs[st.buildable[k]].label +
                       ": rebuilt design evaluates differently in " + why);
        }
      }
      last_setup = now_ns();
    }
  } while (ms_since(start) < a.seconds * 1e3);
  out.set("peak_rss_mb", peak_rss_mb(getpid()));
}

void cold_sweep_traced(const run_args& a, double seconds, raw_results& out,
                       tracer& tr) {
  const pn::evaluation_options base;
  std::vector<std::optional<pn::deployability_report>> ref;
  const grid_state st = set_up(a, out, ref);
  layer_counts counts;
  std::uint64_t op = 0;
  const std::int64_t start = now_ns();
  std::size_t pass = 0;
  do {
    // Untraced and traced passes alternate which goes first, so neither
    // always runs on the other's warmed caches.
    const bool untraced_first = pass++ % 2 == 0;
    double untraced = 0.0;
    if (untraced_first) untraced = serial_pass(st, base, ref, out, nullptr);
    double traced = 0.0;
    for (std::size_t k = 0; k < st.buildable.size(); ++k) {
      const design& d = st.designs[st.buildable[k]];
      if (!ref[k].has_value()) continue;
      pn::evaluation_options o = base;
      o.seed = d.eval_seed;
      std::string why;
      const std::int64_t t0 = now_ns();
      const bool same = traced_evaluate(*d.graph, o, *ref[k], tr, op++,
                                        counts, &why);
      traced += ms_since(t0);
      if (!same) {
        out.mismatch(d.label + ": traced layer calls differ from "
                               "evaluate_design in " + why);
      }
    }
    if (!untraced_first) untraced = serial_pass(st, base, ref, out, nullptr);
    const double parallel = sweep_pass(st, base, ref, out);
    out.add("cold_sweep.untraced_ms", untraced);
    out.add("cold_sweep.traced_ms", traced);
    out.add("cold_sweep.evals", static_cast<double>(st.buildable.size()));
    out.push("core.sweep_efficiency",
             untraced / (bench_threads() * parallel));
  } while (ms_since(start) < seconds * 1e3);
  out.add("topology.bfs_rows", counts.bfs_rows);
  out.add("physical.cabling_runs", counts.cabling_runs);
  out.add("deploy.tasks", counts.tasks);
  out.add("layer_calls.cold_sweep", static_cast<double>(op));
}

}  // namespace physbench
