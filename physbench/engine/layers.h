// The traced evaluation: the same sequence of layer calls the library's
// staged evaluator makes (core/evaluator.cc), each wrapped in a span the
// benchmark records, followed by a check that the layer outputs equal the
// report an untraced evaluate_design produced for the same design.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "core/evaluator.h"
#include "core/report.h"
#include "topology/graph.h"

namespace physbench {

// Work counts of one traced evaluation.
struct layer_counts {
  double bfs_rows = 0.0;
  double cabling_runs = 0.0;
  double tasks = 0.0;
};

// Runs every layer of one evaluation of `g` under spans named
// "topology.*", "physical.*" and "deploy.*", all children of a
// "core.evaluate" root span with id `op`. With opt.delta set the topology
// metrics come from the caller's incremental evaluator, as in a scenario
// sweep. Returns false (and names the field in *why) when a layer output
// differs from `expect`.
[[nodiscard]] bool traced_evaluate(const pn::network_graph& g,
                                   const pn::evaluation_options& opt,
                                   const pn::deployability_report& expect,
                                   tracer& tr, std::uint64_t op,
                                   layer_counts& counts, std::string* why);

}  // namespace physbench
