// The three physbench workloads. Each has an untraced form, which gives
// the end-to-end numbers, and a traced form, which records layer spans
// into `tr` and gives the per-layer numbers. Both write raw samples and
// counters into `out` under keys the runner (physbench/run.py) reads.
#pragma once

#include "bench.h"

namespace physbench {

void cold_sweep(const run_args& a, raw_results& out);
void cold_sweep_traced(const run_args& a, double seconds, raw_results& out,
                       tracer& tr);

void campaign_replay(const run_args& a, raw_results& out);
void campaign_replay_traced(const run_args& a, double seconds,
                            raw_results& out, tracer& tr);

void serve_mixed(const run_args& a, raw_results& out);
void serve_mixed_traced(const run_args& a, double seconds, raw_results& out,
                        tracer& tr);

}  // namespace physbench
