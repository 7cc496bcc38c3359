// physbench engine: runs one workload (or, traced, the layer census of
// all three) and writes raw samples for physbench/run.py.
//
//   physbench_engine --workload=cold_sweep|campaign_replay|serve_mixed
//       --seed=N --seconds=S --trace=0|1 --root=DIR --bin-dir=DIR
//       --out-dir=DIR
//
// Writes DIR/raw.json (and, traced, DIR/spans.tsv). Exits 0 when the run
// completed, whatever its correctness verdict (raw.json carries that);
// 2 on bad arguments.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <unistd.h>

#include "bench.h"
#include "workloads.h"

namespace {

bool parse(int argc, char** argv, std::string& workload,
           physbench::run_args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string val = arg.substr(eq + 1);
    if (key == "--workload") workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--root") a.root = val;
    else if (key == "--bin-dir") a.bin_dir = val;
    else if (key == "--out-dir") a.out_dir = val;
    else return false;
  }
  return !workload.empty() && !a.root.empty() && !a.bin_dir.empty() &&
         !a.out_dir.empty() && a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  physbench::run_args a;
  if (!parse(argc, argv, workload, a)) {
    std::cerr << "usage: physbench_engine --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --root=DIR --bin-dir=DIR "
                 "--out-dir=DIR\n";
    return 2;
  }
  // Fleet sockets are created relative to the private run directory.
  if (::chdir(a.out_dir.c_str()) != 0) {
    std::cerr << "cannot enter " << a.out_dir << "\n";
    return 2;
  }
  physbench::raw_results out;
  if (a.trace) {
    // Every layer is on the path of some workload; the census runs the
    // traced form of all three so each per-layer metric is measured.
    const double share = a.seconds / 3.0;
    physbench::tracer cold("cold_sweep");
    physbench::tracer camp("campaign_replay");
    physbench::tracer serve("serve_mixed");
    physbench::cold_sweep_traced(a, share, out, cold);
    physbench::campaign_replay_traced(a, share, out, camp);
    physbench::serve_mixed_traced(a, share, out, serve);
    std::ofstream spans(a.out_dir + "/spans.tsv");
    cold.write_tsv(spans);
    camp.write_tsv(spans);
    serve.write_tsv(spans);
  } else if (workload == "cold_sweep") {
    physbench::cold_sweep(a, out);
  } else if (workload == "campaign_replay") {
    physbench::campaign_replay(a, out);
  } else if (workload == "serve_mixed") {
    physbench::serve_mixed(a, out);
  } else {
    std::cerr << "unknown workload " << workload << "\n";
    return 2;
  }
  std::ofstream raw(a.out_dir + "/raw.json");
  out.write_json(raw);
  return raw ? 0 : 1;
}
