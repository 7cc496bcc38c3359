// campaign_replay: parse + compile + delta replay of the two committed
// lifetime campaigns, with the run's seed as their base seed.
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/campaign.h"
#include "core/sweep.h"
#include "deploy/scenario.h"
#include "layers.h"
#include "topology/incremental.h"
#include "workloads.h"

namespace physbench {

namespace {

constexpr const char* kCampaigns[] = {"jellyfish_3y", "fat_tree_3y"};

// Base seeds replayed per run, each derived from the run's seed, so a run
// averages over several seeded campaigns instead of resting on one.
constexpr std::size_t kSeedsPerRun = 4;

// Set-up samples taken per replay iteration.
constexpr int kSetupsPerIteration = 5;

struct campaign_input {
  std::string name;
  pn::campaign_spec spec;  // base seed already replaced by the run's seed
  std::uint64_t committed_seed = 0;
};

std::vector<campaign_input> load_campaigns(const run_args& a,
                                           raw_results& out) {
  std::vector<campaign_input> in;
  for (const char* name : kCampaigns) {
    const std::string path =
        a.root + "/examples/campaigns/" + name + ".campaign";
    std::ifstream f(path);
    std::stringstream text;
    text << f.rdbuf();
    auto spec = pn::parse_campaign(text.str());
    if (!f || !spec.is_ok()) {
      out.mismatch(path + ": " +
                   (spec.is_ok() ? "unreadable" : spec.error().message()));
      continue;
    }
    campaign_input c{name, std::move(spec).value(), 0};
    c.committed_seed = c.spec.seed;
    c.spec.seed = a.seed;
    in.push_back(std::move(c));
  }
  return in;
}

// Compiles `spec`; a compile error is a failed operation.
std::optional<pn::campaign_plan> compile(const pn::campaign_spec& spec,
                                         raw_results& out) {
  out.add("attempted", 1);
  auto plan = pn::compile_campaign(spec);
  if (!plan.is_ok()) {
    out.add("failed", 1);
    out.note("compile_error." + spec.name, plan.error().message());
    return std::nullopt;
  }
  return std::move(plan).value();
}

pn::sweep_results replay(const pn::campaign_plan& plan, raw_results& out) {
  pn::campaign_run_options ropt;
  ropt.delta = true;
  pn::sweep_results res = pn::run_campaign(plan, ropt);
  out.add("attempted", static_cast<double>(res.reports.size() +
                                           res.failures.size()));
  out.add("failed", static_cast<double>(res.failures.size()));
  return res;
}

// The committed campaigns at their committed seeds: their trajectory
// CSVs are written out for the runner to compare with committed digests.
void digest_gate(const run_args& a, const std::vector<campaign_input>& in,
                 raw_results& out) {
  for (const campaign_input& c : in) {
    pn::campaign_spec spec = c.spec;
    spec.seed = c.committed_seed;
    const auto plan = compile(spec, out);
    if (!plan.has_value()) continue;
    const pn::sweep_results res = replay(*plan, out);
    std::ofstream(a.out_dir + "/" + c.name + ".csv") << pn::sweep_to_csv(res);
  }
}

// The same compile and replay as run_campaign, one layer call at a time,
// each checked against the untraced replay's row. Returns its wall time.
double traced_replay(const campaign_input& c, const pn::sweep_results& ref,
                     tracer& tr, std::uint64_t& row, layer_counts& counts,
                     double& recomputed, double& source_steps,
                     raw_results& out) {
  const std::int64_t t0 = now_ns();
  std::optional<pn::campaign_plan> plan;
  {
    auto s = tr.open("campaign.compile", row);
    auto compiled = pn::compile_campaign(c.spec);
    if (compiled.is_ok()) plan.emplace(std::move(compiled).value());
  }
  if (!plan.has_value()) {
    out.mismatch(c.name + ": traced compile failed");
    return ms_since(t0);
  }
  pn::evaluation_options opt;
  opt.seed = plan->spec.seed;
  opt.run_repair_sim = plan->spec.repair;
  opt.strategy = *pn::placement_strategy_from_name(plan->spec.strategy);
  pn::network_graph g = plan->base;
  pn::incremental_metrics inc(g, opt.traffic_per_host);
  const std::vector<pn::scenario_step>& steps = plan->scenario.steps;
  if (steps.size() != ref.reports.size()) {
    out.mismatch(c.name + ": traced plan has a different step count");
    return ms_since(t0);
  }
  for (std::size_t i = 0; i < steps.size(); ++i, ++row) {
    {
      auto s = tr.open("deploy.scenario_apply", row);
      pn::apply_scenario_step(g, steps[i]);
    }
    pn::evaluation_options o = opt;
    o.seed = pn::sweep_point_seed(plan->spec.seed, i);
    o.delta = &inc;
    std::string why;
    if (!traced_evaluate(g, o, ref.reports[i], tr, row, counts, &why)) {
      out.mismatch(c.name + "/" + steps[i].label +
                   ": traced layer calls differ from run_campaign in " + why);
    }
  }
  const double wall = ms_since(t0);
  recomputed += static_cast<double>(inc.stat_sources_recomputed());
  source_steps += static_cast<double>(steps.size()) *
                  static_cast<double>(plan->base.host_facing_nodes().size());
  return wall;
}

// Set-up: read and parse the committed campaigns. Its wall time is one
// set-up sample; compiling is timed with the replay (campaign_evals_per_s).
std::vector<campaign_input> set_up(const run_args& a, raw_results& out) {
  const std::int64_t t0 = now_ns();
  std::vector<campaign_input> in = load_campaigns(a, out);
  out.push("setup_s", ms_since(t0) / 1e3);
  return in;
}

}  // namespace

void campaign_replay(const run_args& a, raw_results& out) {
  const std::vector<campaign_input> in = set_up(a, out);
  digest_gate(a, in, out);

  // One iteration replays every campaign at one derived seed; iterations
  // cycle through the seeds, and a repeated (campaign, seed) replay must
  // reproduce its first trajectory byte for byte.
  std::vector<std::string> first_csv(in.size() * kSeedsPerRun);
  std::size_t iteration = 0;
  const std::int64_t start = now_ns();
  do {
    const std::size_t j = iteration++ % kSeedsPerRun;
    const std::int64_t t0 = now_ns();
    std::size_t rows = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      pn::campaign_spec spec = in[i].spec;
      spec.seed = pn::sweep_point_seed(a.seed, j);
      const auto plan = compile(spec, out);
      if (!plan.has_value()) continue;
      const pn::sweep_results res = replay(*plan, out);
      rows += res.reports.size();
      for (const pn::stage_trace& t : res.traces) {
        out.push("op_ms", t.total_ms());
      }
      std::string csv = pn::sweep_to_csv(res);
      std::string& first = first_csv[i * kSeedsPerRun + j];
      if (first.empty()) {
        first = std::move(csv);
      } else if (csv != first) {
        out.mismatch(in[i].name + ": replay is not deterministic");
      }
    }
    out.push("throughput_per_s",
             static_cast<double>(rows) / (ms_since(t0) / 1e3));
    // Set-up is repeated every iteration, so its samples span the run; it
    // is short, so several samples are taken each time.
    for (int k = 0; k < kSetupsPerIteration; ++k) (void)set_up(a, out);
  } while (ms_since(start) < a.seconds * 1e3);
  out.set("peak_rss_mb", peak_rss_mb(getpid()));
}

void campaign_replay_traced(const run_args& a, double seconds,
                            raw_results& out, tracer& tr) {
  const std::vector<campaign_input> in = load_campaigns(a, out);
  layer_counts counts;
  std::uint64_t row = 0;
  double recomputed = 0.0;
  double source_steps = 0.0;
  const std::int64_t start = now_ns();
  do {
    for (const campaign_input& c : in) {
      // Untraced reference: the library's own replay.
      const std::int64_t u0 = now_ns();
      const auto ref_plan = compile(c.spec, out);
      if (!ref_plan.has_value()) continue;
      const pn::sweep_results ref = replay(*ref_plan, out);
      out.add("campaign_replay.untraced_ms", ms_since(u0));
      const double traced = traced_replay(c, ref, tr, row, counts, recomputed,
                                          source_steps, out);
      out.add("campaign_replay.traced_ms", traced);
      out.add("campaign_replay.evals", static_cast<double>(ref.reports.size()));
    }
  } while (ms_since(start) < seconds * 1e3);
  out.add("physical.cabling_runs", counts.cabling_runs);
  out.add("deploy.tasks", counts.tasks);
  out.set("topology.delta_recompute_ratio",
          source_steps > 0.0 ? recomputed / source_steps : 0.0);
  out.add("layer_calls.campaign_replay", static_cast<double>(row));
}

}  // namespace physbench
