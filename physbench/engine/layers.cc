#include "layers.h"

#include <optional>
#include <vector>

#include "deploy/plan_builder.h"
#include "deploy/repair_sim.h"
#include "deploy/tech_sim.h"
#include "physical/bundling.h"
#include "physical/cabling.h"
#include "physical/placement.h"
#include "topology/distance_cache.h"
#include "topology/incremental.h"
#include "topology/metrics.h"
#include "topology/routing.h"
#include "topology/traffic.h"

namespace physbench {

namespace {

pn::result<pn::placement> place_design(const pn::network_graph& g,
                                       const pn::floorplan& floor,
                                       const pn::evaluation_options& opt) {
  switch (opt.strategy) {
    case pn::placement_strategy::block:
      return pn::block_placement(g, floor);
    case pn::placement_strategy::random:
      return pn::random_placement(g, floor, opt.seed);
    case pn::placement_strategy::annealed: {
      auto start = pn::block_placement(g, floor);
      if (!start.is_ok()) return start.error();
      pn::anneal_options a = opt.anneal;
      a.seed = opt.seed;
      return pn::anneal_placement(g, floor, opt.cat, std::move(start).value(),
                                  a);
    }
  }
  return pn::invalid_argument_error("unknown placement strategy");
}

}  // namespace

bool traced_evaluate(const pn::network_graph& g,
                     const pn::evaluation_options& opt,
                     const pn::deployability_report& expect, tracer& tr,
                     std::uint64_t op, layer_counts& counts,
                     std::string* why) {
  auto fail = [&](const std::string& what) {
    if (why != nullptr) *why = what;
    return false;
  };
  pn::path_length_stats pls{};
  double alpha = 0.0;
  double bisection = 0.0;
  std::optional<pn::floorplan> floor;
  std::optional<pn::placement> place;
  pn::cabling_plan cables;
  pn::bundling_report bundles;
  pn::tech_sim_result deployment;
  pn::repair_sim_result repairs;
  {
    auto root = tr.open("core.evaluate", op);
    std::optional<pn::distance_cache> local;
    if (opt.delta == nullptr) {
      auto s = tr.open("topology.distance_warm", op);
      local.emplace(g);
      local->warm_all(g.host_facing_nodes(), opt.distance_warm_threads);
    }
    pn::distance_cache& dcache =
        opt.delta != nullptr ? opt.delta->dcache() : *local;
    if (opt.delta != nullptr) {
      auto s = tr.open("topology.delta", op);
      pls = opt.delta->path_stats();
      if (opt.run_throughput) alpha = opt.delta->ecmp_throughput().alpha;
    } else {
      {
        auto s = tr.open("topology.path_stats", op);
        pls = pn::compute_path_length_stats(g, dcache);
      }
      if (opt.run_throughput) {
        auto s = tr.open("topology.ecmp", op);
        const pn::traffic_matrix tm =
            pn::uniform_traffic(g, opt.traffic_per_host);
        alpha = pn::ecmp_throughput(g, tm, dcache).alpha;
      }
    }
    if (opt.run_throughput) {
      auto s = tr.open("topology.bisection", op);
      bisection = pn::estimate_bisection(g, opt.seed, 32, dcache).per_host_gbps;
    }
    counts.bfs_rows += static_cast<double>(dcache.rows_cached());

    {
      auto s = tr.open("physical.floor", op);
      floor.emplace(opt.auto_size_floor
                        ? pn::auto_size_floor(g, opt.floor, opt.floor_headroom)
                        : opt.floor);
      place.emplace(g.node_count(), *floor);
    }
    {
      auto s = tr.open("physical.placement", op);
      auto placed = place_design(g, *floor, opt);
      if (!placed.is_ok()) return fail("placement: " + placed.error().message());
      place.emplace(std::move(placed).value());
    }
    {
      auto s = tr.open("physical.cabling", op);
      auto plan = pn::plan_cabling(g, *place, *floor, opt.cat, opt.cabling);
      if (!plan.is_ok()) return fail("cabling: " + plan.error().message());
      cables = std::move(plan).value();
    }
    counts.cabling_runs += static_cast<double>(cables.runs.size());
    {
      auto s = tr.open("physical.bundling", op);
      bundles = pn::analyze_bundling(cables, opt.deployment.bundling);
    }
    std::optional<pn::work_order> wo;
    {
      auto s = tr.open("deploy.order", op);
      wo.emplace(pn::build_deployment_order(g, *place, *floor, cables,
                                            opt.deployment));
    }
    {
      auto s = tr.open("deploy.simulate", op);
      pn::tech_sim_params tsp = opt.technicians;
      tsp.seed = opt.seed;
      auto sim = pn::simulate_deployment(*wo, tsp);
      if (!sim.is_ok()) return fail("deploy: " + sim.error().message());
      deployment = std::move(sim).value();
    }
    counts.tasks += static_cast<double>(deployment.tasks_executed);
    if (opt.run_repair_sim) {
      auto s = tr.open("deploy.repair", op);
      pn::repair_params rp = opt.repair;
      rp.seed = opt.seed + 17;
      repairs = pn::simulate_repairs(g, *place, *floor, cables, opt.cat, rp,
                                     dcache);
    }
  }

  // Every layer output the report copies verbatim must match it exactly.
  if (expect.switches != g.node_count()) return fail("switches");
  if (!same_bits(expect.mean_path_length, pls.mean)) {
    return fail("mean_path_length");
  }
  if (expect.diameter != pls.diameter) return fail("diameter");
  if (!same_bits(expect.throughput_alpha_uniform, alpha)) {
    return fail("throughput_alpha_uniform");
  }
  if (!same_bits(expect.bisection_gbps_per_host, bisection)) {
    return fail("bisection_gbps_per_host");
  }
  if (!same_bits(expect.cable_cost.value(), cables.cable_cost.value())) {
    return fail("cable_cost");
  }
  if (!same_bits(expect.transceiver_cost.value(),
                 cables.transceiver_cost.value())) {
    return fail("transceiver_cost");
  }
  if (!same_bits(expect.cable_power.value(), cables.cable_power.value())) {
    return fail("cable_power");
  }
  if (!same_bits(expect.max_tray_fill, cables.max_tray_fill)) {
    return fail("max_tray_fill");
  }
  if (!same_bits(expect.bundleability, bundles.bundleability)) {
    return fail("bundleability");
  }
  if (expect.distinct_bundle_skus != bundles.distinct_skus) {
    return fail("distinct_bundle_skus");
  }
  if (!same_bits(expect.time_to_deploy.value(), deployment.makespan.value())) {
    return fail("time_to_deploy");
  }
  if (!same_bits(expect.deploy_labor.value(), deployment.labor.value())) {
    return fail("deploy_labor");
  }
  if (!same_bits(expect.first_pass_yield, deployment.first_pass_yield)) {
    return fail("first_pass_yield");
  }
  if (!same_bits(expect.availability, repairs.availability)) {
    return fail("availability");
  }
  if (!same_bits(expect.mean_mttr.value(), repairs.mean_mttr.value())) {
    return fail("mean_mttr");
  }
  return true;
}

}  // namespace physbench
