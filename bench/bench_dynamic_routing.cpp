// Extension study: the paper's optimum is the best *static* probabilistic
// split. Simulated comparison against dynamic dispatch policies (JSQ by
// normalized work, round-robin) quantifies the value of queue-state
// information the static model cannot use.
#include <iostream>

#include "core/optimizer.hpp"
#include "model/paper_configs.hpp"
#include "policy/policy.hpp"
#include "runtime/replay.hpp"
#include "sim/simulation.hpp"
#include "util/table.hpp"

int main() {
  using namespace blade;
  const auto cluster = model::paper_example_cluster();

  std::cout << "=== Static optimal split vs dynamic routing (simulated) ===\n"
            << "(Example cluster, fcfs, one seed per point, horizon 20000)\n\n";

  // JSQ probes every server (d = n) and ranks them by (q + 1) / (a s):
  // tasks per available blade, speed-weighted.
  policy::PolicyConfig jsq;
  jsq.kind = policy::PolicyKind::HeteroJsqD;
  jsq.probe_d = static_cast<unsigned>(cluster.size());
  policy::PolicyConfig rr;
  rr.kind = policy::PolicyKind::RoundRobin;

  util::Table t({"load", "optimal static T'", "JSQ T'", "round-robin T'"});
  for (double frac : {0.4, 0.6, 0.8, 0.9}) {
    const double lambda = frac * cluster.max_generic_rate();
    const auto sol =
        opt::LoadDistributionOptimizer(cluster, queue::Discipline::Fcfs).optimize(lambda);
    sim::SimConfig cfg;
    cfg.horizon = 20000.0;
    cfg.warmup = 2000.0;
    const auto split =
        sim::simulate_split(cluster, sol.rates, sim::SchedulingMode::Fcfs, cfg);
    runtime::ReplayTrace trace;
    trace.horizon = cfg.horizon;
    trace.seed = cfg.seed;
    trace.events.push_back(
        {.time = 0.0, .kind = runtime::ReplayEvent::Kind::Rate, .rate = lambda});
    runtime::ReplayOptions ropts;
    ropts.warmup = cfg.warmup;
    const auto dyn = runtime::replay_policy(cluster, jsq, trace, ropts);
    const auto rr_res = runtime::replay_policy(cluster, rr, trace, ropts);
    t.add_row({util::fixed(frac, 2), util::fixed(split.generic_mean_response, 4),
               util::fixed(dyn.sim.generic_mean_response, 4),
               util::fixed(rr_res.sim.generic_mean_response, 4)});
  }
  std::cout << t.render()
            << "\nreading: JSQ beats the optimal static split (it sees queue states).\n"
               "Blind round-robin overloads the small fast server at every load shown\n"
               "(lambda/7 exceeds its capacity), so its column is a growing transient,\n"
               "not a steady state -- the price of ignoring heterogeneity entirely.\n"
               "The paper's optimality claim is within the static-split policy class.\n";
  return 0;
}
