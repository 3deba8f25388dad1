#include "sim/simulation.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "parallel/parallel_for.hpp"
#include "sim/arrivals.hpp"
#include "sim/engine.hpp"

namespace blade::sim {

SchedulingMode to_mode(queue::Discipline d) noexcept {
  return d == queue::Discipline::Fcfs ? SchedulingMode::Fcfs
                                      : SchedulingMode::NonPreemptivePriority;
}

SimResult simulate_split(const model::Cluster& cluster, const std::vector<double>& rates,
                         SchedulingMode mode, const SimConfig& config) {
  if (rates.size() != cluster.size()) {
    throw std::invalid_argument("simulate_split: rate vector size mismatch");
  }
  Engine engine;
  ResponseTimeCollector collector(config.warmup, config.record_generic_trace);
  std::vector<std::unique_ptr<ServerSim>> servers;
  for (const auto& srv : cluster.servers()) {
    servers.push_back(
        std::make_unique<ServerSim>(engine, srv.size(), srv.speed(), mode, collector));
  }
  // Dedicated streams: special on RNG stream 2i+1, generic on 2i+2.
  const auto work = ServiceDistribution::from_scv(cluster.rbar(), config.service_scv);
  std::vector<std::unique_ptr<PoissonSource>> sources;
  const auto add_source = [&](std::size_t i, double rate, TaskClass cls, std::uint64_t stream) {
    ServerSim* dest = servers[i].get();
    sources.push_back(std::make_unique<PoissonSource>(engine, rate, work, cls,
                                                      RngStream(config.seed, stream),
                                                      [dest](Task t) { dest->arrive(t); }));
  };
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const double special = cluster.server(i).special_rate();
    if (special > 0.0) add_source(i, special, TaskClass::Special, 2 * i + 1);
  }
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] < 0.0) throw std::invalid_argument("simulate_split: negative rate");
    if (rates[i] > 0.0) add_source(i, rates[i], TaskClass::Generic, 2 * i + 2);
  }
  for (auto& src : sources) src->start();
  engine.run_until(config.horizon);

  SimResult r;
  r.generic_mean_response = collector.generic().mean();
  r.generic_samples = collector.generic().count();
  r.special_mean_response = collector.special().mean();
  r.special_samples = collector.special().count();
  r.events = engine.events_processed();
  r.servers.reserve(servers.size());
  for (const auto& s : servers) {
    ServerObservation obs;
    obs.utilization = s->mean_utilization(0.0, config.horizon);
    obs.time_avg_tasks = s->time_avg_tasks(0.0, config.horizon);
    obs.completions = s->completions();
    obs.preemptions = s->preemptions();
    r.servers.push_back(obs);
  }
  r.generic_trace = collector.take_generic_trace();
  return r;
}

ReplicatedResult replicate(const std::function<SimResult(const SimConfig&)>& one_run,
                           const SimConfig& base_config, int replications, double confidence,
                           par::ThreadPool* pool) {
  if (replications < 2) throw std::invalid_argument("replicate: need >= 2 replications");
  ReplicatedResult out;
  out.runs.resize(static_cast<std::size_t>(replications));
  auto body = [&](std::size_t k) {
    SimConfig cfg = base_config;
    cfg.seed = base_config.seed + k;
    out.runs[k] = one_run(cfg);
  };
  if (pool) {
    par::parallel_for(*pool, 0, out.runs.size(), body);
  } else {
    par::parallel_for(0, out.runs.size(), body);
  }
  std::vector<double> generic, special;
  for (const auto& r : out.runs) {
    generic.push_back(r.generic_mean_response);
    if (r.special_samples > 0) special.push_back(r.special_mean_response);
  }
  out.generic_response = util::t_confidence_interval(generic, confidence);
  if (special.size() >= 2) {
    out.special_response = util::t_confidence_interval(special, confidence);
  }
  return out;
}

}  // namespace blade::sim
