#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace servebench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},
      {"routed_per_s", "tasks/s"},
      {"events_per_s", "events/s"},
      {"resolve_mean_us", "us"},
      {"t_prime", "model-time"},
      {"peak_rss_mb", "MiB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"sim.events_per_arrival", "count"},
      {"sim.engine.self_ns_per_event", "ns"},
      {"sim.server.arrive_ns", "ns"},
      {"policy.route_ns", "ns"},
      {"util.alias.sample_ns", "ns"},
      {"runtime.controller.weights_ns", "ns"},
      {"runtime.controller.arrival_ns", "ns"},
      {"runtime.controller.special_ns", "ns"},
      {"runtime.controller.resolves_per_1k_arrivals", "count"},
      {"runtime.controller.skipped_per_1k_arrivals", "count"},
      {"runtime.controller.drift_resolve_p50_us", "us"},
      {"runtime.controller.drift_resolve_p99_us", "us"},
      {"runtime.controller.failover_p50_us", "us"},
      {"runtime.controller.failover_p99_us", "us"},
      {"runtime.controller.fallback_publications", "count"},
      {"runtime.health.event_ns", "ns"},
      {"runtime.health.transitions", "count"},
      {"core.flat.solve_cold_us", "us"},
      {"core.flat.solve_warm_us", "us"},
      {"core.flat.inner_evals_per_solve", "count"},
      {"core.sharded.build_us", "us"},
      {"core.sharded.solve_us", "us"},
      {"core.sharded.classes", "count"},
      {"numerics.erlang_c_derivs_ns", "ns"},
      {"shed_fraction", "ratio"},
      {"failed_fraction", "ratio"},
      {"trace.share.setup", "ratio"},
      {"trace.share.sim.engine", "ratio"},
      {"trace.share.sim.rng", "ratio"},
      {"trace.share.sim.server", "ratio"},
      {"trace.share.policy", "ratio"},
      {"trace.share.util.alias", "ratio"},
      {"trace.share.runtime.weights", "ratio"},
      {"trace.share.runtime.arrival", "ratio"},
      {"trace.share.runtime.special", "ratio"},
      {"trace.share.runtime.resolve", "ratio"},
      {"trace.share.runtime.health", "ratio"},
      {"trace.share.runtime.chaos", "ratio"},
      {"trace.attributed_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

namespace {

bool alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !alnum(name.front())) return false;
  for (const char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' && c != '-') return false;
  }
  return true;
}

Report::Report(const std::vector<MetricSpec>& specs)
    : specs_(specs), values_(specs.size(), 0.0), set_(specs.size(), false) {}

void Report::set(std::string_view name, double value) {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].name != name) continue;
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + std::string(name) + " is not finite");
    }
    values_[i] = value;
    set_[i] = true;
    return;
  }
  throw std::logic_error("metric " + std::string(name) + " is not in the catalogue");
}

std::vector<std::string> Report::missing() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!set_[i]) out.emplace_back(specs_[i].name);
  }
  return out;
}

std::string Report::text() const {
  std::string out;
  char buf[160];
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!set_[i]) continue;
    std::snprintf(buf, sizeof buf, "%-46s %16.6g %s\n", std::string(specs_[i].name).c_str(),
                  values_[i], std::string(specs_[i].unit).c_str());
    out += buf;
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                         bool with_metrics) const {
  if (with_metrics && !missing().empty()) {
    throw std::logic_error("metric " + missing().front() + " was never measured");
  }
  blade::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(correct);
  w.key("attempted").value(static_cast<long long>(attempted));
  w.key("failed").value(static_cast<long long>(failed));
  w.key("metrics").begin_object();
  for (std::size_t i = 0; with_metrics && i < specs_.size(); ++i) {
    if (!set_[i]) continue;
    w.key(std::string(specs_[i].name)).begin_object();
    w.key("value").value(values_[i]);
    w.key("unit").value(std::string(specs_[i].unit));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace servebench
