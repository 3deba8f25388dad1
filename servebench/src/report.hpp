// The benchmark's metric catalogue and its one output format. Every name
// the benchmark can print is declared here with its unit; BENCHMARK.json
// lists the same two sets, and a test keeps the two in step.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed by untraced runs (--trace 0).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by traced runs (--trace 1).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// `[A-Za-z0-9_/%.-]+`, at most 16 long.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Values for one catalogue, filled by name.
class Report {
 public:
  explicit Report(const std::vector<MetricSpec>& specs);

  /// Throws std::logic_error for a name outside the catalogue and
  /// std::runtime_error for a non-finite value.
  void set(std::string_view name, double value);

  /// Catalogue names that were never set.
  [[nodiscard]] std::vector<std::string> missing() const;

  /// One "name value unit" line per metric.
  [[nodiscard]] std::string text() const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  /// `with_metrics` false emits an empty metrics object; otherwise every
  /// catalogue metric must have been set (std::logic_error if not).
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                                 bool with_metrics = true) const;

 private:
  const std::vector<MetricSpec>& specs_;
  std::vector<double> values_;
  std::vector<bool> set_;
};

}  // namespace servebench
