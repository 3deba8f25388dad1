// One benchmark run: set-up, a measured stretch of replays, the output
// checks, and the report. Untraced runs give the end-to-end metrics;
// traced runs alternate untraced and traced replays of the same seed and
// give the per-layer metrics.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "workload.hpp"

namespace servebench {

struct RunOptions {
  Kind kind = Kind::Churn;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Runs the benchmark, printing a human-readable report to `log` and the
/// result line to `out`. Returns the process exit code: 0 when a result
/// was printed (correct or not), 3 when the traced replay diverged from
/// the untraced replay and no per-layer numbers may be reported.
int run_benchmark(const RunOptions& opts, std::ostream& out, std::ostream& log);

/// Median (mean of the two middle values for even counts); 0 for none.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> v, double q);

}  // namespace servebench
