// servebench: the serve-loop benchmark.
//
//   servebench --workload <serve-churn|serve-fleet|static-split>
//              [--seed <n>] [--seconds <s>] [--trace <0|1>]
//
// Prints a human-readable report, then (last line) one JSON result:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "servebench: " << why
            << "\nusage: servebench --workload <serve-churn|serve-fleet|static-split> "
               "[--seed <n>] [--seconds <s>] [--trace <0|1>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::RunOptions opts;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(flag + " needs a value");
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        const auto kind = servebench::parse_kind(value);
        if (!kind) return usage("unknown workload '" + value + "'");
        opts.kind = *kind;
        have_workload = true;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value, &used);
        if (!(opts.seconds > 0.0 && opts.seconds <= 3600.0)) {
          return usage("--seconds must be in (0, 3600]");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
        opts.trace = value == "1";
        used = value.size();
      } else {
        return usage("unknown flag '" + flag + "'");
      }
      if (flag != "--workload" && used != value.size()) {
        return usage("malformed value '" + value + "' for " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_workload) return usage("--workload is required");

  try {
    return servebench::run_benchmark(opts, std::cout, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << '\n';
    return 1;
  }
}
