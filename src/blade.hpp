// Umbrella header: the full public API of bladecloud.
//
// Typical entry points:
//   model::Cluster / model::BladeServer      describe the data center
//   opt::LoadDistributionOptimizer           the paper's solver
//   opt::closed_form_distribution            Theorems 1/3 (single-blade)
//   sim::simulate_split / sim::replicate     discrete-event validation
//   runtime::replay_policy / runtime::replay one routed generic stream
//                                            (dispatch policy / controller)
//   cloud::figure / cloud::example_table     the paper's experiments
#pragma once

#include "cli/app.hpp"                         // IWYU pragma: export
#include "cli/spec.hpp"                        // IWYU pragma: export
#include "cloud/experiments.hpp"               // IWYU pragma: export
#include "cloud/report.hpp"                    // IWYU pragma: export
#include "cloud/series.hpp"                    // IWYU pragma: export
#include "cloud/trace.hpp"                     // IWYU pragma: export
#include "core/allocation.hpp"                 // IWYU pragma: export
#include "core/closed_form.hpp"                // IWYU pragma: export
#include "core/kkt.hpp"                        // IWYU pragma: export
#include "core/objective.hpp"                  // IWYU pragma: export
#include "core/optimizer.hpp"                  // IWYU pragma: export
#include "core/policies.hpp"                   // IWYU pragma: export
#include "core/sensitivity.hpp"                // IWYU pragma: export
#include "model/blade_server.hpp"              // IWYU pragma: export
#include "model/cluster.hpp"                   // IWYU pragma: export
#include "model/paper_configs.hpp"             // IWYU pragma: export
#include "model/random_cluster.hpp"            // IWYU pragma: export
#include "numerics/convexity.hpp"              // IWYU pragma: export
#include "numerics/differentiation.hpp"        // IWYU pragma: export
#include "numerics/erlang.hpp"                 // IWYU pragma: export
#include "numerics/roots.hpp"                  // IWYU pragma: export
#include "numerics/special.hpp"                // IWYU pragma: export
#include "parallel/parallel_for.hpp"           // IWYU pragma: export
#include "parallel/sweep.hpp"                  // IWYU pragma: export
#include "parallel/thread_pool.hpp"            // IWYU pragma: export
#include "policy/policy.hpp"                   // IWYU pragma: export
#include "queueing/birth_death.hpp"            // IWYU pragma: export
#include "queueing/blade_queue.hpp"            // IWYU pragma: export
#include "queueing/ctmc.hpp"                   // IWYU pragma: export
#include "queueing/mgm.hpp"                    // IWYU pragma: export
#include "queueing/mm1.hpp"                    // IWYU pragma: export
#include "queueing/mmm.hpp"                    // IWYU pragma: export
#include "queueing/mmmk.hpp"                   // IWYU pragma: export
#include "queueing/priority_ctmc.hpp"          // IWYU pragma: export
#include "queueing/waiting_distribution.hpp"   // IWYU pragma: export
#include "runtime/replay.hpp"                  // IWYU pragma: export
#include "sim/batch_means.hpp"                 // IWYU pragma: export
#include "sim/service.hpp"                     // IWYU pragma: export
#include "sim/simulation.hpp"                  // IWYU pragma: export
#include "util/histogram.hpp"                  // IWYU pragma: export
#include "util/stats.hpp"                      // IWYU pragma: export
#include "util/table.hpp"                      // IWYU pragma: export
