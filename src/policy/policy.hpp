// Heterogeneity-aware scalable dispatch policies. The paper proves
// optimality for centralized probabilistic splitting (O(1) state, no
// queue feedback); modern fleets route with O(d)-state policies such as
// JSQ(d). This family puts both behind one interface so the simulator,
// the CLI, and the bench matrix can run them head to head:
//
//   random       uniform pick, no queue feedback
//   round-robin  deterministic cycle, no queue feedback
//   jsq          full scan: min tasks-in-system, ties to the lowest index
//   jsq-d        JSQ(d) with uniform probing: d distinct probes, min raw
//                queue length (the naive policy Gardner et al. show can
//                lose to random under heterogeneity)
//   sb-d         speed-biased d-choices: probe probability proportional
//                to s_i, then min raw queue length among probes
//   ha-jsq-d     heterogeneity-aware JSQ(d): uniform probes compared by
//                normalized expected work (q+1)/(a_i s_i) — queue-length
//                ties resolve toward the faster server automatically
//   wjsq-d       JSQ(d) over the optimal split: probe probability equal
//                to the published alias weights, normalized-work compare
//   opt-split    the paper's policy: probabilistic split by the weights
//
// Probing is O(d) sampled (never a fleet scan): candidates come from a
// Walker/Vose alias table over the probe weights with rejection of
// duplicates, which realizes successive weighted sampling WITHOUT
// replacement (each redraw is the renormalized remaining distribution).
// Uniform policies use an equal-weight table, so a heterogeneity-aware
// policy with degenerate parameters consumes the same RNG stream as its
// uniform counterpart and collapses to it BITWISE (test-enforced).
//
// Availability contract: whenever at least one server fleet-wide has an
// available blade, route() returns a server with available > 0 (probed
// candidates that are failed/drained are skipped; if every probe is
// dark, a fallback scan picks the best available server). Only when the
// whole fleet is dark does route() hand back the best probed candidate
// (its queue holds the task until a recovery).
//
// Quarantine extension (gray failures, runtime/health.hpp): a server
// flagged quarantined in its ServerState is treated as unavailable by
// every probe and scan — unless the fleet is otherwise dark, in which
// case a quarantined-but-up server is preferred over a fully dark one
// (degraded service beats parking the task on a dead queue).
//
// Consistency contract: the StateView handed to route() must read LIVE
// server state at the arrival instant. Cached or snapshot-based views
// reintroduce the read-during-departure staleness bug class the policy
// oracle tests pin down (see runtime::live_state_view).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "util/alias_table.hpp"
#include "util/fast_rng.hpp"
#include "util/status.hpp"

namespace blade::policy {

enum class PolicyKind : std::uint8_t {
  Random,
  RoundRobin,
  Jsq,
  JsqD,
  SpeedBiasedD,
  HeteroJsqD,
  WeightedJsqD,
  OptSplit,
};

[[nodiscard]] const char* to_string(PolicyKind kind) noexcept;

/// Parses a policy name ("jsq-d", "opt-split", ...). Unknown names
/// return ErrorCode::InvalidArgument listing the accepted spellings.
[[nodiscard]] Expected<PolicyKind> parse_policy_kind(std::string_view name);

/// All kinds, for sweeping (bench matrix, round-trip tests).
[[nodiscard]] std::vector<PolicyKind> all_policy_kinds();

/// True for the kinds that probe queue state per arrival (jsq, jsq-d,
/// sb-d, ha-jsq-d, wjsq-d); false for the stateless ones.
[[nodiscard]] bool probes_queue_state(PolicyKind kind) noexcept;

/// True for the kinds that need per-server weights in the config
/// (wjsq-d, opt-split); sb-d derives its weights from the speeds.
[[nodiscard]] bool needs_weights(PolicyKind kind) noexcept;

/// One server's dispatch-relevant state at the probe instant.
struct ServerState {
  double speed = 1.0;         ///< s_i
  unsigned blades = 1;        ///< installed m_i
  unsigned available = 1;     ///< usable blades now (0 = failed/drained)
  std::size_t in_system = 0;  ///< tasks running + queued now
  /// Health-quarantined (gray failure): blades are nominally up but the
  /// control plane has fenced the server off. Routed around unless the
  /// fleet is otherwise dark.
  bool quarantined = false;
};

/// Non-owning fleet accessor handed to route(): a C-style closure, so
/// the simulator adapter pays one indirect call per probe — no virtual
/// dispatch, no per-arrival O(n) snapshot copies (the probe read stays
/// consistent at event time by construction).
struct StateView {
  using Fn = ServerState (*)(const void*, std::size_t);

  const void* ctx = nullptr;
  Fn fn = nullptr;
  std::size_t n = 0;

  [[nodiscard]] ServerState operator()(std::size_t i) const { return fn(ctx, i); }
};

struct PolicyConfig {
  PolicyKind kind = PolicyKind::JsqD;
  unsigned probe_d = 2;       ///< probes per arrival for the d-choices kinds
  std::uint64_t seed = 1;     ///< RNG seed (FastRng, SplitMix64-decorrelated)
  std::uint64_t stream = 0;   ///< RNG stream id (e.g. the dispatch thread)
  /// Probe/sampling weights for wjsq-d and opt-split — typically the
  /// optimizer's published alias weights (rates or fractions; they are
  /// normalized). sb-d ignores this and uses the speeds from the view.
  std::vector<double> weights;
  /// Speeds used to build sb-d's probe table (probe probability
  /// proportional to s_i). Required for sb-d, ignored otherwise.
  std::vector<double> speeds;

  /// Why this config cannot drive a fleet of n servers, or ok.
  [[nodiscard]] Status validate(std::size_t n) const;
};

/// Everything the policy counted since construction. Plain counters so
/// tests and benches can assert without BLADE_OBS; the obs registry gets
/// the same increments under the `policy.*` names when instrumented.
struct PolicyCounters {
  std::uint64_t routed = 0;          ///< route() calls
  std::uint64_t probes = 0;          ///< distinct servers whose state was read
  std::uint64_t redraws = 0;         ///< duplicate/unavailable sample rejections
  std::uint64_t ties = 0;            ///< equal-key comparisons during selection
  std::uint64_t herd_events = 0;     ///< every available probe was busy
  std::uint64_t fallback_scans = 0;  ///< O(n) scans after an all-dark probe set
  std::uint64_t quarantine_skips = 0;  ///< up-but-quarantined candidates routed around
};

class DispatchPolicy {
 public:
  /// Throws std::invalid_argument when cfg.validate(n) fails.
  DispatchPolicy(PolicyConfig cfg, std::size_t n);

  /// Destination server index for one arriving task. `view.n` must equal
  /// the n the policy was built for.
  [[nodiscard]] std::size_t route(const StateView& view);

  [[nodiscard]] const PolicyConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const PolicyCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const char* name() const noexcept { return to_string(cfg_.kind); }
  [[nodiscard]] std::size_t fleet_size() const noexcept { return n_; }

 private:
  [[nodiscard]] std::size_t route_sampled(const StateView& view);
  [[nodiscard]] std::size_t route_round_robin(const StateView& view);
  [[nodiscard]] std::size_t route_scan(const StateView& view);
  [[nodiscard]] std::size_t route_probed(const StateView& view);
  /// Fills probes_ with cfg_.probe_d distinct indices sampled from
  /// probe_table_ (weighted, without replacement).
  void sample_probes();
  /// Best available candidate among `count` probes_ entries by the
  /// policy's key; npos when none is available.
  [[nodiscard]] std::size_t select(const StateView& view, std::size_t count,
                                   bool respect_availability);

  PolicyConfig cfg_;
  std::size_t n_ = 0;
  bool hetero_key_ = false;  ///< normalized-work compare (ha-jsq-d, wjsq-d)
  std::optional<util::AliasTable> probe_table_;
  util::FastRng rng_;
  std::vector<std::uint32_t> probes_;      ///< scratch: sampled candidate indices
  std::vector<std::uint64_t> seen_epoch_;  ///< scratch: dedupe tags (O(d) reset)
  std::uint64_t epoch_ = 0;
  std::size_t rr_next_ = 0;
  PolicyCounters counters_;
};

/// Exact assignment fractions in the lambda -> 0 limit (every server
/// empty and fully available) — the light-traffic oracle in the style of
/// Izagirre & Makowski's heterogeneous power-of-two analysis: with all
/// queues empty the routing decision is a pure function of the probe
/// distribution and the policy's comparison key, so the per-server
/// fractions have a closed combinatorial form. Supports every
/// non-probing kind and the d = 2 probing kinds (the test battery's
/// JSQ(2) oracle); throws std::invalid_argument otherwise.
[[nodiscard]] std::vector<double> light_traffic_fractions(
    const PolicyConfig& cfg, const std::vector<ServerState>& fleet);

}  // namespace blade::policy
