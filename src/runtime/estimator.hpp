// Online arrival-rate estimation for the load-distribution controller
// (lambda' and every lambda''_i) and the health tracker: an
// exponentially decayed arrival count. With decay alpha = ln 2 /
// half_life the decayed count W(t) has expectation
// lambda (1 - e^{-alpha (t-t0)}) / alpha under a Poisson stream, so the
// bias-corrected estimate
//     alpha W(t) / (1 - e^{-alpha (t-t0)})
// is unbiased from the very first arrivals and tracks a step change with
// residual 2^{-k} after k half-lives. Observation times are event
// timestamps (simulated or wall time); try_observe repairs the ones that
// run backwards.
#pragma once

#include <cstdint>

#include "util/status.hpp"

namespace blade::runtime {

/// Serializable EwmaRateEstimator state (controller checkpoints).
struct EwmaState {
  double half_life = 0.0;
  double start = 0.0;
  double last = 0.0;
  double weight = 0.0;
  std::uint64_t count = 0;
};

class EwmaRateEstimator {
 public:
  /// @param half_life   time for a sample's weight to halve, > 0
  /// @param start_time  when observation began (the correction baseline)
  explicit EwmaRateEstimator(double half_life, double start_time = 0.0);

  /// One arrival at time t, containment-grade for feeds that may be
  /// corrupted: a non-finite t is dropped, a backwards t is clamped to
  /// the last observation time (the arrival still counts — only its
  /// timestamp was lying). Returns true when the sample was applied as
  /// given, false when it was dropped or repaired. Never throws.
  bool try_observe(double t) noexcept;

  /// Snapshot / restore for checkpointing. restore() validates the
  /// snapshot (finite fields, half_life > 0, last >= start, weight >= 0)
  /// and returns ErrorCode::InvalidArgument without touching *this when
  /// it is inconsistent.
  [[nodiscard]] EwmaState state() const;
  [[nodiscard]] blade::Status restore(const EwmaState& s);

  /// Bias-corrected rate estimate at time t (0 before any arrival).
  [[nodiscard]] double rate(double t) const;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Forgets all arrivals and restarts the bias baseline at t.
  void reset(double start_time);

 private:
  double alpha_;
  double start_;
  double last_ = 0.0;    ///< time of the last arrival
  double weight_ = 0.0;  ///< decayed arrival count at last_
  std::uint64_t count_ = 0;
};

}  // namespace blade::runtime
