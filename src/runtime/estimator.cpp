#include "runtime/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace blade::runtime {

namespace {

constexpr double kLn2 = 0.69314718055994530942;

}  // namespace

EwmaRateEstimator::EwmaRateEstimator(double half_life, double start_time)
    : alpha_(kLn2 / half_life), start_(start_time), last_(start_time) {
  if (!(half_life > 0.0) || !std::isfinite(half_life)) {
    throw std::invalid_argument("EwmaRateEstimator: half_life must be > 0");
  }
  if (!std::isfinite(start_time)) {
    throw std::invalid_argument("EwmaRateEstimator: start_time must be finite");
  }
}

double EwmaRateEstimator::rate(double t) const {
  if (count_ == 0 || !(t > start_)) return 0.0;
  const double w = weight_ * std::exp(-alpha_ * std::max(0.0, t - last_));
  const double denom = -std::expm1(-alpha_ * (t - start_));  // 1 - e^{-alpha (t - t0)}
  if (!(denom > 0.0)) return 0.0;
  return alpha_ * w / denom;
}

bool EwmaRateEstimator::try_observe(double t) noexcept {
  if (!std::isfinite(t)) return false;  // corrupted timestamp: drop
  if (t < last_) {
    // Backwards clock: the arrival is real, its timestamp is not. Count
    // it at the last credible instant instead of poisoning the decay.
    weight_ += 1.0;
    ++count_;
    return false;
  }
  weight_ = weight_ * std::exp(-alpha_ * (t - last_)) + 1.0;
  last_ = t;
  ++count_;
  return true;
}

EwmaState EwmaRateEstimator::state() const {
  return EwmaState{kLn2 / alpha_, start_, last_, weight_, count_};
}

blade::Status EwmaRateEstimator::restore(const EwmaState& s) {
  if (!(s.half_life > 0.0) || !std::isfinite(s.half_life) || !std::isfinite(s.start) ||
      !std::isfinite(s.last) || s.last < s.start || !(s.weight >= 0.0) ||
      !std::isfinite(s.weight)) {
    return blade::make_error(blade::ErrorCode::InvalidArgument,
                             "EwmaRateEstimator: inconsistent snapshot");
  }
  alpha_ = kLn2 / s.half_life;
  start_ = s.start;
  last_ = s.last;
  weight_ = s.weight;
  count_ = s.count;
  return {};
}

void EwmaRateEstimator::reset(double start_time) {
  if (!std::isfinite(start_time)) {
    throw std::invalid_argument("EwmaRateEstimator: start_time must be finite");
  }
  start_ = start_time;
  last_ = start_time;
  weight_ = 0.0;
  count_ = 0;
}

}  // namespace blade::runtime
