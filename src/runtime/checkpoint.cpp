// Controller checkpoint/restore: a version-1 JSON snapshot of the whole
// control-plane state (topology view, estimator states, last solve, LKG,
// degraded mode) so a restarted controller resumes mid-trace instead of
// re-warming from nothing. Schema in docs/resilience.md.
//
// restore_checkpoint validates the entire document into temporaries
// before mutating anything: on any error the controller keeps serving
// its current table untouched.

#include <cmath>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/controller.hpp"
#include "util/json.hpp"

namespace blade::runtime {

namespace {

/// Internal signal for a structurally bad document; converted to one
/// ErrorCode::ParseError at the restore boundary.
struct ParseFail {
  std::string what;
};

const util::JsonValue& field(const util::JsonValue& obj, const char* key,
                             util::JsonValue::Type type, const char* type_name) {
  const util::JsonValue* p = obj.find(key);
  if (p == nullptr || p->type != type) {
    throw ParseFail{std::string("checkpoint: missing or mistyped ") + type_name + " field '" +
                    key + "'"};
  }
  return *p;
}

double num(const util::JsonValue& obj, const char* key) {
  const double v = field(obj, key, util::JsonValue::Type::Number, "number").number;
  if (!std::isfinite(v)) throw ParseFail{std::string("checkpoint: field '") + key + "' is not finite"};
  return v;
}

std::uint64_t count(const util::JsonValue& obj, const char* key) {
  const double v = num(obj, key);
  if (v < 0.0 || v != std::floor(v)) {
    throw ParseFail{std::string("checkpoint: field '") + key + "' is not a non-negative integer"};
  }
  return static_cast<std::uint64_t>(v);
}

std::string text(const util::JsonValue& obj, const char* key) {
  return field(obj, key, util::JsonValue::Type::String, "string").string;
}

std::vector<double> num_array(const util::JsonValue& obj, const char* key) {
  const util::JsonValue& a = field(obj, key, util::JsonValue::Type::Array, "array");
  std::vector<double> out;
  out.reserve(a.array.size());
  for (const util::JsonValue& v : a.array) {
    if (v.type != util::JsonValue::Type::Number || !std::isfinite(v.number)) {
      throw ParseFail{std::string("checkpoint: array '") + key + "' holds a non-finite entry"};
    }
    out.push_back(v.number);
  }
  return out;
}

Mode parse_mode(const std::string& s) {
  if (s == "optimal") return Mode::Optimal;
  if (s == "last_known_good") return Mode::LastKnownGood;
  if (s == "fallback") return Mode::Fallback;
  if (s == "blackout") return Mode::Blackout;
  throw ParseFail{"checkpoint: unknown mode '" + s + "'"};
}

void write_array(util::JsonWriter& w, const std::vector<double>& xs) {
  w.begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

}  // namespace

std::string Controller::checkpoint_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("version").value(1LL);
  w.key("n").value(static_cast<long long>(cluster_.size()));
  w.key("estimator").value("ewma");
  w.key("time").value(last_event_time_);
  w.key("avail").begin_array();
  for (unsigned a : avail_) w.value(static_cast<long long>(a));
  w.end_array();
  w.key("solved_lambda").value(solved_lambda_);
  w.key("solved_special");
  write_array(w, solved_special_);
  w.key("arrivals_since_check").value(static_cast<long long>(arrivals_since_check_));
  w.key("shed_probability").value(shed_probability());
  w.key("fractions");
  write_array(w, routing_fractions());  // empty = blackout (no table)
  w.key("mode").value(to_string(mode_));
  w.key("lkg").begin_object();
  w.key("valid").value(lkg_.valid);
  w.key("time").value(lkg_.time);
  w.key("lambda").value(lkg_.lambda);
  w.key("weights");
  write_array(w, lkg_.weights);
  w.key("avail").begin_array();
  for (unsigned a : lkg_.avail) w.value(static_cast<long long>(a));
  w.end_array();
  w.end_object();
  w.key("estimators").begin_array();
  for (const EwmaRateEstimator& e : ewma_) {
    const EwmaState s = e.state();
    w.begin_object();
    w.key("half_life").value(s.half_life);
    w.key("start").value(s.start);
    w.key("last").value(s.last);
    w.key("weight").value(s.weight);
    w.key("count").value(static_cast<long long>(s.count));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

blade::Status Controller::restore_checkpoint(const std::string& json) {
  const std::size_t n = cluster_.size();

  // --- parse + structural validation, nothing mutated yet ---
  util::JsonValue doc;
  try {
    doc = util::parse_json(json);
  } catch (const std::exception& e) {
    return make_error(ErrorCode::ParseError, std::string("checkpoint: ") + e.what());
  }

  std::vector<unsigned> avail;
  double time = 0.0;
  double solved_lambda = 0.0;
  std::vector<double> solved_special;
  std::uint64_t arrivals_since_check = 0;
  double shed = 0.0;
  std::vector<double> fractions;
  Mode mode = Mode::Fallback;
  Lkg lkg;
  std::size_t doc_n = 0;
  std::vector<EwmaState> ewma_states;
  try {
    if (doc.type != util::JsonValue::Type::Object) throw ParseFail{"checkpoint: root is not an object"};
    if (count(doc, "version") != 1) throw ParseFail{"checkpoint: unsupported version"};
    doc_n = count(doc, "n");
    const std::string estimator_kind = text(doc, "estimator");
    if (estimator_kind == "window") {
      // An older build's sliding-window snapshot: well formed, but there
      // is no window estimator left to restore it into.
      return make_error(ErrorCode::StaleState,
                        "checkpoint: estimator kind 'window' is not restorable (EWMA only)");
    }
    if (estimator_kind != "ewma") {
      throw ParseFail{"checkpoint: unknown estimator '" + estimator_kind + "'"};
    }
    time = num(doc, "time");
    for (double a : num_array(doc, "avail")) {
      if (a < 0.0 || a != std::floor(a)) throw ParseFail{"checkpoint: avail holds a non-count"};
      avail.push_back(static_cast<unsigned>(a));
    }
    solved_lambda = field(doc, "solved_lambda", util::JsonValue::Type::Number, "number").number;
    if (std::isnan(solved_lambda)) throw ParseFail{"checkpoint: solved_lambda is NaN"};
    solved_special = num_array(doc, "solved_special");
    arrivals_since_check = count(doc, "arrivals_since_check");
    shed = num(doc, "shed_probability");
    if (shed < 0.0 || shed > 1.0) throw ParseFail{"checkpoint: shed_probability outside [0, 1]"};
    fractions = num_array(doc, "fractions");
    mode = parse_mode(text(doc, "mode"));
    const util::JsonValue& lj = field(doc, "lkg", util::JsonValue::Type::Object, "object");
    lkg.valid = field(lj, "valid", util::JsonValue::Type::Bool, "bool").boolean;
    lkg.time = num(lj, "time");
    lkg.lambda = num(lj, "lambda");
    lkg.weights = num_array(lj, "weights");
    for (double a : num_array(lj, "avail")) {
      if (a < 0.0 || a != std::floor(a)) throw ParseFail{"checkpoint: lkg.avail holds a non-count"};
      lkg.avail.push_back(static_cast<unsigned>(a));
    }
    const util::JsonValue& ests = field(doc, "estimators", util::JsonValue::Type::Array, "array");
    for (const util::JsonValue& e : ests.array) {
      if (e.type != util::JsonValue::Type::Object) throw ParseFail{"checkpoint: estimator entry is not an object"};
      ewma_states.push_back(EwmaState{num(e, "half_life"), num(e, "start"), num(e, "last"),
                                      num(e, "weight"), count(e, "count")});
    }
    // Internal size consistency is a document property, not a topology
    // match: enforce it here as ParseError.
    if (avail.size() != doc_n || solved_special.size() != doc_n ||
        (!fractions.empty() && fractions.size() != doc_n) ||
        (lkg.valid && (lkg.weights.size() != doc_n || lkg.avail.size() != doc_n)) ||
        ewma_states.size() != doc_n + 1) {
      throw ParseFail{"checkpoint: array sizes disagree with n"};
    }
    if (!fractions.empty()) {
      const blade::Status s = util::AliasTable::validate_weights(fractions);
      if (!s.ok()) throw ParseFail{"checkpoint: fractions are not publishable (" + s.error().context + ")"};
    }
    if ((mode == Mode::Blackout) != fractions.empty()) {
      throw ParseFail{"checkpoint: mode disagrees with published fractions"};
    }
  } catch (const ParseFail& f) {
    return make_error(ErrorCode::ParseError, f.what);
  }

  // --- topology match (the checkpoint may be from another cluster) ---
  if (doc_n != n) {
    return make_error(ErrorCode::StaleState, "checkpoint: snapshot is for " +
                                                 std::to_string(doc_n) + " servers, cluster has " +
                                                 std::to_string(n));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (avail[i] > cluster_.server(i).size()) {
      return make_error(ErrorCode::StaleState,
                        "checkpoint: avail[" + std::to_string(i) + "] exceeds server size");
    }
  }

  // --- estimator snapshots, restored into copies first ---
  std::vector<EwmaRateEstimator> ewma = ewma_;
  for (std::size_t i = 0; i < ewma_states.size(); ++i) {
    const blade::Status s = ewma[i].restore(ewma_states[i]);
    if (!s.ok()) return s.error();
  }

  // --- commit ---
  avail_ = std::move(avail);
  last_event_time_ = time;
  solved_lambda_ = solved_lambda;
  solved_special_ = std::move(solved_special);
  arrivals_since_check_ = arrivals_since_check;
  lkg_ = std::move(lkg);
  ewma_ = std::move(ewma);
  ws_.clear();  // cached brackets describe the pre-restore problem
  reference_tprime_ = -1.0;  // the next drift check fires until a re-solve lands
  // Health state is deliberately not serialized (the schema stays v1):
  // gray scores are short-half-life observations of a live fleet, and a
  // restored process has been dark for an unknown interval. Scoring
  // re-learns from scratch after restore.
  if (health_) health_->reset_all(time);
  last_error_ = Error{ErrorCode::Ok, {}};
  if (fractions.empty()) {
    shed_prob_.store(1.0, std::memory_order_relaxed);
    table_.store(nullptr);
    ++stats_.publications;
    BLADE_OBS_COUNT("runtime.publications");
    BLADE_OBS_GAUGE_SET("runtime.shed_probability", 1.0);
    set_mode(Mode::Blackout, obs::Cause::Restore);
  } else {
    publish(fractions, shed);  // validated above; cannot fail
    set_mode(mode, obs::Cause::Restore);
  }
  ++stats_.restores;
  BLADE_OBS_COUNT("runtime.checkpoint_restores");
  // set_mode only bumps on an actual transition; a restore republishes
  // the table either way, so shards must drop their snapshots now.
  bump_publish_epoch();
  return {};
}

}  // namespace blade::runtime
