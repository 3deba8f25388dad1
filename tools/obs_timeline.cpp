// Human-readable causal timeline for flight-recorder dumps
// (blade.recorder.v1 JSONL, written by `bladecli serve-replay
// --recorder-out run.jsonl` or Recorder auto-dumps).
//
//   obs_timeline run.jsonl [more.jsonl ...]
//
// Prints each dump's events in merged timeline order with the payload
// decoded per event type, then a decision-count table by cause — the
// audit-trail answer to "why did the controller do that?".
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using blade::util::JsonValue;

std::string sig(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

double num(const JsonValue& e, const char* key) {
  const JsonValue* v = e.find(key);
  return (v != nullptr && v->type == JsonValue::Type::Number) ? v->number : 0.0;
}

std::string str(const JsonValue& e, const char* key) {
  const JsonValue* v = e.find(key);
  return (v != nullptr && v->type == JsonValue::Type::String) ? v->string : std::string();
}

/// Controller mode names (matches runtime::Mode; dumps carry the raw
/// enum value).
std::string mode_name(double m) {
  switch (static_cast<int>(m)) {
    case 0: return "optimal";
    case 1: return "last_known_good";
    case 2: return "fallback";
    case 3: return "blackout";
    default: return sig(m);
  }
}

/// Decodes one event's payload per the EventType contract in
/// src/obs/recorder.hpp.
std::string describe(const JsonValue& e) {
  const std::string type = str(e, "type");
  const std::string cause = str(e, "cause");
  const double id = num(e, "id");
  const double a = num(e, "a");
  const double b = num(e, "b");
  const double c = num(e, "c");
  std::ostringstream os;
  if (type == "solve_start") {
    os << (id > 0 ? "sharded solve (" + sig(id) + " cells)" : "flat solve") << " lambda'="
       << sig(a) << " of max " << sig(b);
  } else if (type == "solve_end") {
    if (id == 0) {
      os << "converged phi=" << sig(a) << " outer_it=" << sig(b) << " inner_evals=" << sig(c);
    } else {
      os << "FAILED error_code=" << sig(id) << " inner_evals=" << sig(c);
    }
  } else if (type == "resolve_trigger") {
    os << "re-solve (" << cause << ")";
    if (cause == "drift") {
      os << " loss=" << (a < 0.0 ? std::string("unevaluated") : sig(a)) << " threshold=" << sig(b);
    } else if (cause == "shedding") {
      os << " lambda'_hat=" << sig(a) << " admissible=" << sig(b);
    }
    os << " t=" << sig(c);
  } else if (type == "shed_decision") {
    os << "admission ceiling hit: lambda'_hat=" << sig(a) << " admissible=" << sig(b)
       << " shed_prob=" << sig(c);
  } else if (type == "mode_transition") {
    os << "mode " << mode_name(a) << " -> " << mode_name(b) << " (" << cause << ") t=" << sig(c);
  } else if (type == "alias_publish") {
    os << "published routing table v" << sig(id) << " shed_prob=" << sig(a) << " t=" << sig(c);
  } else if (type == "blade_fail") {
    os << "server " << sig(id) << " lost " << sig(b) << " blades (" << sig(a)
       << " remain) t=" << sig(c);
  } else if (type == "blade_recover") {
    os << "server " << sig(id) << " regained " << sig(b) << " blades (" << sig(a)
       << " up) t=" << sig(c);
  } else if (type == "chaos_inject") {
    os << "chaos: " << cause;
    if (b > 0) os << " x" << sig(b);
    os << " t=" << sig(a);
  } else if (type == "watchdog_trip") {
    os << "solver watchdog tripped (error_code=" << sig(id) << ")";
  } else if (type == "span") {
    os << str(e, "label") << " took " << sig(a) << " s";
  } else if (type == "dispatch") {
    os << "routed to server " << sig(id) << " (dispatch #" << sig(b) << ") t=" << sig(a);
  } else if (type == "epoch_mark") {
    os << "epoch " << sig(id) << ": rate=" << sig(b) << " t=" << sig(a);
  } else {
    os << "id=" << sig(id) << " a=" << sig(a) << " b=" << sig(b) << " c=" << sig(c);
  }
  return os.str();
}

int timeline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "obs_timeline: cannot open '" << path << "'\n";
    return 1;
  }
  std::string line;
  if (!std::getline(in, line)) {
    std::cerr << "obs_timeline: " << path << ": empty file\n";
    return 1;
  }
  JsonValue header;
  try {
    header = blade::util::parse_json(line);
  } catch (const std::exception& e) {
    std::cerr << "obs_timeline: " << path << ": bad header: " << e.what() << '\n';
    return 1;
  }
  const std::string schema = str(header, "schema");
  if (schema != "blade.recorder.v1") {
    std::cerr << "obs_timeline: " << path << ": unknown schema '" << schema << "'\n";
    return 1;
  }
  double dropped = 0.0;
  std::size_t rings = 0;
  if (const JsonValue* rs = header.find("rings")) {
    rings = rs->array.size();
    for (const JsonValue& r : rs->array) dropped += num(r, "dropped");
  }

  std::vector<JsonValue> events;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      events.push_back(blade::util::parse_json(line));
    } catch (const std::exception& e) {
      std::cerr << "obs_timeline: " << path << ":" << line_no << ": " << e.what() << '\n';
      return 1;
    }
  }

  std::cout << "== " << path << " ==\n"
            << "dump reason \"" << str(header, "reason") << "\", " << rings << " threads, "
            << events.size() << " events";
  if (dropped > 0) std::cout << " (" << sig(dropped) << " dropped)";
  std::cout << "\n\n";

  const double t0 = events.empty() ? 0.0 : num(events.front(), "ts_ns");
  std::map<std::string, std::uint64_t> by_type;
  std::map<std::string, std::uint64_t> by_cause;
  for (const JsonValue& e : events) {
    const std::string type = str(e, "type");
    ++by_type[type];
    const std::string cause = str(e, "cause");
    if (!cause.empty()) ++by_cause[type + " / " + cause];
    char ts[32];
    std::snprintf(ts, sizeof ts, "%12.3f", (num(e, "ts_ns") - t0) / 1e6);
    std::printf("%s ms  tid %-3d %-16s %s\n", ts, static_cast<int>(num(e, "tid")), type.c_str(),
                describe(e).c_str());
  }

  std::cout << "\nevents by type:\n";
  for (const auto& [type, n] : by_type) std::cout << "  " << type << ": " << n << '\n';
  if (!by_cause.empty()) {
    std::cout << "\ndecisions by cause:\n";
    for (const auto& [key, n] : by_cause) std::cout << "  " << key << ": " << n << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: obs_timeline <dump.jsonl> [more.jsonl ...]\n"
                 "prints a flight-recorder dump as a causal timeline\n";
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    if (i > 1) std::cout << '\n';
    rc |= timeline(argv[i]);
  }
  return rc;
}
