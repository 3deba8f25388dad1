#include "obs/recorder.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace blade::obs {

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::SolveStart: return "solve_start";
    case EventType::SolveEnd: return "solve_end";
    case EventType::ResolveTrigger: return "resolve_trigger";
    case EventType::ShedDecision: return "shed_decision";
    case EventType::ModeTransition: return "mode_transition";
    case EventType::AliasPublish: return "alias_publish";
    case EventType::BladeFail: return "blade_fail";
    case EventType::BladeRecover: return "blade_recover";
    case EventType::ChaosInject: return "chaos_inject";
    case EventType::WatchdogTrip: return "watchdog_trip";
    case EventType::SpanEnd: return "span";
    case EventType::Dispatch: return "dispatch";
    case EventType::EpochMark: return "epoch_mark";
    case EventType::HealthTransition: return "health_transition";
  }
  return "unknown";
}

const char* to_string(Cause c) noexcept {
  switch (c) {
    case Cause::None: return "none";
    case Cause::Drift: return "drift";
    case Cause::Warmup: return "warmup";
    case Cause::DegradedRetry: return "degraded_retry";
    case Cause::Failure: return "failure";
    case Cause::Recovery: return "recovery";
    case Cause::Forced: return "forced";
    case Cause::InjectedFault: return "injected_fault";
    case Cause::SolverError: return "solver_error";
    case Cause::Infeasible: return "infeasible";
    case Cause::NoLoad: return "no_load";
    case Cause::Unpublishable: return "unpublishable";
    case Cause::ChaosDrop: return "chaos_drop";
    case Cause::ChaosPhantom: return "chaos_phantom";
    case Cause::ChaosTimewarp: return "chaos_timewarp";
    case Cause::Restore: return "restore";
    case Cause::Quarantine: return "quarantine";
    case Cause::Probation: return "probation";
    case Cause::HealthRecovered: return "health_recovered";
    case Cause::Shedding: return "shedding";
  }
  return "unknown";
}

std::size_t Dump::total_events() const noexcept {
  std::size_t n = 0;
  for (const DumpRing& r : rings) n += r.events.size();
  return n;
}

std::uint64_t Dump::total_dropped() const noexcept {
  std::uint64_t n = 0;
  for (const DumpRing& r : rings) n += r.dropped;
  return n;
}

std::vector<Event> Dump::merged() const {
  std::vector<Event> all;
  all.reserve(total_events());
  for (const DumpRing& r : rings) all.insert(all.end(), r.events.begin(), r.events.end());
  std::sort(all.begin(), all.end(), [](const Event& x, const Event& y) {
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    if (x.tid != y.tid) return x.tid < y.tid;
    return x.seq < y.seq;
  });
  return all;
}

namespace {

constexpr std::size_t kSlotWords = 6;
constexpr std::size_t kDefaultCapacity = 4096;
constexpr std::size_t kMinCapacity = 64;

// Slot word layout: [0] seqlock version ((seq << 1) while complete,
// (seq << 1) | 1 while the writer is inside), [1] ts_ns,
// [2] (type << 32) | id, [3..5] a/b/c as bit-cast doubles.
struct Ring {
  Ring(std::uint16_t tid_in, std::size_t cap)
      : tid(tid_in), mask(cap - 1), slots(cap * kSlotWords) {}

  // Single-writer push; the owning thread is the only caller.
  void push(EventType type, std::uint32_t id, double a, double b, double c) noexcept {
    const std::uint64_t seq = head.load(std::memory_order_relaxed);
    std::atomic<std::uint64_t>* w = &slots[(seq & mask) * kSlotWords];
    w[0].store((seq << 1) | 1u, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    w[1].store(monotonic_ns(), std::memory_order_relaxed);
    w[2].store((static_cast<std::uint64_t>(type) << 32) | id, std::memory_order_relaxed);
    w[3].store(std::bit_cast<std::uint64_t>(a), std::memory_order_relaxed);
    w[4].store(std::bit_cast<std::uint64_t>(b), std::memory_order_relaxed);
    w[5].store(std::bit_cast<std::uint64_t>(c), std::memory_order_relaxed);
    w[0].store(seq << 1, std::memory_order_release);
    head.store(seq + 1, std::memory_order_release);
  }

  // Concurrent-safe snapshot: validates each slot's version word before
  // and after reading the payload (seqlock read protocol) and discards
  // slots the writer touched in between.
  [[nodiscard]] DumpRing drain() const {
    DumpRing out;
    out.tid = tid;
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t cap = mask + 1;
    const std::uint64_t first = h > cap ? h - cap : 0;
    out.recorded = h;
    out.events.reserve(static_cast<std::size_t>(h - first));
    for (std::uint64_t seq = first; seq < h; ++seq) {
      const std::atomic<std::uint64_t>* w = &slots[(seq & mask) * kSlotWords];
      if (w[0].load(std::memory_order_acquire) != seq << 1) continue;  // busy or overwritten
      Event e;
      e.ts_ns = w[1].load(std::memory_order_relaxed);
      const std::uint64_t ti = w[2].load(std::memory_order_relaxed);
      e.a = std::bit_cast<double>(w[3].load(std::memory_order_relaxed));
      e.b = std::bit_cast<double>(w[4].load(std::memory_order_relaxed));
      e.c = std::bit_cast<double>(w[5].load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      if (w[0].load(std::memory_order_relaxed) != seq << 1) continue;  // torn mid-read
      e.seq = seq;
      e.tid = tid;
      e.type = static_cast<EventType>(ti >> 32);
      e.id = static_cast<std::uint32_t>(ti);
      out.events.push_back(e);
    }
    out.dropped = out.recorded - out.events.size();
    return out;
  }

  std::uint16_t tid;
  std::size_t mask;
  std::atomic<std::uint64_t> head{0};
  std::vector<std::atomic<std::uint64_t>> slots;
};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t cap = kMinCapacity;
  while (cap < v) cap <<= 1;
  return cap;
}

}  // namespace

struct Recorder::Impl {
  mutable std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;  // guarded by mu
  std::vector<std::string> labels;           // guarded by mu
  std::unordered_map<std::string, std::uint32_t> label_ids;  // guarded by mu
  DumpSink sink;                             // guarded by mu
  Dump last_auto;                            // guarded by mu
  std::atomic<std::size_t> capacity{kDefaultCapacity};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> auto_dump_count{0};
};

namespace {

// Thread-local ring handle. The shared_ptr keeps the ring alive through
// a concurrent reset(); the epoch detects that reset and triggers
// re-registration, so a long-lived thread rejoins the new generation.
struct TlsRing {
  std::shared_ptr<Ring> ring;
  std::uint64_t epoch = ~std::uint64_t{0};
};

TlsRing& tls_ring() {
  thread_local TlsRing t_ring;
  return t_ring;
}

}  // namespace

Recorder::Recorder() : impl_(new Impl) {}

Recorder& Recorder::instance() {
  static Recorder* r = new Recorder;  // leaked: see header
  return *r;
}

void Recorder::record(EventType type, std::uint32_t id, double a, double b, double c) noexcept {
  TlsRing& t = tls_ring();
  const std::uint64_t ep = impl_->epoch.load(std::memory_order_acquire);
  if (t.epoch != ep || !t.ring) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    const std::size_t tid = impl_->rings.size();
    t.ring = std::make_shared<Ring>(
        static_cast<std::uint16_t>(std::min<std::size_t>(tid, 0xffff)),
        impl_->capacity.load(std::memory_order_relaxed));
    impl_->rings.push_back(t.ring);
    // Read the epoch under the mutex: if a reset() raced in since the
    // check above, the next record re-registers against the new epoch.
    t.epoch = impl_->epoch.load(std::memory_order_relaxed);
  }
  t.ring->push(type, id, a, b, c);
}

std::uint32_t Recorder::intern_label(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->label_ids.find(std::string(name));
  if (it != impl_->label_ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(impl_->labels.size());
  impl_->labels.emplace_back(name);
  impl_->label_ids.emplace(std::string(name), id);
  return id;
}

Dump Recorder::dump(std::string reason) {
  Dump d;
  d.taken_ns = monotonic_ns();
  d.reason = std::move(reason);
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    rings = impl_->rings;
    d.labels = impl_->labels;
  }
  d.rings.reserve(rings.size());
  for (const auto& r : rings) d.rings.push_back(r->drain());
  return d;
}

void Recorder::auto_dump(std::string reason) {
  Dump d = dump(std::move(reason));
  DumpSink sink_copy;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->last_auto = d;
    sink_copy = impl_->sink;
  }
  impl_->auto_dump_count.fetch_add(1, std::memory_order_relaxed);
  if (sink_copy) sink_copy(d);
}

void Recorder::set_dump_sink(DumpSink sink) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->sink = std::move(sink);
}

std::uint64_t Recorder::auto_dumps() const noexcept {
  return impl_->auto_dump_count.load(std::memory_order_relaxed);
}

Dump Recorder::last_auto_dump() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->last_auto;
}

void Recorder::set_capacity(std::size_t capacity) {
  impl_->capacity.store(round_up_pow2(capacity), std::memory_order_relaxed);
}

std::size_t Recorder::capacity() const noexcept {
  return impl_->capacity.load(std::memory_order_relaxed);
}

void Recorder::reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->rings.clear();
  impl_->labels.clear();
  impl_->label_ids.clear();
  impl_->last_auto = Dump{};
  impl_->auto_dump_count.store(0, std::memory_order_relaxed);
  // Bump last so threads that re-register see the cleared state.
  impl_->epoch.fetch_add(1, std::memory_order_release);
}

namespace {

// Stable names of the runtime's HealthState enumerators (obs sits below
// runtime in the library graph, so the enum itself is out of reach here;
// the wire values are part of the dump schema).
const char* health_state_name(double v) {
  switch (static_cast<int>(v)) {
    case 0: return "healthy";
    case 1: return "suspect";
    case 2: return "quarantined";
    case 3: return "probation";
  }
  return "unknown";
}

void append_event_fields(util::JsonWriter& w, const Event& e, const std::vector<std::string>& labels) {
  w.key("tid").value(static_cast<long long>(e.tid));
  w.key("seq").value(static_cast<long long>(e.seq));
  w.key("ts_ns").value(static_cast<double>(e.ts_ns));
  w.key("type").value(std::string(to_string(e.type)));
  w.key("id").value(static_cast<long long>(e.id));
  // Name the id where it has a stable interpretation, so dumps read
  // without the enum tables at hand.
  switch (e.type) {
    case EventType::ResolveTrigger:
    case EventType::ModeTransition:
    case EventType::ChaosInject:
      w.key("cause").value(std::string(to_string(static_cast<Cause>(e.id))));
      break;
    case EventType::SpanEnd:
      if (e.id < labels.size()) w.key("label").value(labels[e.id]);
      break;
    case EventType::HealthTransition:
      w.key("from").value(std::string(health_state_name(e.a)));
      w.key("to").value(std::string(health_state_name(e.b)));
      break;
    default:
      break;
  }
  w.key("a").value(e.a);
  w.key("b").value(e.b);
  w.key("c").value(e.c);
}

}  // namespace

std::string to_jsonl(const Dump& dump) {
  std::string out;
  {
    util::JsonWriter w;
    w.begin_object();
    w.key("schema").value("blade.recorder.v1");
    w.key("reason").value(dump.reason);
    w.key("taken_ns").value(static_cast<double>(dump.taken_ns));
    w.key("labels").begin_array();
    for (const std::string& l : dump.labels) w.value(l);
    w.end_array();
    w.key("rings").begin_array();
    for (const DumpRing& r : dump.rings) {
      w.begin_object();
      w.key("tid").value(static_cast<long long>(r.tid));
      w.key("recorded").value(static_cast<long long>(r.recorded));
      w.key("dropped").value(static_cast<long long>(r.dropped));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out = w.str();
    out += '\n';
  }
  for (const Event& e : dump.merged()) {
    util::JsonWriter w;
    w.begin_object();
    append_event_fields(w, e, dump.labels);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

namespace {

/// One Chrome trace event; ts/dur are microseconds.
void chrome_event(util::JsonWriter& w, const char* name, const char* ph, std::uint16_t tid,
                  double ts_us) {
  w.begin_object();
  w.key("name").value(std::string(name));
  w.key("ph").value(ph);
  w.key("pid").value(1.0);
  w.key("tid").value(static_cast<long long>(tid));
  w.key("ts").value(ts_us);
}

void chrome_args(util::JsonWriter& w, const Event& e) {
  w.key("args").begin_object();
  w.key("id").value(static_cast<long long>(e.id));
  switch (e.type) {
    case EventType::ResolveTrigger:
    case EventType::ModeTransition:
    case EventType::ChaosInject:
      w.key("cause").value(std::string(to_string(static_cast<Cause>(e.id))));
      break;
    case EventType::HealthTransition:
      w.key("from").value(std::string(health_state_name(e.a)));
      w.key("to").value(std::string(health_state_name(e.b)));
      break;
    default:
      break;
  }
  w.key("a").value(e.a);
  w.key("b").value(e.b);
  w.key("c").value(e.c);
  w.end_object();
}

}  // namespace

std::string to_chrome_trace(const Dump& dump) {
  util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  // Track metadata: one named track per recorded ring.
  {
    w.begin_object();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(1.0);
    w.key("args").begin_object().key("name").value("bladecloud").end_object();
    w.end_object();
  }
  for (const DumpRing& r : dump.rings) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(1.0);
    w.key("tid").value(static_cast<long long>(r.tid));
    w.key("args").begin_object().key("name").value("recorder-" + std::to_string(r.tid)).end_object();
    w.end_object();
  }
  // Solve spans are assembled by pairing each SolveEnd with the latest
  // unmatched SolveStart on the same thread; an unpaired end (its start
  // already overwritten in the ring) degrades to an instant event.
  std::vector<const Event*> open_solve(dump.rings.empty() ? 0 : dump.rings.size(), nullptr);
  const std::vector<Event> all = dump.merged();
  for (const Event& e : all) {
    if (e.tid >= open_solve.size()) open_solve.resize(e.tid + 1, nullptr);
    switch (e.type) {
      case EventType::SolveStart:
        open_solve[e.tid] = &e;
        break;
      case EventType::SolveEnd: {
        const Event* start = open_solve[e.tid];
        open_solve[e.tid] = nullptr;
        if (start != nullptr && start->ts_ns <= e.ts_ns) {
          chrome_event(w, e.id == 0 ? "solve" : "solve (failed)", "X", e.tid,
                       static_cast<double>(start->ts_ns) / 1000.0);
          w.key("dur").value(static_cast<double>(e.ts_ns - start->ts_ns) / 1000.0);
          chrome_args(w, e);
          w.end_object();
        } else {
          chrome_event(w, "solve_end", "i", e.tid, static_cast<double>(e.ts_ns) / 1000.0);
          w.key("s").value("t");
          chrome_args(w, e);
          w.end_object();
        }
        break;
      }
      case EventType::SpanEnd: {
        const double dur_us = e.a * 1e6;
        const std::string name =
            e.id < dump.labels.size() ? dump.labels[e.id] : std::string("span");
        chrome_event(w, name.c_str(), "X", e.tid,
                     static_cast<double>(e.ts_ns) / 1000.0 - dur_us);
        w.key("dur").value(dur_us);
        chrome_args(w, e);
        w.end_object();
        break;
      }
      default: {
        std::string name = to_string(e.type);
        if (e.type == EventType::ModeTransition || e.type == EventType::ResolveTrigger ||
            e.type == EventType::ChaosInject) {
          name += ':';
          name += to_string(static_cast<Cause>(e.id));
        }
        chrome_event(w, name.c_str(), "i", e.tid, static_cast<double>(e.ts_ns) / 1000.0);
        w.key("s").value("t");
        chrome_args(w, e);
        w.end_object();
        break;
      }
    }
  }
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

void write_dump_file(const Dump& dump, const std::string& path) {
  const bool chrome = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  const std::string body = chrome ? to_chrome_trace(dump) : to_jsonl(dump);
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("recorder dump: cannot open '" + path + "'");
  os << body;
  if (!os) throw std::runtime_error("recorder dump: write failed for '" + path + "'");
}

}  // namespace blade::obs
