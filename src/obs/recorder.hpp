// Flight recorder: a lock-free per-thread ring buffer of typed control-
// plane events (solves, re-solve triggers, shed decisions, degraded-mode
// transitions, publishes, blade failures, chaos injections), recorded
// through BLADE_OBS_EVENT() in obs/obs.hpp so disabled builds compile
// every record to ((void)0).
//
// Concurrency model — single-writer rings with seqlock slots: each
// thread owns one ring and is its only writer; push() costs one clock
// read plus a handful of relaxed atomic word stores (O(tens of ns),
// gated by bench_obs_recorder). dump() may run on any thread while
// writers keep recording: every slot carries a per-generation version
// word written odd-before / even-after the payload, so the reader
// validates each slot and discards the (rare) torn read instead of
// blocking the writer. Rings are held by shared_ptr so they survive
// their thread's exit and a concurrent reset().
//
// The dump path is the audit trail: Recorder::dump() snapshots every
// ring on demand, and auto_dump() — invoked by the controller on every
// degraded-mode transition and by the solver watchdog on a tripped
// budget — additionally remembers the dump and forwards it to an
// installed sink. Dumps serialize as JSONL (tools/obs_timeline) and as
// Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Like the metrics registry, the recorder API is always compiled and
// linkable regardless of the BLADE_OBS toggle; only the macro layer
// vanishes, so tests and tools can drive it directly in any build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace blade::obs {

/// Every structured event the control plane records. The per-type
/// payload contract (what id/a/b/c mean) is documented per enumerator
/// and in docs/observability.md.
enum class EventType : std::uint16_t {
  SolveStart = 0,  ///< id = cells of a multi-cell solve (0 = one cell); a = lambda' target
  SolveEnd,        ///< id = ErrorCode (0 = ok); a = phi, b = outer iterations, c = inner evals
  /// id = Cause. Drift: a = predicted relative T' loss (-1: fired without
  /// evaluating), b = loss_threshold. Shedding: a = estimated lambda',
  /// b = admissible (ceiling * lambda'_max). Others: b = loss_threshold.
  ResolveTrigger,
  ShedDecision,    ///< a = estimated lambda', b = admissible (ceiling * lambda'_max), c = shed prob
  ModeTransition,  ///< id = Cause; a = from Mode, b = to Mode
  AliasPublish,    ///< id = publication version; a = shed prob
  BladeFail,       ///< id = server; a = blades remaining, b = blades lost
  BladeRecover,    ///< id = server; a = blades remaining, b = blades restored
  ChaosInject,     ///< id = Cause (ChaosDrop/...); a = injection-specific value
  WatchdogTrip,    ///< id = ErrorCode; a = evaluations used
  SpanEnd,         ///< id = interned label; a = duration in seconds
  Dispatch,        ///< id = server routed to; a = sim time, b = dispatch ordinal
  EpochMark,       ///< id = epoch index; a = sim time, b = generic rate / lambda'
  HealthTransition,  ///< id = server; a = from HealthState, b = to HealthState, c = score
};

inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::HealthTransition) + 1;

[[nodiscard]] const char* to_string(EventType t) noexcept;

/// Why a decision fired; carried in Event::id for ResolveTrigger /
/// ModeTransition / ChaosInject events so the audit trail names its
/// trigger instead of leaving a bare counter bump.
enum class Cause : std::uint32_t {
  None = 0,
  Drift,          ///< drift check: predicted T' loss past the threshold, or unevaluated
  Warmup,         ///< first estimate-driven solve after estimator warmup
  DegradedRetry,  ///< degraded mode retries every check until a solve lands
  Failure,        ///< blade-failure event forced the re-solve
  Recovery,       ///< blade-recovery event forced the re-solve
  Forced,         ///< resolve_now() (epoch boundary, test hook)
  InjectedFault,  ///< armed solver fault consumed (chaos)
  SolverError,    ///< re-solve failed; containment engaged
  Infeasible,     ///< no surviving capacity; blackout published
  NoLoad,         ///< nothing measurable to place; fallback published
  Unpublishable,  ///< solver result rejected by alias-table validation
  ChaosDrop,      ///< observation dropped before the controller heard it
  ChaosPhantom,   ///< phantom arrivals reported to telemetry
  ChaosTimewarp,  ///< corrupted observation timestamp
  Restore,        ///< checkpoint restore republished a table
  Quarantine,     ///< health scoring quarantined a blade; weights redistributed
  Probation,      ///< quarantine dwell elapsed; degraded re-solve probes the blade
  HealthRecovered,  ///< probation cleared; nominal re-solve restored the blade
  Shedding,       ///< drift check: lambda' at the admission ceiling, or shedding
};

[[nodiscard]] const char* to_string(Cause c) noexcept;

/// One recorded event: 48 bytes, fixed layout, meaning of id/a/b/c per
/// EventType (see the enumerator comments).
struct Event {
  std::uint64_t ts_ns = 0;  ///< monotonic_ns() at record time
  std::uint64_t seq = 0;    ///< per-ring generation (dense, 0-based)
  EventType type = EventType::SolveStart;
  std::uint16_t tid = 0;  ///< dense ring index (registration order)
  std::uint32_t id = 0;
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
};

/// One ring's consistent snapshot inside a Dump.
struct DumpRing {
  std::uint16_t tid = 0;
  std::uint64_t recorded = 0;  ///< events ever pushed to this ring
  std::uint64_t dropped = 0;   ///< recorded - retained (wrap overwrites + torn reads)
  std::vector<Event> events;   ///< seq-ascending, each slot validated
};

/// A point-in-time snapshot of every ring plus the span-label table.
struct Dump {
  std::uint64_t taken_ns = 0;
  std::string reason;                ///< "on_demand", "mode:fallback", "watchdog", ...
  std::vector<DumpRing> rings;
  std::vector<std::string> labels;   ///< SpanEnd id -> span path

  [[nodiscard]] std::size_t total_events() const noexcept;
  /// Events lost across all rings (wrap overwrites + torn reads).
  [[nodiscard]] std::uint64_t total_dropped() const noexcept;
  /// All rings' events merged into one (ts_ns, tid, seq)-ordered timeline.
  [[nodiscard]] std::vector<Event> merged() const;
};

class Recorder {
 public:
  /// Process-wide recorder; intentionally leaked like Registry so rings
  /// flushing at thread exit can never outlive it.
  [[nodiscard]] static Recorder& instance();

  /// Records one event into the calling thread's ring. Lock-free after
  /// the thread's first record (which registers its ring under a mutex).
  void record(EventType type, std::uint32_t id, double a = 0.0, double b = 0.0,
              double c = 0.0) noexcept;

  /// Interns a span label (SpanEnd events reference labels by id so the
  /// hot path never stores a string). Idempotent per name.
  [[nodiscard]] std::uint32_t intern_label(std::string_view name);

  /// Snapshots every ring. Safe to call from any thread while writers
  /// keep recording; torn slots are discarded and counted as dropped.
  [[nodiscard]] Dump dump(std::string reason = "on_demand");

  /// dump() + remember as last_auto_dump() + forward to the installed
  /// sink. Called on every degraded-mode transition and watchdog trip.
  void auto_dump(std::string reason);

  using DumpSink = std::function<void(const Dump&)>;
  /// Installs (or clears, with nullptr) the auto-dump sink. The sink runs
  /// on the triggering thread; keep it cheap.
  void set_dump_sink(DumpSink sink);
  [[nodiscard]] std::uint64_t auto_dumps() const noexcept;
  /// The most recent auto-dump (empty Dump with reason "" when none yet).
  [[nodiscard]] Dump last_auto_dump() const;

  /// Per-ring capacity for rings created after the call (rounded up to a
  /// power of two, minimum 64). Pair with reset() to apply everywhere.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept;

  /// Drops every ring, dump, and label; live threads re-register their
  /// ring (at the current capacity) on their next record. Test helper —
  /// events recorded concurrently with reset() may land in a detached
  /// ring and be lost, which is fine for a crash recorder.
  void reset();

  struct Impl;

 private:
  Recorder();

  Impl* impl_ = nullptr;  // owned; never freed (see instance())
};

/// Shorthand for Recorder::instance().
[[nodiscard]] inline Recorder& recorder() { return Recorder::instance(); }

/// JSONL serialization: a header line ({"schema":"blade.recorder.v1",...})
/// followed by one JSON object per event in merged timeline order.
/// tools/obs_timeline consumes this.
[[nodiscard]] std::string to_jsonl(const Dump& dump);

/// Chrome trace-event JSON (chrome://tracing / Perfetto "JSON" format):
/// SpanEnd and paired SolveStart/SolveEnd become duration ("X") events,
/// everything else instant ("i") events, on one track per recorded
/// thread.
[[nodiscard]] std::string to_chrome_trace(const Dump& dump);

/// Writes `dump` to `path`: a ".json" extension selects Chrome trace
/// format, anything else JSONL. Throws std::runtime_error on I/O failure.
void write_dump_file(const Dump& dump, const std::string& path);

}  // namespace blade::obs
