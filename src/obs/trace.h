// Deterministic span tracer keyed on simulated time, exporting Chrome
// trace-event JSON loadable in Perfetto / chrome://tracing.
//
// Mapping from simulation to trace concepts:
//   pid = simulated machine id (named via NameProcess, e.g. "machine 3")
//   tid = hardware-thread index on that machine ("worker 0", "lease")
//   ts  = simulated nanoseconds, emitted as fractional microseconds
//
// Three event shapes are used:
//   - nestable async spans ("b"/"e" keyed by category + id) for work that
//     interleaves on one thread, like concurrent transaction commits and
//     multi-step recovery flows;
//   - complete spans ("X") for contiguous stretches of one logical
//     activity, like a transaction read or a reconfiguration step;
//   - instants ("i") and counters ("C") for point events such as fabric
//     operations, milestones, and cumulative byte counts.
//
// Tracing must cost nothing when off: every call site goes through the
// FARM_TRACE macro, which compiles to nothing under FARM_TRACE_DISABLED and
// otherwise is a single null check of the global tracer pointer. All event
// fields derive from simulated state, so two runs with the same seed produce
// byte-identical trace files (pinned by tests/obs_test.cc).
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace farm {
namespace trace {

class Tracer {
 public:
  struct Options {
    // Record per-operation fabric instants and byte counters (cat "net").
    // High-volume; disable for long runs where only tx/recovery spans matter.
    bool capture_net = true;
  };

  Tracer();
  explicit Tracer(Options options);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Events are stamped with clock->Now(). The clock must be attached before
  // any recording; a cluster attaches its simulator at construction. The
  // tracer does not own the simulator and must not record after it dies.
  // Detaching (nullptr) first closes every transaction span still open, at
  // the final simulated time of the run.
  void AttachClock(const Simulator* sim);
  bool capture_net() const { return options_.capture_net; }

  // Track naming (metadata events, ts 0).
  void NameProcess(uint32_t pid, const std::string& name);
  void NameThread(uint32_t pid, uint32_t tid, const std::string& name);

  // Nestable async span; begin/end pairs match on (cat, id), and spans with
  // the same id share one async track in Perfetto.
  void BeginSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                 const std::string& id);
  void EndSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
               const std::string& id);

  // Complete span from `start` to now on the (pid, tid) track.
  void CompleteSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                    SimTime start);

  void Instant(uint32_t pid, uint32_t tid, const char* cat, const char* name);
  void CounterValue(uint32_t pid, const char* name, uint64_t value);

  // Consumer of the flight-record stream (fed by flight::Recorder::Append,
  // stamped with the record's time), on track (machine, tx thread):
  //   - phase-begin opens an async "tx" span named by flight::PhaseName and
  //     keyed by the transaction id, and the matching phase-end closes it
  //     (truncate, which is lazy and outlives the commit, keys on
  //     "<id>/truncate");
  //   - an abort record, or a recovery record naming the transaction (the
  //     outcome passed to recovery), closes the transaction's open span;
  //   - recovery-step and reconfig records become "recovery" instants on
  //     the machine's thread 0.
  // Other record kinds are not traced.
  void Consume(uint32_t machine, const flight::Record& r);

  size_t event_count() const { return events_.size() + metadata_.size(); }
  SimTime Now() const { return sim_ == nullptr ? 0 : sim_->Now(); }

  // Chrome trace-event JSON ({"traceEvents":[...]}). Deterministic: event
  // order is insertion order (the simulator is single-threaded) and all
  // numbers are formatted with fixed precision.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct Event {
    char phase;  // 'b','e','X','i','C','M'
    uint32_t pid = 0;
    uint32_t tid = 0;
    SimTime ts = 0;
    SimDuration dur = 0;       // X only
    const char* cat = nullptr;  // static strings at call sites
    const char* name = nullptr;
    std::string id;      // async spans; also thread/process names for M
    uint64_t value = 0;  // C only
  };

  // Open "tx" spans from Consume, keyed by (machine, span id).
  using SpanKey = std::pair<uint32_t, std::string>;
  struct OpenSpan {
    uint32_t tid;
    const char* name;
  };

  void Push(Event ev) { events_.push_back(std::move(ev)); }
  static void AppendEvent(std::string& out, const Event& ev);

  Options options_;
  const Simulator* sim_ = nullptr;
  std::vector<Event> metadata_;
  std::vector<Event> events_;
  std::map<SpanKey, OpenSpan> open_tx_spans_;
};

// Process-global tracer; null when tracing is off. The simulation is
// single-threaded, so a plain pointer suffices.
Tracer* Global();
void SetGlobal(Tracer* tracer);

}  // namespace trace
}  // namespace farm

// Call-site guard: FARM_TRACE(Instant(pid, tid, "tx", "truncate")) expands
// to a null-checked call on the global tracer, or to nothing when tracing is
// compiled out.
#ifndef FARM_TRACE_DISABLED
#define FARM_TRACE(call)                                                    \
  do {                                                                      \
    if (::farm::trace::Tracer* farm_tracer_ = ::farm::trace::Global()) {    \
      farm_tracer_->call;                                                   \
    }                                                                       \
  } while (0)
#define FARM_TRACE_ACTIVE() (::farm::trace::Global() != nullptr)
#else
#define FARM_TRACE(call) \
  do {                   \
  } while (0)
#define FARM_TRACE_ACTIVE() (false)
#endif

namespace farm {
namespace trace {

// RAII async span for coroutines: begins on construction, ends on
// destruction (coroutine locals die at co_return, so every exit path of a
// traced coroutine closes its span at the simulated time it finishes).
class SpanGuard {
 public:
  SpanGuard(uint32_t pid, uint32_t tid, const char* cat, const char* name, std::string id)
      : pid_(pid), tid_(tid), cat_(cat), name_(name), id_(std::move(id)) {
    FARM_TRACE(BeginSpan(pid_, tid_, cat_, name_, id_));
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { End(); }

  void End() {
    if (!ended_) {
      ended_ = true;
      FARM_TRACE(EndSpan(pid_, tid_, cat_, name_, id_));
    }
  }

 private:
  uint32_t pid_;
  uint32_t tid_;
  const char* cat_;
  const char* name_;
  std::string id_;
  bool ended_ = false;
};

}  // namespace trace
}  // namespace farm

#endif  // SRC_OBS_TRACE_H_
