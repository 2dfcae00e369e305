#include "src/obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "src/common/logging.h"

namespace farm {
namespace trace {

namespace {

Tracer* g_tracer = nullptr;

// ts/dur are microseconds in the trace-event format; simulated time is
// nanoseconds. Emit "<us>.<ns remainder>" with fixed width so output is
// deterministic and loses no precision.
void AppendMicros(std::string& out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
  out += buf;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
}

}  // namespace

Tracer::Tracer() : Tracer(Options{}) {}

Tracer::Tracer(Options options) : options_(options) {}

void Tracer::AttachClock(const Simulator* sim) {
  for (const auto& [key, span] : open_tx_spans_) {
    Push(Event{'e', key.first, span.tid, Now(), 0, "tx", span.name, key.second, 0});
  }
  open_tx_spans_.clear();
  sim_ = sim;
}

void Tracer::NameProcess(uint32_t pid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.pid = pid;
  ev.name = "process_name";
  ev.id = name;
  metadata_.push_back(std::move(ev));
}

void Tracer::NameThread(uint32_t pid, uint32_t tid, const std::string& name) {
  Event ev;
  ev.phase = 'M';
  ev.pid = pid;
  ev.tid = tid;
  ev.name = "thread_name";
  ev.id = name;
  metadata_.push_back(std::move(ev));
}

void Tracer::BeginSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                       const std::string& id) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'b', pid, tid, sim_->Now(), 0, cat, name, id, 0});
}

void Tracer::EndSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                     const std::string& id) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'e', pid, tid, sim_->Now(), 0, cat, name, id, 0});
}

void Tracer::CompleteSpan(uint32_t pid, uint32_t tid, const char* cat, const char* name,
                          SimTime start) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  SimTime now = sim_->Now();
  Push(Event{'X', pid, tid, start, now - start, cat, name, {}, 0});
}

void Tracer::Instant(uint32_t pid, uint32_t tid, const char* cat, const char* name) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'i', pid, tid, sim_->Now(), 0, cat, name, {}, 0});
}

void Tracer::CounterValue(uint32_t pid, const char* name, uint64_t value) {
  FARM_CHECK(sim_ != nullptr) << "tracer has no clock attached";
  Push(Event{'C', pid, 0, sim_->Now(), 0, nullptr, name, {}, value});
}

void Tracer::Consume(uint32_t machine, const flight::Record& r) {
  auto kind = static_cast<flight::EventKind>(r.kind);
  if (kind == flight::EventKind::kReconfig || kind == flight::EventKind::kRecoveryStep) {
    const char* name = kind == flight::EventKind::kReconfig
                           ? flight::EventKindName(kind)
                           : flight::RecoveryStepName(static_cast<flight::RecoveryStep>(r.arg));
    Push(Event{'i', machine, 0, r.time_ns, 0, "recovery", name, {}, 0});
  }
  bool phase = kind == flight::EventKind::kPhaseBegin || kind == flight::EventKind::kPhaseEnd;
  if (!(r.flags & flight::Record::kHasTx) ||
      !(phase || kind == flight::EventKind::kAbort || kind == flight::EventKind::kRecoveryStep)) {
    return;
  }
  char id[80];
  std::snprintf(id, sizeof(id), "tx<%u,%u,%u,%" PRIu64 ">%s", r.tx_config,
                static_cast<uint32_t>(r.tx_machine), static_cast<uint32_t>(r.tx_thread),
                r.tx_local,
                phase && r.arg == static_cast<uint8_t>(flight::Phase::kTruncate) ? "/truncate"
                                                                                 : "");
  SpanKey key{machine, id};
  auto open = open_tx_spans_.find(key);
  if (open != open_tx_spans_.end()) {
    Push(Event{'e', machine, open->second.tid, r.time_ns, 0, "tx", open->second.name, id, 0});
    open_tx_spans_.erase(open);
  }
  if (kind == flight::EventKind::kPhaseBegin) {
    const char* name = flight::PhaseName(static_cast<flight::Phase>(r.arg));
    Push(Event{'b', machine, r.tx_thread, r.time_ns, 0, "tx", name, id, 0});
    open_tx_spans_[key] = OpenSpan{r.tx_thread, name};
  }
}

void Tracer::AppendEvent(std::string& out, const Event& ev) {
  char buf[96];
  if (ev.phase == 'M') {
    std::snprintf(buf, sizeof(buf), "{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"ts\":0,\"name\":\"%s\"",
                  ev.pid, ev.tid, ev.name);
    out += buf;
    out += ",\"args\":{\"name\":\"";
    AppendEscaped(out, ev.id);
    out += "\"}}";
    return;
  }
  std::snprintf(buf, sizeof(buf), "{\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":", ev.phase,
                ev.pid, ev.tid);
  out += buf;
  AppendMicros(out, ev.ts);
  if (ev.cat != nullptr) {
    out += ",\"cat\":\"";
    out += ev.cat;
    out += '"';
  }
  out += ",\"name\":\"";
  out += ev.name;
  out += '"';
  switch (ev.phase) {
    case 'X':
      out += ",\"dur\":";
      AppendMicros(out, ev.dur);
      break;
    case 'b':
    case 'e':
      out += ",\"id\":\"";
      AppendEscaped(out, ev.id);
      out += '"';
      break;
    case 'i':
      out += ",\"s\":\"t\"";
      break;
    case 'C': {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%" PRIu64 "}", ev.value);
      out += buf;
      break;
    }
    default:
      break;
  }
  out += '}';
}

std::string Tracer::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const Event& ev : metadata_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    AppendEvent(out, ev);
  }
  for (const Event& ev : events_) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    AppendEvent(out, ev);
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status(StatusCode::kInternal, "cannot open trace file: " + path);
  }
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status(StatusCode::kInternal, "short write to trace file: " + path);
  }
  return OkStatus();
}

Tracer* Global() { return g_tracer; }

void SetGlobal(Tracer* tracer) { g_tracer = tracer; }

}  // namespace trace
}  // namespace farm
