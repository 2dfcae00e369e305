#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/obs/fault_hook.h"

namespace farm {
namespace flight {

namespace {

const char* const kEventKindNames[kNumEventKinds] = {
    "phase-begin",    "phase-end",      "lock-acquire",  "lock-reject",
    "validate-fail",  "abort",          "commit-backup", "commit-primary",
    "abort-record",   "truncate",       "msg-send",      "msg-recv",
    "recovery",       "reconfig",
};

const char* const kPhaseNames[kNumPhases] = {
    "execute", "lock", "validate", "commit_backup", "commit_primary", "truncate",
};

const char* const kAbortReasonNames[kNumAbortReasons] = {
    "lock_conflict",        "validate_conflict",
    "no_placement",         "log_reservation",
    "recovery_abort",       "unresolved_lock",
    "unresolved_backup_ack", "unresolved_backup_failure",
    "unresolved_primary_ack",
};

const char* const kRecoveryStepNames[kNumRecoverySteps] = {
    "new-config",   "tx-state-start",    "lock-recovery",     "decide-commit",
    "decide-abort", "decision-apply",    "truncate-recovery",
};

// Renders `arg` the way FormatRecord does for `kind`: a symbolic name where
// the kind defines one, the raw number otherwise.
std::string ArgText(uint8_t kind, uint8_t arg) {
  EventKind k = static_cast<EventKind>(kind);
  int a = static_cast<int>(arg);
  switch (k) {
    case EventKind::kPhaseBegin:
    case EventKind::kPhaseEnd:
      if (a >= 0 && a < kNumPhases) {
        return kPhaseNames[a];
      }
      break;
    case EventKind::kAbort:
      if (a >= 1 && a <= kNumAbortReasons) {
        return kAbortReasonNames[a - 1];
      }
      break;
    case EventKind::kRecoveryStep:
      if (a >= 1 && a <= kNumRecoverySteps) {
        return kRecoveryStepNames[a - 1];
      }
      break;
    default:
      break;
  }
  return std::to_string(a);
}

// Inverse of ArgText: resolves a symbolic or numeric arg for `kind`.
bool ParseArg(uint8_t kind, const std::string& text, uint8_t* out) {
  EventKind k = static_cast<EventKind>(kind);
  if (k == EventKind::kPhaseBegin || k == EventKind::kPhaseEnd) {
    for (int i = 0; i < kNumPhases; i++) {
      if (text == kPhaseNames[i]) {
        *out = static_cast<uint8_t>(i);
        return true;
      }
    }
  } else if (k == EventKind::kAbort) {
    for (int i = 0; i < kNumAbortReasons; i++) {
      if (text == kAbortReasonNames[i]) {
        *out = static_cast<uint8_t>(i + 1);
        return true;
      }
    }
  } else if (k == EventKind::kRecoveryStep) {
    for (int i = 0; i < kNumRecoverySteps; i++) {
      if (text == kRecoveryStepNames[i]) {
        *out = static_cast<uint8_t>(i + 1);
        return true;
      }
    }
  }
  char* end = nullptr;
  unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || v > 255) {
    return false;
  }
  *out = static_cast<uint8_t>(v);
  return true;
}

std::string& GlobalDumpPath() {
  static std::string path;
  return path;
}

}  // namespace

const char* EventKindName(EventKind k) {
  int i = static_cast<int>(k);
  return (i >= 1 && i <= kNumEventKinds) ? kEventKindNames[i - 1] : "?";
}

const char* PhaseName(Phase p) {
  int i = static_cast<int>(p);
  return (i >= 0 && i < kNumPhases) ? kPhaseNames[i] : "?";
}

const char* AbortReasonName(AbortReason r) {
  int i = static_cast<int>(r);
  return (i >= 1 && i <= kNumAbortReasons) ? kAbortReasonNames[i - 1] : "?";
}

const char* RecoveryStepName(RecoveryStep s) {
  int i = static_cast<int>(s);
  return (i >= 1 && i <= kNumRecoverySteps) ? kRecoveryStepNames[i - 1] : "?";
}

const char* PointName(EventKind k, uint8_t arg) {
  // Interned qualified names for the kinds whose arg selects a sub-site.
  static const char* const kPhaseBeginPoints[kNumPhases] = {
      "phase-begin:execute",        "phase-begin:lock",
      "phase-begin:validate",       "phase-begin:commit_backup",
      "phase-begin:commit_primary", "phase-begin:truncate",
  };
  static const char* const kPhaseEndPoints[kNumPhases] = {
      "phase-end:execute",        "phase-end:lock",
      "phase-end:validate",       "phase-end:commit_backup",
      "phase-end:commit_primary", "phase-end:truncate",
  };
  static const char* const kRecoveryPoints[kNumRecoverySteps] = {
      "recovery:new-config",    "recovery:tx-state-start",
      "recovery:lock-recovery", "recovery:decide-commit",
      "recovery:decide-abort",  "recovery:decision-apply",
      "recovery:truncate-recovery",
  };
  int a = static_cast<int>(arg);
  switch (k) {
    case EventKind::kPhaseBegin:
      if (a >= 0 && a < kNumPhases) {
        return kPhaseBeginPoints[a];
      }
      break;
    case EventKind::kPhaseEnd:
      if (a >= 0 && a < kNumPhases) {
        return kPhaseEndPoints[a];
      }
      break;
    case EventKind::kRecoveryStep:
      if (a >= 1 && a <= kNumRecoverySteps) {
        return kRecoveryPoints[a - 1];
      }
      break;
    default:
      break;
  }
  return EventKindName(k);
}

Recorder::Recorder(uint32_t machine, size_t capacity)
    : machine_(machine), ring_(capacity > 0 ? capacity : 1) {}

void Recorder::Append(const Record& r) {
  ring_[appended_ % ring_.size()] = r;
  appended_++;
  if (fault::HookActive()) {
    // Every flight record is an injectable fault point. msg-send is the one
    // exception: the fabric hits it natively (before committing the message
    // to the wire) so the hook's drop effect can take hold.
    EventKind k = static_cast<EventKind>(r.kind);
    if (k != EventKind::kMsgSend) {
      fault::HitPoint(machine_, PointName(k, r.arg), r.detail);
    }
  }
}

std::vector<DrainedRecord> Recorder::Drain() const {
  std::vector<DrainedRecord> out;
  uint64_t retained = appended_ < ring_.size() ? appended_ : ring_.size();
  out.reserve(retained);
  for (uint64_t seq = appended_ - retained; seq < appended_; seq++) {
    DrainedRecord d;
    d.rec = ring_[seq % ring_.size()];
    d.seq = seq;
    d.machine = machine_;
    out.push_back(d);
  }
  return out;
}

std::string FormatRecord(const DrainedRecord& r) {
  char buf[160];
  std::string tx = "-";
  if (r.rec.flags & Record::kHasTx) {
    std::snprintf(buf, sizeof(buf), "%u,%u,%u,%" PRIu64,
                  r.rec.tx_config, static_cast<uint32_t>(r.rec.tx_machine),
                  static_cast<uint32_t>(r.rec.tx_thread), r.rec.tx_local);
    tx = buf;
  }
  std::snprintf(buf, sizeof(buf), "t=%" PRIu64 " m=%u seq=%" PRIu64 " %s %s tx=%s d=%u",
                r.rec.time_ns, r.machine, r.seq, EventKindName(static_cast<EventKind>(r.rec.kind)),
                ArgText(r.rec.kind, r.rec.arg).c_str(), tx.c_str(), r.rec.detail);
  return buf;
}

bool ParseRecordLine(const std::string& line, DrainedRecord* out) {
  // Tokenize on single spaces; the format is fixed-field.
  std::vector<std::string> f;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t sp = line.find(' ', pos);
    if (sp == std::string::npos) {
      sp = line.size();
    }
    if (sp > pos) {
      f.push_back(line.substr(pos, sp - pos));
    }
    pos = sp + 1;
  }
  if (f.size() != 7 || f[0].rfind("t=", 0) != 0 || f[1].rfind("m=", 0) != 0 ||
      f[2].rfind("seq=", 0) != 0 || f[5].rfind("tx=", 0) != 0 || f[6].rfind("d=", 0) != 0) {
    return false;
  }
  DrainedRecord d;
  char* end = nullptr;
  d.rec.time_ns = std::strtoull(f[0].c_str() + 2, &end, 10);
  if (*end != '\0') {
    return false;
  }
  d.machine = static_cast<uint32_t>(std::strtoul(f[1].c_str() + 2, &end, 10));
  if (*end != '\0') {
    return false;
  }
  d.seq = std::strtoull(f[2].c_str() + 4, &end, 10);
  if (*end != '\0') {
    return false;
  }
  int kind = 0;
  for (int i = 1; i <= kNumEventKinds; i++) {
    if (f[3] == kEventKindNames[i - 1]) {
      kind = i;
      break;
    }
  }
  if (kind == 0) {
    return false;
  }
  d.rec.kind = static_cast<uint8_t>(kind);
  if (!ParseArg(d.rec.kind, f[4], &d.rec.arg)) {
    return false;
  }
  std::string tx = f[5].substr(3);
  if (tx != "-") {
    unsigned long long c = 0, m = 0, t = 0, l = 0;
    if (std::sscanf(tx.c_str(), "%llu,%llu,%llu,%llu", &c, &m, &t, &l) != 4) {
      return false;
    }
    d.rec.tx_config = static_cast<uint32_t>(c);
    d.rec.tx_machine = static_cast<uint16_t>(m);
    d.rec.tx_thread = static_cast<uint16_t>(t);
    d.rec.tx_local = l;
    d.rec.flags |= Record::kHasTx;
  }
  d.rec.detail = static_cast<uint32_t>(std::strtoul(f[6].c_str() + 2, &end, 10));
  if (*end != '\0') {
    return false;
  }
  *out = d;
  return true;
}

std::string BuildPostmortem(const std::vector<const Recorder*>& rings) {
  std::vector<DrainedRecord> all;
  std::string out = "farm-flight-postmortem v1\n";
  out += "rings=" + std::to_string(rings.size()) + "\n";
  for (const Recorder* r : rings) {
    if (r == nullptr) {
      continue;
    }
    out += "ring m=" + std::to_string(r->machine()) +
           " appended=" + std::to_string(r->appended()) +
           " dropped=" + std::to_string(r->dropped()) + "\n";
    std::vector<DrainedRecord> drained = r->Drain();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  std::sort(all.begin(), all.end(), [](const DrainedRecord& a, const DrainedRecord& b) {
    if (a.rec.time_ns != b.rec.time_ns) {
      return a.rec.time_ns < b.rec.time_ns;
    }
    if (a.machine != b.machine) {
      return a.machine < b.machine;
    }
    return a.seq < b.seq;
  });
  out += "records=" + std::to_string(all.size()) + "\n";
  for (const DrainedRecord& d : all) {
    out += FormatRecord(d);
    out += "\n";
  }
  return out;
}

void SetDumpOnDestroy(const std::string& path) { GlobalDumpPath() = path; }

const std::string& DumpPath() { return GlobalDumpPath(); }

void AppendDump(const std::string& postmortem, const std::string& section) {
  const std::string& path = GlobalDumpPath();
  if (path.empty()) {
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  std::string header = "==== flight: " + section + " ====\n";
  std::fwrite(header.data(), 1, header.size(), f);
  std::fwrite(postmortem.data(), 1, postmortem.size(), f);
  std::fclose(f);
}

void PhaseMetrics::BindTo(metrics::Registry& reg) {
  for (int p = 0; p < kNumPhases; p++) {
    phase_ns[p] = reg.GetHistogram("tx_phase_ns", {{"phase", kPhaseNames[p]}});
  }
  for (int r = 0; r < kNumAbortReasons; r++) {
    abort_reason[r] = reg.GetCounter("tx_abort_reason", {{"reason", kAbortReasonNames[r]}});
  }
}

}  // namespace flight
}  // namespace farm
