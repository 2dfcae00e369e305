#include "src/core/tx.h"

#include <algorithm>

#include "src/core/cluster.h"
#include "src/core/flight_hooks.h"
#include "src/core/node.h"
#include "src/obs/trace.h"

namespace farm {

namespace {

constexpr size_t kMaxPiggyback = 8;

// Span id for async tx spans; only pay for the string when tracing is on.
std::string TxTraceId(const TxId& id) {
  return FARM_TRACE_ACTIVE() ? id.ToString() : std::string();
}

// Reservation size for small records (COMMIT-PRIMARY / ABORT) with room for
// piggybacked truncation ids.
uint32_t SmallRecordReservation() {
  TxLogRecord rec;
  rec.truncate_ids.resize(kMaxPiggyback);
  return static_cast<uint32_t>(rec.SerializedSize());
}

}  // namespace

Transaction::Transaction(Node* node, int thread)
    : node_(node),
      thread_(thread),
      begin_config_(node->config().id),
      begin_time_(node->sim().Now()) {}

Transaction::~Transaction() {
  *alive_ = false;
  if (registered_) {
    node_->UnregisterInflight(id_);
  }
  if (!committed_) {
    // An abandoned or aborted transaction returns its reserved slots.
    ReleaseAllocs();
  }
}

// ---------------------------------------------------------------------------
// Execution phase
// ---------------------------------------------------------------------------

Task<StatusOr<std::vector<uint8_t>>> Transaction::Read(GlobalAddr addr, uint32_t size) {
  FARM_CHECK(!commit_started_) << "Read after Commit";
  // Read-your-writes.
  auto wit = writes_.find(addr);
  if (wit != writes_.end() && !wit->second.value.empty()) {
    co_return wit->second.value;
  }
  // Successive reads of the same object return the same data (section 3).
  auto rit = reads_.find(addr);
  if (rit != reads_.end()) {
    co_return rit->second.value;
  }

  const SimTime read_start = FARM_TRACE_ACTIVE() ? node_->sim().Now() : 0;
  auto ref = co_await node_->ResolveRef(addr.region, thread_);
  if (!ref.ok()) {
    co_return ref.status();
  }
  uint64_t word = 0;
  std::vector<uint8_t> value;
  if (ref->primary == node_->id()) {
    RegionReplica* rep = node_->replica(addr.region);
    if (rep == nullptr) {
      co_return NotFoundStatus("region moved");
    }
    co_await node_->worker(thread_).Execute(node_->fabric().cost().cpu_tx_read_local);
    word = rep->ReadHeader(addr.offset);
    const uint8_t* p = rep->Ptr(addr.offset + kObjectHeaderBytes, size);
    value.assign(p, p + size);
  } else {
    if (!node_->InConfig(ref->primary)) {
      co_return UnavailableStatus("primary not in configuration");
    }
    NetResult r = co_await node_->fabric().Read(node_->id(), ref->primary,
                                                ref->base + addr.offset,
                                                kObjectHeaderBytes + size,
                                                &node_->worker(thread_));
    if (!r.status.ok()) {
      co_return r.status;
    }
    std::memcpy(&word, r.data.data(), 8);
    value.assign(r.data.begin() + 8, r.data.end());
  }
  // A locked object may be mid-commit by another transaction; we record the
  // unlocked view of the header. If the writer commits, the version moves
  // and our validation/locking aborts; if it aborts, the header reverts to
  // exactly this word.
  ReadEntry entry;
  entry.word = VersionWord::WithoutLock(word);
  entry.value = value;
  entry.read_from = ref->primary;
  reads_[addr] = std::move(entry);
  FARM_TRACE(CompleteSpan(static_cast<uint32_t>(node_->id()), static_cast<uint32_t>(thread_),
                          "tx", "read", read_start));
  co_return value;
}

Status Transaction::Write(GlobalAddr addr, std::vector<uint8_t> value) {
  FARM_CHECK(!commit_started_) << "Write after Commit";
  auto wit = writes_.find(addr);
  if (wit != writes_.end()) {
    if (wit->second.clear_alloc) {
      return Status(StatusCode::kFailedPrecondition, "write to freed object");
    }
    wit->second.value = std::move(value);
    return OkStatus();
  }
  auto rit = reads_.find(addr);
  if (rit == reads_.end()) {
    return Status(StatusCode::kFailedPrecondition,
                  "write requires a prior read (or allocation) of the object");
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(rit->second.word);
  e.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  e.value = std::move(value);
  writes_[addr] = std::move(e);
  return OkStatus();
}

Task<StatusOr<GlobalAddr>> Transaction::Alloc(RegionId region, uint32_t payload_size) {
  FARM_CHECK(!commit_started_) << "Alloc after Commit";
  auto slot = co_await node_->AllocSlot(region, payload_size, thread_);
  if (!slot.ok()) {
    co_return slot.status();
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(slot->header_word);
  e.expected_alloc = false;
  e.set_alloc = true;
  writes_[slot->addr] = std::move(e);
  allocs_.push_back(slot->addr);
  co_return slot->addr;
}

Status Transaction::Free(GlobalAddr addr) {
  FARM_CHECK(!commit_started_) << "Free after Commit";
  auto rit = reads_.find(addr);
  if (rit == reads_.end()) {
    return Status(StatusCode::kFailedPrecondition, "free requires a prior read");
  }
  WriteEntry e;
  e.expected_version = VersionWord::Version(rit->second.word);
  e.expected_alloc = VersionWord::IsAllocated(rit->second.word);
  e.clear_alloc = true;
  writes_[addr] = std::move(e);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Commit protocol
// ---------------------------------------------------------------------------

void Transaction::WakePhase() {
  if (phase_armed_ && !phase_wake_.Ready()) {
    phase_wake_.Set(Unit{});
  }
}

Task<bool> Transaction::AwaitPhase() {
  phase_armed_ = true;
  auto woke = co_await AwaitWithTimeout(node_->sim(), phase_wake_,
                                        node_->options().commit_resolution_timeout);
  phase_armed_ = false;
  phase_wake_ = Future<Unit>();  // fresh future for the next phase
  co_return woke.has_value();
}

void Transaction::OnLockReply(MachineId from, bool ok) {
  (void)from;
  if (lock_replies_pending_ <= 0) {
    return;  // stale (e.g. duplicate after recovery)
  }
  lock_all_ok_ = lock_all_ok_ && ok;
  if (--lock_replies_pending_ == 0) {
    WakePhase();
  }
}

void Transaction::OnValidateReply(MachineId from, bool ok) {
  (void)from;
  if (validate_msgs_pending_ <= 0) {
    return;
  }
  validate_all_ok_ = validate_all_ok_ && ok;
  if (--validate_msgs_pending_ == 0) {
    WakePhase();
  }
}

void Transaction::ResolveByRecovery(bool committed) {
  if (recovery_resolution_.has_value()) {
    return;
  }
  recovery_resolution_ = committed;
  WakePhase();
}

StatusOr<Transaction::Participants> Transaction::BuildParticipants() const {
  Participants p;
  const Configuration& cfg = node_->config();
  std::set<RegionId> regions;
  std::set<MachineId> holders;
  for (const auto& [addr, w] : writes_) {
    const RegionPlacement* placement = cfg.Placement(addr.region);
    if (placement == nullptr) {
      return NotFoundStatus("written region has no placement");
    }
    regions.insert(addr.region);
    WireWrite ww;
    ww.addr = addr;
    ww.expected_version = w.expected_version;
    ww.expected_alloc = w.expected_alloc;
    ww.set_alloc = w.set_alloc;
    ww.clear_alloc = w.clear_alloc;
    ww.value = w.value;
    p.primary_writes[placement->primary].push_back(ww);
    holders.insert(placement->primary);
    for (MachineId b : placement->backups) {
      p.backup_writes[b].push_back(ww);
      holders.insert(b);
    }
  }
  p.written_regions.assign(regions.begin(), regions.end());
  p.all_holders.assign(holders.begin(), holders.end());
  return p;
}

TxLogRecord Transaction::MakeRecord(LogRecordType type, MachineId dst,
                                    const std::vector<WireWrite>* writes,
                                    const std::vector<RegionId>& regions) const {
  TxLogRecord rec;
  rec.type = type;
  rec.tx = id_;
  rec.written_regions = regions;
  if (writes != nullptr) {
    rec.writes = *writes;
  }
  rec.truncate_ids = node_->TakeTruncationsFor(dst, kMaxPiggyback);
  return rec;
}

bool Transaction::ReserveLogs(const Participants& p) {
  // Reserve space for every record the commit may write -- LOCK +
  // COMMIT-PRIMARY/ABORT at primaries, COMMIT-BACKUP at backups, plus
  // truncation piggyback room -- before the protocol starts (section 4).
  struct Taken {
    MachineId m;
    uint32_t len;
  };
  std::vector<Taken> taken;
  auto reserve = [&](MachineId m, uint32_t len) {
    if (!node_->messenger().ReserveLog(m, len)) {
      return false;
    }
    taken.push_back({m, len});
    return true;
  };
  uint32_t small = SmallRecordReservation();
  bool ok = true;
  for (const auto& [m, writes] : p.primary_writes) {
    TxLogRecord probe;
    probe.tx = id_;
    probe.written_regions = p.written_regions;
    probe.writes = writes;
    probe.truncate_ids.resize(kMaxPiggyback);
    ok = ok && reserve(m, static_cast<uint32_t>(probe.SerializedSize()));  // LOCK
    ok = ok && reserve(m, small);                                          // CP / ABORT
    ok = ok && reserve(m, small);                                          // TRUNCATE
    if (!ok) {
      break;
    }
  }
  if (ok) {
    for (const auto& [m, writes] : p.backup_writes) {
      TxLogRecord probe;
      probe.tx = id_;
      probe.written_regions = p.written_regions;
      probe.writes = writes;
      probe.truncate_ids.resize(kMaxPiggyback);
      ok = ok && reserve(m, static_cast<uint32_t>(probe.SerializedSize()));  // CB
      ok = ok && reserve(m, small);                                          // TRUNCATE
      if (!ok) {
        break;
      }
    }
  }
  if (!ok) {
    for (const Taken& t : taken) {
      node_->messenger().ReleaseLogReservation(t.m, t.len);
    }
    return false;
  }
  return true;
}

Task<Status> Transaction::Commit() {
  FARM_CHECK(!commit_started_) << "Commit called twice";
  commit_started_ = true;
  const NodeOptions& opts = node_->options();
  CostModel& cost = node_->fabric().cost();

  // Read-only transactions: validation only, no logging (section 4:
  // serialization point is the last read).
  id_ = node_->NextTxId(thread_);
  node_->RegisterInflight(this);
  registered_ = true;

  // The execute phase ran from Begin() to here; the id only exists now, so
  // its begin record is stamped retroactively (the postmortem merge sorts by
  // time, not append order).
  flight::Recorder* ring = node_->flight();
  flight::PhaseMetrics& pm = node_->phase_metrics();
  FlightLogTx(ring, begin_time_, flight::EventKind::kPhaseBegin, id_,
              static_cast<uint8_t>(flight::Phase::kExecute));
  FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
              static_cast<uint8_t>(flight::Phase::kExecute));
  pm.RecordPhase(flight::Phase::kExecute, node_->sim().Now() - begin_time_);

  const uint32_t trace_pid = static_cast<uint32_t>(node_->id());
  const uint32_t trace_tid = static_cast<uint32_t>(thread_);
  trace::SpanGuard commit_span(trace_pid, trace_tid, "tx", "commit", TxTraceId(id_));

  co_await node_->worker(thread_).Execute(cost.cpu_tx_commit_setup);

  if (writes_.empty()) {
    const SimTime validate_start = node_->sim().Now();
    FlightLogTx(ring, validate_start, flight::EventKind::kPhaseBegin, id_,
                static_cast<uint8_t>(flight::Phase::kValidate));
    Status v = co_await ValidatePhase();
    if (recovery_resolution_.has_value()) {
      // A reconfiguration changed a read region's primary mid-validation;
      // recovery decided the outcome (always abort for read-only: there is
      // no log record to attest to the validation).
      co_return FinishFromRecovery();
    }
    node_->UnregisterInflight(id_);
    registered_ = false;
    if (v.ok()) {
      pm.RecordPhase(flight::Phase::kValidate, node_->sim().Now() - validate_start);
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
                  static_cast<uint8_t>(flight::Phase::kValidate));
      committed_ = true;
      node_->mutable_stats().tx_committed++;
    } else {
      node_->mutable_stats().tx_aborted_validate++;
      pm.CountAbort(flight::AbortReason::kValidateConflict);
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                  static_cast<uint8_t>(flight::AbortReason::kValidateConflict));
    }
    co_return v;
  }

  auto participants = BuildParticipants();
  if (!participants.ok()) {
    node_->UnregisterInflight(id_);
    registered_ = false;
    ReleaseAllocs();
    node_->mutable_stats().tx_aborted_lock++;
    pm.CountAbort(flight::AbortReason::kNoPlacement);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                static_cast<uint8_t>(flight::AbortReason::kNoPlacement));
    co_return participants.status();
  }
  Participants& p = *participants;

  if (!ReserveLogs(p)) {
    node_->UnregisterInflight(id_);
    registered_ = false;
    ReleaseAllocs();
    node_->mutable_stats().tx_aborted_lock++;
    pm.CountAbort(flight::AbortReason::kLogReservation);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                static_cast<uint8_t>(flight::AbortReason::kLogReservation));
    co_return Status(StatusCode::kResourceExhausted, "log reservation failed");
  }

  // ---- Phase 1: LOCK ----
  {
    trace::SpanGuard lock_span(trace_pid, trace_tid, "tx", "lock", TxTraceId(id_));
    const SimTime lock_start = node_->sim().Now();
    FlightLogTx(ring, lock_start, flight::EventKind::kPhaseBegin, id_,
                static_cast<uint8_t>(flight::Phase::kLock));
    lock_replies_pending_ = static_cast<int>(p.primary_writes.size());
    lock_all_ok_ = true;
    for (const auto& [m, writes] : p.primary_writes) {
      TxLogRecord rec = MakeRecord(LogRecordType::kLock, m, &writes, p.written_regions);
      uint32_t reserved = static_cast<uint32_t>(
          rec.SerializedSize() + PiggybackSlack(kMaxPiggyback, rec.truncate_ids.size()));
      (void)node_->messenger().AppendLog(m, rec, reserved, thread_);
    }
    // NSDI'14-protocol ablation: LOCK records also go to backups (and are
    // simply stored); the optimized protocol eliminates them.
    if (opts.backup_lock_records) {
      for (const auto& [m, writes] : p.backup_writes) {
        TxLogRecord rec = MakeRecord(LogRecordType::kLock, m, &writes, p.written_regions);
        uint32_t len = static_cast<uint32_t>(rec.SerializedSize());
        if (node_->messenger().ReserveLog(m, len)) {
          (void)node_->messenger().AppendLog(m, rec, len, thread_);
        }
      }
    }

    bool woke = co_await AwaitPhase();
    if (recovery_resolution_.has_value()) {
      co_return FinishFromRecovery();
    }
    if (!woke) {
      node_->mutable_stats().tx_unresolved++;
      node_->UnregisterInflight(id_);
      registered_ = false;
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                  static_cast<uint8_t>(flight::AbortReason::kUnresolvedLock));
      co_return UnavailableStatus("commit unresolved: lock phase");
    }
    if (!lock_all_ok_) {
      AbortParticipants(p);
      ReleaseAllocs();
      node_->UnregisterInflight(id_);
      registered_ = false;
      node_->mutable_stats().tx_aborted_lock++;
      pm.CountAbort(flight::AbortReason::kLockConflict);
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                  static_cast<uint8_t>(flight::AbortReason::kLockConflict));
      co_return AbortedStatus("lock conflict");
    }
    pm.RecordPhase(flight::Phase::kLock, node_->sim().Now() - lock_start);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
                static_cast<uint8_t>(flight::Phase::kLock));
  }

  // ---- Phase 2: VALIDATE (one-sided reads; RPC above threshold t_r) ----
  {
    trace::SpanGuard validate_span(trace_pid, trace_tid, "tx", "validate", TxTraceId(id_));
    const SimTime validate_start = node_->sim().Now();
    FlightLogTx(ring, validate_start, flight::EventKind::kPhaseBegin, id_,
                static_cast<uint8_t>(flight::Phase::kValidate));
    Status v = co_await ValidatePhase();
    if (recovery_resolution_.has_value()) {
      co_return FinishFromRecovery();
    }
    if (!v.ok()) {
      AbortParticipants(p);
      ReleaseAllocs();
      node_->UnregisterInflight(id_);
      registered_ = false;
      node_->mutable_stats().tx_aborted_validate++;
      pm.CountAbort(flight::AbortReason::kValidateConflict);
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                  static_cast<uint8_t>(flight::AbortReason::kValidateConflict));
      co_return v;
    }
    pm.RecordPhase(flight::Phase::kValidate, node_->sim().Now() - validate_start);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
                static_cast<uint8_t>(flight::Phase::kValidate));
  }

  // ---- Phase 3: COMMIT-BACKUP (one-sided writes; wait for NIC acks) ----
  {
    trace::SpanGuard cb_span(trace_pid, trace_tid, "tx", "commit-backup", TxTraceId(id_));
    const SimTime cb_start = node_->sim().Now();
    FlightLogTx(ring, cb_start, flight::EventKind::kPhaseBegin, id_,
                static_cast<uint8_t>(flight::Phase::kCommitBackup));
    WaitGroup wg;
    auto all_ok = std::make_shared<bool>(true);
    for (const auto& [m, writes] : p.backup_writes) {
      TxLogRecord rec = MakeRecord(LogRecordType::kCommitBackup, m, &writes,
                                   p.written_regions);
      uint32_t reserved = static_cast<uint32_t>(
          rec.SerializedSize() + PiggybackSlack(kMaxPiggyback, rec.truncate_ids.size()));
      wg.Add();
      auto alive = alive_;
      node_->messenger()
          .AppendLog(m, rec, reserved, thread_)
          .OnReady([wg, all_ok, alive, this](NetResult& r) {
            if (!r.status.ok()) {
              *all_ok = false;
            }
            wg.Done();
            // Under the skip-backup-ack ablation nobody waits on this phase;
            // waking would spuriously rouse the COMMIT-PRIMARY await.
            if (*alive && wg.pending() == 0 && !node_->options().chaos_skip_backup_ack) {
              WakePhase();
            }
          });
    }
    // Chaos-only ablation: race ahead to COMMIT-PRIMARY without waiting for
    // the backup hardware acks. This is the protocol bug the chaos oracle
    // must catch (see NodeOptions::chaos_skip_backup_ack).
    if (wg.pending() > 0 && !node_->options().chaos_skip_backup_ack) {
      bool woke2 = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      if (!woke2) {
        node_->mutable_stats().tx_unresolved++;
        node_->UnregisterInflight(id_);
        registered_ = false;
        FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                    static_cast<uint8_t>(flight::AbortReason::kUnresolvedBackupAck));
        co_return UnavailableStatus("commit unresolved: backup acks");
      }
    }
    // Serializability across failures requires ALL backup acks before any
    // COMMIT-PRIMARY is written (section 4, correctness). A missing ack
    // means a failure: wait for recovery to decide the outcome.
    if (!node_->options().chaos_skip_backup_ack && (!*all_ok || marked_recovering_)) {
      bool resolved = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      (void)resolved;
      node_->mutable_stats().tx_unresolved++;
      node_->UnregisterInflight(id_);
      registered_ = false;
      FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                  static_cast<uint8_t>(flight::AbortReason::kUnresolvedBackupFailure));
      co_return UnavailableStatus("commit unresolved: backup failure");
    }
    pm.RecordPhase(flight::Phase::kCommitBackup, node_->sim().Now() - cb_start);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
                static_cast<uint8_t>(flight::Phase::kCommitBackup));
  }

  // ---- Phase 4: COMMIT-PRIMARY (report committed on the first ack) ----
  {
    trace::SpanGuard cp_span(trace_pid, trace_tid, "tx", "commit-primary", TxTraceId(id_));
    const SimTime cp_start = node_->sim().Now();
    FlightLogTx(ring, cp_start, flight::EventKind::kPhaseBegin, id_,
                static_cast<uint8_t>(flight::Phase::kCommitPrimary));
    struct CpState {
      int pending = 0;
      bool any_ok = false;
      Node* node = nullptr;
      TxId id;
      std::vector<MachineId> holders;
      // Truncate-slot reservations were taken per role (a machine can be
      // both a primary and a backup); releases must mirror that exactly.
      std::vector<MachineId> reserved_slots;
    };
    auto cp = std::make_shared<CpState>();
    cp->pending = static_cast<int>(p.primary_writes.size());
    cp->node = node_;
    cp->id = id_;
    cp->holders = p.all_holders;
    for (const auto& [m, writes] : p.primary_writes) {
      (void)writes;
      cp->reserved_slots.push_back(m);
    }
    for (const auto& [m, writes] : p.backup_writes) {
      (void)writes;
      cp->reserved_slots.push_back(m);
    }
    for (const auto& [m, writes] : p.primary_writes) {
      (void)writes;
      // COMMIT-PRIMARY carries only the transaction id (Table 1).
      TxLogRecord rec = MakeRecord(LogRecordType::kCommitPrimary, m, nullptr, {});
      uint32_t reserved = static_cast<uint32_t>(
          rec.SerializedSize() + PiggybackSlack(kMaxPiggyback, rec.truncate_ids.size()));
      auto alive = alive_;
      node_->messenger()
          .AppendLog(m, rec, reserved, thread_)
          .OnReady([cp, alive, this](NetResult& r) {
            cp->pending--;
            // Hardware acks are rejected once the transaction is recovering.
            bool recovering = *alive && marked_recovering_;
            if (r.status.ok() && !cp->any_ok && !recovering) {
              cp->any_ok = true;
              if (*alive) {
                WakePhase();  // first hardware ack: report committed
              }
            }
            if (cp->pending == 0 && cp->any_ok && !recovering) {
              // All primaries acked: the coordinator may lazily truncate.
              // The per-role TRUNCATE reservations are handed back; the
              // flush path re-reserves when it actually writes records.
              uint32_t small_len = SmallRecordReservation();
              for (MachineId h : cp->reserved_slots) {
                cp->node->messenger().ReleaseLogReservation(h, small_len);
              }
              cp->node->QueueTruncation(cp->id, cp->holders);
            }
          });
    }
    if (!cp->any_ok) {
      bool woke3 = co_await AwaitPhase();
      if (recovery_resolution_.has_value()) {
        co_return FinishFromRecovery();
      }
      if (!woke3 || !cp->any_ok) {
        node_->mutable_stats().tx_unresolved++;
        node_->UnregisterInflight(id_);
        registered_ = false;
        FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kAbort, id_,
                    static_cast<uint8_t>(flight::AbortReason::kUnresolvedPrimaryAck));
        co_return UnavailableStatus("commit unresolved: primary acks");
      }
    }
    pm.RecordPhase(flight::Phase::kCommitPrimary, node_->sim().Now() - cp_start);
    FlightLogTx(ring, node_->sim().Now(), flight::EventKind::kPhaseEnd, id_,
                static_cast<uint8_t>(flight::Phase::kCommitPrimary));
  }

  committed_ = true;
  node_->mutable_stats().tx_committed++;
  node_->UnregisterInflight(id_);
  registered_ = false;
  co_return OkStatus();
}

Status Transaction::FinishFromRecovery() {
  LogTxScope log_tx(id_.config, id_.machine, id_.thread, id_.local);
  bool committed = *recovery_resolution_;
  committed_ = committed;
  if (registered_) {
    node_->UnregisterInflight(id_);
    registered_ = false;
  }
  if (committed) {
    node_->mutable_stats().tx_committed++;
    node_->mutable_stats().tx_recovered_commit++;
    return OkStatus();
  }
  node_->mutable_stats().tx_recovered_abort++;
  node_->phase_metrics().CountAbort(flight::AbortReason::kRecoveryAbort);
  FlightLogTx(node_->flight(), node_->sim().Now(), flight::EventKind::kAbort, id_,
              static_cast<uint8_t>(flight::AbortReason::kRecoveryAbort));
  ReleaseAllocs();
  return AbortedStatus("aborted by recovery");
}

Task<Status> Transaction::ValidatePhase() {
  // Group read-only objects by primary.
  std::map<MachineId, std::vector<std::pair<GlobalAddr, uint64_t>>> by_primary;
  for (const auto& [addr, entry] : reads_) {
    if (writes_.count(addr) != 0) {
      continue;  // locking covers written objects
    }
    const RegionPlacement* placement = node_->config().Placement(addr.region);
    if (placement == nullptr) {
      co_return UnavailableStatus("read region lost");
    }
    by_primary[placement->primary].push_back({addr, entry.word});
  }
  if (by_primary.empty()) {
    co_return OkStatus();
  }

  validate_all_ok_ = true;
  validate_msgs_pending_ = 0;
  WaitGroup rdma_wg;
  auto rdma_ok = std::make_shared<bool>(true);

  for (auto& [m, entries] : by_primary) {
    if (static_cast<int>(entries.size()) <= node_->options().validate_rpc_threshold) {
      // One-sided RDMA reads of the header words: no CPU at the primary.
      for (auto& [addr, word] : entries) {
        if (m == node_->id()) {
          RegionReplica* rep = node_->replica(addr.region);
          if (rep == nullptr || rep->ReadHeader(addr.offset) != word) {
            *rdma_ok = false;
          }
          continue;
        }
        auto ref = co_await node_->ResolveRef(addr.region, thread_);
        if (!ref.ok()) {
          co_return ref.status();
        }
        rdma_wg.Add();
        uint64_t expected_word = word;
        auto alive = alive_;
        node_->fabric()
            .Read(node_->id(), m, ref->base + addr.offset, 8, &node_->worker(thread_))
            .OnReady([rdma_wg, rdma_ok, expected_word, alive, this](NetResult& r) {
              if (!r.status.ok() || r.data.size() != 8) {
                *rdma_ok = false;
              } else {
                uint64_t current;
                std::memcpy(&current, r.data.data(), 8);
                if (current != expected_word) {
                  *rdma_ok = false;
                }
              }
              rdma_wg.Done();
              if (*alive && rdma_wg.pending() == 0) {
                WakePhase();
              }
            });
      }
    } else {
      // Validation over RPC (the VALIDATE message) above t_r objects.
      BufWriter w;
      PutTxId(w, id_);
      w.PutU32(static_cast<uint32_t>(entries.size()));
      for (auto& [addr, word] : entries) {
        PutAddr(w, addr);
        w.PutU64(word);
      }
      validate_msgs_pending_++;
      node_->messenger().SendMessage(m, MsgType::kValidate, w.Take(), thread_);
    }
  }

  while (rdma_wg.pending() > 0 || validate_msgs_pending_ > 0) {
    bool woke = co_await AwaitPhase();
    if (recovery_resolution_.has_value()) {
      co_return OkStatus();  // outcome handled by the caller
    }
    if (!woke) {
      co_return UnavailableStatus("validation unresolved");
    }
  }
  if (!*rdma_ok || !validate_all_ok_) {
    co_return AbortedStatus("validation conflict");
  }
  co_return OkStatus();
}

void Transaction::AbortParticipants(const Participants& p) {
  LogTxScope log_tx(id_.config, id_.machine, id_.thread, id_.local);
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    TxLogRecord rec = MakeRecord(LogRecordType::kAbort, m, nullptr, {});
    uint32_t reserved = static_cast<uint32_t>(
        rec.SerializedSize() + PiggybackSlack(kMaxPiggyback, rec.truncate_ids.size()));
    (void)node_->messenger().AppendLog(m, rec, reserved, thread_);
  }
  uint32_t small_len = SmallRecordReservation();
  // Backups never saw a record for this transaction; release their
  // COMMIT-BACKUP and TRUNCATE reservations.
  for (const auto& [m, writes] : p.backup_writes) {
    TxLogRecord probe;
    probe.tx = id_;
    probe.written_regions = p.written_regions;
    probe.writes = writes;
    probe.truncate_ids.resize(kMaxPiggyback);
    node_->messenger().ReleaseLogReservation(m, static_cast<uint32_t>(probe.SerializedSize()));
    node_->messenger().ReleaseLogReservation(m, small_len);
  }
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    node_->messenger().ReleaseLogReservation(m, small_len);  // TRUNCATE slot
  }
  // The aborted transaction's LOCK/ABORT records still get truncated.
  std::vector<MachineId> primaries;
  primaries.reserve(p.primary_writes.size());
  for (const auto& [m, writes] : p.primary_writes) {
    (void)writes;
    primaries.push_back(m);
  }
  node_->QueueTruncation(id_, primaries);
}

void Transaction::ReleaseAllocs() {
  for (const GlobalAddr& addr : allocs_) {
    node_->ReleaseAllocSlot(addr, thread_);
  }
  allocs_.clear();
}

}  // namespace farm
