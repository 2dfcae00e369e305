// Per-node communication endpoint: the transaction log and message queue
// rings to/from every peer (section 3).
//
// Sending a log record is a one-sided RDMA write acked by the receiver's
// NIC; the returned future IS the hardware ack. Record processing happens
// later on a receiver worker thread (the poll loop), which is why backups do
// no foreground work during commit. Messages use the same rings but are
// freed as soon as they are handled; log records persist until truncated.
#ifndef SRC_CORE_MSGR_H_
#define SRC_CORE_MSGR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/core/ringlog.h"
#include "src/core/wire.h"
#include "src/net/fabric.h"
#include "src/nvram/nvram.h"

namespace farm {

class Messenger {
 public:
  struct Options {
    uint32_t txlog_capacity = 1 << 20;
    uint32_t msgq_capacity = 1 << 19;
    int worker_threads = 4;  // inbound processing runs on threads [0, n)
  };

  // seq identifies the stored record for TruncateLogRecord.
  using LogRecordHandler =
      std::function<void(MachineId from, uint64_t seq, const TxLogRecord& rec)>;
  // `frame` is the message exactly as drained from the ring: [u8 type][body].
  using MessageHandler = std::function<void(MachineId from, std::vector<uint8_t> frame)>;

  Messenger(Fabric& fabric, Machine& machine, NvramStore& store, Options options);

  void SetHandlers(LogRecordHandler log_handler, MessageHandler msg_handler);

  // Creates the ring pair between two nodes (both directions). Self-rings
  // (a == b) give the local fast path when the coordinator is itself a
  // participant.
  static void Connect(Messenger& a, Messenger& b);
  // Tears down any existing ring pair between the two nodes (both
  // directions) and wires a fresh one. Used when a machine rejoins with
  // empty state: the old rings' NVRAM space is abandoned (never recycled),
  // which mirrors a replacement process registering new queue pairs.
  static void Reconnect(Messenger& a, Messenger& b);
  // Drops all rings (a cold process restart forgetting its queue pairs).
  void Reset() {
    inbound_.clear();
    outbound_.clear();
  }
  bool ConnectedTo(MachineId peer) const { return outbound_.count(peer) != 0; }

  MachineId id() const { return machine_.id(); }
  Machine& machine() { return machine_; }

  // ---- transaction log ----
  bool ReserveLog(MachineId dst, uint32_t payload_len);
  void ReleaseLogReservation(MachineId dst, uint32_t payload_len);
  // Consumes a reservation of `reserved_len` bytes (>= the record's
  // serialized size). Future completes on the hardware ack.
  Future<NetResult> AppendLog(MachineId dst, const TxLogRecord& rec, uint32_t reserved_len,
                              int thread_idx);
  // Marks a stored inbound record truncated (space becomes reusable).
  void TruncateLogRecord(MachineId from, uint64_t seq);

  // ---- messages ----
  void SendMessage(MachineId dst, MsgType type, std::vector<uint8_t> payload, int thread_idx);

  // ---- recovery support ----
  // Synchronously processes everything already in the inbound rings
  // (section 5.3 step 2, "drain logs"). CPU cost is charged as one lump on
  // thread 0 by the caller's recovery logic.
  void DrainAllNow();
  // Iterates stored (surfaced, non-truncated) inbound log records.
  void ForEachStoredLog(
      const std::function<void(MachineId from, uint64_t seq, const TxLogRecord&)>& fn) const;
  // Looks up one stored record (nullptr if truncated/unknown).
  const TxLogRecord* GetStoredLog(MachineId from, uint64_t seq) const;

  // Power-failure restart: drops all volatile ring state and re-parses the
  // NVRAM rings from their persisted heads. Non-truncated records surface
  // again through the normal handlers (which are idempotent).
  void RebuildFromNvram();

  // Total log payload bytes appended (stats).
  uint64_t log_bytes_sent() const { return log_bytes_sent_; }
  // Debug: outbound tx-log space (free bytes, reserved bytes).
  std::pair<uint64_t, uint64_t> LogSpace(MachineId dst) const {
    auto it = outbound_.find(dst);
    if (it == outbound_.end()) {
      return {0, 0};
    }
    return {it->second.txlog->FreeBytes(), it->second.txlog->reserved()};
  }

 private:
  struct Inbound {
    std::unique_ptr<RingReceiver> txlog;
    std::unique_ptr<RingReceiver> msgq;
    // Feedback words in the *peer's* NVRAM where we post freed heads; on a
    // same-machine ring they are ours, and local_* point at them.
    uint64_t peer_txlog_feedback = 0;
    uint64_t peer_msgq_feedback = 0;
    uint8_t* local_txlog_feedback = nullptr;
    uint8_t* local_msgq_feedback = nullptr;
    uint64_t reported_txlog_freed = 0;
    uint64_t reported_msgq_freed = 0;
    bool txlog_poll_scheduled = false;
    bool msgq_poll_scheduled = false;
    std::map<uint64_t, TxLogRecord> stored;  // surfaced log records by seq
  };

  struct Outbound {
    std::unique_ptr<RingSender> txlog;
    std::unique_ptr<RingSender> msgq;
  };

  void SchedulePoll(MachineId from, bool is_log);
  void ProcessInbound(MachineId from, bool is_log);
  void MaybeSendFeedback(MachineId from);
  int WorkerFor(MachineId from) const {
    return static_cast<int>(from % static_cast<MachineId>(options_.worker_threads));
  }

  Fabric& fabric_;
  Machine& machine_;
  NvramStore& store_;
  Options options_;
  LogRecordHandler log_handler_;
  MessageHandler msg_handler_;
  std::map<MachineId, Inbound> inbound_;
  std::map<MachineId, Outbound> outbound_;
  uint64_t log_bytes_sent_ = 0;
};

}  // namespace farm

#endif  // SRC_CORE_MSGR_H_
