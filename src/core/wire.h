// Wire formats: log record types (Table 1) and message types (Table 2).
//
// Log records travel inside ring-buffer transaction logs written with
// one-sided RDMA; messages travel in ring-buffer message queues. Both are
// flat byte sequences produced with BufWriter.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/common/serde.h"
#include "src/core/types.h"

namespace farm {

// Table 1.
enum class LogRecordType : uint8_t {
  kLock = 1,
  kCommitBackup = 2,
  kCommitPrimary = 3,
  kAbort = 4,
  kTruncate = 5,
};

// Table 2, plus configuration-management and allocation messages that the
// paper describes in prose (sections 3, 5.2, 5.4, 5.5).
enum class MsgType : uint8_t {
  // Transaction protocol.
  kLockReply = 1,
  kValidate = 2,
  kValidateReply = 3,
  // Transaction state recovery (section 5.3).
  kNeedRecovery = 10,
  kFetchTxState = 11,
  kSendTxState = 12,
  kReplicateTxState = 13,
  kReplicateTxStateAck = 14,
  kRecoveryVote = 15,
  kRequestVote = 16,
  kCommitRecovery = 17,
  kAbortRecovery = 18,
  kTruncateRecovery = 19,
  kRecoveryDecisionAck = 20,
  // Reconfiguration (section 5.2).
  kNewConfig = 30,
  kNewConfigAck = 31,
  kNewConfigCommit = 32,
  kRegionsActive = 33,
  kAllRegionsActive = 34,
  kReconfigRequest = 35,  // non-CM asks a backup CM to reconfigure
  kJoinRequest = 36,      // restarted machine asks the CM to re-admit it
  // Region allocation (section 3) and slab allocation (section 5.5).
  kRegionPrepare = 40,
  kRegionPrepareAck = 41,
  kRegionCommit = 42,
  kRegionCreate = 43,     // app -> CM: allocate a new region
  kRegionCreateReply = 44,
  kAllocRequest = 45,
  kAllocReply = 46,
  kAllocRelease = 47,
  kBlockHeader = 48,      // primary -> backups: replicate slab block header
  kRefRequest = 49,       // fetch a region's RDMA reference from its primary
  // Generic correlated reply envelope for request/response messages.
  kReply = 60,
  // Lease handshake over the message queues (the RPC lease variant).
  kLeaseMsg = 70,
};

// Recovery vote values (section 5.3, step 6).
enum class Vote : uint8_t {
  kCommitPrimary = 1,
  kCommitBackup = 2,
  kLock = 3,
  kAbort = 4,
  kTruncated = 5,
  kUnknown = 6,
};

const char* VoteName(Vote v);

// One buffered write carried by a LOCK / COMMIT-BACKUP record.
struct WireWrite {
  GlobalAddr addr;
  uint64_t expected_version = 0;  // version observed at read time
  bool expected_alloc = false;    // alloc bit observed at read time
  bool set_alloc = false;         // allocation: sets the alloc bit
  bool clear_alloc = false;       // free: clears the alloc bit
  std::vector<uint8_t> value;     // new object payload (empty for free)

  // The full header word this write expects to CAS-lock at the primary.
  uint64_t ExpectedWord() const {
    return (expected_version & ((1ULL << 62) - 1)) | (expected_alloc ? (1ULL << 62) : 0);
  }
  // The alloc bit after this write commits.
  bool AllocAfter() const { return set_alloc ? true : (clear_alloc ? false : expected_alloc); }
};

// The payload shared by LOCK and COMMIT-BACKUP records (and the tx-state
// recovery messages that carry lock-record contents).
struct TxLogRecord {
  LogRecordType type = LogRecordType::kLock;
  TxId tx;
  // IDs of all regions with objects written by the transaction.
  std::vector<RegionId> written_regions;
  // Writes for objects the destination is primary/backup for.
  std::vector<WireWrite> writes;
  // Piggybacked truncation: transactions whose log records the destination
  // may discard (Table 1's "low bound + IDs to truncate").
  std::vector<TxId> truncate_ids;

  std::vector<uint8_t> Serialize() const;
  static TxLogRecord Parse(BufReader& r);

  // Serialized size (used for log-space reservations before commit).
  size_t SerializedSize() const;
};

void PutTxId(BufWriter& w, const TxId& id);
TxId GetTxId(BufReader& r);
void PutAddr(BufWriter& w, const GlobalAddr& a);
GlobalAddr GetAddr(BufReader& r);

// Serialized size of a TxId (see PutTxId: u64 + u32 + u16 + u64).
constexpr uint32_t kTxIdWireBytes = 22;

// Bytes to reserve for truncation ids that may still be piggybacked onto a
// record that currently carries `used` of `max_slots` ids. Saturating: a
// record already carrying more than max_slots ids needs no extra slack.
constexpr size_t PiggybackSlack(size_t max_slots, size_t used) {
  return used >= max_slots ? 0 : (max_slots - used) * kTxIdWireBytes;
}

}  // namespace farm

#endif  // SRC_CORE_WIRE_H_
