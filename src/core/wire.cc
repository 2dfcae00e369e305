#include "src/core/wire.h"

#include "src/common/logging.h"

namespace farm {

const char* VoteName(Vote v) {
  switch (v) {
    case Vote::kCommitPrimary:
      return "commit-primary";
    case Vote::kCommitBackup:
      return "commit-backup";
    case Vote::kLock:
      return "lock";
    case Vote::kAbort:
      return "abort";
    case Vote::kTruncated:
      return "truncated";
    case Vote::kUnknown:
      return "unknown";
  }
  return "?";
}

void PutTxId(BufWriter& w, const TxId& id) {
  w.PutU64(id.config);
  w.PutU32(id.machine);
  w.PutU16(id.thread);
  w.PutU64(id.local);
}

TxId GetTxId(BufReader& r) {
  TxId id;
  id.config = r.GetU64();
  id.machine = r.GetU32();
  id.thread = r.GetU16();
  id.local = r.GetU64();
  return id;
}

void PutAddr(BufWriter& w, const GlobalAddr& a) { w.PutU64(a.Packed()); }

GlobalAddr GetAddr(BufReader& r) { return GlobalAddr::FromPacked(r.GetU64()); }

std::vector<uint8_t> TxLogRecord::Serialize() const {
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  PutTxId(w, tx);
  w.PutU32(static_cast<uint32_t>(written_regions.size()));
  for (RegionId rid : written_regions) {
    w.PutU32(rid);
  }
  w.PutU32(static_cast<uint32_t>(writes.size()));
  for (const WireWrite& ww : writes) {
    PutAddr(w, ww.addr);
    w.PutU64(ww.expected_version);
    w.PutU8(static_cast<uint8_t>((ww.set_alloc ? 1 : 0) | (ww.clear_alloc ? 2 : 0) |
                                 (ww.expected_alloc ? 4 : 0)));
    w.PutBytes(ww.value.data(), ww.value.size());
  }
  w.PutU32(static_cast<uint32_t>(truncate_ids.size()));
  for (const TxId& id : truncate_ids) {
    PutTxId(w, id);
  }
  return w.Take();
}

TxLogRecord TxLogRecord::Parse(BufReader& r) {
  TxLogRecord rec;
  rec.type = static_cast<LogRecordType>(r.GetU8());
  rec.tx = GetTxId(r);
  uint32_t nregions = r.GetU32();
  rec.written_regions.reserve(nregions);
  for (uint32_t i = 0; i < nregions; i++) {
    rec.written_regions.push_back(r.GetU32());
  }
  uint32_t nwrites = r.GetU32();
  rec.writes.reserve(nwrites);
  for (uint32_t i = 0; i < nwrites; i++) {
    WireWrite ww;
    ww.addr = GetAddr(r);
    ww.expected_version = r.GetU64();
    uint8_t flags = r.GetU8();
    ww.set_alloc = (flags & 1) != 0;
    ww.clear_alloc = (flags & 2) != 0;
    ww.expected_alloc = (flags & 4) != 0;
    ww.value = r.GetBytes();
    rec.writes.push_back(std::move(ww));
  }
  uint32_t ntrunc = r.GetU32();
  rec.truncate_ids.reserve(ntrunc);
  for (uint32_t i = 0; i < ntrunc; i++) {
    rec.truncate_ids.push_back(GetTxId(r));
  }
  return rec;
}

size_t TxLogRecord::SerializedSize() const {
  size_t n = 1 + kTxIdWireBytes + 4 + written_regions.size() * 4 + 4 + 4 +
             truncate_ids.size() * kTxIdWireBytes;
  for (const WireWrite& ww : writes) {
    n += 8 + 8 + 1 + 4 + ww.value.size();
  }
#ifndef NDEBUG
  // Log-space reservations depend on this formula tracking Serialize()
  // exactly; a drift bug would silently over- or under-reserve.
  FARM_CHECK(n == Serialize().size());
#endif
  return n;
}

}  // namespace farm
