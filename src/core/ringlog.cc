#include "src/core/ringlog.h"

#include <cstring>

#include "src/common/hash.h"
#include "src/obs/fault_hook.h"

namespace farm {

uint32_t FrameCheck(const uint8_t* payload, uint32_t len) {
  return static_cast<uint32_t>(HashCombine(Fnv1a(payload, len), len)) | 1u;
}

RingReceiver::RingReceiver(NvramStore* store, uint32_t capacity)
    : cap_(capacity) {
  FARM_CHECK(capacity % 8 == 0 && capacity >= 64);
  base_ = store->Allocate(8 + capacity, &mem_);  // [u64 persisted head][data]
}

uint8_t* RingReceiver::At(uint64_t abs, uint32_t len) {
  uint64_t off = abs % cap_;
  FARM_CHECK(off + len <= cap_) << "frame straddles ring end";
  return data() + off;
}

uint32_t RingReceiver::PeekLen(uint64_t abs) {
  uint32_t len;
  std::memcpy(&len, At(abs, 4), 4);
  return len;
}

int RingReceiver::Drain(
    const std::function<void(uint64_t seq, std::vector<uint8_t> payload)>& fn) {
  int surfaced = 0;
  for (;;) {
    uint64_t off = parse_ % cap_;
    uint32_t contiguous = cap_ - static_cast<uint32_t>(off);
    if (contiguous < kFrameHeaderBytes) {
      // Degenerate tail; senders never leave <8 bytes (frames are 8-aligned).
      parse_ += contiguous;
      continue;
    }
    uint32_t len = PeekLen(parse_);
    if (len == 0) {
      break;  // nothing (yet) at the parse position
    }
    if (len == kWrapMarker) {
      frames_.push_back(Frame{parse_, contiguous, true, true, 0});
      parse_ += contiguous;
      AdvanceHead();
      continue;
    }
    uint32_t framed = FramedLen(len);
    if (len > cap_ || framed > contiguous) {
      // Implausible length: a torn header. The single writer appends frames
      // in order, so this can only be the tail of the log -- stop here.
      NoteTorn();
      break;
    }
    const uint8_t* f = At(parse_, framed);
    uint32_t check;
    std::memcpy(&check, f + 4, 4);
    if (check != FrameCheck(f + kFrameHeaderBytes, len)) {
      NoteTorn();  // torn payload (or checksum word): stop at the tear
      break;
    }
    std::vector<uint8_t> payload(len);
    std::memcpy(payload.data(), f + kFrameHeaderBytes, len);
    uint64_t seq = next_seq_++;
    frames_.push_back(Frame{parse_, framed, false, false, seq});
    parse_ += framed;
    surfaced++;
    fn(seq, std::move(payload));
  }
  return surfaced;
}

void RingReceiver::MarkFreeable(uint64_t seq) {
  for (Frame& f : frames_) {
    if (!f.is_marker && f.seq == seq) {
      f.freeable = true;
      break;
    }
  }
  AdvanceHead();
}

void RingReceiver::AdvanceHead() {
  bool moved = false;
  while (!frames_.empty() && frames_.front().freeable) {
    Frame f = frames_.front();
    frames_.pop_front();
    // Zero the freed range so a future wrap parses cleanly.
    std::memset(At(f.pos, f.framed_len), 0, f.framed_len);
    head_ += f.framed_len;
    bytes_freed_total_ += f.framed_len;
    moved = true;
  }
  if (moved) {
    // Persist the head so power-failure recovery knows where to re-parse.
    std::memcpy(mem_, &head_, 8);
  }
}

void RingReceiver::NoteTorn() {
  // Count each tear once even though every Drain poll re-observes it
  // (positions are absolute, so this also dedupes across RebuildFromNvram).
  if (torn_at_ != parse_ + 1) {
    torn_frames_++;
    torn_at_ = parse_ + 1;
  }
}

void RingReceiver::RebuildFromNvram() {
  frames_.clear();
  std::memcpy(&head_, mem_, 8);
  parse_ = head_;
  next_seq_ = 0;
}

RingSender::RingSender(Fabric* fabric, MachineId self, MachineId peer, uint64_t ring_data_base,
                       uint32_t capacity, const uint8_t* feedback, NvramStore* self_store,
                       RingReceiver* local_receiver, std::function<void()> poke_receiver)
    : fabric_(fabric),
      self_(self),
      peer_(peer),
      data_base_(ring_data_base),
      cap_(capacity),
      feedback_(feedback),
      self_store_(self_store),
      local_receiver_(local_receiver),
      poke_receiver_(std::move(poke_receiver)) {}

uint64_t RingSender::HeadView() const {
  uint64_t head;
  std::memcpy(&head, feedback_, 8);
  return head;
}

uint64_t RingSender::FreeBytes() const {
  uint64_t used = tail_ - HeadView();
  FARM_CHECK(used <= cap_);
  return cap_ - used;
}

bool RingSender::Reserve(uint32_t payload_len) {
  // Doubled to cover worst-case wrap-marker waste.
  uint64_t need = 2ULL * FramedLen(payload_len);
  if (FreeBytes() < reserved_ + need) {
    return false;
  }
  reserved_ += need;
  return true;
}

void RingSender::ReleaseReservation(uint32_t payload_len) {
  uint64_t give = 2ULL * FramedLen(payload_len);
  FARM_CHECK(reserved_ >= give);
  reserved_ -= give;
}

Future<NetResult> RingSender::Append(std::vector<uint8_t> payload, uint32_t reserved_len,
                                     HwThread* thread) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  FARM_CHECK(len <= reserved_len) << "record larger than its reservation";
  uint32_t framed = FramedLen(len);
  uint32_t effect = fault::HitPoint(self_, "ringlog-append", peer_);
  ReleaseReservation(reserved_len);
  FARM_CHECK(tail_ - HeadView() + framed <= cap_) << "ring overflow despite reservation";

  uint32_t off = static_cast<uint32_t>(tail_ % cap_);
  uint32_t contiguous = cap_ - off;
  if (framed > contiguous) {
    // Emit a wrap marker and continue at the ring start.
    std::vector<uint8_t> marker(4);
    uint32_t m = kWrapMarker;
    std::memcpy(marker.data(), &m, 4);
    if (local_receiver_ != nullptr) {
      std::memcpy(local_receiver_->data() + off, marker.data(), 4);
    } else {
      // Fire-and-forget; the record write below orders after it in the ring.
      (void)fabric_->Write(self_, peer_, data_base_ + off, std::move(marker), nullptr);
    }
    tail_ += contiguous;
    off = 0;
    FARM_CHECK(tail_ - HeadView() + framed <= cap_) << "ring overflow after wrap";
  }

  std::vector<uint8_t> frame(framed, 0);
  std::memcpy(frame.data(), &len, 4);
  uint32_t check = FrameCheck(payload.data(), len);
  std::memcpy(frame.data() + 4, &check, 4);
  std::memcpy(frame.data() + kFrameHeaderBytes, payload.data(), payload.size());
  tail_ += framed;

  // Torn write: only the first half of the frame reaches NVRAM (at least
  // the length word, never the whole frame), so the receiver sees a header
  // with a bad checksum -- exactly what a crash mid-DMA leaves behind.
  uint32_t torn_keep = framed / 2;

  if (local_receiver_ != nullptr) {
    // Local log write: a plain store into our own NVRAM, but routed through
    // RdmaWrite so an armed tear applies to it too.
    if (effect & fault::kEffectTornWrite) {
      self_store_->ArmTornWrite(torn_keep);
    }
    FARM_CHECK(self_store_->RdmaWrite(data_base_ + off, frame.data(), framed));
    poke_receiver_();
    Future<NetResult> done;
    done.Set(NetResult{OkStatus(), {}});
    return done;
  }
  if (effect & fault::kEffectTornWrite) {
    frame.resize(torn_keep);
  }
  return fabric_->Write(self_, peer_, data_base_ + off, std::move(frame), thread,
                        poke_receiver_);
}

}  // namespace farm
