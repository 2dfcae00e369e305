#include "src/core/msgr.h"

#include <cstring>

namespace farm {

Messenger::Messenger(Fabric& fabric, Machine& machine, NvramStore& store, Options options)
    : fabric_(fabric), machine_(machine), store_(store), options_(options) {
  FARM_CHECK(options_.worker_threads >= 1 &&
             options_.worker_threads <= machine_.NumThreads());
}

void Messenger::SetHandlers(LogRecordHandler log_handler, MessageHandler msg_handler) {
  log_handler_ = std::move(log_handler);
  msg_handler_ = std::move(msg_handler);
}

void Messenger::Connect(Messenger& a, Messenger& b) {
  auto wire = [](Messenger& rx, Messenger& tx) {
    // rx hosts the inbound rings for tx; tx gets senders pointing at them.
    FARM_CHECK(rx.inbound_.count(tx.id()) == 0) << "already connected";
    Inbound in;
    in.txlog = std::make_unique<RingReceiver>(&rx.store_, rx.options_.txlog_capacity);
    in.msgq = std::make_unique<RingReceiver>(&rx.store_, rx.options_.msgq_capacity);
    // Feedback words live in the sender's NVRAM.
    uint8_t* fb_log = nullptr;
    uint8_t* fb_msg = nullptr;
    in.peer_txlog_feedback = tx.store_.Allocate(8, &fb_log);
    in.peer_msgq_feedback = tx.store_.Allocate(8, &fb_msg);

    bool local = &rx == &tx;
    in.local_txlog_feedback = local ? fb_log : nullptr;
    in.local_msgq_feedback = local ? fb_msg : nullptr;
    MachineId rx_id = rx.id();
    Messenger* rxp = &rx;
    Outbound out;
    MachineId tx_id = tx.id();
    out.txlog = std::make_unique<RingSender>(
        &tx.fabric_, tx_id, rx_id, in.txlog->data_base(), rx.options_.txlog_capacity, fb_log,
        &tx.store_, local ? in.txlog.get() : nullptr,
        [rxp, tx_id]() { rxp->SchedulePoll(tx_id, /*is_log=*/true); });
    out.msgq = std::make_unique<RingSender>(
        &tx.fabric_, tx_id, rx_id, in.msgq->data_base(), rx.options_.msgq_capacity, fb_msg,
        &tx.store_, local ? in.msgq.get() : nullptr,
        [rxp, tx_id]() { rxp->SchedulePoll(tx_id, /*is_log=*/false); });

    rx.inbound_[tx_id] = std::move(in);
    tx.outbound_[rx_id] = std::move(out);
  };
  wire(a, b);
  if (&a != &b) {
    wire(b, a);
  }
}

void Messenger::Reconnect(Messenger& a, Messenger& b) {
  a.inbound_.erase(b.id());
  a.outbound_.erase(b.id());
  b.inbound_.erase(a.id());
  b.outbound_.erase(a.id());
  Connect(a, b);
}

bool Messenger::ReserveLog(MachineId dst, uint32_t payload_len) {
  auto it = outbound_.find(dst);
  FARM_CHECK(it != outbound_.end()) << "no ring to machine " << dst;
  return it->second.txlog->Reserve(payload_len);
}

void Messenger::ReleaseLogReservation(MachineId dst, uint32_t payload_len) {
  outbound_.at(dst).txlog->ReleaseReservation(payload_len);
}

Future<NetResult> Messenger::AppendLog(MachineId dst, const TxLogRecord& rec,
                                       uint32_t reserved_len, int thread_idx) {
  std::vector<uint8_t> payload = rec.Serialize();
  log_bytes_sent_ += payload.size();
  HwThread* thread = thread_idx >= 0 ? &machine_.thread(thread_idx) : nullptr;
  return outbound_.at(dst).txlog->Append(std::move(payload), reserved_len, thread);
}

void Messenger::TruncateLogRecord(MachineId from, uint64_t seq) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  it->second.stored.erase(seq);
  it->second.txlog->MarkFreeable(seq);
  MaybeSendFeedback(from);
}

void Messenger::SendMessage(MachineId dst, MsgType type, std::vector<uint8_t> payload,
                            int thread_idx) {
  auto it = outbound_.find(dst);
  FARM_CHECK(it != outbound_.end()) << "no ring to machine " << dst;
  BufWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  w.Append(payload.data(), payload.size());
  std::vector<uint8_t> framed = w.Take();
  uint32_t len = static_cast<uint32_t>(framed.size());
  // Messages are short-lived; if the queue is momentarily full the sender
  // spins on the reservation (receivers free messages as they process).
  FARM_CHECK(it->second.msgq->Reserve(len)) << "message queue to " << dst << " overflow";
  HwThread* thread = nullptr;
  if (thread_idx >= 0) {
    thread = &machine_.thread(thread_idx);
  } else {
    // Replies sent from handler context: charge the send cost to the worker
    // that routes traffic for this peer (the handler's thread).
    machine_.thread(WorkerFor(dst)).InjectBusy(fabric_.cost().cpu_rpc_issue / 2);
  }
  (void)it->second.msgq->Append(std::move(framed), len, thread);
}

void Messenger::SchedulePoll(MachineId from, bool is_log) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  bool& flag = is_log ? in.txlog_poll_scheduled : in.msgq_poll_scheduled;
  if (flag) {
    return;
  }
  flag = true;
  // The poll loop runs on a worker thread chosen by sender id; the cost of
  // noticing + dispatching records is charged per record in ProcessInbound.
  machine_.thread(WorkerFor(from)).Run(0, [this, from, is_log]() {
    ProcessInbound(from, is_log);
  });
}

void Messenger::ProcessInbound(MachineId from, bool is_log) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  HwThread& worker = machine_.thread(WorkerFor(from));
  CostModel& cost = fabric_.cost();
  if (is_log) {
    in.txlog_poll_scheduled = false;
    in.txlog->Drain([&](uint64_t seq, std::vector<uint8_t> payload) {
      worker.InjectBusy(cost.cpu_log_poll + cost.CpuBytes(payload.size()));
      BufReader r(payload);
      auto stored = in.stored.insert_or_assign(seq, TxLogRecord::Parse(r)).first;
      if (log_handler_) {
        log_handler_(from, seq, stored->second);
      }
    });
  } else {
    in.msgq_poll_scheduled = false;
    in.msgq->Drain([&](uint64_t seq, std::vector<uint8_t> payload) {
      worker.InjectBusy(cost.cpu_log_poll + cost.CpuBytes(payload.size()));
      in.msgq->MarkFreeable(seq);
      if (msg_handler_) {
        msg_handler_(from, std::move(payload));
      }
    });
    MaybeSendFeedback(from);
  }
}

void Messenger::MaybeSendFeedback(MachineId from) {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return;
  }
  Inbound& in = it->second;
  auto post = [&](RingReceiver& rx, uint64_t& reported, uint64_t peer_addr, uint8_t* local) {
    if (rx.bytes_freed_total() - reported < rx.capacity() / 8) {
      return;
    }
    reported = rx.bytes_freed_total();
    uint64_t head = rx.head();
    std::vector<uint8_t> bytes(8);
    std::memcpy(bytes.data(), &head, 8);
    if (local != nullptr) {
      std::memcpy(local, bytes.data(), 8);
    } else {
      (void)fabric_.Write(id(), from, peer_addr, std::move(bytes), nullptr);
    }
  };
  post(*in.txlog, in.reported_txlog_freed, in.peer_txlog_feedback, in.local_txlog_feedback);
  post(*in.msgq, in.reported_msgq_freed, in.peer_msgq_feedback, in.local_msgq_feedback);
}

void Messenger::RebuildFromNvram() {
  for (auto& [from, in] : inbound_) {
    (void)from;
    in.stored.clear();
    in.txlog_poll_scheduled = false;
    in.msgq_poll_scheduled = false;
    in.txlog->RebuildFromNvram();
    in.msgq->RebuildFromNvram();
  }
}

void Messenger::DrainAllNow() {
  for (auto& [from, in] : inbound_) {
    (void)in;
    ProcessInbound(from, /*is_log=*/true);
    ProcessInbound(from, /*is_log=*/false);
  }
}

const TxLogRecord* Messenger::GetStoredLog(MachineId from, uint64_t seq) const {
  auto it = inbound_.find(from);
  if (it == inbound_.end()) {
    return nullptr;
  }
  auto rit = it->second.stored.find(seq);
  return rit == it->second.stored.end() ? nullptr : &rit->second;
}

void Messenger::ForEachStoredLog(
    const std::function<void(MachineId from, uint64_t seq, const TxLogRecord&)>& fn) const {
  for (const auto& [from, in] : inbound_) {
    for (const auto& [seq, rec] : in.stored) {
      fn(from, seq, rec);
    }
  }
}

}  // namespace farm
