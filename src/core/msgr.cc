#include "src/core/msgr.h"

#include <cstring>

#include "src/obs/flight_recorder.h"

namespace farm {

void MsgrStats::BindTo(metrics::Registry& reg, const std::string& node_label) {
  metrics::Labels labels = {{"node", node_label}};
  batch_flushes = reg.GetCounter("msgr_batch_flushes", labels);
  batch_records = reg.GetCounter("msgr_batch_records", labels);
  batch_msgs = reg.GetCounter("msgr_batch_msgs", labels);
  batch_bytes = reg.GetCounter("msgr_batch_bytes", labels);
  batch_rpcs = reg.GetCounter("msgr_batch_rpcs", labels);
  batch_size = reg.GetHistogram("msgr_batch_size", labels);
}

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
  // Batches pending toward the torn-down rings are discarded with them;
  // their reservations die with the replaced senders and their acks never
  // complete (same shape as in-flight fabric ops of a dead machine).
  a.batches_.erase(b.id());
  b.batches_.erase(a.id());
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
  if (options_.batch && dst != id()) {
    PendingBatch& b = BatchFor(dst, thread_idx);
    b.log_bytes += payload.size();
    b.logs.push_back(RingSender::BatchEntry{std::move(payload), reserved_len});
    Future<NetResult> ack;
    b.log_acks.push_back(ack);
    ScheduleFlush(dst);
    return ack;
  }
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
  if (options_.batch && dst != id()) {
    // Marshalling was charged above; the wire issue cost is paid at flush.
    PendingBatch& b = BatchFor(dst, thread_idx);
    b.msg_bytes += framed.size();
    b.msgs.push_back(std::move(framed));
    b.msg_reservations.push_back(len);
    ScheduleFlush(dst);
    return;
  }
  (void)it->second.msgq->Append(std::move(framed), len, thread);
}

Future<NetResult> Messenger::Call(MachineId dst, uint16_t service,
                                  std::vector<uint8_t> request, int thread_idx,
                                  SimDuration timeout) {
  if (!options_.batch || dst == id() || !ConnectedTo(dst)) {
    HwThread* thread = thread_idx >= 0 ? &machine_.thread(thread_idx) : nullptr;
    return fabric_.Call(id(), dst, service, std::move(request), thread, timeout);
  }
  uint64_t call_id = next_call_id_++;
  BufWriter w;
  w.PutU16(service);
  w.PutU64(call_id);
  w.PutBytes(request.data(), request.size());
  Future<NetResult> fut;
  calls_[call_id] = fut;
  stats_.batch_rpcs++;
  SendMessage(dst, MsgType::kRpcReq, w.Take(), thread_idx);
  Simulator& sim = fabric_.sim();
  // Guarded like the flush event: if this machine dies first, the timeout is
  // dropped along with the stranded call entry (cleared by Reset).
  sim.AtGuarded(sim.Now() + timeout, machine_.guard_word(), machine_.live_guard(),
                [this, call_id]() {
                  auto it = calls_.find(call_id);
                  if (it == calls_.end()) {
                    return;  // reply already arrived
                  }
                  Future<NetResult> f = it->second;
                  calls_.erase(it);
                  f.Set(NetResult{Status(StatusCode::kTimedOut, "rpc timeout"), {}});
                });
  return fut;
}

Messenger::PendingBatch& Messenger::BatchFor(MachineId dst, int thread_idx) {
  auto it = batches_.find(dst);
  if (it == batches_.end()) {
    it = batches_.emplace(dst, PendingBatch{}).first;
    it->second.gen = ++batch_gen_;
  }
  PendingBatch& b = it->second;
  if (b.flush_thread < 0 && thread_idx >= 0) {
    b.flush_thread = thread_idx;
  }
  return b;
}

void Messenger::ScheduleFlush(MachineId dst) {
  PendingBatch& b = batches_.at(dst);
  if (b.logs.size() + b.msgs.size() >= options_.batch_max_records ||
      b.log_bytes + b.msg_bytes >= options_.batch_max_bytes) {
    FlushBatch(dst, b.gen);  // early flush; a scheduled event finds gen gone
    return;
  }
  if (b.flush_scheduled) {
    return;
  }
  b.flush_scheduled = true;
  uint64_t gen = b.gen;
  Simulator& sim = fabric_.sim();
  // Guarded like HwThread::Run: a kill before the quantum elapses drops the
  // flush (the batch's bytes never reached the wire -- that is the point of
  // the batched chaos coverage).
  sim.AtGuarded(sim.Now() + options_.batch_flush_delay, machine_.guard_word(),
                machine_.live_guard(), [this, dst, gen]() { FlushBatch(dst, gen); });
}

void Messenger::FlushBatch(MachineId dst, uint64_t gen) {
  auto it = batches_.find(dst);
  if (it == batches_.end() || it->second.gen != gen) {
    return;  // already flushed early, or discarded by Reset/Reconnect
  }
  PendingBatch b = std::move(it->second);
  batches_.erase(it);
  auto out_it = outbound_.find(dst);
  if (out_it == outbound_.end()) {
    return;  // rings torn down with the batch still pending
  }
  Outbound& out = out_it->second;

  size_t nlogs = b.logs.size();
  size_t nmsgs = b.msgs.size();
  uint64_t payload_bytes = b.log_bytes + b.msg_bytes;
  stats_.batch_flushes++;
  stats_.batch_records += nlogs;
  stats_.batch_msgs += nmsgs;
  stats_.batch_bytes += payload_bytes;
  stats_.batch_size.Record(nlogs + nmsgs);
  if (flight_ != nullptr) {
    flight::Record r;
    r.time_ns = fabric_.sim().Now();
    r.kind = static_cast<uint8_t>(flight::EventKind::kBatchFlush);
    uint64_t n = nlogs + nmsgs;
    r.arg = static_cast<uint8_t>(n > 255 ? 255 : n);
    r.detail = dst;
    flight_->Append(r);
  }

  // Consecutive log frames coalesce into contiguous ring segments.
  std::vector<WriteSeg> segs;
  if (nlogs > 0) {
    segs = out.txlog->PrepareBatch(std::move(b.logs));
  }
  if (nmsgs > 0) {
    // Reservation accounting mirrors SendMessage: release the per-message
    // reservations, then reserve the one frame actually appended. For a
    // single message that is the original frame; for several it is the
    // kBatch envelope (whose doubled reservation the released ones cover
    // for all but tiny batches -- the queue absorbs those like any other
    // transient reservation spike).
    for (uint32_t r : b.msg_reservations) {
      out.msgq->ReleaseReservation(r);
    }
    std::vector<uint8_t> frame;
    if (nmsgs == 1) {
      frame = std::move(b.msgs[0]);
    } else {
      BufWriter w;
      w.PutU8(static_cast<uint8_t>(MsgType::kBatch));
      std::vector<uint8_t> body = EncodeBatchBody(b.msgs);
      w.Append(body.data(), body.size());
      frame = w.Take();
    }
    uint32_t env_len = static_cast<uint32_t>(frame.size());
    FARM_CHECK(out.msgq->Reserve(env_len)) << "message queue to " << dst << " overflow";
    std::vector<RingSender::BatchEntry> env;
    env.push_back(RingSender::BatchEntry{std::move(frame), env_len});
    std::vector<WriteSeg> msegs = out.msgq->PrepareBatch(std::move(env));
    segs.insert(segs.end(), std::make_move_iterator(msegs.begin()),
                std::make_move_iterator(msegs.end()));
  }
  FARM_CHECK(!segs.empty());

  // One doorbell for everything queued to this destination, across both
  // rings; delivery pokes each ring that contributed.
  std::function<void()> on_delivered;
  if (nlogs > 0 && nmsgs > 0) {
    on_delivered = [log_poke = out.txlog->poke(), msg_poke = out.msgq->poke()]() {
      log_poke();
      msg_poke();
    };
  } else if (nlogs > 0) {
    on_delivered = out.txlog->poke();
  } else {
    on_delivered = out.msgq->poke();
  }
  HwThread* thread = b.flush_thread >= 0 ? &machine_.thread(b.flush_thread)
                                         : &machine_.thread(WorkerFor(dst));
  Future<NetResult> wire =
      fabric_.WriteBatch(id(), dst, std::move(segs), thread, std::move(on_delivered));
  if (!b.log_acks.empty()) {
    // The single hardware ack completes every record's future.
    wire.OnReady([acks = std::move(b.log_acks)](NetResult& r) {
      for (const Future<NetResult>& ack : acks) {
        ack.Set(NetResult{r.status, {}});
      }
    });
  }
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
      BufReader r(payload);
      MsgType type = static_cast<MsgType>(r.GetU8());
      if (type == MsgType::kBatch) {
        // Coalesced envelope: unpack and dispatch each sub-message in send
        // order. The envelope's poll charge above covers the first; each
        // additional sub-message pays its own dispatch cost.
        std::vector<std::vector<uint8_t>> subs = DecodeBatchBody(r);
        in.msgq->MarkFreeable(seq);
        bool first = true;
        for (std::vector<uint8_t>& sub : subs) {
          if (!first) {
            worker.InjectBusy(cost.cpu_log_poll);
          }
          first = false;
          BufReader sr(sub);
          MsgType sub_type = static_cast<MsgType>(sr.GetU8());
          std::vector<uint8_t> body(sub.begin() + 1, sub.end());
          DispatchMessage(from, sub_type, std::move(body));
        }
        return;
      }
      std::vector<uint8_t> body(payload.begin() + 1, payload.end());
      in.msgq->MarkFreeable(seq);
      DispatchMessage(from, type, std::move(body));
    });
    MaybeSendFeedback(from);
  }
}

void Messenger::DispatchMessage(MachineId from, MsgType type, std::vector<uint8_t> body) {
  if (type == MsgType::kRpcReq) {
    BufReader r(body);
    uint16_t service = r.GetU16();
    uint64_t call_id = r.GetU64();
    std::vector<uint8_t> request = r.GetBytes();
    auto reply = [this, from, call_id](std::vector<uint8_t> resp) {
      if (!ConnectedTo(from)) {
        return;  // rings torn down while the handler ran; the caller times out
      }
      BufWriter w;
      w.PutU64(call_id);
      w.PutU8(0);
      w.PutBytes(resp.data(), resp.size());
      SendMessage(from, MsgType::kRpcResp, w.Take(), -1);
    };
    if (!fabric_.InvokeRpcService(id(), service, from, request, std::move(reply)) &&
        ConnectedTo(from)) {
      // No registered service: error reply so the caller fails fast instead
      // of burning its timeout (parity with the fabric's kNotFound).
      BufWriter w;
      w.PutU64(call_id);
      w.PutU8(1);
      w.PutU32(0);
      SendMessage(from, MsgType::kRpcResp, w.Take(), -1);
    }
    return;
  }
  if (type == MsgType::kRpcResp) {
    BufReader r(body);
    uint64_t call_id = r.GetU64();
    uint8_t code = r.GetU8();
    std::vector<uint8_t> resp = r.GetBytes();
    auto it = calls_.find(call_id);
    if (it == calls_.end()) {
      return;  // already timed out; drop the late reply
    }
    Future<NetResult> fut = it->second;
    calls_.erase(it);
    fut.Set(NetResult{code == 0 ? OkStatus() : NotFoundStatus("no such rpc service"),
                      std::move(resp)});
    return;
  }
  if (msg_handler_) {
    msg_handler_(from, type, std::move(body));
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
