#include "src/chaos/faultpoint.h"

#include <sstream>

namespace farm {
namespace chaos {

namespace {

struct ActionNameRow {
  FaultAction action;
  const char* name;
};

constexpr ActionNameRow kActionNames[] = {
    {FaultAction::kKill, "kill"},
    {FaultAction::kPartition, "partition"},
    {FaultAction::kDropMsg, "drop-msg"},
    {FaultAction::kTornWrite, "torn-write"},
    {FaultAction::kLeaseExpiry, "lease-expiry"},
    {FaultAction::kAnchor, "anchor"},
};

}  // namespace

const char* FaultActionName(FaultAction a) {
  for (const auto& row : kActionNames) {
    if (row.action == a) {
      return row.name;
    }
  }
  return "unknown";
}

bool FaultActionFromName(const std::string& name, FaultAction* out) {
  for (const auto& row : kActionNames) {
    if (name == row.name) {
      *out = row.action;
      return true;
    }
  }
  return false;
}

bool ActionApplicable(FaultAction action, const std::string& point) {
  switch (action) {
    case FaultAction::kDropMsg:
      return point == "msg-send";
    case FaultAction::kTornWrite:
      return point == "ringlog-append";
    case FaultAction::kLeaseExpiry:
      return point == "lease-send";
    case FaultAction::kKill:
    case FaultAction::kPartition:
    case FaultAction::kAnchor:
      return true;
  }
  return false;
}

FaultInjector::FaultInjector(std::vector<FaultTrigger> triggers, Callbacks cb,
                             uint64_t arm_at)
    : triggers_(std::move(triggers)), cb_(std::move(cb)), arm_at_(arm_at) {}

uint32_t FaultInjector::OnPoint(uint32_t machine, const char* point, uint64_t arg) {
  uint64_t now = cb_.now();
  if (now < arm_at_) {
    return fault::kEffectNone;
  }
  point_hits_[point]++;
  if (next_ >= triggers_.size()) {
    return fault::kEffectNone;
  }
  const FaultTrigger& t = triggers_[next_];
  if (t.point != point ||
      (t.machine >= 0 && machine != static_cast<uint32_t>(t.machine))) {
    return fault::kEffectNone;
  }
  if (++counted_ < t.hit) {
    return fault::kEffectNone;
  }
  next_++;
  counted_ = 0;
  firings_.push_back(Firing{next_ - 1, now, machine});
  if (cb_.note) {
    std::ostringstream line;
    line << "inject " << FaultActionName(t.action) << " at " << t.point << " hit "
         << t.hit << " -> m" << machine;
    cb_.note(line.str());
  }
  switch (t.action) {
    case FaultAction::kAnchor:
      return fault::kEffectNone;
    case FaultAction::kKill:
      cb_.kill(machine);
      return fault::kEffectNone;
    case FaultAction::kPartition:
      cb_.partition(machine, t.param);
      return fault::kEffectNone;
    case FaultAction::kDropMsg:
      return fault::kEffectDropMessage;
    case FaultAction::kTornWrite:
      // The tear models a crash mid-DMA: the writer dies at the same
      // instant, and recovery must cope with its half-written frame.
      cb_.kill(machine);
      return fault::kEffectTornWrite;
    case FaultAction::kLeaseExpiry:
      cb_.lease_expiry(machine, static_cast<uint32_t>(arg));
      return fault::kEffectNone;
  }
  return fault::kEffectNone;
}

}  // namespace chaos
}  // namespace farm
