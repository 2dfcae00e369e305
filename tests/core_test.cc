// Cluster-level tests for the FaRM core: region creation, the transaction
// protocol (normal case), lock-free reads, allocation, and concurrency
// control semantics.
#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace farm {
namespace {

std::vector<uint8_t> U64Bytes(uint64_t v) {
  std::vector<uint8_t> b(8);
  std::memcpy(b.data(), &v, 8);
  return b;
}

uint64_t BytesU64(const std::vector<uint8_t>& b) {
  uint64_t v = 0;
  std::memcpy(&v, b.data(), std::min<size_t>(8, b.size()));
  return v;
}

class CoreTest : public ::testing::Test {
 protected:
  void Boot(int machines = 4, uint64_t seed = 1) {
    cluster_ = MakeStartedCluster(SmallClusterOptions(machines, seed));
  }

  // Writes a u64 value at addr via a transaction from `node`.
  Task<Status> WriteValue(MachineId node, GlobalAddr addr, uint64_t value) {
    auto tx = cluster_->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    Status ws = tx->Write(addr, U64Bytes(value));
    if (!ws.ok()) {
      co_return ws;
    }
    co_return co_await tx->Commit();
  }

  Task<StatusOr<uint64_t>> ReadValue(MachineId node, GlobalAddr addr) {
    auto tx = cluster_->node(node).Begin(0);
    auto r = co_await tx->Read(addr, 8);
    if (!r.ok()) {
      co_return r.status();
    }
    Status s = co_await tx->Commit();
    if (!s.ok()) {
      co_return s;
    }
    co_return BytesU64(*r);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(CoreTest, CreateRegionPlacesReplicas) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 16);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->backups.size(), 2u);  // f+1 = 3 replicas
  // All replicas installed their region memory.
  for (MachineId m : p->Replicas()) {
    EXPECT_NE(cluster_->node(m).replica(rid), nullptr) << "machine " << m;
  }
  // Every node learned the mapping.
  for (int m = 0; m < cluster_->num_machines(); m++) {
    EXPECT_NE(cluster_->node(static_cast<MachineId>(m)).config().Placement(rid), nullptr);
  }
}

TEST_F(CoreTest, RegionsBalanceAcrossMachines) {
  Boot(6);
  std::map<MachineId, int> load;
  for (int i = 0; i < 6; i++) {
    RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
    const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
    ASSERT_NE(p, nullptr);
    for (MachineId m : p->Replicas()) {
      load[m]++;
    }
  }
  // 6 regions x 3 replicas over 6 machines: 3 each.
  for (const auto& [m, n] : load) {
    EXPECT_EQ(n, 3) << "machine " << m;
  }
}

TEST_F(CoreTest, WriteThenReadBack) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};

  auto ws = RunTask(*cluster_, WriteValue(0, addr, 1234));
  ASSERT_TRUE(ws.has_value());
  EXPECT_TRUE(ws->ok()) << ws->ToString();

  auto rv = RunTask(*cluster_, ReadValue(0, addr));
  ASSERT_TRUE(rv.has_value());
  ASSERT_TRUE(rv->ok());
  EXPECT_EQ(rv->value(), 1234u);
}

TEST_F(CoreTest, RemoteCoordinatorReadsAndWrites) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 32};
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  // Pick a coordinator that is NOT a replica of the region.
  MachineId coord = kInvalidMachine;
  for (int m = 0; m < cluster_->num_machines(); m++) {
    if (!p->Contains(static_cast<MachineId>(m))) {
      coord = static_cast<MachineId>(m);
      break;
    }
  }
  ASSERT_NE(coord, kInvalidMachine);

  auto ws = RunTask(*cluster_, WriteValue(coord, addr, 777));
  ASSERT_TRUE(ws.has_value());
  EXPECT_TRUE(ws->ok()) << ws->ToString();
  // Readable from yet another machine.
  auto rv = RunTask(*cluster_, ReadValue((coord + 1) % 4, addr));
  ASSERT_TRUE(rv.has_value() && rv->ok());
  EXPECT_EQ(rv->value(), 777u);
}

TEST_F(CoreTest, CommitAdvancesVersionAndReplicatesToBackups) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};
  auto ws = RunTask(*cluster_, WriteValue(0, addr, 5));
  ASSERT_TRUE(ws.has_value() && ws->ok());
  ws = RunTask(*cluster_, WriteValue(0, addr, 6));
  ASSERT_TRUE(ws.has_value() && ws->ok());
  // Give truncation (which applies backup updates) time to run.
  cluster_->RunFor(20 * kMillisecond);

  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  RegionReplica* prim = cluster_->node(p->primary).replica(rid);
  ASSERT_NE(prim, nullptr);
  EXPECT_EQ(VersionWord::Version(prim->ReadHeader(0)), 2u);
  for (MachineId b : p->backups) {
    RegionReplica* rep = cluster_->node(b).replica(rid);
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(VersionWord::Version(rep->ReadHeader(0)), 2u) << "backup " << b;
    uint64_t v = 0;
    std::memcpy(&v, rep->Ptr(8, 8), 8);
    EXPECT_EQ(v, 6u) << "backup " << b;
  }
}

TEST_F(CoreTest, WriteWithoutReadRejected) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  auto tx = cluster_->node(0).Begin(0);
  Status s = tx->Write(GlobalAddr{rid, 0}, U64Bytes(1));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST_F(CoreTest, WriteConflictAborts) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr addr{rid, 0};

  // Two transactions read the same version, both write: one must abort.
  auto race = [](Cluster* c, GlobalAddr a) -> Task<std::pair<int, int>> {
    auto tx1 = c->node(0).Begin(0);
    auto tx2 = c->node(1).Begin(0);
    auto r1 = co_await tx1->Read(a, 8);
    auto r2 = co_await tx2->Read(a, 8);
    EXPECT_TRUE(r1.ok() && r2.ok());
    (void)tx1->Write(a, U64Bytes(100));
    (void)tx2->Write(a, U64Bytes(200));
    Status s1 = co_await tx1->Commit();
    Status s2 = co_await tx2->Commit();
    int commits = (s1.ok() ? 1 : 0) + (s2.ok() ? 1 : 0);
    int aborts = (s1.code() == StatusCode::kAborted ? 1 : 0) +
                 (s2.code() == StatusCode::kAborted ? 1 : 0);
    co_return std::make_pair(commits, aborts);
  };
  auto result = RunTask(*cluster_, race(cluster_.get(), addr));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->first, 1);
  EXPECT_EQ(result->second, 1);
}

TEST_F(CoreTest, ReadValidationCatchesConcurrentWrite) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  GlobalAddr b{rid, 16};

  // tx reads a and b; a concurrent writer updates a before tx commits.
  auto scenario = [this](GlobalAddr x, GlobalAddr y) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto r1 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r1.ok());
    // Concurrent writer commits an update to x.
    Status ws = co_await WriteValue(0, x, 999);
    EXPECT_TRUE(ws.ok());
    auto r2 = co_await tx->Read(y, 8);
    EXPECT_TRUE(r2.ok());
    (void)tx->Write(y, U64Bytes(1));
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a, b));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kAborted);
}

TEST_F(CoreTest, ReadOnlyTransactionValidates) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 42))->ok());

  auto ro = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(2).Begin(0);
    auto r = co_await tx->Read(x, 8);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(BytesU64(*r), 42u);
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, ro(a));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok());
}

TEST_F(CoreTest, ValidationOverRpcAboveThreshold) {
  Boot();
  // Keep the whole read set on one primary and exceed t_r = 4.
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  for (uint32_t i = 0; i < 8; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, i * 16}, i))->ok());
  }
  auto ro = [this, rid]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    for (uint32_t i = 0; i < 8; i++) {
      auto r = co_await tx->Read(GlobalAddr{rid, i * 16}, 8);
      EXPECT_TRUE(r.ok());
    }
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, ro());
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(CoreTest, LockFreeRead) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 314))->ok());

  auto lf = [this](GlobalAddr x) -> Task<StatusOr<std::vector<uint8_t>>> {
    co_return co_await cluster_->node(3).LockFreeRead(x, 8, 0);
  };
  auto v = RunTask(*cluster_, lf(a));
  ASSERT_TRUE(v.has_value() && v->ok());
  EXPECT_EQ(BytesU64(v->value()), 314u);
  EXPECT_GE(cluster_->node(3).stats().lockfree_reads, 1u);
}

TEST_F(CoreTest, RepeatedReadsReturnSameValue) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, 1))->ok());

  auto scenario = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto r1 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r1.ok());
    // Concurrent update commits in between.
    Status ws = co_await WriteValue(0, x, 2);
    EXPECT_TRUE(ws.ok());
    auto r2 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(BytesU64(*r1), BytesU64(*r2));  // same data within the tx
    co_return co_await tx->Commit();          // but validation must fail
  };
  auto s = RunTask(*cluster_, scenario(a));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->code(), StatusCode::kAborted);
}

TEST_F(CoreTest, ReadYourOwnWrites) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  auto scenario = [this](GlobalAddr x) -> Task<Status> {
    auto tx = cluster_->node(0).Begin(0);
    auto r = co_await tx->Read(x, 8);
    EXPECT_TRUE(r.ok());
    (void)tx->Write(x, U64Bytes(55));
    auto r2 = co_await tx->Read(x, 8);
    EXPECT_TRUE(r2.ok());
    EXPECT_EQ(BytesU64(*r2), 55u);
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a));
  ASSERT_TRUE(s.has_value() && s->ok());
}

TEST_F(CoreTest, AllocWriteFreeCycle) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);  // slab-managed

  auto scenario = [this](RegionId r) -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto addr = co_await tx->Alloc(r, 32);
    EXPECT_TRUE(addr.ok());
    if (!addr.ok()) {
      co_return addr.status();
    }
    std::vector<uint8_t> data(32, 0xcd);
    (void)tx->Write(*addr, data);
    Status s = co_await tx->Commit();
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) {
      co_return s;
    }

    // Read it back and free it in a second transaction.
    auto tx2 = cluster_->node(2).Begin(0);
    auto rd = co_await tx2->Read(*addr, 32);
    EXPECT_TRUE(rd.ok());
    if (rd.ok()) {
      EXPECT_EQ((*rd)[0], 0xcd);
    }
    (void)tx2->Free(*addr);
    co_return co_await tx2->Commit();
  };
  auto s = RunTask(*cluster_, scenario(rid));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
}

TEST_F(CoreTest, AbortedAllocReleasesSlot) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 256 << 10, 0);
  const RegionPlacement* p = cluster_->node(0).config().Placement(rid);
  Node& primary = cluster_->node(p->primary);

  auto scenario = [this, rid]() -> Task<Status> {
    // Conflict on a plain object forces the abort.
    auto tx = cluster_->node(0).Begin(0);
    auto a = co_await tx->Alloc(rid, 32);
    EXPECT_TRUE(a.ok());
    std::vector<uint8_t> d(32, 1);
    (void)tx->Write(*a, d);
    // Sabotage: another tx allocates and commits the same... instead, force
    // a version conflict by writing the object behind tx's back is not
    // possible for a fresh alloc; use a shared object.
    co_return co_await tx->Commit();
  };
  (void)scenario;
  // Simpler: reserve then destroy the transaction without committing.
  size_t free_before = primary.allocator(rid)->FreeSlots();
  auto leak = [this, rid]() -> Task<Status> {
    auto tx = cluster_->node(1).Begin(0);
    auto a = co_await tx->Alloc(rid, 32);
    EXPECT_TRUE(a.ok());
    // Abandon the transaction: its destructor releases the reservation.
    co_return OkStatus();
  };
  auto s = RunTask(*cluster_, leak());
  ASSERT_TRUE(s.has_value());
  cluster_->RunFor(5 * kMillisecond);
  size_t free_after = primary.allocator(rid)->FreeSlots();
  // A block may have been formatted (adding slots); the reserved slot must
  // not be leaked: free count is at least the pre-alloc count.
  EXPECT_GE(free_after + 0, free_before);
}

TEST_F(CoreTest, TransactionsAcrossMultipleRegions) {
  Boot();
  RegionId r1 = MustCreateRegion(*cluster_, 64 << 10, 16);
  RegionId r2 = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{r1, 0};
  GlobalAddr b{r2, 0};

  auto scenario = [this](GlobalAddr x, GlobalAddr y) -> Task<Status> {
    auto tx = cluster_->node(2).Begin(0);
    auto rx = co_await tx->Read(x, 8);
    auto ry = co_await tx->Read(y, 8);
    EXPECT_TRUE(rx.ok() && ry.ok());
    (void)tx->Write(x, U64Bytes(10));
    (void)tx->Write(y, U64Bytes(20));
    co_return co_await tx->Commit();
  };
  auto s = RunTask(*cluster_, scenario(a, b));
  ASSERT_TRUE(s.has_value());
  EXPECT_TRUE(s->ok()) << s->ToString();
  EXPECT_EQ(RunTask(*cluster_, ReadValue(3, a))->value(), 10u);
  EXPECT_EQ(RunTask(*cluster_, ReadValue(3, b))->value(), 20u);
}

TEST_F(CoreTest, LogsAreTruncatedAfterCommit) {
  Boot();
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  GlobalAddr a{rid, 0};
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, a, static_cast<uint64_t>(i)))->ok());
  }
  cluster_->RunFor(50 * kMillisecond);  // flush timers
  // All stored records should be truncated everywhere by now.
  for (int m = 0; m < cluster_->num_machines(); m++) {
    int stored = 0;
    cluster_->node(static_cast<MachineId>(m))
        .messenger()
        .ForEachStoredLog([&](MachineId, uint64_t, const TxLogRecord&) { stored++; });
    EXPECT_EQ(stored, 0) << "machine " << m;
  }
}

// Serializability property test: concurrent increments on a set of counters
// must never lose updates (every committed increment is reflected).
TEST_F(CoreTest, PropertyConcurrentIncrementsNeverLost) {
  Boot(4, 7);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  constexpr int kCounters = 4;
  constexpr int kWorkers = 6;
  constexpr int kOpsPerWorker = 25;

  auto committed = std::make_shared<std::vector<uint64_t>>(kCounters, 0);
  auto done = std::make_shared<int>(0);

  auto worker = [](Cluster* c, RegionId r, int widx, std::shared_ptr<std::vector<uint64_t>> acc,
                   std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(static_cast<uint64_t>(widx) * 977 + 13);
    MachineId node = static_cast<MachineId>(widx % c->num_machines());
    int thread = widx % 2;
    for (int i = 0; i < kOpsPerWorker; i++) {
      uint32_t counter = rng.Uniform(kCounters);
      GlobalAddr addr{r, counter * 16};
      auto tx = c->node(node).Begin(thread);
      auto v = co_await tx->Read(addr, 8);
      if (!v.ok()) {
        continue;
      }
      uint64_t cur = 0;
      std::memcpy(&cur, v->data(), 8);
      std::vector<uint8_t> nb(8);
      uint64_t next = cur + 1;
      std::memcpy(nb.data(), &next, 8);
      (void)tx->Write(addr, nb);
      Status s = co_await tx->Commit();
      if (s.ok()) {
        (*acc)[counter]++;
      }
    }
    (*fin)++;
  };

  for (int w = 0; w < kWorkers; w++) {
    Spawn(worker(cluster_.get(), rid, w, committed, done));
  }
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done == kWorkers; }, 10 * kSecond));

  // Each counter's final value equals the number of committed increments.
  for (int cidx = 0; cidx < kCounters; cidx++) {
    auto v = RunTask(*cluster_, ReadValue(0, GlobalAddr{rid, static_cast<uint32_t>(cidx) * 16}));
    ASSERT_TRUE(v.has_value() && v->ok());
    EXPECT_EQ(v->value(), (*committed)[static_cast<size_t>(cidx)]) << "counter " << cidx;
  }
  // And there was real contention: some transactions aborted.
  EXPECT_GT(cluster_->TotalStats().tx_aborted_lock + cluster_->TotalStats().tx_aborted_validate,
            0u);
}

// Bank-transfer invariant: total money is conserved under concurrent
// transfers (atomicity across two objects).
TEST_F(CoreTest, PropertyBankTransfersConserveTotal) {
  Boot(4, 11);
  RegionId rid = MustCreateRegion(*cluster_, 64 << 10, 16);
  constexpr int kAccounts = 6;
  constexpr uint64_t kInitial = 1000;

  for (uint32_t a = 0; a < kAccounts; a++) {
    ASSERT_TRUE(RunTask(*cluster_, WriteValue(0, GlobalAddr{rid, a * 16}, kInitial))->ok());
  }

  auto done = std::make_shared<int>(0);
  auto transfer = [](Cluster* c, RegionId r, int widx, std::shared_ptr<int> fin) -> Task<void> {
    Pcg32 rng(static_cast<uint64_t>(widx) * 31 + 5);
    MachineId node = static_cast<MachineId>(widx % c->num_machines());
    for (int i = 0; i < 20; i++) {
      uint32_t from = rng.Uniform(kAccounts);
      uint32_t to = rng.Uniform(kAccounts);
      if (from == to) {
        continue;
      }
      auto tx = c->node(node).Begin(widx % 2);
      auto vf = co_await tx->Read(GlobalAddr{r, from * 16}, 8);
      auto vt = co_await tx->Read(GlobalAddr{r, to * 16}, 8);
      if (!vf.ok() || !vt.ok()) {
        continue;
      }
      uint64_t bf = 0;
      uint64_t bt = 0;
      std::memcpy(&bf, vf->data(), 8);
      std::memcpy(&bt, vt->data(), 8);
      uint64_t amount = rng.Uniform(50) + 1;
      if (bf < amount) {
        continue;
      }
      std::vector<uint8_t> nf(8);
      std::vector<uint8_t> nt(8);
      uint64_t nbf = bf - amount;
      uint64_t nbt = bt + amount;
      std::memcpy(nf.data(), &nbf, 8);
      std::memcpy(nt.data(), &nbt, 8);
      (void)tx->Write(GlobalAddr{r, from * 16}, nf);
      (void)tx->Write(GlobalAddr{r, to * 16}, nt);
      (void)co_await tx->Commit();
    }
    (*fin)++;
  };

  constexpr int kWorkers = 5;
  for (int w = 0; w < kWorkers; w++) {
    Spawn(transfer(cluster_.get(), rid, w, done));
  }
  ASSERT_TRUE(RunUntil(*cluster_, [&]() { return *done == kWorkers; }, 10 * kSecond));

  uint64_t total = 0;
  for (uint32_t a = 0; a < kAccounts; a++) {
    auto v = RunTask(*cluster_, ReadValue(1, GlobalAddr{rid, a * 16}));
    ASSERT_TRUE(v.has_value() && v->ok());
    total += v->value();
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST_F(CoreTest, ColocatedRegionSharesReplicas) {
  Boot(6);
  RegionId r1 = MustCreateRegion(*cluster_, 64 << 10, 16);
  RegionId r2 = MustCreateRegion(*cluster_, 64 << 10, 16, r1);
  const RegionPlacement* p1 = cluster_->node(0).config().Placement(r1);
  const RegionPlacement* p2 = cluster_->node(0).config().Placement(r2);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p1->Replicas(), p2->Replicas());
}

}  // namespace
}  // namespace farm
