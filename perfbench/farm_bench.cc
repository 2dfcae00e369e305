// One measured round of the repository benchmark (see README.md here).
//
//   farm_perfbench --workload <tatp|tpcc|tatp_failover> --seed <n>
//                  --mode <untraced|traced>
//
// Builds a simulated cluster, loads the workload's tables, runs a closed-loop
// load for a fixed simulated window, checks the outputs, and prints one JSON
// object on stdout:
//
//   {"errors": [...], "refused": [...], "sim": {...}, "host": {...}}
//
// A round whose checks failed lists them in "errors".
//
// "sim" holds values computed from simulated time and simulated counters.
// They are deterministic: the same seed gives bit-identical values, traced or
// not. "host" holds what this process cost on the host CPU, read from
// CLOCK_PROCESS_CPUTIME_ID rather than a wall clock, because the simulator is
// single-threaded and CPU time does not count the time other processes on the
// machine held the core. Host times are scaled by an interleaved reference
// workload (class Reference) to cancel the host's drift in speed.
//
// Everything is observed from outside the program: the round times calls into
// public APIs and reads public counters. --mode traced adds a hash-table probe
// after the window, which does not change what is simulated.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <chrono>  // farmlint: allow(wall-clock): the benchmark reports host time
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/obs/flight_recorder.h"
#include "src/workload/driver.h"
#include "src/workload/tatp.h"
#include "src/workload/tpcc.h"

namespace farm {
namespace {

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

// Process CPU seconds since the process started.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);  // farmlint: allow(wall-clock): host cost
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double WallSeconds() {
  // farmlint: allow(wall-clock): diagnostic setup wall time (scheduler noise)
  auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Reference workload
// ---------------------------------------------------------------------------

// The speed of a shared host drifts, mostly in what a memory access costs:
// back-to-back rounds of one seed, which simulate the same events, have spent
// 5.8 and 11.3 CPU seconds on the same window. So the round interleaves a
// fixed reference workload with the simulation, and reports host costs in
// reference seconds: CPU seconds scaled to a host on which one reference
// chunk costs kChunkNominalSeconds. A chunk is a run of independent random
// read-modify-writes over a 128 MiB array, which tracks the drift of the
// simulator's CPU time closely; see README.md for how it was chosen. The
// reference never touches the simulation.
class Reference {
 public:
  static constexpr size_t kWords = size_t{16} << 20;  // 128 MiB of uint64_t
  static constexpr double kMiB = kWords * sizeof(uint64_t) / double{1 << 20};
  static constexpr int kChunkAccesses = 1 << 16;
  static constexpr double kChunkNominalSeconds = 0.002;
  // One chunk per this many simulated events, so the number of chunks a
  // round runs depends on the seed only.
  static constexpr uint64_t kEventsPerChunk = 100000;

  Reference() {
    double cpu0 = ProcessCpuSeconds();
    words_.assign(kWords, 1);
    spent_ += ProcessCpuSeconds() - cpu0;
  }

  // Runs the chunks owed for the simulated events processed so far.
  void Pace(const Simulator& sim) {
    while (sim.events_processed() >= next_chunk_at_) {
      RunChunk();
      next_chunk_at_ += kEventsPerChunk;
    }
  }

  void RunChunk() {
    double cpu0 = ProcessCpuSeconds();
    uint64_t x = rng_;
    for (int i = 0; i < kChunkAccesses; i++) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      words_[x % kWords]++;
    }
    rng_ = x;
    double cost = ProcessCpuSeconds() - cpu0;
    spent_ += cost;
    chunk_cpu_ += cost;
    chunks_++;
  }

  // A point in the round: process CPU and what the reference had spent.
  struct Mark {
    double cpu = 0;
    double spent = 0;
    double chunk_cpu = 0;
    int chunks = 0;
  };
  Mark Now() const { return {ProcessCpuSeconds(), spent_, chunk_cpu_, chunks_}; }

  // The program's CPU seconds between two marks, without the reference's.
  static double ProgramCpu(const Mark& from, const Mark& to) {
    return (to.cpu - from.cpu) - (to.spent - from.spent);
  }
  // The mean CPU seconds of the chunks between two marks.
  static double ChunkSeconds(const Mark& from, const Mark& to) {
    return (to.chunk_cpu - from.chunk_cpu) / (to.chunks - from.chunks);
  }
  // `cpu` CPU seconds, spent while a chunk cost `chunk`, in reference seconds.
  static double Scaled(double cpu, double chunk) { return cpu * kChunkNominalSeconds / chunk; }

 private:
  std::vector<uint64_t> words_;
  uint64_t rng_ = 88172645463325252ULL;
  uint64_t next_chunk_at_ = 0;
  double spent_ = 0;
  double chunk_cpu_ = 0;
  int chunks_ = 0;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Add(key, std::to_string(v)); }
  void Raw(const std::string& key, const std::string& json) { Add(key, json); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Add(const std::string& key, const std::string& v) {
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + key + "\": " + v;
  }
  std::string body_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Sizes are fixed per workload; only the seed varies between runs. Windows are
// simulated time, so every run of a seed does exactly the same work.
struct WorkloadSpec {
  bool tpcc = false;
  int machines = 12;
  uint64_t cluster_seed = 1;
  uint64_t subscribers = 0;  // TATP
  int warehouses = 0;        // TPC-C
  int concurrency = 4;       // outstanding transactions per worker thread
  // Steady workloads measure for `measure`. The failover workload measures
  // `measure` before the kill and `after_kill` after it.
  SimDuration measure = 0;
  SimDuration after_kill = 0;
  MachineId victim = kInvalidMachine;
};

constexpr SimDuration kWarmup = 10 * kMillisecond;

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec s;
  if (name == "tatp") {
    s.subscribers = 24000;
    s.measure = 100 * kMillisecond;
  } else if (name == "tpcc") {
    s.tpcc = true;
    s.warehouses = 24;
    s.concurrency = 2;
    s.measure = 60 * kMillisecond;
  } else if (name == "tatp_failover") {
    s.machines = 9;
    s.cluster_seed = 5;
    s.subscribers = 12000;
    s.measure = 50 * kMillisecond;
    s.after_kill = 60 * kMillisecond;
    s.victim = 5;  // not the CM (machine 0)
  } else {
    return std::nullopt;
  }
  return s;
}

// The transaction mix of each workload, as cut points of the first
// rng.Uniform(100) draw that TatpDb/TpccDb::MakeWorkload makes.
struct TxType {
  const char* name;
  uint32_t below;  // dice < below selects this type (after earlier types)
  bool tpcc;
};
constexpr TxType kTxTypes[] = {
    {"get_subscriber_data", 35, false},
    {"get_new_destination", 45, false},
    {"get_access_data", 80, false},
    {"update_subscriber_data", 82, false},
    {"update_location", 96, false},
    {"insert_call_forwarding", 98, false},
    {"delete_call_forwarding", 100, false},
    {"new_order", 45, true},
    {"payment", 88, true},
    {"order_status", 92, true},
    {"delivery", 96, true},
    {"stock_level", 100, true},
};
constexpr size_t kNumTxTypes = sizeof(kTxTypes) / sizeof(kTxTypes[0]);

// Per-type tallies, kept by a wrapper around MakeWorkload. The wrapper counts
// a transaction under the same rule as the driver (finished inside the
// measured window, before the stop flag), so the per-type committed counts
// must sum to the driver's committed count.
struct TypeTally {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  std::vector<SimDuration> latency;  // of each committed transaction
};
struct Labels {
  TypeTally types[kNumTxTypes];
  std::shared_ptr<bool> stop;  // the driver run's stop flag, set after StartWorkers
  SimTime measure_start = 0;
};

// Wraps the workload so each transaction is labelled with its type. It peeks
// at a copy of the rng for the mix draw, so the wrapped workload consumes the
// same rng stream and simulates exactly the same transactions.
WorkloadFn Labelled(WorkloadFn inner, bool tpcc, Simulator* sim, std::shared_ptr<Labels> labels) {
  return [inner, tpcc, sim, labels](Node& node, int thread, Pcg32& rng) -> Task<bool> {
    Pcg32 peek = rng;
    uint32_t dice = peek.Uniform(100);
    size_t type = 0;
    while (kTxTypes[type].tpcc != tpcc || dice >= kTxTypes[type].below) {
      type++;
    }
    SimTime t0 = sim->Now();
    bool committed = co_await inner(node, thread, rng);
    SimTime t1 = sim->Now();
    // A transaction can finish without suspending inside StartWorkers, before
    // the stop flag is known; that is before the window, so it never counts.
    if (labels->stop != nullptr && !*labels->stop && t1 >= labels->measure_start) {
      TypeTally& tally = labels->types[type];
      tally.attempted++;
      if (committed) {
        tally.committed++;
        tally.latency.push_back(t1 - t0);
      }
    }
    co_return committed;
  };
}

// ---------------------------------------------------------------------------
// Simulator helpers
// ---------------------------------------------------------------------------

// These mirror bench/bench_util.h on purpose: the benchmark's definitions
// change only with this directory, so editing the figure benches cannot move
// its numbers.

// With a reference, it runs the chunks the stepped events owe.
template <typename Pred>
bool StepUntil(Cluster& cluster, Pred pred, SimDuration timeout, Reference* ref = nullptr) {
  SimTime deadline = cluster.sim().Now() + timeout;
  while (!pred() && cluster.sim().Now() < deadline) {
    if (!cluster.sim().Step()) {
      break;
    }
    if (ref != nullptr) {
      ref->Pace(cluster.sim());
    }
  }
  return pred();
}

template <typename T>
std::optional<T> AwaitTask(Cluster& cluster, Task<T> task, SimDuration timeout,
                           Reference* ref = nullptr) {
  auto result = std::make_shared<std::optional<T>>();
  auto wrapper = [](Task<T> inner, std::shared_ptr<std::optional<T>> out) -> Task<void> {
    out->emplace(co_await std::move(inner));
  };
  Spawn(wrapper(std::move(task), result));
  StepUntil(cluster, [&]() { return result->has_value(); }, timeout, ref);
  return *result;
}

// Simulated time from `from` until per-ms throughput first reaches `fraction`
// of `per_ms` and stays there for `sustain_ms` consecutive intervals.
SimTime TimeToRecover(const TimeSeries& series, SimTime from, double per_ms, double fraction,
                      int sustain_ms = 5) {
  const auto& buckets = series.intervals();
  size_t start = static_cast<size_t>(from / series.interval_ns());
  double target = per_ms * fraction;
  for (size_t i = start; i + static_cast<size_t>(sustain_ms) < buckets.size(); i++) {
    bool sustained = true;
    for (int j = 0; j < sustain_ms; j++) {
      if (static_cast<double>(buckets[i + static_cast<size_t>(j)]) < target) {
        sustained = false;
        break;
      }
    }
    if (sustained) {
      SimTime at = i * series.interval_ns();
      return at > from ? at - from : 0;
    }
  }
  return kSimTimeNever;
}

// Runs the cluster for `d` in 1 ms slices, with the reference chunks owed
// after each slice.
void RunPaced(Cluster& cluster, SimDuration d, Reference& ref) {
  for (SimDuration done = 0; done < d; done += kMillisecond) {
    cluster.RunFor(kMillisecond);
    ref.Pace(cluster.sim());
  }
}

double Ms(SimTime t) { return t == kSimTimeNever ? -1.0 : static_cast<double>(t) / 1e6; }

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

// TPC-C consistency condition 1: for every district, d_next_o_id - 1 equals
// the largest order id in the order-line index. Returns the number of
// districts that violate it or could not be read.
Task<int> TpccConsistencyViolations(Cluster* cluster, TpccDb db) {
  int violations = 0;
  const TpccOptions& o = db.options();
  for (uint64_t w = 1; w <= static_cast<uint64_t>(o.warehouses); w++) {
    for (uint64_t d = 1; d <= static_cast<uint64_t>(o.districts); d++) {
      bool checked = false;
      for (int attempt = 0; attempt < 5 && !checked; attempt++) {
        auto tx = cluster->node(0).Begin(0);
        auto next_o = co_await db.DistrictRowForTest(*tx, w, d);
        if (!next_o.ok()) {
          continue;
        }
        auto lines = co_await db.OrderLineScanForTest(*tx, w, d);
        if (!lines.ok()) {
          continue;
        }
        if (!(co_await tx->Commit()).ok()) {
          continue;
        }
        uint64_t max_order = 0;
        for (const auto& [key, value] : *lines) {
          (void)value;
          max_order = std::max<uint64_t>(max_order, (key >> 8) & 0xffffffffULL);
        }
        checked = true;
        if (max_order + 1 != *next_o) {
          violations++;
        }
      }
      if (!checked) {
        violations++;
      }
    }
  }
  co_return violations;
}

// Reads every loaded subscriber row through SubscriberTable().Get, 100 rows
// per read-only transaction. Returns the number of rows that are missing or
// could not be read.
Task<uint64_t> UnreadableSubscribers(Cluster* cluster, TatpDb db, MachineId from) {
  constexpr uint64_t kBatch = 100;
  uint64_t bad = 0;
  uint64_t n = db.options().subscribers;
  for (uint64_t first = 1; first <= n; first += kBatch) {
    uint64_t last = std::min(n, first + kBatch - 1);
    uint64_t missing = last - first + 1;
    for (int attempt = 0; attempt < 5 && missing > 0; attempt++) {
      auto tx = cluster->node(from).Begin(0);
      uint64_t found = 0;
      for (uint64_t s = first; s <= last; s++) {
        auto row = co_await db.SubscriberTable().Get(*tx, TatpDb::SubKey(s));
        if (row.ok() && row->has_value() && (*row)->size() == TatpDb::kSubscriberBytes) {
          found++;
        }
      }
      if ((co_await tx->Commit()).ok()) {
        missing = last - first + 1 - found;
      }
    }
    bad += missing;
  }
  co_return bad;
}

// Fabric reads per HashTable::LockFreeGet over a fixed sample of subscriber
// keys, issued one at a time from machine `from`.
Task<double> ReadsPerGet(Cluster* cluster, TatpDb db, MachineId from, uint64_t seed) {
  constexpr int kSample = 2000;
  Pcg32 rng(HashCombine(seed, 0x6473));
  uint64_t reads_before = cluster->fabric().stats().rdma_reads;
  for (int i = 0; i < kSample; i++) {
    uint64_t s = rng.Uniform64(db.options().subscribers) + 1;
    (void)co_await db.SubscriberTable().LockFreeGet(cluster->node(from), TatpDb::SubKey(s), 0);
  }
  co_return static_cast<double>(cluster->fabric().stats().rdma_reads - reads_before) / kSample;
}

// ---------------------------------------------------------------------------
// The round
// ---------------------------------------------------------------------------

// A percentile is reported only with at least this many samples beyond it.
constexpr uint64_t kMinTailSamples = 10;

bool EnoughTail(uint64_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= static_cast<double>(kMinTailSamples);
}

// The exact nearest-rank percentile of non-empty `samples`, which it
// reorders, in µs.
double ExactPercentileUs(std::vector<SimDuration>& samples, double p) {
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(std::max<size_t>(rank, 1) - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth) / 1e3;
}

struct Round {
  JsonObject sim;
  JsonObject host;
  std::vector<std::string> errors;
  std::vector<std::string> refused;  // per-layer percentiles with too few samples

  void Check(bool cond, const std::string& what) {
    if (!cond) {
      errors.push_back(what);
    }
  }
  // Latency percentile in µs, or 0 (and the name listed as refused) when
  // there are fewer than kMinTailSamples samples beyond it.
  double Percentile(const std::string& name, const Histogram& h, double p) {
    if (!EnoughTail(h.count(), p)) {
      refused.push_back(name);
      return 0.0;
    }
    return static_cast<double>(h.Percentile(p)) / 1e3;
  }
  double Percentile(const std::string& name, std::vector<SimDuration>& samples, double p) {
    if (!EnoughTail(samples.size(), p)) {
      refused.push_back(name);
      return 0.0;
    }
    return ExactPercentileUs(samples, p);
  }
};

// Worker threads per machine; HwThreads [0, kWorkerThreads) are the workers.
constexpr int kWorkerThreads = 2;

ClusterOptions MakeClusterOptions(const WorkloadSpec& spec) {
  ClusterOptions opts;
  opts.machines = spec.machines;
  opts.zk_replicas = 3;
  opts.seed = spec.cluster_seed;
  opts.node.worker_threads = kWorkerThreads;
  opts.node.region_size = spec.tpcc ? (2 << 20) : (1 << 20);
  opts.node.block_size = 64 << 10;
  opts.node.lease.duration = 10 * kMillisecond;
  return opts;
}

enum class Mode { kUntraced, kTraced };

void PrintRound(const Round& out) {
  auto list = [](const std::vector<std::string>& items) {
    std::string json = "[";
    for (size_t i = 0; i < items.size(); i++) {
      json += (i > 0 ? ", " : "") + JsonString(items[i]);
    }
    return json + "]";
  };
  JsonObject top;
  top.Raw("errors", list(out.errors));
  top.Raw("refused", list(out.refused));
  top.Raw("sim", out.sim.str());
  top.Raw("host", out.host.str());
  std::printf("%s\n", top.str().c_str());
  std::fflush(stdout);
}

int RunRound(const WorkloadSpec& spec, uint64_t seed, Mode mode) {
  bool traced = mode == Mode::kTraced;
  Round out;
  double wall0 = WallSeconds();
  Reference ref;
  Reference::Mark process_start;  // all zero: CPU is counted from exec

  // ---- set-up: cluster start and table load ----
  auto cluster = std::make_unique<Cluster>(MakeClusterOptions(spec));
  cluster->Start();
  RunPaced(*cluster, 5 * kMillisecond, ref);
  Reference::Mark started = ref.Now();

  std::optional<TatpDb> tatp;
  std::optional<TpccDb> tpcc;
  if (spec.tpcc) {
    TpccOptions topts;
    topts.warehouses = spec.warehouses;
    topts.customers = 32;
    topts.items = 200;
    topts.init_orders = 10;
    topts.load_seed = HashCombine(seed, 11);
    auto db = AwaitTask(
        *cluster,
        [](Cluster* c, TpccOptions o) -> Task<StatusOr<TpccDb>> {
          co_return co_await TpccDb::Create(*c, o);
        }(cluster.get(), topts),
        600 * kSecond, &ref);
    if (!db.has_value() || !db->ok()) {
      std::fprintf(stderr, "tpcc load failed\n");
      return 1;
    }
    tpcc = std::move(db->value());
  } else {
    TatpOptions topts;
    topts.subscribers = spec.subscribers;
    topts.load_seed = HashCombine(seed, 7);
    auto db = AwaitTask(
        *cluster,
        [](Cluster* c, TatpOptions o) -> Task<StatusOr<TatpDb>> {
          co_return co_await TatpDb::Create(*c, o);
        }(cluster.get(), topts),
        600 * kSecond, &ref);
    if (!db.has_value() || !db->ok()) {
      std::fprintf(stderr, "tatp load failed\n");
      return 1;
    }
    tatp = std::move(db->value());
    tatp->RegisterServices(*cluster);
  }
  Reference::Mark loaded = ref.Now();
  double wall_loaded = WallSeconds();
  // Start and load are both scaled at the speed of all set-up chunks: the
  // start alone runs too few of them.
  double setup_chunk = Reference::ChunkSeconds(process_start, loaded);
  auto setup_seconds = [&](const Reference::Mark& from, const Reference::Mark& to) {
    return Reference::Scaled(Reference::ProgramCpu(from, to), setup_chunk);
  };
  out.host.Num("start_cpu_s", setup_seconds(process_start, started));
  out.host.Num("load_cpu_s", setup_seconds(started, loaded));
  out.host.Num("setup_s", setup_seconds(process_start, loaded));
  out.host.Num("setup_raw_cpu_s", Reference::ProgramCpu(process_start, loaded));
  out.host.Num("setup_wall_s", wall_loaded - wall0);

  // ---- load: warm-up, then the measured window ----
  DriverOptions dopts;
  dopts.threads_per_machine = kWorkerThreads;
  dopts.concurrency_per_thread = spec.concurrency;
  dopts.warmup = kWarmup;
  dopts.seed = HashCombine(seed, 42);
  if (tpcc) {
    dopts.machines = tpcc->ClientMachines(*cluster);
  }
  auto labels = std::make_shared<Labels>();
  WorkloadFn inner = tpcc ? tpcc->MakeWorkload() : tatp->MakeWorkload();
  DriverRun run = StartWorkers(*cluster, Labelled(std::move(inner), spec.tpcc, &cluster->sim(),
                                                  labels),
                               dopts);
  labels->stop = run.stop;
  labels->measure_start = run.result->measure_start;
  RunPaced(*cluster, kWarmup, ref);
  Reference::Mark warm = ref.Now();

  // Window counters start from zero: every cell of the cluster registry
  // (fabric, node and phase metrics) counts the measured window only.
  cluster->metrics_registry().Reset();
  Simulator& sim = cluster->sim();
  uint64_t events0 = sim.events_processed();
  double rss0 = CurrentRssMb();
  std::vector<SimDuration> busy0;
  for (int m = 0; m < spec.machines; m++) {
    for (int t = 0; t < kWorkerThreads; t++) {
      busy0.push_back(cluster->machine(static_cast<MachineId>(m)).thread(t).total_busy());
    }
  }
  SimTime window_start = sim.Now();

  // The failover workload records which regions the victim held before the
  // kill: each of them must get a new replica.
  uint64_t victim_regions = 0;
  SimTime kill_time = 0;
  if (spec.victim != kInvalidMachine) {
    for (const auto& [rid, placement] : cluster->node(0).config().regions) {
      (void)rid;
      for (MachineId m : placement.Replicas()) {
        victim_regions += (m == spec.victim) ? 1 : 0;
      }
    }
    cluster->ClearMilestones();
    RunPaced(*cluster, spec.measure, ref);
    kill_time = sim.Now();
    cluster->Kill(spec.victim);
    RunPaced(*cluster, spec.after_kill, ref);
  } else {
    RunPaced(*cluster, spec.measure, ref);
  }
  Reference::Mark measured = ref.Now();
  double rss1 = CurrentRssMb();
  SimTime window_end = sim.Now();
  uint64_t window_events = sim.events_processed() - events0;
  FabricStats net = cluster->fabric().stats();
  NodeStats node_stats = cluster->TotalStats();
  std::vector<double> busy_frac;
  for (int m = 0; m < spec.machines; m++) {
    Machine& machine = cluster->machine(static_cast<MachineId>(m));
    if (!machine.alive()) {
      continue;
    }
    for (int t = 0; t < kWorkerThreads; t++) {
      double busy = static_cast<double>(machine.thread(t).total_busy() -
                                        busy0[static_cast<size_t>(m * kWorkerThreads + t)]);
      busy_frac.push_back(busy / static_cast<double>(window_end - window_start));
    }
  }

  StopWorkers(*cluster, run);
  StepUntil(*cluster, [&]() { return *run.active_workers == 0; }, kSecond);
  const DriverResult& r = *run.result;
  uint64_t committed = r.committed;
  uint64_t attempted = r.committed + r.aborted;

  // ---- end-to-end metrics ----
  out.Check(committed > 0, "no transaction committed");
  out.Check(EnoughTail(committed, 99.9),
            "fewer than 10 samples beyond p99.9 (" + std::to_string(committed) + " committed)");
  double window_s = static_cast<double>(window_end - window_start) / 1e9;
  out.sim.Int("committed", committed);
  out.sim.Int("attempted", attempted);
  out.sim.Int("unresolved", node_stats.tx_unresolved);
  out.sim.Num("tx_per_s", static_cast<double>(committed) / window_s);
  // Percentiles are exact, over the latencies the labelling wrapper saw. The
  // driver's log-bucketed histogram of the same transactions must agree to
  // within its precision, which also shows the wrapper saw the driver's.
  std::vector<SimDuration> latencies;
  for (const TypeTally& t : labels->types) {
    latencies.insert(latencies.end(), t.latency.begin(), t.latency.end());
  }
  const std::pair<const char*, double> kPercentiles[] = {
      {"p50_us", 50}, {"p99_us", 99}, {"p999_us", 99.9}};
  for (const auto& [key, p] : kPercentiles) {
    double exact = latencies.empty() ? 0.0 : ExactPercentileUs(latencies, p);
    double bucketed = static_cast<double>(r.latency.Percentile(p)) / 1e3;
    out.Check(std::abs(exact - bucketed) <= 0.02 * bucketed,
              std::string(key) + " " + std::to_string(exact) + " differs from the driver's " +
                  std::to_string(bucketed));
    out.sim.Num(key, exact);
  }
  // The driver counts every transaction that did not commit as aborted: a
  // conflict after retries, a TPC-C rollback, a TATP business failure, or an
  // unresolved outcome.
  out.sim.Num("fail_frac", static_cast<double>(r.aborted) /
                               static_cast<double>(std::max<uint64_t>(attempted, 1)));

  // ---- per-layer: sim, net, core ----
  double per_tx = 1.0 / static_cast<double>(std::max<uint64_t>(committed, 1));
  out.sim.Int("sim.events", window_events);
  out.sim.Num("sim.events_per_tx", static_cast<double>(window_events) * per_tx);
  out.sim.Num("net.reads_per_tx", static_cast<double>(net.rdma_reads) * per_tx);
  out.sim.Num("net.writes_per_tx", static_cast<double>(net.rdma_writes) * per_tx);
  out.sim.Num("net.cas_per_tx", static_cast<double>(net.rdma_cas) * per_tx);
  out.sim.Num("net.rpc_msgs_per_tx", 2.0 * static_cast<double>(net.rpcs) * per_tx);
  out.sim.Num("net.datagrams_per_tx", static_cast<double>(net.datagrams) * per_tx);
  out.sim.Num("net.doorbells_per_tx", static_cast<double>(net.doorbells) * per_tx);
  out.sim.Num("net.bytes_per_tx",
              static_cast<double>(net.rdma_bytes + net.rpc_bytes) * per_tx);
  metrics::Registry& reg = cluster->metrics_registry();
  for (int p = 0; p < flight::kNumPhases; p++) {
    const char* phase = flight::PhaseName(static_cast<flight::Phase>(p));
    const Histogram& h = reg.GetHistogram("tx_phase_ns", {{"phase", phase}}).histogram();
    std::string prefix = std::string("core.phase.") + phase;
    out.sim.Num(prefix + ".p50_us", out.Percentile(prefix + ".p50_us", h, 50));
    out.sim.Num(prefix + ".p99_us", out.Percentile(prefix + ".p99_us", h, 99));
  }
  // Abort reasons as a share of commit attempts (a workload transaction that
  // retries makes several).
  uint64_t commit_attempts = node_stats.tx_committed + node_stats.tx_aborted_lock +
                             node_stats.tx_aborted_validate + node_stats.tx_unresolved;
  for (int a = 1; a <= flight::kNumCountedAbortReasons; a++) {
    const char* reason = flight::AbortReasonName(static_cast<flight::AbortReason>(a));
    uint64_t n = reg.GetCounter("tx_abort_reason", {{"reason", reason}}).value();
    out.sim.Num(std::string("core.abort.") + reason + "_frac",
                static_cast<double>(n) /
                    static_cast<double>(std::max<uint64_t>(commit_attempts, 1)));
  }
  out.sim.Num("core.lockfree_reads_per_tx",
              static_cast<double>(node_stats.lockfree_reads) * per_tx);
  double busy_sum = 0;
  double busy_max = 0;
  for (double b : busy_frac) {
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  out.sim.Num("core.cpu_busy_frac.mean", busy_sum / static_cast<double>(busy_frac.size()));
  out.sim.Num("core.cpu_busy_frac.max", busy_max);

  // ---- per-type tallies (the tatp/tpcc correctness checks use them) ----
  uint64_t typed_committed = 0;
  uint64_t typed_attempted = 0;
  for (const TypeTally& t : labels->types) {
    typed_committed += t.committed;
    typed_attempted += t.attempted;
  }
  out.Check(typed_committed == committed,
            "per-type committed tallies sum to " + std::to_string(typed_committed) +
                ", driver committed " + std::to_string(committed));
  out.Check(typed_attempted == attempted,
            "per-type attempted tallies sum to " + std::to_string(typed_attempted) +
                ", driver attempted " + std::to_string(attempted));
  uint32_t prev_cut = 0;
  for (size_t i = 0; i < kNumTxTypes; i++) {
    const TxType& type = kTxTypes[i];
    TypeTally& t = labels->types[i];
    std::string prefix = std::string("workload.") + type.name;
    double share = static_cast<double>(t.attempted) /
                   static_cast<double>(std::max<uint64_t>(typed_attempted, 1));
    if (type.tpcc == spec.tpcc) {
      // The observed mix must match MakeWorkload's cut points: this also
      // proves the labels read the same draw the workload acted on.
      double expected = static_cast<double>(type.below - prev_cut) / 100.0;
      out.Check(share > expected - 0.01 && share < expected + 0.01,
                prefix + " share " + std::to_string(share) + " expected " +
                    std::to_string(expected));
      prev_cut = type.below;
    }
    out.sim.Num(prefix + ".share", share);
    if (type.tpcc == spec.tpcc) {
      out.sim.Num(prefix + ".p50_us", out.Percentile(prefix + ".p50_us", t.latency, 50));
      out.sim.Num(prefix + ".p99_us", out.Percentile(prefix + ".p99_us", t.latency, 99));
    } else {
      out.sim.Num(prefix + ".p50_us", 0.0);  // the other benchmark's mix: no samples
      out.sim.Num(prefix + ".p99_us", 0.0);
    }
  }

  // ---- workload-specific checks and recovery ----
  if (spec.tpcc) {
    auto violations =
        AwaitTask(*cluster, TpccConsistencyViolations(cluster.get(), *tpcc), 60 * kSecond);
    out.Check(violations.has_value() && *violations == 0,
              "TPC-C consistency condition 1 violated in " +
                  (violations.has_value() ? std::to_string(*violations) : std::string("?")) +
                  " districts");
  }
  if (spec.victim != kInvalidMachine) {
    double base_per_ms = r.throughput.AverageRate(window_start, kill_time - kMillisecond);
    auto since_kill = [&](const char* milestone) {
      SimTime t = cluster->MilestoneAfter(milestone, kill_time);
      return t == kSimTimeNever ? kSimTimeNever : t - kill_time;
    };
    SimTime recover_peak = TimeToRecover(r.throughput, kill_time, base_per_ms, 0.95);
    SimTime recover_80 = TimeToRecover(r.throughput, kill_time, base_per_ms, 0.80);
    out.Check(recover_peak != kSimTimeNever, "throughput never returned to 95% of pre-kill");
    out.sim.Num("core.recovery.recover_95_ms", Ms(recover_peak));
    out.sim.Num("core.recovery.recover_80_ms", Ms(recover_80));
    out.sim.Num("core.recovery.suspect_ms", Ms(since_kill("suspect")));
    out.sim.Num("core.recovery.config_commit_ms", Ms(since_kill("config-commit")));
    out.sim.Num("core.recovery.all_active_ms", Ms(since_kill("all-active")));
    out.Check(since_kill("all-active") != kSimTimeNever, "all-active milestone not reached");

    // Data recovery runs on after the load stops, until every region the
    // victim held has a new replica.
    bool rereplicated = StepUntil(
        *cluster, [&]() { return cluster->regions_rereplicated() >= victim_regions; },
        10 * kSecond);
    out.Check(rereplicated, "only " + std::to_string(cluster->regions_rereplicated()) + " of " +
                                std::to_string(victim_regions) + " regions re-replicated");
    out.sim.Num("core.recovery.data_rec_done_ms",
                cluster->rereplication_times().empty()
                    ? -1.0
                    : Ms(cluster->rereplication_times().back() - kill_time));
    int rf = cluster->node(0).options().replication_factor;
    for (const auto& [rid, placement] : cluster->node(0).config().regions) {
      std::vector<MachineId> replicas = placement.Replicas();
      bool full = static_cast<int>(replicas.size()) == rf &&
                  std::find(replicas.begin(), replicas.end(), spec.victim) == replicas.end();
      out.Check(full, "region " + std::to_string(rid) + " is not fully re-replicated");
    }
    auto unreadable =
        AwaitTask(*cluster, UnreadableSubscribers(cluster.get(), *tatp, 0), 60 * kSecond);
    out.Check(unreadable.has_value() && *unreadable == 0,
              "subscriber rows unreadable after recovery: " +
                  (unreadable.has_value() ? std::to_string(*unreadable) : std::string("?")));
    NodeStats after = cluster->TotalStats();
    out.sim.Int("core.recovery.regions_rereplicated", cluster->regions_rereplicated());
    out.sim.Int("core.recovery.recovering_txs", after.recovering_txs_seen);
    out.sim.Int("core.recovery.tx_recovered_commit", after.tx_recovered_commit);
    out.sim.Int("core.recovery.tx_recovered_abort", after.tx_recovered_abort);
    out.sim.Int("core.recovery.tx_unresolved", after.tx_unresolved);
  } else {
    out.Check(node_stats.tx_unresolved == 0, "unresolved transactions in a failure-free run");
  }

  if (traced && tatp) {
    auto reads = AwaitTask(*cluster, ReadsPerGet(cluster.get(), *tatp, 0, seed), 60 * kSecond);
    out.Check(reads.has_value(), "hash-table probe did not finish");
    out.sim.Num("ds.reads_per_get", reads.value_or(0.0));
  }

  // ---- host cost ----
  // The warm-up is scaled at the window's speed: it runs few chunks.
  double window_chunk = Reference::ChunkSeconds(warm, measured);
  out.host.Num("warmup_cpu_s",
               Reference::Scaled(Reference::ProgramCpu(loaded, warm), window_chunk));
  out.host.Num("measure_cpu_s",
               Reference::Scaled(Reference::ProgramCpu(warm, measured), window_chunk));
  out.host.Num("measure_raw_cpu_s", Reference::ProgramCpu(warm, measured));
  out.host.Num("ref_chunk_ms", 1e3 * Reference::ChunkSeconds(process_start, measured));
  out.host.Num("rss_growth_mb", rss1 - rss0);
  out.host.Num("peak_rss_mb", PeakRssMb() - Reference::kMiB);
  PrintRound(out);
  return 0;
}

}  // namespace
}  // namespace farm

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--mode") {
      mode = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  auto spec = farm::FindWorkload(workload);
  if (!spec.has_value() || !have_seed || (mode != "untraced" && mode != "traced")) {
    std::fprintf(stderr,
                 "usage: farm_perfbench --workload <tatp|tpcc|tatp_failover> --seed <n> "
                 "--mode <untraced|traced>\n");
    return 2;
  }
  return farm::RunRound(*spec, seed, mode == "traced" ? farm::Mode::kTraced : farm::Mode::kUntraced);
}
