// The repository's benchmark driver. For one named workload and a seed it
// generates the inputs, builds one engine::Engine, drives queries only
// through the engine's public front doors
//   Engine::Prepare(workload, spec) -> PreparedQuery::Execute
//   Engine::Prepare(catalog, plan)  -> PreparedPlan::Execute
// for a fixed wall-clock budget, checks every result against a reference
// computed once at set-up through an independent path, and prints its
// metrics. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace 1 the per-layer metrics,
// which a traced run measures from outside the engine: spans around each
// public call, the QueryRun/PlanRun fields, Engine::Stats() and
// MemoryGauge deltas, and a replay of the join/cluster/decluster kernels
// on the same inputs. Exits 1 when any query fails verification.
//
// Usage (perfbench/run.py builds it and passes these through):
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--tiny] [--doctor] [--spans <file>]

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partition_plan.h"
#include "cluster/radix_cluster.h"
#include "cluster/radix_sort.h"
#include "common/aligned_buffer.h"
#include "common/cpu_dispatch.h"
#include "common/overflow.h"
#include "common/thread_pool.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "engine/engine.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "ops/plan.h"
#include "ops/reference.h"
#include "ops/table.h"
#include "pipeline/memory_gauge.h"
#include "project/checksum.h"
#include "storage/column.h"
#include "workload/chain.h"
#include "workload/generator.h"

namespace {

using radix::Status;
using radix::oid_t;
using radix::value_t;
using radix::engine::Engine;
using radix::engine::EngineConfig;
using radix::engine::Explanation;
using radix::engine::QuerySpec;
using radix::project::SideStrategy;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent), kept in memory per thread and written
// out when the run ends. A disabled tracer records nothing.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start;
  double end;
  int64_t parent;  // index into the same tracer, -1 = root
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (-1 when disabled).
  int64_t Add(const char* name, double start, double end,
              int64_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start, end, parent});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set later by Close (for parents whose
  /// children are recorded first).
  int64_t Open(const char* name, double start, int64_t parent = -1) {
    return Add(name, start, start, parent);
  }
  void Close(int64_t id, double end) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

void WriteSpans(const std::string& path, const std::vector<Tracer>& tracers,
                double origin) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                 path.c_str());
    return;
  }
  // Span ids are "<tracer>.<index>"; a root span's parent is null.
  for (size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t].spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::string parent = "null";
      if (s.parent >= 0) {
        parent = "\"";
        parent += std::to_string(t);
        parent += ".";
        parent += std::to_string(s.parent);
        parent += "\"";
      }
      std::fprintf(f,
                   "{\"id\": \"%zu.%zu\", \"parent\": %s, \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                   t, i, parent.c_str(), s.name, (s.start - origin) * 1e6,
                   (s.end - origin) * 1e6);
    }
  }
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Starts a new peak-RSS window: resets the kernel's high-water mark of the
/// resident set to its current size (Linux 4.0+). False when refused.
bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// The resident set's high-water mark (VmHWM) since the last
/// ResetPeakRss(), in MiB. Falls back to getrusage's whole-process peak.
/// getrusage cannot serve the windowed figure: each exiting thread folds
/// the peak so far into a per-process maximum that the reset leaves alone.
double PeakRssMiB() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPUs this process may run on (what `nproc` prints).
size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// The transparent-huge-page mode, the bracketed word of the sysfs file.
std::string ThpMode() {
  FILE* f = std::fopen("/sys/kernel/mm/transparent_hugepage/enabled", "r");
  if (f == nullptr) return "unknown";
  char text[128] = {};
  const size_t n = std::fread(text, 1, sizeof(text) - 1, f);
  std::fclose(f);
  const std::string s(text, n);
  const size_t open = s.find('[');
  const size_t close = s.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "unknown";
  return s.substr(open + 1, close - open - 1);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// One query shape of a workload: a two-sided (workload, spec) query or a
/// plan tree over a catalog, with its reference result.
struct Shape {
  const char* name = "";
  const radix::workload::JoinWorkload* join = nullptr;
  QuerySpec spec;
  const radix::ops::Catalog* catalog = nullptr;
  const radix::ops::LogicalPlan* plan = nullptr;
  size_t input_rows = 0;  // rows of all joined input tables
  uint64_t ref_checksum = 0;
  size_t ref_rows = 0;
  uint64_t engine_checksum = 0;  // the engine's warm-up result
  size_t engine_rows = 0;
  Explanation explain;
};

/// Everything a workload's queries read, plus the engine serving them.
/// Shapes point into the owned inputs, so an Inputs never moves.
struct Inputs {
  std::vector<std::unique_ptr<radix::workload::JoinWorkload>> joins;
  std::vector<std::unique_ptr<radix::workload::ChainWorkload>> chains;
  std::vector<std::unique_ptr<radix::ops::Catalog>> catalogs;
  std::vector<std::unique_ptr<radix::ops::LogicalPlan>> plans;
  std::vector<Shape> shapes;
  /// Shape index per query slot (one client draws them in order; several
  /// clients share one arrival counter).
  std::vector<int> schedule;
  size_t clients = 1;
  std::unique_ptr<Engine> engine;
  double gen_seconds = 0;
  double ctor_seconds = 0;
};

constexpr const char* kWorkloads[] = {"fig10-8m", "cd-stream-8m",
                                      "cd-stream-64k", "chain-4m",
                                      "serve-mix"};

/// Sizes shrink by this factor under --tiny (the self-check pass).
constexpr size_t kTinyDivisor = 128;

struct Scale {
  bool tiny = false;
  size_t rows(size_t n) const {
    return tiny ? std::max<size_t>(n / kTinyDivisor, 1024) : n;
  }
};

const radix::workload::JoinWorkload* AddJoin(Inputs* in, size_t n,
                                             size_t varchar_cols,
                                             uint64_t seed) {
  radix::workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 4;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.build_nsm = false;  // every strategy used here reads the DSM columns
  spec.varchar.num_cols = varchar_cols;
  in->joins.push_back(std::make_unique<radix::workload::JoinWorkload>(
      radix::workload::MakeJoinWorkload(spec)));
  return in->joins.back().get();
}

/// sigma(t0.a1 < 2^30) join t1 join t2, grouped by t2.a1 with sum(t0.a1)
/// and count: the ops/ chain of bench_serve. PayloadValue is uniform over
/// [0, 2^31), so the predicate keeps about half of T0.
std::unique_ptr<radix::ops::LogicalPlan> ChainPlan() {
  namespace ops = radix::ops;
  ops::Predicate pred;
  pred.col = {0, 1, false};
  pred.op = ops::CmpOp::kLt;
  pred.value = value_t{1} << 30;
  auto plan = std::make_unique<ops::LogicalPlan>();
  plan->root = ops::Aggregate(
      ops::Join(ops::Join(ops::Select(ops::Scan(0), pred), ops::Scan(1), 0, 1),
                ops::Scan(2), 1, 2),
      {{2, 1, false}},
      {{ops::AggFn::kSum, {0, 1, false}}, {ops::AggFn::kCount, {}}});
  return plan;
}

/// Generates a chain workload, its catalog and the chain plan; returns the
/// shape (reference fields unset).
Shape AddChain(Inputs* in, std::vector<size_t> cards, uint64_t seed) {
  radix::workload::ChainWorkloadSpec spec;
  spec.cardinalities = std::move(cards);
  spec.num_attrs = 4;
  spec.seed = seed;
  in->chains.push_back(std::make_unique<radix::workload::ChainWorkload>(
      radix::workload::MakeChainWorkload(spec)));
  in->catalogs.push_back(std::make_unique<radix::ops::Catalog>(
      radix::ops::CatalogFromChainWorkload(*in->chains.back())));
  in->plans.push_back(ChainPlan());
  Shape s;
  s.name = "chain";
  s.catalog = in->catalogs.back().get();
  s.plan = in->plans.back().get();
  for (size_t n : spec.cardinalities) s.input_rows += n;
  return s;
}

Shape TwoSided(const char* name, const radix::workload::JoinWorkload* w,
               QuerySpec spec) {
  Shape s;
  s.name = name;
  s.join = w;
  s.spec = spec;
  s.input_rows = w->dsm_left.cardinality() + w->dsm_right.cardinality();
  return s;
}

/// Builds the named workload's inputs and engine once, timing input
/// generation (incl. catalog build) and engine construction separately.
/// `admission_budget` is the engine's admission budget on workloads that
/// gate admission (serve-mix). Returns nullptr for an unknown name.
std::unique_ptr<Inputs> Setup(const std::string& name, uint64_t seed,
                              const Scale& scale, size_t admission_budget,
                              radix::pipeline::MemoryGauge* gauge,
                              Tracer* tr) {
  auto in = std::make_unique<Inputs>();
  EngineConfig cfg;
  cfg.gauge = gauge;
  const double t0 = Now();
  if (name == "fig10-8m" || name == "cd-stream-8m" ||
      name == "cd-stream-64k") {
    // omega = 4, hit rate 1, pi = 3 per side; N = 8M per side on 4
    // threads, or 64K serial for the L2-resident variant. With 4 threads
    // that variant's ~100 streamed chunks per query tracked host
    // scheduling noise (run-to-run IQR/median up to 0.24); serial, 0.04-0.17.
    const bool small = name == "cd-stream-64k";
    const size_t n = scale.rows(small ? size_t{1} << 16 : size_t{8} << 20);
    const auto* w = AddJoin(in.get(), n, 0, seed);
    QuerySpec spec;
    spec.pi_left = 3;
    spec.pi_right = 3;
    cfg.num_threads = small ? 1 : 4;
    if (name != "fig10-8m") {
      // The paper's own pipeline: sides pinned to c/d, and a streaming
      // budget of a quarter of the materialized intermediate (N values)
      // so the decluster side streams through pipeline/.
      spec.plan_sides = false;
      spec.left = SideStrategy::kClustered;
      spec.right = SideStrategy::kDecluster;
      cfg.streaming_budget_bytes = n * sizeof(value_t) / 4;
    }
    in->shapes.push_back(TwoSided("query", w, spec));
  } else if (name == "chain-4m") {
    in->shapes.push_back(AddChain(in.get(),
                                  {scale.rows(size_t{4} << 20),
                                   scale.rows(size_t{2} << 20),
                                   scale.rows(size_t{4} << 20)},
                                  seed));
    cfg.num_threads = 4;
  } else if (name == "serve-mix") {
    // bench_serve's shapes; every input fits in L2, so per-query fixed
    // costs dominate. 2 clients + 1 pool worker = 3 threads: the same
    // throughput as 2 workers here, and one vCPU of 4 stays free, so the
    // host preempting one vCPU does not stall a client. The heavy shape is
    // pinned to u/d so its varchar column runs the paged decluster (the
    // planner picks u/u at this size). The admission budget admits the
    // largest single reservation, so two reserving queries (chain, heavy)
    // in flight at once queue.
    const size_t point_n = scale.rows(size_t{1} << 14);
    const size_t medium_n = scale.rows(size_t{1} << 16);
    QuerySpec medium;
    medium.pi_left = 2;
    medium.pi_right = 2;
    QuerySpec heavy;
    heavy.pi_right = 1;
    heavy.pi_varchar_right = 1;
    heavy.plan_sides = false;
    heavy.left = SideStrategy::kUnsorted;
    heavy.right = SideStrategy::kDecluster;
    in->shapes.push_back(
        TwoSided("point", AddJoin(in.get(), point_n, 0, seed), QuerySpec{}));
    in->shapes.push_back(
        TwoSided("medium", AddJoin(in.get(), medium_n, 0, seed + 1), medium));
    in->shapes.push_back(
        TwoSided("heavy", AddJoin(in.get(), point_n, 1, seed + 2), heavy));
    in->shapes.push_back(
        AddChain(in.get(), {medium_n, medium_n / 2, medium_n}, seed + 3));
    cfg.num_threads = 2;
    cfg.point_query_rows_threshold = point_n;
    cfg.admission_budget_bytes = admission_budget;
    in->clients = 2;
    // ~65% point / 20% medium / 5% heavy / 10% chain, on a schedule fixed
    // by the seed.
    constexpr int kWeights[20] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                  0, 0, 0, 1, 1, 1, 1, 2, 3, 3};
    std::mt19937_64 rng(seed ^ 0x5E27E5ULL);
    in->schedule.resize(size_t{1} << 16);
    for (int& s : in->schedule) s = kWeights[rng() % 20];
  } else {
    return nullptr;
  }
  const double t1 = Now();
  in->engine = std::make_unique<Engine>(cfg);
  const double t2 = Now();
  in->gen_seconds = t1 - t0;
  in->ctor_seconds = t2 - t1;
  if (in->schedule.empty()) in->schedule = {0};
  int64_t span = tr->Open("setup", t0);
  tr->Add("workload.gen", t0, t1, span);
  tr->Add("engine.ctor", t1, t2, span);
  tr->Close(span, t2);
  return in;
}

/// The independent reference: a different JoinStrategy (DSM
/// pre-projection with a partitioned hash join, serial) for two-sided
/// shapes, the scalar tuple-at-a-time interpreter for plan trees.
Status ComputeReference(Shape* s, const Engine& ref_engine) {
  if (s->join != nullptr) {
    QuerySpec spec = s->spec;
    spec.strategy = radix::project::JoinStrategy::kDsmPrePhash;
    radix::project::QueryRun run;
    Status st = ref_engine.Prepare(*s->join, spec).Execute(&run);
    if (!st.ok()) return st;
    s->ref_checksum = run.checksum;
    s->ref_rows = run.result_cardinality;
    return Status::OK();
  }
  radix::ops::PlanRun run;
  Status st = radix::ops::ReferenceExecute(*s->catalog, *s->plan, &run);
  if (!st.ok()) return st;
  s->ref_checksum = run.checksum;
  s->ref_rows = run.result_rows;
  return Status::OK();
}

/// The largest admission reservation (Explanation::modeled_intermediate_bytes)
/// any of the shapes asks its engine for.
size_t LargestReservation(const Inputs& in) {
  size_t largest = 0;
  for (const Shape& s : in.shapes) {
    Explanation ex;
    if (s.join != nullptr) {
      ex = in.engine->Prepare(*s.join, s.spec).Explain();
    } else {
      radix::engine::PreparedPlan p;
      if (in.engine->Prepare(*s.catalog, *s.plan, &p).ok()) ex = p.Explain();
    }
    largest = std::max(largest, ex.modeled_intermediate_bytes);
  }
  return largest;
}

// ---------------------------------------------------------------------------
// One query through the front doors.
// ---------------------------------------------------------------------------

struct Sample {
  int shape = 0;
  bool ok = false;
  bool traced = false;
  double total_s = 0;    // Prepare call .. Execute return
  double prepare_s = 0;  // the Prepare call
  double execute_s = 0;  // the Execute call
  double engine_s = 0;   // QueryRun::seconds / PlanRun::seconds
  bool two_sided = false;
  radix::project::PhaseBreakdown phases;
  size_t chunks = 0;
  uint64_t checksum = 0;
  size_t rows = 0;
};

Sample RunQuery(const Shape& s, int shape, const Engine& engine, Tracer* tr) {
  Sample r;
  r.shape = shape;
  r.traced = tr->enabled();
  Status st;
  const double t0 = Now();
  const int64_t q = tr->Open("query", t0);
  double t1 = 0;
  if (s.join != nullptr) {
    radix::engine::PreparedQuery prepared = engine.Prepare(*s.join, s.spec);
    t1 = Now();
    radix::project::QueryRun run;
    st = prepared.Execute(&run);
    r.engine_s = run.seconds;
    r.two_sided = true;
    r.phases = run.phases;
    r.checksum = run.checksum;
    r.rows = run.result_cardinality;
  } else {
    radix::engine::PreparedPlan prepared;
    st = engine.Prepare(*s.catalog, *s.plan, &prepared);
    t1 = Now();
    radix::ops::PlanRun run;
    if (st.ok()) st = prepared.Execute(&run);
    r.engine_s = run.seconds;
    r.chunks = run.chunks;
    r.checksum = run.checksum;
    r.rows = run.result_rows;
  }
  const double t2 = Now();
  tr->Add("engine.prepare", t0, t1, q);
  tr->Add("engine.execute", t1, t2, q);
  tr->Close(q, t2);
  r.prepare_s = t1 - t0;
  r.execute_s = t2 - t1;
  r.total_s = t2 - t0;
  r.ok = st.ok();
  return r;
}

/// One untimed query per shape: fills the plan cache, faults the inputs in
/// and reads each shape's Explain(). Returns how many of these results
/// disagree with the reference (they count as attempted queries).
size_t WarmUp(Inputs* in) {
  size_t failed = 0;
  Tracer off(false);
  const Engine& engine = *in->engine;
  for (size_t i = 0; i < in->shapes.size(); ++i) {
    Shape& s = in->shapes[i];
    if (s.join != nullptr) {
      s.explain = engine.Prepare(*s.join, s.spec).Explain();
    } else {
      radix::engine::PreparedPlan p;
      if (engine.Prepare(*s.catalog, *s.plan, &p).ok()) s.explain = p.Explain();
    }
    const Sample w = RunQuery(s, static_cast<int>(i), engine, &off);
    s.engine_checksum = w.checksum;
    s.engine_rows = w.rows;
    if (!w.ok || w.checksum != s.ref_checksum || w.rows != s.ref_rows) {
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Kernel replay: the public join / cluster / decluster functions on the
// same inputs, with the sides and radix parameters the plan reported. The
// replay's checksum must equal the engine's, or its timings are dropped.
// ---------------------------------------------------------------------------

struct Replay {
  bool ran = false;
  bool complete = true;  // false when the plan left nothing to replay
  bool match = false;
  uint64_t checksum = 0;
  size_t rows = 0;
  double join_ms = 0;
  double gather_ms = 0;
  double cluster_ms = 0;
  double decluster_ms = 0;
  std::string note;
};

/// Times fn() in ms and records it as a span under `parent`.
template <typename Fn>
double Timed(Tracer* tr, const char* name, int64_t parent, Fn&& fn) {
  const double t0 = Now();
  fn();
  const double t1 = Now();
  tr->Add(name, t0, t1, parent);
  return (t1 - t0) * 1e3;
}

template <typename T, typename RadixFn>
radix::cluster::ClusterBorders ClusterOn(T* data, size_t n, RadixFn radix_of,
                                         const radix::cluster::ClusterSpec& spec,
                                         radix::ThreadPool* pool) {
  radix::storage::Column<T> scratch(n);
  if (pool != nullptr) {
    return radix::cluster::RadixClusterMultiPassParallel(
        data, scratch.data(), n, radix_of, spec, *pool);
  }
  radix::simcache::NoTracer tracer;
  return radix::cluster::RadixClusterMultiPass(data, scratch.data(), n,
                                               radix_of, spec, tracer);
}

/// The DSM post-projection query of Fig. 10 rebuilt from its kernels, with
/// the sides, decluster bits, passes and window that Explain() reported.
/// The left side's bits are not reported; they follow the planner's rule
/// (PartialClusterSpec) unless the spec pinned them.
Replay ReplayTwoSided(const Shape& s, const Engine& engine, Tracer* tr) {
  namespace cl = radix::cluster;
  namespace jn = radix::join;
  Replay r;
  r.ran = true;
  const radix::workload::JoinWorkload& w = *s.join;
  const radix::hardware::MemoryHierarchy& hw = engine.hierarchy();
  radix::ThreadPool* pool =
      engine.pool() != nullptr && engine.pool()->num_threads() > 1
          ? engine.pool()
          : nullptr;
  const Explanation& ex = s.explain;
  const int64_t root = tr->Open("replay", Now());

  jn::JoinIndex index;
  r.join_ms = Timed(tr, "join.partitioned_hash", root, [&] {
    jn::PartitionedHashJoinOptions opts;
    opts.pool = pool;
    index = jn::PartitionedHashJoin(w.dsm_left.key().span(),
                                    w.dsm_right.key().span(), hw, opts);
  });
  const size_t n = index.size();
  const size_t n_left = w.dsm_left.cardinality();
  const size_t n_right = w.dsm_right.cardinality();

  // Left side: reorder the index (s / c), then gather in index order.
  const SideStrategy left = ex.side_options.left;
  if (left == SideStrategy::kSorted) {
    r.cluster_ms += Timed(tr, "cluster.radix_sort", root, [&] {
      cl::RadixSortJoinIndex(index.span(), static_cast<oid_t>(n_left),
                             /*by_left=*/true);
    });
  } else if (left == SideStrategy::kClustered ||
             left == SideStrategy::kDecluster) {
    cl::ClusterSpec spec =
        cl::PartialClusterSpec(n, n_left, sizeof(value_t), hw);
    if (ex.side_options.left_bits !=
        radix::project::DsmPostOptions::kAuto) {
      spec.total_bits = ex.side_options.left_bits;
      spec.ignore_bits = cl::IgnoreBits(n_left, spec.total_bits);
      spec.passes = cl::PassesFor(spec.total_bits, hw);
    }
    r.cluster_ms += Timed(tr, "cluster.radix_cluster", root, [&] {
      ClusterOn(index.data(), n,
                [](const cl::OidPair& p) -> uint64_t { return p.left; }, spec,
                pool);
    });
  }
  std::vector<radix::storage::Column<value_t>> left_out(s.spec.pi_left);
  std::vector<radix::storage::Column<value_t>> right_out(s.spec.pi_right);
  {
    std::vector<std::span<const value_t>> cols;
    std::vector<std::span<value_t>> outs;
    for (size_t a = 0; a < left_out.size(); ++a) {
      left_out[a].Resize(n);
      cols.push_back(w.dsm_left.attr(1 + a).span());
      outs.push_back(left_out[a].span());
    }
    r.gather_ms += Timed(tr, "join.positional_gather", root, [&] {
      jn::PositionalJoinPairsColumns<value_t, /*kLeft=*/true>(index.span(),
                                                              cols, outs, pool);
    });
  }

  // Right side in result order: u gathers straight off the index; d
  // clusters (id, result position), gathers in clustered order and
  // Radix-Declusters each column back.
  std::vector<std::span<const value_t>> rcols;
  for (size_t a = 0; a < right_out.size(); ++a) {
    right_out[a].Resize(n);
    rcols.push_back(w.dsm_right.attr(1 + a).span());
  }
  if (ex.side_options.right == SideStrategy::kUnsorted) {
    std::vector<std::span<value_t>> outs;
    for (auto& c : right_out) outs.push_back(c.span());
    r.gather_ms += Timed(tr, "join.positional_gather", root, [&] {
      jn::PositionalJoinPairsColumns<value_t, /*kLeft=*/false>(
          index.span(), rcols, outs, pool);
    });
  } else {
    struct IdPos {
      oid_t id;
      oid_t pos;
    };
    if (ex.decluster_passes == 0 || ex.window_elems == 0) {
      r.complete = false;
      r.note = "Explain() reported no decluster bits, passes or window";
      tr->Close(root, Now());
      return r;  // match stays false: no timings are reported
    }
    cl::ClusterSpec spec;
    spec.total_bits = ex.decluster_bits;
    spec.ignore_bits = cl::IgnoreBits(n_right, spec.total_bits);
    spec.passes = ex.decluster_passes;
    const size_t window = ex.window_elems;
    std::vector<oid_t> ids(n);
    std::vector<oid_t> pos(n);
    cl::ClusterBorders borders;
    r.cluster_ms += Timed(tr, "cluster.radix_cluster", root, [&] {
      std::vector<IdPos> pairs(n);
      for (size_t i = 0; i < n; ++i) {
        pairs[i] = {index[i].right, static_cast<oid_t>(i)};
      }
      borders = ClusterOn(pairs.data(), n,
                          [](const IdPos& p) -> uint64_t { return p.id; },
                          spec, pool);
      for (size_t i = 0; i < n; ++i) {
        ids[i] = pairs[i].id;
        pos[i] = pairs[i].pos;
      }
    });
    char note[96];
    std::snprintf(note, sizeof(note),
                  "decluster bits=%u passes=%u window=%zu from Explain()",
                  static_cast<unsigned>(spec.total_bits), spec.passes, window);
    r.note = note;
    radix::storage::Column<value_t> clustered(n);
    for (size_t a = 0; a < rcols.size(); ++a) {
      r.gather_ms += Timed(tr, "join.positional_gather", root, [&] {
        jn::PositionalJoinColumns<value_t>(ids, {rcols[a]},
                                           {clustered.span()}, pool);
      });
      r.decluster_ms += Timed(tr, "decluster.radix_decluster", root, [&] {
        std::vector<radix::decluster::ClusterCursor> cursors =
            radix::decluster::MakeCursors(borders);
        if (pool != nullptr) {
          radix::decluster::RadixDeclusterParallel<value_t>(
              clustered.span(), pos, cursors, window, right_out[a].span(),
              *pool);
        } else {
          radix::decluster::RadixDecluster<value_t>(
              clustered.span(), pos, std::move(cursors), window,
              right_out[a].span());
        }
      });
    }
  }
  tr->Close(root, Now());

  for (size_t i = 0; i < n; ++i) {
    radix::project::RowDigest digest;
    for (const auto& c : left_out) digest.AddValue(c[i]);
    for (const auto& c : right_out) digest.AddValue(c[i]);
    r.checksum = radix::WrapAdd(r.checksum, digest.digest());
  }
  r.rows = n;
  return r;
}

/// The chain plan rebuilt from its kernels: filter T0, join the survivors'
/// keys with T1, gather T1's keys in result order, join them with T2, then
/// group by T2.a1 with sum(T0.a1) and count.
Replay ReplayChain(const Shape& s, const Engine& engine, Tracer* tr) {
  namespace jn = radix::join;
  Replay r;
  r.ran = true;
  const radix::ops::Catalog& cat = *s.catalog;
  const radix::storage::DsmRelation& t0 = *cat.table(0).relation;
  const radix::storage::DsmRelation& t1 = *cat.table(1).relation;
  const radix::storage::DsmRelation& t2 = *cat.table(2).relation;
  const radix::hardware::MemoryHierarchy& hw = engine.hierarchy();
  radix::ThreadPool* pool =
      engine.pool() != nullptr && engine.pool()->num_threads() > 1
          ? engine.pool()
          : nullptr;
  jn::PartitionedHashJoinOptions opts;
  opts.pool = pool;
  const int64_t root = tr->Open("replay", Now());

  std::vector<oid_t> selected;
  const auto& a1 = t0.attr(1);
  for (size_t i = 0; i < t0.cardinality(); ++i) {
    if (a1[i] < (value_t{1} << 30)) selected.push_back(static_cast<oid_t>(i));
  }
  std::vector<value_t> keys0(selected.size());
  r.gather_ms += Timed(tr, "join.positional_gather", root, [&] {
    jn::PositionalJoinColumns<value_t>(selected, {t0.key().span()},
                                       {std::span<value_t>(keys0)}, pool);
  });
  jn::JoinIndex edge1;
  r.join_ms += Timed(tr, "join.partitioned_hash", root, [&] {
    edge1 = jn::PartitionedHashJoin(keys0, t1.key().span(), hw, opts);
  });
  std::vector<value_t> keys1(edge1.size());
  r.gather_ms += Timed(tr, "join.positional_gather", root, [&] {
    jn::PositionalJoinPairsColumns<value_t, /*kLeft=*/false>(
        edge1.span(), {t1.key().span()}, {std::span<value_t>(keys1)}, pool);
  });
  jn::JoinIndex edge2;
  r.join_ms += Timed(tr, "join.partitioned_hash", root, [&] {
    edge2 = jn::PartitionedHashJoin(keys1, t2.key().span(), hw, opts);
  });
  tr->Close(root, Now());

  // Aggregates accumulate in 64 bits and report their low 32 bits, the
  // rule of the ops/ aggregate and its scalar reference.
  std::unordered_map<value_t, std::pair<int64_t, int64_t>> groups;
  const auto& g = t2.attr(1);
  for (size_t i = 0; i < edge2.size(); ++i) {
    const oid_t row0 = selected[edge1[edge2[i].left].left];
    auto& acc = groups[g[edge2[i].right]];
    acc.first += a1[row0];
    acc.second += 1;
  }
  auto low32 = [](int64_t v) {
    return static_cast<value_t>(
        static_cast<uint32_t>(static_cast<uint64_t>(v)));
  };
  for (const auto& [key, acc] : groups) {
    radix::project::RowDigest digest;
    digest.AddValue(key);
    digest.AddValue(low32(acc.first));
    digest.AddValue(low32(acc.second));
    r.checksum = radix::WrapAdd(r.checksum, digest.digest());
  }
  r.rows = groups.size();
  return r;
}

// ---------------------------------------------------------------------------
// Metric tables.
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// Per-layer metric -> the end-to-end metric it should move, and where.
struct LayerDoc {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
};

constexpr LayerDoc kLayers[] = {
    {"workload.gen_s", "s", "setup_s", "all"},
    {"engine.ctor_s", "s", "setup_s", "all"},
    {"engine.prepare_us", "us", "qps, query_p50_ms", "serve-mix"},
    {"engine.plan_cache_hit_ratio", "fraction", "qps", "serve-mix"},
    {"engine.admission_wait_ms", "ms", "query_p99_ms", "serve-mix"},
    {"engine.dispatch_ms", "ms", "query_p50_ms",
     "fig10-8m, cd-stream-64k, serve-mix"},
    {"project.join_ms", "ms", "query_p50_ms",
     "fig10-8m, cd-stream-8m, cd-stream-64k"},
    {"project.cluster_ms", "ms", "query_p50_ms", "cd-stream-8m, cd-stream-64k"},
    {"project.gather_ms", "ms", "query_p50_ms",
     "fig10-8m, cd-stream-8m, cd-stream-64k"},
    {"project.decluster_ms", "ms", "query_p50_ms",
     "cd-stream-8m, cd-stream-64k"},
    {"project.unattributed_ms", "ms", "query_p50_ms", "fig10-8m"},
    {"pipeline.wall_ms", "ms", "query_p50_ms", "cd-stream-8m, cd-stream-64k"},
    {"pipeline.peak_intermediate_mb", "MiB", "peak_rss_mb",
     "cd-stream-8m, cd-stream-64k"},
    {"ops.execute_ms", "ms", "query_p50_ms", "chain-4m, serve-mix"},
    {"ops.root_chunks", "count", "query_p50_ms", "chain-4m, serve-mix"},
    {"join.partitioned_hash_ms", "ms", "query_p50_ms",
     "fig10-8m, cd-stream-8m, cd-stream-64k, chain-4m"},
    {"join.positional_gather_ms", "ms", "query_p50_ms",
     "fig10-8m, cd-stream-64k"},
    {"cluster.radix_cluster_ms", "ms", "query_p50_ms",
     "cd-stream-8m, cd-stream-64k"},
    {"decluster.radix_decluster_ms", "ms", "query_p50_ms",
     "cd-stream-8m, cd-stream-64k"},
    {"process.cpu_util", "fraction", "input_rows_per_s",
     "fig10-8m, cd-stream-8m, cd-stream-64k, chain-4m"},
    {"trace.overhead_ms", "ms", "(none: traced minus untraced query_p50_ms)",
     "all"},
};

const char* UnitOf(const char* name) {
  for (const LayerDoc& d : kLayers) {
    if (std::strcmp(d.name, name) == 0) return d.unit;
  }
  return "";
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"";
    json += metrics[i].name;
    json += "\": {\"value\": ";
    json += value;
    json += ", \"unit\": \"";
    json += metrics[i].unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool doctor = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--doctor") {
      a->doctor = true;
    } else if ((v = value()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> [--trace 0|1] [--tiny] [--doctor] "
                 "[--spans <file>]\n");
    return 2;
  }
  const double origin = Now();
  const Scale scale{args.tiny};
  radix::pipeline::MemoryGauge gauge;
  Tracer setup_tr(args.trace);
  Tracer off(false);

  // Set-up is timed in kBlocks windows spread over the run: one before the
  // reference and one before each later query block. A window rebuilds the
  // live inputs and engine until kSetupSliceS has passed (at least once).
  // Before each repetition the old inputs are freed and the allocator
  // hands free memory back to the kernel, so every set-up faults its pages
  // in as a fresh process would; reusing whatever the heap held made the
  // figure swing 2x with the allocator's state. setup_s is the mean of the
  // windows' medians. The host this was tuned on switches between two
  // speeds ~1.5x apart for seconds at a time: one window reported whichever
  // speed it hit, and the median of the windows flipped between the two,
  // while the mean moves with the share of time spent at each.
  constexpr size_t kBlocks = 8;
  constexpr double kSetupSliceS = 0.15;
  std::vector<double> setup_s, gen_s, ctor_s;  // one median per window
  std::unique_ptr<Inputs> in;
  // The admission budget follows the shapes' own reservations, so it is
  // planned on an untimed instance first.
  size_t admission_budget = 0;
  if (auto probe = Setup(args.workload, args.seed, scale, 0, &gauge, &off)) {
    admission_budget = LargestReservation(*probe);
  }
  auto setup_window = [&]() -> bool {
    std::vector<double> total, gen, ctor;
    const double t0 = Now();
    do {
      std::vector<Shape> previous;
      if (in != nullptr) previous = std::move(in->shapes);
      in.reset();
      malloc_trim(0);
      in = Setup(args.workload, args.seed, scale, admission_budget, &gauge,
                 &setup_tr);
      if (in == nullptr) return false;
      // Same seed, same inputs: the reference and plan carry over.
      for (size_t i = 0; i < previous.size(); ++i) {
        Shape& s = in->shapes[i];
        s.ref_checksum = previous[i].ref_checksum;
        s.ref_rows = previous[i].ref_rows;
        s.explain = previous[i].explain;
      }
      gen.push_back(in->gen_seconds);
      ctor.push_back(in->ctor_seconds);
      total.push_back(in->gen_seconds + in->ctor_seconds);
    } while (Now() - t0 < kSetupSliceS);
    setup_s.push_back(Median(total));
    gen_s.push_back(Median(gen));
    ctor_s.push_back(Median(ctor));
    return true;
  };
  if (!setup_window()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, ")\n");
    return 2;
  }

  // Reference results, once, outside setup_s.
  {
    EngineConfig ref_cfg;
    ref_cfg.hierarchy = in->engine->hierarchy();
    ref_cfg.plan_cache_capacity = 0;
    Engine ref_engine(ref_cfg);
    const double t0 = Now();
    for (Shape& s : in->shapes) {
      Status st = ComputeReference(&s, ref_engine);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: reference for %s failed: %s\n",
                     s.name, st.ToString().c_str());
        return 1;
      }
    }
    const double t1 = Now();
    setup_tr.Add("reference", t0, t1);
    std::printf("reference_s %.4f (independent path, outside setup_s)\n",
                t1 - t0);
  }

  size_t warm_failed = 0;
  size_t warm_attempted = 0;
  auto warm_up = [&] {
    const double t0 = Now();
    warm_failed += WarmUp(in.get());
    warm_attempted += in->shapes.size();
    setup_tr.Add("warmup", t0, Now());
  };
  warm_up();

  // Run context.
  {
    const Engine& engine = *in->engine;
    const char* huge_env = std::getenv("RADIX_HUGE_PAGES");
    std::string ctx = "{\"workload\": \"" + args.workload + "\"";
    ctx += ", \"seed\": " + std::to_string(args.seed);
    ctx += ", \"tiny\": ";
    ctx += args.tiny ? "true" : "false";
    ctx += ", \"nproc\": " + std::to_string(Nproc());
    ctx += ", \"hierarchy\": \"" + JsonEscape(engine.hierarchy().ToString()) +
           "\"";
    ctx += ", \"isa\": \"";
    ctx += radix::cpu::IsaName(radix::cpu::ActiveIsa());
    ctx += "\", \"thp\": \"" + JsonEscape(ThpMode()) + "\"";
    ctx += ", \"RADIX_HUGE_PAGES\": \"";
    ctx += huge_env != nullptr ? JsonEscape(huge_env) : "(unset)";
    ctx += "\", \"huge_page_policy\": \"";
    switch (radix::ActiveHugePagePolicy()) {
      case radix::HugePagePolicy::kOff: ctx += "off"; break;
      case radix::HugePagePolicy::kAuto: ctx += "auto"; break;
      case radix::HugePagePolicy::kHugetlb: ctx += "hugetlb"; break;
    }
    ctx += "\", \"engine_threads\": " + std::to_string(engine.num_threads());
    ctx += ", \"clients\": " + std::to_string(in->clients);
    ctx += ", \"admission_budget_bytes\": " +
           std::to_string(engine.config().admission_budget_bytes);
    ctx += ", \"shapes\": [";
    for (size_t i = 0; i < in->shapes.size(); ++i) {
      const Shape& s = in->shapes[i];
      const Explanation& ex = s.explain;
      if (i > 0) ctx += ", ";
      ctx += "{\"name\": \"";
      ctx += s.name;
      ctx += "\", \"plan_code\": \"" + JsonEscape(ex.plan_code) + "\"";
      ctx += ", \"streaming\": ";
      ctx += ex.streaming ? "true" : "false";
      ctx += ", \"chunk_rows\": " + std::to_string(ex.chunk_rows);
      ctx += ", \"threads\": " + std::to_string(ex.threads);
      ctx += ", \"decluster_bits\": " + std::to_string(ex.decluster_bits);
      ctx += ", \"decluster_passes\": " + std::to_string(ex.decluster_passes);
      ctx += ", \"window_elems\": " + std::to_string(ex.window_elems);
      ctx += ", \"modeled_intermediate_bytes\": " +
             std::to_string(ex.modeled_intermediate_bytes);
      ctx += ", \"input_rows\": " + std::to_string(s.input_rows);
      ctx += ", \"result_rows\": " + std::to_string(s.ref_rows);
      ctx += ", \"mode_reason\": \"" + JsonEscape(ex.mode_reason) + "\"}";
    }
    ctx += "]}";
    std::printf("context %s\n", ctx.c_str());
  }

  // Measure: kBlocks query blocks of closed-loop clients, each after a
  // set-up window (the first one ran above) and its warm-up. Only the
  // query blocks count towards wall time, CPU time and the Stats()/gauge
  // deltas. Each block also has its own peak resident set: freed memory
  // goes back to the kernel and the high-water mark restarts when the
  // block starts, so set-up, the reference and earlier blocks do not
  // count. peak_rss_mb is the median of the blocks' peaks; the maximum
  // followed the allocator's luck in single blocks (+15%). With --trace 1
  // every other query records spans, so the traced and untraced medians
  // come from the same run (their difference is the tracing overhead).
  const bool peak_windowed = ResetPeakRss();
  if (!peak_windowed) {
    std::printf("peak_rss_mb covers the whole process: the kernel refused "
                "to reset its high-water mark\n");
  }
  double wall = 0;
  double cpu = 0;
  std::vector<double> block_peak_rss;
  size_t gauge_peak = 0;
  uint64_t hits = 0, misses = 0, admitted = 0, queued = 0, wait_ns = 0;
  std::atomic<size_t> next{0};
  std::vector<std::vector<Sample>> per_client(in->clients);
  std::vector<Tracer> tracers;
  tracers.reserve(in->clients + 1);
  for (size_t c = 0; c < in->clients; ++c) tracers.emplace_back(args.trace);
  for (size_t b = 0; b < kBlocks; ++b) {
    if (b > 0) {
      setup_window();
      warm_up();
    }
    const Engine& engine = *in->engine;
    const radix::engine::EngineStats stats0 = engine.Stats();
    gauge.ResetPeak();
    const size_t gauge0 = gauge.current_bytes();
    if (peak_windowed) {
      malloc_trim(0);
      ResetPeakRss();
    }
    const double cpu0 = CpuSeconds();
    const double start = Now();
    const double deadline = start + args.seconds / kBlocks;
    auto client = [&](size_t c) {
      do {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        const int shape = in->schedule[i % in->schedule.size()];
        const bool traced = args.trace && i % 2 == 1;
        per_client[c].push_back(
            RunQuery(in->shapes[static_cast<size_t>(shape)], shape, engine,
                     traced ? &tracers[c] : &off));
      } while (Now() < deadline);
    };
    std::vector<std::thread> threads;
    for (size_t c = 1; c < in->clients; ++c) threads.emplace_back(client, c);
    client(0);
    for (std::thread& t : threads) t.join();
    wall += Now() - start;
    cpu += CpuSeconds() - cpu0;
    block_peak_rss.push_back(PeakRssMiB());
    const size_t gp = gauge.peak_bytes();
    gauge_peak = std::max(gauge_peak, gp - std::min(gp, gauge0));
    const radix::engine::EngineStats stats1 = engine.Stats();
    hits += stats1.plan_cache_hits - stats0.plan_cache_hits;
    misses += stats1.plan_cache_misses - stats0.plan_cache_misses;
    admitted += stats1.admission.admitted - stats0.admission.admitted;
    queued += stats1.admission.queued - stats0.admission.queued;
    wait_ns += stats1.admission.total_queue_wait_nanos -
               stats0.admission.total_queue_wait_nanos;
  }
  const Engine& engine = *in->engine;

  // Verify every result against the reference.
  std::vector<Sample> samples;
  for (auto& v : per_client) samples.insert(samples.end(), v.begin(), v.end());
  if (args.doctor && !samples.empty()) samples.front().checksum ^= 1;
  size_t failed = 0;
  double input_rows = 0;
  double query_seconds = 0;
  for (Sample& s : samples) {
    const Shape& shape = in->shapes[static_cast<size_t>(s.shape)];
    s.ok = s.ok && s.checksum == shape.ref_checksum &&
           s.rows == shape.ref_rows;
    if (s.ok) {
      input_rows += static_cast<double>(shape.input_rows);
    } else {
      ++failed;
    }
    query_seconds += s.total_s;
  }
  failed += warm_failed;  // warm-up results count as attempted queries too
  const size_t attempted = samples.size() + warm_attempted;
  const bool correct = failed == 0;
  if (!correct) {
    std::fprintf(stderr, "perfbench: %zu of %zu queries failed verification\n",
                 failed, attempted);
  }

  std::vector<double> lat_ms, lat_traced_ms, lat_untraced_ms;
  for (const Sample& s : samples) {
    lat_ms.push_back(s.total_s * 1e3);
    (s.traced ? lat_traced_ms : lat_untraced_ms).push_back(s.total_s * 1e3);
  }
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("queries %zu over %.3f s, %zu clients, %zu engine threads\n",
              samples.size(), wall, in->clients, engine.num_threads());
  std::printf("error_rate %.6f fraction (%zu failed / %zu attempted)\n",
              error_rate, failed, attempted);
  if (in->clients > 1) {
    // Only a multi-client run holds enough samples for a tail: report the
    // highest percentile with >= 10 samples beyond it.
    std::printf("query_p99_ms %.4f ms (%zu samples, %zu beyond p99)\n",
                Percentile(lat_ms, 0.99), lat_ms.size(), lat_ms.size() / 100);
  }

  std::string windows;
  for (double v : setup_s) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), " %.4f", v * 1e3);
    windows += ms;
  }
  std::printf("setup windows (median ms each):%s\n", windows.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"query_p50_ms", "ms", Median(lat_ms)},
        {"qps", "queries/s",
         static_cast<double>(samples.size() - std::min(samples.size(), failed)) /
             wall},
        {"input_rows_per_s", "rows/s",
         query_seconds > 0 ? input_rows / query_seconds : 0},
        {"setup_s", "s", Mean(setup_s)},
        {"peak_rss_mb", "MiB", Median(block_peak_rss)},
    };
  } else {
    std::vector<double> prep_us, dispatch_ms, join_ms, cluster_ms, gather_ms,
        decluster_ms, unattributed_ms, pipe_ms, ops_ms, chunks;
    for (const Sample& s : samples) {
      if (!s.traced) continue;
      prep_us.push_back(s.prepare_s * 1e6);
      dispatch_ms.push_back((s.execute_s - s.engine_s) * 1e3);
      if (s.two_sided) {
        join_ms.push_back(s.phases.join_seconds * 1e3);
        cluster_ms.push_back(s.phases.cluster_seconds * 1e3);
        gather_ms.push_back(s.phases.projection_seconds * 1e3);
        decluster_ms.push_back(s.phases.decluster_seconds * 1e3);
        unattributed_ms.push_back((s.engine_s - s.phases.total()) * 1e3);
        pipe_ms.push_back(s.phases.pipeline_wall_seconds * 1e3);
      } else {
        ops_ms.push_back(s.engine_s * 1e3);
        chunks.push_back(static_cast<double>(s.chunks));
      }
    }
    std::printf("plan cache: %" PRIu64 " hits / %" PRIu64
                " prepares in the query blocks (each block's warm-up prepared "
                "every shape first)\n",
                hits, hits + misses);
    std::printf("admission: %" PRIu64 " admitted, %" PRIu64
                " queued in the query blocks\n",
                admitted, queued);

    Replay replay;
    const Shape& s0 = in->shapes.front();
    if (s0.join != nullptr && in->clients == 1) {
      replay = ReplayTwoSided(s0, engine, &setup_tr);
    } else if (s0.catalog != nullptr && in->clients == 1) {
      replay = ReplayChain(s0, engine, &setup_tr);
    }
    if (replay.ran) {
      replay.match = replay.complete &&
                     replay.checksum == s0.engine_checksum &&
                     replay.rows == s0.engine_rows;
      std::printf("replay: checksum %016" PRIx64 " rows %zu vs engine %016"
                  PRIx64 " rows %zu: %s%s%s\n",
                  replay.checksum, replay.rows, s0.engine_checksum,
                  s0.engine_rows, replay.match ? "match" : "MISMATCH",
                  replay.note.empty() ? "" : "; ", replay.note.c_str());
      if (!replay.match) {
        std::fprintf(stderr,
                     "perfbench: kernel replay disagrees with the engine; "
                     "replay timings are not reported\n");
        replay = Replay{};
      }
    }
    auto metric = [](const char* name, double value) {
      return Metric{name, UnitOf(name), value};
    };
    metrics = {
        metric("workload.gen_s", Mean(gen_s)),
        metric("engine.ctor_s", Mean(ctor_s)),
        metric("engine.prepare_us", Median(prep_us)),
        metric("engine.plan_cache_hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0),
        metric("engine.admission_wait_ms",
               admitted > 0 ? static_cast<double>(wait_ns) / 1e6 /
                                  static_cast<double>(admitted)
                            : 0),
        metric("engine.dispatch_ms", Median(dispatch_ms)),
        metric("project.join_ms", Median(join_ms)),
        metric("project.cluster_ms", Median(cluster_ms)),
        metric("project.gather_ms", Median(gather_ms)),
        metric("project.decluster_ms", Median(decluster_ms)),
        metric("project.unattributed_ms", Median(unattributed_ms)),
        metric("pipeline.wall_ms", Median(pipe_ms)),
        metric("pipeline.peak_intermediate_mb",
               static_cast<double>(gauge_peak) / (1024.0 * 1024.0)),
        metric("ops.execute_ms", Median(ops_ms)),
        metric("ops.root_chunks", Median(chunks)),
        metric("join.partitioned_hash_ms", replay.join_ms),
        metric("join.positional_gather_ms", replay.gather_ms),
        metric("cluster.radix_cluster_ms", replay.cluster_ms),
        metric("decluster.radix_decluster_ms", replay.decluster_ms),
        metric("process.cpu_util",
               cpu / (wall * static_cast<double>(in->clients - 1 +
                                                 engine.num_threads()))),
        metric("trace.overhead_ms",
               Median(lat_traced_ms) - Median(lat_untraced_ms)),
    };
    std::printf("per-layer metrics (0 = the layer does no work here):\n");
    for (const LayerDoc& d : kLayers) {
      std::printf("  %-30s should move %-18s on %s\n", d.name, d.moves, d.on);
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name, m.value, m.unit);
  }
  if (args.trace && !args.spans.empty()) {
    tracers.push_back(std::move(setup_tr));
    WriteSpans(args.spans, tracers, origin);
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
