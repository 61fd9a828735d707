// Microbenchmarks (google-benchmark) of the hot operations behind the
// experiment pipeline: graph construction, feature extraction, component
// decomposition, clustering, random routes, max-flow, alias sampling,
// binary snapshot save/load (the regenerate-vs-reload tradeoff), the
// service WAL's append/replay path (the durability cost per event),
// CRC-32 and checkpoint encoding, streaming ingest and flag-sweep
// throughput, and the shard-routing decision.
//
// `--json <path>` additionally writes a compact machine-readable
// series — one entry per benchmark with its real time and derived
// rates — which CI diffs against the committed BENCH_micro.json
// baseline. All other flags pass through to google-benchmark.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_state.h"
#include "core/features.h"
#include "core/stream_detector.h"
#include "core/parallel.h"
#include "service/defense_scorer.h"
#include "service/router.h"
#include "service/wal.h"
#include "service/workload.h"
#include "osn/simulator.h"
#include "graph/clustering.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/maxflow.h"
#include "graph/walks.h"
#include "io/crc32.h"
#include "io/graph_snapshot.h"
#include "stats/distributions.h"

namespace {

using namespace sybil;

/// Pins the shared pool to one worker for a benchmark's timed loop, so
/// its row measures the code rather than the host's spare cores, and
/// restores the previous count on scope exit.
class OneWorker {
 public:
  OneWorker() { core::set_thread_count(1); }
  ~OneWorker() { core::set_thread_count(saved_); }
  OneWorker(const OneWorker&) = delete;
  OneWorker& operator=(const OneWorker&) = delete;

 private:
  std::size_t saved_ = core::thread_count();
};

const graph::TimestampedGraph& shared_graph() {
  static const graph::TimestampedGraph g = [] {
    stats::Rng rng(1);
    return graph::osn_like_graph(
        {.nodes = 50'000, .mean_links = 12.0, .triadic_closure = 0.2,
         .pa_beta = 1.0},
        rng);
  }();
  return g;
}

const graph::CsrGraph& shared_csr() {
  static const graph::CsrGraph csr = graph::CsrGraph::from(shared_graph());
  return csr;
}

void BM_CsrSnapshot(benchmark::State& state) {
  const auto& g = shared_graph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsrGraph::from(g));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
}
BENCHMARK(BM_CsrSnapshot);

// --- Snapshot persistence: what --load-graph buys over regenerating ---
//
// BM_OsnGraphGenerate is the cost a bench pays to rebuild the shared
// 50k-node graph from its seed; the Snapshot benches are the cost of
// reading the same structure back from a binary container: the mapped
// file's CRCs checked, its rows validated as a simple graph and copied
// out.

void BM_OsnGraphGenerate(benchmark::State& state) {
  for (auto _ : state) {
    stats::Rng rng(1);
    benchmark::DoNotOptimize(graph::osn_like_graph(
        {.nodes = 50'000, .mean_links = 12.0, .triadic_closure = 0.2,
         .pa_beta = 1.0},
        rng));
  }
}
BENCHMARK(BM_OsnGraphGenerate);

std::string snapshot_path(const char* name) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/" + name;
}

void BM_GraphSnapshotSave(benchmark::State& state) {
  const auto& g = shared_graph();
  const std::string path = snapshot_path("sybil_bench_graph.snap");
  for (auto _ : state) {
    io::save_graph_snapshot(g, path);
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_GraphSnapshotSave);

void BM_GraphSnapshotLoad(benchmark::State& state) {
  const auto& g = shared_graph();
  const std::string path = snapshot_path("sybil_bench_graph.snap");
  io::save_graph_snapshot(g, path);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::load_graph_snapshot(path));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.edge_count()));
  std::remove(path.c_str());
}
BENCHMARK(BM_GraphSnapshotLoad);

void BM_ConnectedComponents(benchmark::State& state) {
  const auto& csr = shared_csr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::connected_components(csr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(csr.edge_count()));
}
BENCHMARK(BM_ConnectedComponents);

const graph::NeighborView& shared_view() {
  static const graph::NeighborView view =
      graph::NeighborView::from(shared_graph());
  return view;
}

void BM_FirstKClustering(benchmark::State& state) {
  const auto& view = shared_view();
  graph::ClusteringScratch scratch;
  graph::NodeId u = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::first_k_clustering(view, u, 50, scratch));
    u = (u + 1) % view.node_count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FirstKClustering);

/// The batch entry point over a full candidate sweep (coefficients/sec
/// across 4096 subjects; amortizes chunk scratch and, in real sweeps,
/// the shared sorted view).
void BM_FirstKClusteringBatch(benchmark::State& state) {
  const auto& view = shared_view();
  std::vector<graph::NodeId> subjects(4096);
  for (std::size_t i = 0; i < subjects.size(); ++i) {
    subjects[i] = static_cast<graph::NodeId>((i * 131) % view.node_count());
  }
  std::vector<double> out(subjects.size());
  for (auto _ : state) {
    graph::first_k_clustering_batch(view, subjects, 50, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(subjects.size()));
}
BENCHMARK(BM_FirstKClusteringBatch);

void BM_TriangleCount(benchmark::State& state) {
  const auto& csr = shared_csr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::triangle_count(csr));
  }
}
BENCHMARK(BM_TriangleCount);

void BM_RandomWalk(benchmark::State& state) {
  const auto& csr = shared_csr();
  stats::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::random_walk_endpoint(csr, 0, static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_RandomWalk)->Arg(16)->Arg(64)->Arg(256);

void BM_RouteTableBuild(benchmark::State& state) {
  const auto& csr = shared_csr();
  for (auto _ : state) {
    stats::Rng rng(3);
    benchmark::DoNotOptimize(graph::RouteTable(csr, rng));
  }
}
BENCHMARK(BM_RouteTableBuild);

void BM_AliasSamplerBuild(benchmark::State& state) {
  const auto& csr = shared_csr();
  std::vector<double> weights(csr.node_count());
  for (graph::NodeId u = 0; u < csr.node_count(); ++u) {
    weights[u] = csr.degree(u) + 1.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::AliasSampler(weights));
  }
}
BENCHMARK(BM_AliasSamplerBuild);

void BM_AliasSamplerDraw(benchmark::State& state) {
  const auto& csr = shared_csr();
  std::vector<double> weights(csr.node_count());
  for (graph::NodeId u = 0; u < csr.node_count(); ++u) {
    weights[u] = csr.degree(u) + 1.0;
  }
  const stats::AliasSampler alias(weights);
  stats::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(alias(rng));
  }
}
BENCHMARK(BM_AliasSamplerDraw);

void BM_MaxFlowGrid(benchmark::State& state) {
  // k x k grid, unit capacities, corner to corner.
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    graph::FlowNetwork net(static_cast<std::size_t>(k) * k);
    const auto id = [k](int r, int c) {
      return static_cast<std::size_t>(r) * k + c;
    };
    for (int r = 0; r < k; ++r) {
      for (int c = 0; c < k; ++c) {
        if (c + 1 < k) net.add_undirected(id(r, c), id(r, c + 1), 1);
        if (r + 1 < k) net.add_undirected(id(r, c), id(r + 1, c), 1);
      }
    }
    benchmark::DoNotOptimize(net.max_flow(0, id(k - 1, k - 1)));
  }
}
BENCHMARK(BM_MaxFlowGrid)->Arg(16)->Arg(64);

void BM_FeatureExtraction(benchmark::State& state) {
  static const osn::GroundTruthSimulator* sim = [] {
    osn::GroundTruthConfig cfg;
    cfg.background_users = 5'000;
    cfg.subject_normals = 200;
    cfg.subject_sybils = 200;
    cfg.sim_hours = 120.0;
    auto* s = new osn::GroundTruthSimulator(cfg);
    s->run();
    return s;
  }();
  const core::FeatureExtractor fx(sim->network());
  std::size_t i = 0;
  const auto& ids = sim->subject_sybils();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.extract(ids[i % ids.size()]));
    ++i;
  }
}
BENCHMARK(BM_FeatureExtraction);

// --- Service WAL: append and replay throughput ---------------------

std::string wal_bench_dir() {
  return (std::filesystem::temp_directory_path() / "sybil_bench_wal")
      .string();
}

/// Bytes of every file in `dir`: what the WAL rows count as processed.
std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    n += entry.file_size();
  }
  return n;
}

osn::Event wal_bench_event(std::uint64_t i) {
  return osn::Event{osn::EventType::kRequestSent,
                    static_cast<graph::NodeId>(i % 997),
                    static_cast<graph::NodeId>((i * 31 + 1) % 997),
                    static_cast<double>(i) * 1e-3};
}

/// Arg: fsync policy (0 = every append, 2 = never) — the durability
/// cost per logged event is exactly the gap between the two series.
/// Both run the way the supervisor pump drives the writer in
/// production: appends committed in 64-record batches
/// (WalWriter::commit) — one coalesced fsync per batch under
/// kEveryAppend, I/O only at segment rotation under kNever.
void BM_WalAppend(benchmark::State& state) {
  const std::string dir = wal_bench_dir();
  std::filesystem::remove_all(dir);
  service::WalOptions options;
  options.dir = dir;
  options.fsync = static_cast<service::WalFsync>(state.range(0));
  constexpr std::uint64_t kBatch = 64;
  std::uint64_t i = 0;
  {
    service::WalWriter wal(options, 0);
    for (auto _ : state) {
      const osn::Event e = wal_bench_event(i);
      benchmark::DoNotOptimize(wal.append(e, i, 0, e.time));
      if (++i % kBatch == 0) wal.commit();
    }
    wal.commit();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
  state.SetBytesProcessed(static_cast<std::int64_t>(directory_bytes(dir)));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppend)->Arg(0)->Arg(2);

/// Full-log recovery scan (one CRC per frame) over 64k records, written
/// as the supervisor writes them under kNever: a frame per segment.
void BM_WalReplay(benchmark::State& state) {
  static const std::string dir = [] {
    const std::string d = wal_bench_dir() + "_replay";
    std::filesystem::remove_all(d);
    service::WalOptions options;
    options.dir = d;
    options.fsync = service::WalFsync::kNever;
    service::WalWriter wal(options, 0);
    for (std::uint64_t i = 0; i < 65'536; ++i) {
      const osn::Event e = wal_bench_event(i);
      wal.append(e, i, 0, e.time);
      wal.commit();
    }
    return d;
  }();
  const std::uint64_t log_bytes = directory_bytes(dir);
  std::uint64_t scans = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    service::WalScanReport report;
    const auto replayed = service::scan_wal(dir, 0, report);
    benchmark::DoNotOptimize(replayed.data());
    records += report.records_returned;
    ++scans;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetBytesProcessed(static_cast<std::int64_t>(scans * log_bytes));
}
BENCHMARK(BM_WalReplay);

/// CRC-32 throughput at a small block and an 8 MiB checkpoint section.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(i * 131 + (i >> 7));
  }
  for (auto _ : state) benchmark::DoNotOptimize(io::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(44)->Arg(8 << 20);

// --- Streaming detection: ingest, sweep, and shard routing ----------

const std::vector<osn::Event>& service_bench_events() {
  static const std::vector<osn::Event> events = [] {
    service::WorkloadOptions w;
    w.accounts = 20'000;
    w.events = 100'000;
    w.hours = 48.0;
    w.seed = 2;
    w.malformed_fraction = 0.01;  // keep the dead-letter branch hot
    return service::synthetic_workload(w);
  }();
  return events;
}

core::DetectorOptions service_bench_options() {
  core::DetectorOptions d;
  d.rule.invite_rate_min = 4.0;
  d.rule.outgoing_accept_max = 0.5;
  d.rule.min_requests = 5;
  return d;
}

/// Event-application throughput of the streaming detector (events/sec
/// over a 20k-account, 100k-event synthetic feed).
void BM_ServiceIngest(benchmark::State& state) {
  const auto& events = service_bench_events();
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::StreamDetector detector(service_bench_options());
    state.ResumeTiming();
    std::uint64_t seq = 0;
    for (const auto& e : events) detector.ingest(e, seq++);
    benchmark::DoNotOptimize(detector.applied_total());
    n += events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ServiceIngest);

/// A stream spanning three default (48 h) watermark windows, so most
/// events leave the reorder buffer by the watermark rather than by
/// finish(); with `jitter_hours` > 0 each time is pulled back by up to
/// that much (seqs stay in arrival order), as on durable-4shard.
std::vector<osn::Event> reorder_bench_events(double jitter_hours) {
  service::WorkloadOptions w;
  w.accounts = 20'000;
  w.events = 200'000;
  w.hours = 3 * core::IngestOptions{}.watermark_hours;
  w.seed = 3;
  std::vector<osn::Event> events = service::synthetic_workload(w);
  if (jitter_hours > 0.0) {
    std::mt19937_64 rng(w.seed);
    for (osn::Event& e : events) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      e.time = std::max(0.0, e.time - u * jitter_hours);
    }
  }
  return events;
}

/// Reorder-buffer release throughput (events/sec through ingest() and
/// the closing finish()): in time order, ingest-1shard's shape, and
/// with 6 h of jitter, durable-4shard's.
void BM_ReorderRelease(benchmark::State& state, double jitter_hours) {
  const std::vector<osn::Event> events = reorder_bench_events(jitter_hours);
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::StreamDetector detector(service_bench_options());
    state.ResumeTiming();
    std::uint64_t seq = 0;
    for (const auto& e : events) detector.ingest(e, seq++);
    detector.finish();
    benchmark::DoNotOptimize(detector.applied_total());
    n += events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK_CAPTURE(BM_ReorderRelease, in_order, 0.0);
BENCHMARK_CAPTURE(BM_ReorderRelease, jitter6h, 6.0);

/// Flag-sweep pass over a fully ingested population just restored from
/// its stream state, when every account is a candidate (candidate
/// re-evaluations/sec — the worst-case pass of the sweep-only
/// degradation tier; between restores a sweep re-checks only the
/// accounts whose rule inputs changed).
void BM_SweepFlags(benchmark::State& state) {
  static const std::vector<std::byte> blob = [] {
    core::StreamDetector d(service_bench_options());
    std::uint64_t seq = 0;
    for (const auto& e : service_bench_events()) d.ingest(e, seq++);
    d.finish();
    return core::serialize_stream_state(d);
  }();
  core::StreamDetector detector(service_bench_options());
  std::uint64_t candidates = 0;
  for (auto _ : state) {
    state.PauseTiming();
    core::restore_stream_state(detector, blob);
    candidates += detector.accounts_seen();
    state.ResumeTiming();
    benchmark::DoNotOptimize(detector.sweep_flags(49.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(candidates));
}
BENCHMARK(BM_SweepFlags);

/// Checkpoint encoding of a mid-stream detector: applied state plus a
/// 6 h reorder buffer and its seen-seqs (bytes/sec of blob written), at
/// one worker: the encoder's own cost, not the host's spare cores.
void BM_SerializeStreamState(benchmark::State& state) {
  static const core::StreamDetector* detector = [] {
    core::DetectorOptions options = service_bench_options();
    options.ingest.watermark_hours = 6.0;
    auto* d = new core::StreamDetector(options);
    std::uint64_t seq = 0;
    for (const auto& e : service_bench_events()) d->ingest(e, seq++);
    return d;
  }();
  std::size_t bytes = 0;
  const OneWorker one_worker;
  for (auto _ : state) {
    const std::vector<std::byte> blob = core::serialize_stream_state(*detector);
    bytes += blob.size();
    benchmark::DoNotOptimize(blob.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeStreamState);

/// Pure routing decision: which shards an event must reach (decisions/
/// sec; the per-event overhead the router adds before any WAL I/O).
void BM_ShardRoute(benchmark::State& state) {
  const auto& events = service_bench_events();
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  std::size_t i = 0;
  std::uint64_t copies = 0;
  for (auto _ : state) {
    // The allocation-free plan the router's hot path uses: one type
    // dispatch per event regardless of fanout, so the 8-shard decision
    // costs the same as the 1-shard one.
    const service::RoutePlan plan = service::plan_route(events[i], shards);
    copies += plan.broadcast ? shards : plan.count;
    benchmark::DoNotOptimize(copies);
    i = (i + 1) % events.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ShardRoute)->Arg(1)->Arg(8);

// --- Service defense tier (docs/DEFENSES.md) ------------------------

/// 100k-node base for the defense-tier benches: large enough that a
/// full power-iteration recompute is decidedly not free, sized to the
/// defense tier's target scale rather than shared_graph()'s 50k.
const graph::TimestampedGraph& defense_bench_base() {
  static const graph::TimestampedGraph g = [] {
    stats::Rng rng(3);
    return graph::osn_like_graph(
        {.nodes = 100'000, .mean_links = 12.0, .triadic_closure = 0.2,
         .pa_beta = 1.0},
        rng);
  }();
  return g;
}

/// Synthetic arrival stream: well-spread (u, v) pairs from two mixed
/// LCGs. Self-loops and duplicates are possible and deliberately kept —
/// the live stream has them too, and add_edge's reject path is part of
/// the measured cost.
std::pair<graph::NodeId, graph::NodeId> defense_bench_arrival(
    std::uint64_t k, graph::NodeId n) {
  return {static_cast<graph::NodeId>((k * 2654435761ull) % n),
          static_cast<graph::NodeId>((k * 40503ull + 12289ull) % n)};
}

/// Edge-arrival cost of the defense tier (arrivals/sec): 65,536
/// arrivals appended to a fresh copy of the 100k-node
/// defense_bench_base() through the calls DefenseScorer::observe makes —
/// ensure_nodes, then add_edge (the duplicate scan of the shorter row
/// and two row appends). The copy is made outside timing, so every
/// iteration times the same work whatever the run length. Copied rows
/// have exact capacity, so an arrival's first append to a row
/// reallocates it, as after a checkpoint restore.
void BM_DefenseEdgeAppend(benchmark::State& state) {
  constexpr std::uint64_t kArrivals = 1 << 16;
  const graph::TimestampedGraph& base = defense_bench_base();
  const graph::NodeId n = base.node_count();
  graph::TimestampedGraph g;
  std::uint64_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    g = graph::TimestampedGraph(base);  // exact row capacities, as copied
    state.ResumeTiming();
    for (std::uint64_t k = 0; k < kArrivals; ++k) {
      const auto [u, v] = defense_bench_arrival(k, n);
      g.ensure_nodes(std::max(u, v) + 1);
      added += g.add_edge(u, v, 1e6 + static_cast<double>(k)) ? 1 : 0;
    }
    benchmark::DoNotOptimize(added);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kArrivals));
}
BENCHMARK(BM_DefenseEdgeAppend);

/// One sweep's defense refresh over the 100k-node defense_bench_base()
/// (refreshes/sec): a new edge lands, then the scorer compacts its rows
/// into a CSR and recomputes SybilRank in full — what every refresh
/// that follows a graph change costs. One worker, as in a shard lane.
void BM_DefenseRefresh(benchmark::State& state) {
  static service::DefenseScorer* scorer = [] {
    core::DetectorOptions options;
    options.defense.enabled = true;
    for (graph::NodeId s = 0; s < 32; ++s) options.defense.seeds.push_back(s);
    auto* d = new service::DefenseScorer(options);
    const graph::TimestampedGraph& g = defense_bench_base();
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      for (const graph::Neighbor& nb : g.neighbors(u)) {
        if (u < nb.node) {
          d->observe({osn::EventType::kFriendshipSeeded, u, nb.node,
                      nb.created_at});
        }
      }
    }
    d->refresh();
    return d;
  }();
  static std::uint64_t k = 0;
  const auto n = scorer->graph().node_count();
  const OneWorker one_worker;
  for (auto _ : state) {
    // Admit exactly one genuinely new edge, so the refresh snapshots the
    // rows and the read below recomputes.
    for (const std::uint64_t before = scorer->edges_observed();
         scorer->edges_observed() == before;) {
      const auto [u, v] = defense_bench_arrival(k++, n);
      scorer->observe({osn::EventType::kRequestAccepted, u, v,
                       1e6 + static_cast<double>(k)});
    }
    scorer->refresh();
    benchmark::DoNotOptimize(scorer->rank_scores().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DefenseRefresh);

// --- Compact JSON series for CI baselines ---------------------------

/// Console output plus a collected {name, real_time, rates} record per
/// run, written as compact JSON. Wall-clock numbers are machine-scoped:
/// the committed baseline freezes the *schema* and the machine class it
/// was measured on, not a portable truth.
class JsonSeriesReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSeriesReporter(OutputOptions options)
      : benchmark::ConsoleReporter(options) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.real_time_ns = run.GetAdjustedRealTime();
      // Counters reach reporters already finalized: kIsRate values are
      // per-second rates, not raw totals.
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        e.items_per_second = items->second.value;
      }
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        e.bytes_per_second = bytes->second.value;
      }
      entries_.push_back(std::move(e));
    }
  }

  /// Writes the collected series; returns false on I/O failure.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"real_time_ns\": %.1f",
                   e.name.c_str(), e.real_time_ns);
      if (e.items_per_second > 0.0) {
        std::fprintf(f, ", \"items_per_second\": %.1f", e.items_per_second);
      }
      if (e.bytes_per_second > 0.0) {
        std::fprintf(f, ", \"bytes_per_second\": %.1f", e.bytes_per_second);
      }
      std::fprintf(f, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

  struct Entry {
    std::string name;
    double real_time_ns = 0.0;
    double items_per_second = 0.0;
    double bytes_per_second = 0.0;
  };

  const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// --- Baseline diffing (--baseline <json>) ---------------------------

/// Parses the exact format write_json() emits (one object per line in
/// the "benchmarks" array). Not a general JSON parser on purpose: the
/// baseline is a machine artifact this binary wrote.
std::vector<JsonSeriesReporter::Entry> load_baseline(
    const std::string& path) {
  std::vector<JsonSeriesReporter::Entry> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_micro_perf: cannot read baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  char line[1024];
  const auto field = [](const char* s, const char* key, double& value) {
    const char* p = std::strstr(s, key);
    if (p == nullptr) return;
    p = std::strchr(p + std::strlen(key), ':');
    if (p != nullptr) value = std::strtod(p + 1, nullptr);
  };
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const char* name = std::strstr(line, "\"name\"");
    if (name == nullptr) continue;
    const char* open = std::strchr(name + 6, '"');
    const char* close = open != nullptr ? std::strchr(open + 1, '"') : nullptr;
    if (close == nullptr) continue;
    JsonSeriesReporter::Entry e;
    e.name.assign(open + 1, close);
    field(close + 1, "\"real_time_ns\"", e.real_time_ns);
    field(close + 1, "\"items_per_second\"", e.items_per_second);
    field(close + 1, "\"bytes_per_second\"", e.bytes_per_second);
    out.push_back(std::move(e));
  }
  std::fclose(f);
  return out;
}

/// Prints the per-benchmark delta table and returns how many tracked
/// series regressed beyond `threshold` (fractional; rate series compare
/// items/sec, time-only series compare real time). Series present only
/// on one side are reported but never counted as regressions.
int diff_against_baseline(
    const std::vector<JsonSeriesReporter::Entry>& baseline,
    const std::vector<JsonSeriesReporter::Entry>& current,
    double threshold) {
  int regressions = 0;
  std::printf("\n%-34s %14s %14s %9s\n", "benchmark vs baseline", "base",
              "current", "delta");
  for (const auto& base : baseline) {
    const JsonSeriesReporter::Entry* cur = nullptr;
    for (const auto& c : current) {
      if (c.name == base.name) {
        cur = &c;
        break;
      }
    }
    if (cur == nullptr) {
      std::printf("%-34s %14s %14s %9s\n", base.name.c_str(), "-",
                  "not run", "-");
      continue;
    }
    const bool rate = base.items_per_second > 0.0 &&
                      cur->items_per_second > 0.0;
    const double b = rate ? base.items_per_second : base.real_time_ns;
    const double c = rate ? cur->items_per_second : cur->real_time_ns;
    // Positive delta = improvement on both kinds of series.
    const double delta = rate ? c / b - 1.0 : b / c - 1.0;
    const bool regressed = delta < -threshold;
    regressions += regressed ? 1 : 0;
    std::printf("%-34s %14.4g %14.4g %+8.1f%%%s%s\n", base.name.c_str(), b,
                c, delta * 100.0, rate ? " items/s" : " (time)",
                regressed ? "  REGRESSED" : "");
  }
  for (const auto& c : current) {
    bool known = false;
    for (const auto& base : baseline) known = known || base.name == c.name;
    if (!known) {
      std::printf("%-34s %14s %14s %9s\n", c.name.c_str(), "new", "-", "-");
    }
  }
  if (regressions > 0) {
    std::printf("\n%d series regressed more than %.0f%%\n", regressions,
                threshold * 100.0);
  }
  return regressions;
}

/// The console options google-benchmark's own reporter would pick:
/// colour per --benchmark_color (true/false, or auto: only on a tty),
/// so piped output carries no ANSI escapes.
benchmark::ConsoleReporter::OutputOptions console_options(int argc,
                                                          char** argv) {
  std::string value = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--benchmark_color") value = "true";
    if (arg.rfind("--benchmark_color=", 0) == 0) value = arg.substr(18);
  }
  bool color = ::isatty(STDOUT_FILENO) != 0;
  if (value == "true" || value == "yes" || value == "1") color = true;
  if (value == "false" || value == "no" || value == "0") color = false;
  return color ? benchmark::ConsoleReporter::OO_ColorTabular
               : benchmark::ConsoleReporter::OO_Tabular;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees the argv:
  //   --json <path>               write the compact series
  //   --baseline <json>           diff against a committed series and
  //                               exit non-zero on regression
  //   --regress-threshold <frac>  tolerated fractional drop (default 0.15)
  std::string json_path;
  std::string baseline_path;
  double threshold = 0.15;
  const auto take = [&](const char* flag, std::string& into) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], flag) != 0) continue;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_micro_perf: %s needs a value\n", flag);
        std::exit(2);
      }
      into = argv[i + 1];
      for (int j = i; j + 2 <= argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return;
    }
  };
  take("--json", json_path);
  take("--baseline", baseline_path);
  std::string threshold_str;
  take("--regress-threshold", threshold_str);
  if (!threshold_str.empty()) threshold = std::strtod(threshold_str.c_str(), nullptr);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonSeriesReporter reporter(console_options(argc, argv));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.write_json(json_path)) {
    std::fprintf(stderr, "bench_micro_perf: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  if (!baseline_path.empty()) {
    const auto baseline = load_baseline(baseline_path);
    if (diff_against_baseline(baseline, reporter.entries(), threshold) > 0) {
      return 3;
    }
  }
  return 0;
}
