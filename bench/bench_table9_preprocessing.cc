// Table IX: preprocessing results on all graphs — hub-label construction
// time, average Lin/Lout label sizes, and index size, plus the same for the
// inverted label indexes (build time, avg |IL(Ci)| entries per category,
// avg |IL(v)| entries per inverted list, index size).
//
// Thread-sweep mode: setting KOSR_BENCH_THREADS to a comma list of thread
// counts (e.g. "1,2,4") switches the binary to measuring the parallel index
// build instead — each (graph, threads) pair becomes one benchmark whose
// counters report build seconds, speedup over the single-thread build, and
// the arc relaxations of every pruned search of the build (batched searches
// prune against fewer labels, so this shows the extra search work apart
// from wall time), so the JSON (--benchmark_out) carries the whole sweep. A
// count of 1 is always included as the speedup baseline.
// BENCH_parallel_build.json is recorded this way.

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/obs/counters.h"

namespace kosr::bench {
namespace {

struct PreprocRow {
  std::string graph;
  uint32_t vertices;
  uint64_t edges;
  double label_seconds;
  double avg_in, avg_out;
  double label_mb;
  double inverted_seconds;
  double avg_il_per_category;
  double avg_il_per_list;
  double inverted_mb;
};

std::vector<PreprocRow>& Rows() {
  static std::vector<PreprocRow> rows;
  return rows;
}

void RunAll() {
  static bool done = false;
  if (done) return;
  done = true;
  auto workloads = MakeAllGraphWorkloads();
  for (const Workload& w : workloads) {
    const KosrEngine& engine = *w.engine;
    PreprocRow row;
    row.graph = w.name;
    row.vertices = engine.graph().num_vertices();
    row.edges = engine.graph().num_edges();
    row.label_seconds = engine.label_build_seconds();
    row.avg_in = engine.labeling().AvgInLabelSize();
    row.avg_out = engine.labeling().AvgOutLabelSize();
    row.label_mb = engine.labeling().IndexBytes() / 1048576.0;
    row.inverted_seconds = engine.inverted_build_seconds();
    uint64_t total_entries = 0, total_lists = 0, bytes = 0;
    uint32_t num_categories = engine.categories().num_categories();
    for (CategoryId c = 0; c < num_categories; ++c) {
      total_entries += engine.inverted(c).total_entries();
      total_lists += engine.inverted(c).num_lists();
      bytes += engine.inverted(c).IndexBytes();
    }
    row.avg_il_per_category =
        num_categories > 0 ? static_cast<double>(total_entries) / num_categories
                           : 0;
    row.avg_il_per_list =
        total_lists > 0 ? static_cast<double>(total_entries) / total_lists : 0;
    row.inverted_mb = bytes / 1048576.0;
    Rows().push_back(row);
  }
}

void BM_Preprocessing(benchmark::State& state, std::string graph) {
  RunAll();
  for (auto _ : state) {
  }
  for (const PreprocRow& row : Rows()) {
    if (row.graph != graph) continue;
    state.SetIterationTime(row.label_seconds + row.inverted_seconds);
    state.counters["avg_Lin"] = row.avg_in;
    state.counters["avg_Lout"] = row.avg_out;
    state.counters["label_MB"] = row.label_mb;
    state.counters["inv_MB"] = row.inverted_mb;
  }
}

std::string Fmt(double v, const char* format = "%.2f") {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), format, v);
  return buffer;
}

// --- Thread-sweep mode (KOSR_BENCH_THREADS) --------------------------------

std::vector<uint32_t> SweepThreadCounts() {
  const char* env = std::getenv("KOSR_BENCH_THREADS");
  if (env == nullptr) return {};
  std::vector<uint32_t> counts{1};  // speedup baseline always measured
  uint32_t current = 0;
  bool any_digit = false;
  for (const char* p = env;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<uint32_t>(*p - '0');
      any_digit = true;
    } else if (*p == ',' || *p == '\0') {
      if (any_digit && current > 0 &&
          std::find(counts.begin(), counts.end(), current) == counts.end()) {
        counts.push_back(current);
      }
      current = 0;
      any_digit = false;
      if (*p == '\0') break;
    } else {
      std::fprintf(stderr, "ignoring malformed KOSR_BENCH_THREADS: %s\n", env);
      return {};
    }
  }
  return counts;
}

struct SweepRow {
  std::string graph;
  uint32_t threads;
  double label_seconds;
  double inverted_seconds;
  double speedup;  ///< single-thread total / this total
  uint64_t relaxations;  ///< kPrunedRelaxations over the whole index build
};

std::vector<SweepRow>& SweepRows() {
  static std::vector<SweepRow> rows;
  return rows;
}

void RunSweep() {
  static bool done = false;
  if (done) return;
  done = true;
  std::vector<Workload> workloads;
  workloads.push_back(MakeGridWorkload("CAL", 64, 48, 101, false));
  workloads.push_back(MakeGridWorkload("FLA", 160, 256, 104, false));
  workloads.push_back(MakeSmallWorldWorkload("G+", 3000, 6.0, 48, 105, false));
  for (const Workload& w : workloads) {
    double base_seconds = 0;
    for (uint32_t threads : SweepThreadCounts()) {
      const obs::EngineCounters before = obs::TlsCounters();
      w.BuildIndexes(threads);
      const obs::EngineCounters work = obs::Diff(obs::TlsCounters(), before);
      SweepRow row;
      row.graph = w.name;
      row.threads = threads;
      row.label_seconds = w.engine->label_build_seconds();
      row.inverted_seconds = w.engine->inverted_build_seconds();
      double total = row.label_seconds + row.inverted_seconds;
      if (threads == 1) base_seconds = total;
      row.speedup = total > 0 ? base_seconds / total : 0;
      row.relaxations = work.Get(obs::Counter::kPrunedRelaxations);
      SweepRows().push_back(row);
    }
  }
}

void BM_ParallelBuild(benchmark::State& state, std::string graph,
                      uint32_t threads) {
  RunSweep();
  for (auto _ : state) {
  }
  for (const SweepRow& row : SweepRows()) {
    if (row.graph != graph || row.threads != threads) continue;
    state.SetIterationTime(row.label_seconds + row.inverted_seconds);
    state.counters["threads"] = threads;
    state.counters["label_s"] = row.label_seconds;
    state.counters["inverted_s"] = row.inverted_seconds;
    state.counters["speedup"] = row.speedup;
    state.counters["pruned_relaxations"] =
        static_cast<double>(row.relaxations);
  }
}

}  // namespace
}  // namespace kosr::bench

int main(int argc, char** argv) {
  kosr::bench::PrintMachineMeta("table9_preprocessing");
  benchmark::Initialize(&argc, argv);
  using kosr::bench::Fmt;

  std::vector<uint32_t> sweep = kosr::bench::SweepThreadCounts();
  if (!sweep.empty()) {
    for (const char* g : {"CAL", "FLA", "G+"}) {
      for (uint32_t threads : sweep) {
        std::string name = std::string("table9/parallel_build/") + g +
                           "/threads:" + std::to_string(threads);
        benchmark::RegisterBenchmark(
            name.c_str(), kosr::bench::BM_ParallelBuild, g, threads)
            ->Iterations(1)
            ->UseManualTime()
            ->Unit(benchmark::kSecond);
      }
    }
    benchmark::RunSpecifiedBenchmarks();
    kosr::bench::PrintHeader(
        "Parallel index build thread sweep",
        "hub labels + inverted indexes, speedup vs 1 thread");
    kosr::bench::PrintRowHeader(
        "graph",
        {"threads", "label(s)", "relax(M)", "inverted(s)", "speedup"});
    for (const auto& row : kosr::bench::SweepRows()) {
      kosr::bench::PrintRow(
          row.graph,
          {std::to_string(row.threads), Fmt(row.label_seconds),
           Fmt(row.relaxations / 1e6), Fmt(row.inverted_seconds),
           Fmt(row.speedup)});
    }
    return 0;
  }

  for (const char* g : {"CAL", "NYC", "COL", "FLA", "G+"}) {
    benchmark::RegisterBenchmark((std::string("table9/") + g).c_str(),
                                 kosr::bench::BM_Preprocessing, g)
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kSecond);
  }
  benchmark::RunSpecifiedBenchmarks();

  kosr::bench::PrintHeader("Table IX: preprocessing results",
                           "hub label indexes (top) and inverted label "
                           "indexes (bottom)");
  kosr::bench::PrintRowHeader(
      "graph", {"|V|", "|E|", "time(s)", "avg|Lin|", "avg|Lout|", "size(MB)"});
  for (const auto& row : kosr::bench::Rows()) {
    kosr::bench::PrintRow(
        row.graph,
        {std::to_string(row.vertices), std::to_string(row.edges),
         Fmt(row.label_seconds), Fmt(row.avg_in, "%.1f"),
         Fmt(row.avg_out, "%.1f"), Fmt(row.label_mb)});
  }
  std::printf("\n");
  kosr::bench::PrintRowHeader(
      "graph", {"time(s)", "avg|IL(Ci)|", "avg|IL(v)|", "size(MB)"});
  for (const auto& row : kosr::bench::Rows()) {
    kosr::bench::PrintRow(row.graph, {Fmt(row.inverted_seconds),
                                      Fmt(row.avg_il_per_category, "%.1f"),
                                      Fmt(row.avg_il_per_list, "%.1f"),
                                      Fmt(row.inverted_mb)});
  }
  return 0;
}
