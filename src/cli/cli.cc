#include "src/cli/cli.h"

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/core/engine.h"
#include "src/durability/recovery.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/labeling/compressed_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/json_reader.h"
#include "src/service/protocol.h"
#include "src/service/service.h"
#include "src/util/durable_file.h"
#include "src/util/timer.h"

namespace kosr::cli {
namespace {

constexpr const char* kUsage = R"(kosr command-line interface

Usage: kosr_cli <command> [--flag value ...]

Commands:
  generate     --type grid|smallworld|random --out graph.gr
               --categories-out cats.txt [--rows R --cols C] [--vertices N]
               [--edges M] [--seed S] [--category-size K]
               [--zipf F --num-categories N]
  stats        --graph graph.gr [--categories cats.txt --num-categories N]
  build-index  --graph graph.gr --categories cats.txt --num-categories N
               --out store_dir [--order degree|dissection --rows R --cols C]
               [--threads T (parallel build; 0 = all cores, default 1)]
               [--compressed-out labels.bin] [--indexes-out snapshot.bin]
  query        --graph graph.gr --categories cats.txt --num-categories N
               --source S --target T --sequence c1,c2,... [--k K]
               [--algorithm kpne|pk|sk] [--nn hoplabel|dijkstra] [--paths 1]
               [--threads T] [--updates updates.txt (applied after the index
               build, before the query; lines are ADD_EDGE u v w |
               SET_EDGE u v w | REMOVE_EDGE u v, exercising the
               incremental label repair)]
  serve        --graph graph.gr --categories cats.txt [--num-categories N]
               [--indexes snapshot.bin] [--order degree|dissection
               --rows R --cols C] [--threads T (startup index build, live
               label repairs and journal replay; 0 = all cores, default 1)]
               [--workers W] [--queue-capacity Q]
               [--cache-capacity C] [--cache-shards S]
               [--time-budget S (per-query seconds, default 30, 0=unlimited)]
               [--slow-query-threshold S (retain traces of queries slower
               than S seconds; 0=off, default)] [--slow-log-capacity N]
               [--stage-sample-every N (engine-phase span sampling rate,
               0=off, default 64)]
               [--update-batch-window S (edge updates arriving within S
               seconds batch into one label repair and one published
               snapshot; 0=apply immediately, default)]
               [--journal DIR (write-ahead journal + checkpoints: updates
               are logged before they apply, and startup recovers from
               DIR's newest checkpoint plus journal replay — when a
               checkpoint exists it overrides --graph/--categories/
               --indexes and skips the index build)]
               [--fsync-policy always|interval|never (when journal appends
               reach disk; default always = fsync before each ack, one
               fsync per batch under a batch window)]
               [--fsync-interval S (group-commit period for
               --fsync-policy interval, default 0.05)]
               [--checkpoint-bytes N (checkpoint + truncate once the
               journal exceeds N bytes; 0=only CHECKPOINT verb and
               shutdown, default 64MiB)]
               [--listen HOST:PORT (serve the same protocol over TCP with
               binary framing instead of stdin/stdout; port 0 picks an
               ephemeral port, reported on the ready line; see README.md,
               "TCP transport")]
               [--max-connections N (TCP: concurrent connections beyond N
               are accepted and closed, default 1024)]
               [--max-pipeline N (TCP: per-connection in-flight query cap;
               excess frames get REJECTED, default 128)]
               then speaks the newline request/response protocol on
               stdin/stdout (QUERY/ADD_CAT/REMOVE_CAT/ADD_EDGE/SET_EDGE/
               REMOVE_EDGE/FLUSH_UPDATES/CHECKPOINT/METRICS/PING/QUIT; see
               README.md for the grammar); SIGTERM/SIGINT shut down
               gracefully (drain, flush, final checkpoint)
  metrics      [--file metrics.json] pretty-prints a METRICS snapshot
               (reads stdin when --file is absent; accepts either the raw
               JSON or a full "OK METRICS {...}" response line)
  help         this text
)";

uint32_t CountCategories(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string line;
  uint32_t max_cat = 0;
  bool any = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    uint64_t v, c;
    ls >> v >> c;
    if (!ls) continue;
    max_cat = std::max(max_cat, static_cast<uint32_t>(c));
    any = true;
  }
  return any ? max_cat + 1 : 0;
}

int CmdGenerate(const Args& args, std::ostream& out) {
  std::string type = args.GetOr("type", "grid");
  uint64_t seed = args.GetIntOr("seed", 42);
  Graph graph;
  uint32_t rows = 0, cols = 0;
  if (type == "grid") {
    rows = static_cast<uint32_t>(args.GetIntOr("rows", 64));
    cols = static_cast<uint32_t>(args.GetIntOr("cols", 64));
    graph = MakeGridRoadNetwork(rows, cols, seed);
  } else if (type == "smallworld") {
    uint32_t n = static_cast<uint32_t>(args.GetIntOr("vertices", 2000));
    graph = MakeSmallWorld(n, 2, 6.0, seed);
  } else if (type == "random") {
    uint32_t n = static_cast<uint32_t>(args.GetIntOr("vertices", 1000));
    uint64_t m = static_cast<uint64_t>(args.GetIntOr("edges", 5000));
    graph = MakeRandomGraph(n, m, seed);
  } else {
    throw std::invalid_argument("unknown --type " + type);
  }

  std::string graph_out = args.GetOr("out", "graph.gr");
  SaveDimacsGraph(graph, graph_out);
  out << "wrote " << graph_out << ": " << graph.num_vertices()
      << " vertices, " << graph.num_edges() << " arcs\n";

  if (auto cats_out = args.Get("categories-out")) {
    CategoryTable cats;
    if (auto zipf = args.Get("zipf")) {
      uint32_t num_categories =
          static_cast<uint32_t>(args.GetIntOr("num-categories", 100));
      cats = CategoryTable::Zipfian(graph.num_vertices(), num_categories,
                                    std::stod(*zipf), seed + 1);
    } else {
      uint32_t size = static_cast<uint32_t>(args.GetIntOr("category-size", 64));
      cats = CategoryTable::Uniform(graph.num_vertices(), size, seed + 1);
    }
    SaveCategories(cats, *cats_out);
    out << "wrote " << *cats_out << ": " << cats.num_categories()
        << " categories\n";
  }
  return 0;
}

int CmdStats(const Args& args, std::ostream& out) {
  Graph graph = LoadDimacsGraph(args.GetOr("graph", "graph.gr"));
  out << "vertices: " << graph.num_vertices() << "\n";
  out << "arcs: " << graph.num_edges() << "\n";
  uint64_t degree_sum = 0;
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    degree_sum += graph.OutDegree(v);
    max_degree = std::max(max_degree, graph.OutDegree(v));
  }
  out << "avg out-degree: "
      << static_cast<double>(degree_sum) / graph.num_vertices() << "\n";
  out << "max out-degree: " << max_degree << "\n";
  out << "symmetric: " << (graph.IsSymmetric() ? "yes" : "no") << "\n";
  if (auto cats_path = args.Get("categories")) {
    uint32_t num_categories = args.Get("num-categories")
                                  ? static_cast<uint32_t>(args.GetInt("num-categories"))
                                  : CountCategories(*cats_path);
    CategoryTable cats =
        LoadCategories(*cats_path, graph.num_vertices(), num_categories);
    out << "categories: " << cats.num_categories() << "\n";
    uint32_t min_size = UINT32_MAX, max_size = 0;
    uint64_t total = 0;
    for (CategoryId c = 0; c < cats.num_categories(); ++c) {
      uint32_t size = cats.CategorySize(c);
      min_size = std::min(min_size, size);
      max_size = std::max(max_size, size);
      total += size;
    }
    out << "category sizes: min " << min_size << ", max " << max_size
        << ", avg "
        << static_cast<double>(total) / std::max(1u, cats.num_categories())
        << "\n";
  }
  return 0;
}

KosrEngine LoadEngine(const Args& args) {
  Graph graph = LoadDimacsGraph(args.GetOr("graph", "graph.gr"));
  std::string cats_path = args.GetOr("categories", "cats.txt");
  uint32_t num_categories = args.Get("num-categories")
                                ? static_cast<uint32_t>(args.GetInt("num-categories"))
                                : CountCategories(cats_path);
  CategoryTable cats =
      LoadCategories(cats_path, graph.num_vertices(), num_categories);
  return KosrEngine(std::move(graph), std::move(cats));
}

uint32_t ThreadsArg(const Args& args) {
  // --threads 0 means "use the hardware"; negatives (and values past the
  // 32-bit range) would otherwise wrap through the unsigned cast.
  long long threads = args.GetIntOr("threads", 1);
  if (threads < 0 || threads > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument("--threads must be in [0, 2^32)");
  }
  return static_cast<uint32_t>(threads);
}

void BuildWithRequestedOrder(const Args& args, KosrEngine& engine) {
  uint32_t num_threads = ThreadsArg(args);
  std::string order = args.GetOr("order", "degree");
  if (order == "dissection") {
    uint32_t rows = static_cast<uint32_t>(args.GetInt("rows"));
    uint32_t cols = static_cast<uint32_t>(args.GetInt("cols"));
    if (static_cast<uint64_t>(rows) * cols !=
        engine.graph().num_vertices()) {
      throw std::invalid_argument("--rows * --cols must equal |V|");
    }
    engine.BuildIndexes(GridDissectionOrder(rows, cols), num_threads);
  } else if (order == "degree") {
    engine.BuildIndexes(num_threads);
  } else {
    throw std::invalid_argument("unknown --order " + order);
  }
}

int CmdBuildIndex(const Args& args, std::ostream& out) {
  KosrEngine engine = LoadEngine(args);
  WallTimer timer;
  BuildWithRequestedOrder(args, engine);
  out << "built indexes in " << timer.ElapsedSeconds() << " s (labels "
      << engine.label_build_seconds() << " s, inverted "
      << engine.inverted_build_seconds() << " s)\n";
  out << "avg |Lin| " << engine.labeling().AvgInLabelSize() << ", avg |Lout| "
      << engine.labeling().AvgOutLabelSize() << ", size "
      << engine.labeling().IndexBytes() / 1048576.0 << " MB\n";

  if (auto dir = args.Get("out")) {
    engine.WriteDiskStore(*dir);
    out << "wrote disk store to " << *dir << "\n";
  }
  // Both snapshot writers go through write-temp + fsync + atomic-rename: a
  // crash mid-write must never leave a torn file under the final name that
  // a later `serve --indexes` would try to load.
  if (auto compressed = args.Get("compressed-out")) {
    AtomicFileWriter file(*compressed);
    SerializeCompressed(engine.labeling(), file.stream());
    file.Commit();
    out << "wrote compressed labeling to " << *compressed << " ("
        << CompressedSizeBytes(engine.labeling()) / 1048576.0 << " MB, "
        << "plain would be "
        << engine.labeling().IndexBytes() / 1048576.0 << " MB)\n";
  }
  if (auto snapshot = args.Get("indexes-out")) {
    AtomicFileWriter file(*snapshot);
    engine.SaveIndexes(file.stream());
    file.Commit();
    out << "wrote index snapshot to " << *snapshot << "\n";
  }
  return 0;
}

// Serve shutdown flag, set by SIGTERM/SIGINT. Lock-free atomics are the
// only std synchronization a signal handler may touch.
std::atomic<bool> g_serve_stop{false};

extern "C" void HandleServeSignal(int) {
  g_serve_stop.store(true, std::memory_order_relaxed);
}

void InstallServeSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  // Deliberately no SA_RESTART: a getline blocked in read(2) on stdin must
  // return EINTR so the serve loop observes the flag and shuts down
  // instead of waiting for the next request line.
  action.sa_flags = 0;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

int CmdServe(const Args& args, std::istream& in, std::ostream& out) {
  // Durability flags are validated before paying for an engine build.
  auto journal_dir = args.Get("journal");
  std::string policy_text = args.GetOr("fsync-policy", "always");
  auto fsync_policy = durability::ParseFsyncPolicy(policy_text);
  if (!fsync_policy) {
    throw std::invalid_argument(
        "--fsync-policy must be always|interval|never, got " + policy_text);
  }
  std::string interval_text = args.GetOr("fsync-interval", "0.05");
  double fsync_interval = 0;
  size_t interval_consumed = 0;
  try {
    fsync_interval = std::stod(interval_text, &interval_consumed);
  } catch (const std::exception&) {
    interval_consumed = 0;
  }
  if (interval_consumed != interval_text.size() ||
      !std::isfinite(fsync_interval) || fsync_interval <= 0) {
    throw std::invalid_argument(
        "--fsync-interval must be a finite number > 0, got " + interval_text);
  }
  long long checkpoint_bytes =
      args.GetIntOr("checkpoint-bytes", 64ll << 20);
  if (checkpoint_bytes < 0) {
    throw std::invalid_argument(
        "--checkpoint-bytes must be >= 0 (0 = manual/shutdown only)");
  }
  // TCP-transport flags, also validated before the engine build.
  auto listen = args.Get("listen");
  net::ServerOptions listen_options;
  if (listen) {
    auto [host, port] = net::ParseHostPort(*listen);  // throws on bad input
    listen_options.host = host;
    listen_options.port = port;
    long long max_connections = args.GetIntOr("max-connections", 1024);
    long long max_pipeline = args.GetIntOr("max-pipeline", 128);
    if (max_connections <= 0) {
      throw std::invalid_argument("--max-connections must be positive");
    }
    if (max_pipeline <= 0) {
      throw std::invalid_argument("--max-pipeline must be positive");
    }
    listen_options.max_connections = static_cast<size_t>(max_connections);
    listen_options.max_pipeline = static_cast<uint32_t>(
        std::min<long long>(max_pipeline,
                            std::numeric_limits<uint32_t>::max()));
  }

  // The normal engine path: load graph + categories, then load or build
  // indexes. With a journal this only runs when no checkpoint exists —
  // steady-state restarts recover from the checkpoint instead.
  auto make_engine = [&args] {
    auto engine = std::make_unique<KosrEngine>(LoadEngine(args));
    if (auto snapshot = args.Get("indexes")) {
      std::ifstream file(*snapshot, std::ios::binary);
      if (!file) throw std::runtime_error("cannot open " + *snapshot);
      engine->LoadIndexes(file);
      engine->set_repair_threads(ThreadsArg(args));
    } else {
      BuildWithRequestedOrder(args, *engine);
    }
    return engine;
  };

  std::unique_ptr<KosrEngine> engine;
  service::DurabilityAttachment attachment;
  if (journal_dir) {
    durability::RecoveryOptions options;
    options.dir = *journal_dir;
    options.fsync_policy = *fsync_policy;
    options.fsync_interval_s = fsync_interval;
    options.num_threads = ThreadsArg(args);
    durability::RecoveredState recovered =
        durability::Recover(options, make_engine);
    engine = std::move(recovered.engine);
    attachment.journal = std::move(recovered.journal);
    attachment.dir = *journal_dir;
    attachment.checkpoint_bytes = static_cast<uint64_t>(checkpoint_bytes);
    attachment.checkpoint_loaded = recovered.stats.checkpoint_loaded;
    attachment.checkpoint_seq = recovered.stats.checkpoint_seq;
    attachment.replayed_records = recovered.stats.replayed_records;
    attachment.recovery_s =
        recovered.stats.checkpoint_load_s + recovered.stats.replay_s;
  } else {
    engine = make_engine();
  }

  // Reject negatives before the unsigned casts: --workers -1 would
  // otherwise ask for ~4 billion threads, --queue-capacity -1 would make
  // the "bounded" queue unbounded.
  long long workers = args.GetIntOr("workers", 0);
  long long queue_capacity = args.GetIntOr("queue-capacity", 256);
  long long cache_capacity = args.GetIntOr("cache-capacity", 1024);
  long long cache_shards = args.GetIntOr("cache-shards", 8);
  if (workers < 0) throw std::invalid_argument("--workers must be >= 0");
  if (queue_capacity <= 0) {
    throw std::invalid_argument("--queue-capacity must be positive");
  }
  if (cache_capacity < 0) {
    throw std::invalid_argument("--cache-capacity must be >= 0 (0 disables)");
  }
  if (cache_shards <= 0) {
    throw std::invalid_argument("--cache-shards must be positive");
  }
  // Untrusted stdin can ask for arbitrarily expensive queries; cap each by
  // default so one pathological request cannot wedge the process. Strict
  // parse: "nan" would sail past the < 0 check and silently disable the
  // cap (NaN comparisons are false), "30x" would silently drop the tail.
  std::string budget_text = args.GetOr("time-budget", "30");
  double time_budget = 0;
  size_t consumed = 0;
  try {
    time_budget = std::stod(budget_text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != budget_text.size() || !std::isfinite(time_budget) ||
      time_budget < 0) {
    throw std::invalid_argument(
        "--time-budget must be a finite number >= 0 (0 = unlimited), got " +
        budget_text);
  }
  // Same strict-parse treatment for the slow-query threshold as for the
  // time budget (both are untrusted doubles).
  std::string slow_text = args.GetOr("slow-query-threshold", "0");
  double slow_threshold = 0;
  size_t slow_consumed = 0;
  try {
    slow_threshold = std::stod(slow_text, &slow_consumed);
  } catch (const std::exception&) {
    slow_consumed = 0;
  }
  if (slow_consumed != slow_text.size() || !std::isfinite(slow_threshold) ||
      slow_threshold < 0) {
    throw std::invalid_argument(
        "--slow-query-threshold must be a finite number >= 0 (0 = off), "
        "got " + slow_text);
  }
  std::string window_text = args.GetOr("update-batch-window", "0");
  double batch_window = 0;
  size_t window_consumed = 0;
  try {
    batch_window = std::stod(window_text, &window_consumed);
  } catch (const std::exception&) {
    window_consumed = 0;
  }
  if (window_consumed != window_text.size() || !std::isfinite(batch_window) ||
      batch_window < 0) {
    throw std::invalid_argument(
        "--update-batch-window must be a finite number >= 0 (0 = apply "
        "immediately), got " + window_text);
  }
  long long slow_capacity = args.GetIntOr("slow-log-capacity", 32);
  long long sample_every = args.GetIntOr("stage-sample-every", 64);
  if (slow_capacity < 0) {
    throw std::invalid_argument("--slow-log-capacity must be >= 0");
  }
  if (sample_every < 0 ||
      sample_every > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument(
        "--stage-sample-every must be in [0, 2^32) (0 disables sampling)");
  }

  service::ServiceConfig config;
  config.num_workers = static_cast<uint32_t>(workers);
  config.queue_capacity = static_cast<size_t>(queue_capacity);
  config.cache_capacity = static_cast<size_t>(cache_capacity);
  config.cache_shards = static_cast<size_t>(cache_shards);
  config.default_time_budget_s = time_budget;
  config.slow_query_threshold_s = slow_threshold;
  config.slow_log_capacity = static_cast<size_t>(slow_capacity);
  config.stage_sample_every = static_cast<uint32_t>(sample_every);
  config.update_batch_window_s = batch_window;

  const uint64_t start_seq =
      attachment.journal ? attachment.journal->last_sequence() : 0;
  const uint64_t replayed = attachment.replayed_records;
  const double recovery_s = attachment.recovery_s;
  service::KosrService service(std::move(*engine), config,
                               std::move(attachment));
  g_serve_stop.store(false, std::memory_order_relaxed);
  InstallServeSignalHandlers();
  if (listen) {
    // TCP transport: the event loop owns the sockets; this thread only
    // watches the signal flag. The ready line reports the bound port
    // (useful with --listen host:0) and must be flushed — test harnesses
    // parse it to learn where to connect.
    net::NetServer server(service, listen_options);
    server.Start();
    out << "ready workers=" << service.num_workers()
        << " queue=" << config.queue_capacity
        << " cache=" << service.cache().capacity()
        << " batch_window=" << config.update_batch_window_s
        << " journal=" << (journal_dir ? *journal_dir : std::string("off"))
        << " seq=" << start_seq << " replayed=" << replayed
        << " recovery_ms=" << recovery_s * 1e3
        << " listen=" << listen_options.host << ":" << server.port() << "\n"
        << std::flush;
    while (!g_serve_stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Drain order matters: answer everything the sockets accepted first
    // (Shutdown), then stop the service (flush buffered updates, final
    // checkpoint), then the exit marker.
    server.Shutdown();
    const uint64_t handled = server.gauges().frames_in;
    service.Stop();
    out << "served " << handled << " frames\n";
    out << "clean shutdown\n";
    return 0;
  }
  out << "ready workers=" << service.num_workers()
      << " queue=" << config.queue_capacity
      << " cache=" << service.cache().capacity()
      << " batch_window=" << config.update_batch_window_s
      << " journal=" << (journal_dir ? *journal_dir : std::string("off"))
      << " seq=" << start_seq << " replayed=" << replayed
      << " recovery_ms=" << recovery_s * 1e3 << "\n"
      << std::flush;
  uint64_t handled = service::RunServeLoop(service, in, out, &g_serve_stop);
  // Graceful shutdown on EOF, QUIT, or SIGTERM/SIGINT: stop accepting,
  // drain workers, flush buffered updates, final checkpoint (with a
  // journal). Only after all of that is the exit marker printed.
  service.Stop();
  out << "served " << handled << " requests\n";
  out << "clean shutdown\n";
  return 0;
}

// Applies an update script (one ADD_EDGE / SET_EDGE / REMOVE_EDGE per line,
// same verbs as the serve protocol; blank lines and '#' comments skipped)
// against a built engine. Returns (updates applied, label vectors repaired).
std::pair<uint64_t, uint64_t> ApplyUpdateScript(KosrEngine& engine,
                                                const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  uint64_t applied = 0, repaired = 0;
  std::string line;
  auto parse_u32 = [](std::istringstream& ls, const char* what) {
    long long value = -1;
    if (!(ls >> value) || value < 0 ||
        value > std::numeric_limits<uint32_t>::max()) {
      throw std::invalid_argument(std::string("bad ") + what +
                                  " in updates file");
    }
    return static_cast<uint32_t>(value);
  };
  while (std::getline(in, line)) {
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    ls >> verb;
    EdgeUpdateSummary summary;
    if (verb == "ADD_EDGE" || verb == "SET_EDGE") {
      VertexId u = parse_u32(ls, "u"), v = parse_u32(ls, "v");
      Weight w = parse_u32(ls, "w");
      summary = verb == "ADD_EDGE" ? engine.AddOrDecreaseEdge(u, v, w)
                                   : engine.SetEdgeWeight(u, v, w);
    } else if (verb == "REMOVE_EDGE") {
      VertexId u = parse_u32(ls, "u"), v = parse_u32(ls, "v");
      summary = engine.RemoveEdge(u, v);
    } else {
      throw std::invalid_argument("unknown update verb: " + verb);
    }
    ++applied;
    repaired += summary.changed_in_labels + summary.changed_out_labels;
  }
  return {applied, repaired};
}

int CmdQuery(const Args& args, std::ostream& out) {
  KosrEngine engine = LoadEngine(args);

  KosrQuery query;
  query.source = static_cast<VertexId>(args.GetInt("source"));
  query.target = static_cast<VertexId>(args.GetInt("target"));
  for (uint32_t c : ParseSequence(args.GetOr("sequence", ""))) {
    query.sequence.push_back(c);
  }
  query.k = static_cast<uint32_t>(args.GetIntOr("k", 1));

  KosrOptions options;
  std::string algo = args.GetOr("algorithm", "sk");
  if (algo == "kpne") {
    options.algorithm = Algorithm::kKpne;
  } else if (algo == "pk") {
    options.algorithm = Algorithm::kPruning;
  } else if (algo == "sk") {
    options.algorithm = Algorithm::kStar;
  } else {
    throw std::invalid_argument("unknown --algorithm " + algo);
  }
  std::string nn = args.GetOr("nn", "hoplabel");
  if (nn == "hoplabel") {
    options.nn_mode = NnMode::kHopLabel;
  } else if (nn == "dijkstra") {
    options.nn_mode = NnMode::kDijkstra;
  } else {
    throw std::invalid_argument("unknown --nn " + nn);
  }
  options.reconstruct_paths = args.GetIntOr("paths", 0) != 0;

  if (options.nn_mode == NnMode::kHopLabel) {
    BuildWithRequestedOrder(args, engine);
  }

  // Dynamic updates run after the index build on purpose: they exercise the
  // incremental label repair, not a rebuild on a pre-updated graph.
  if (auto updates = args.Get("updates")) {
    auto [applied, repaired] = ApplyUpdateScript(engine, *updates);
    out << "applied " << applied << " updates (" << repaired
        << " label vectors repaired)\n";
  }

  KosrResult result = engine.Query(query, options);
  out << "routes: " << result.routes.size() << "\n";
  for (size_t i = 0; i < result.routes.size(); ++i) {
    const auto& route = result.routes[i];
    out << "#" << i + 1 << " cost " << route.cost << " witness";
    for (VertexId v : route.witness) out << ' ' << v;
    out << "\n";
    if (options.reconstruct_paths) {
      out << "   path";
      for (VertexId v : route.path) out << ' ' << v;
      out << "\n";
    }
  }
  out << "stats: " << result.stats.ToString() << "\n";
  return 0;
}

// --- kosr_cli metrics ------------------------------------------------------

// Number lookup with a default for optional members: old snapshots (or
// hand-trimmed ones) simply print zeros instead of failing.
double NumberOr(const obs::JsonValue& object, std::string_view key,
                double fallback = 0) {
  const obs::JsonValue* v = object.Find(key);
  return v != nullptr && v->IsNumber() ? v->number : fallback;
}

// One histogram row: count plus the latency summary, aligned for scanning.
void PrintHistogramRow(std::ostream& out, const std::string& name,
                       const obs::JsonValue& h) {
  out << "  " << std::left << std::setw(12) << name << std::right
      << " count " << std::setw(10)
      << static_cast<uint64_t>(NumberOr(h, "count"))
      << "  mean " << std::setw(9) << NumberOr(h, "mean_ms")
      << " ms  p50 " << std::setw(9) << NumberOr(h, "p50_ms")
      << " ms  p95 " << std::setw(9) << NumberOr(h, "p95_ms")
      << " ms  p99 " << std::setw(9) << NumberOr(h, "p99_ms") << " ms\n";
}

int CmdMetrics(const Args& args, std::istream& in, std::ostream& out) {
  std::string text;
  if (auto file = args.Get("file")) {
    std::ifstream f(*file);
    if (!f) throw std::runtime_error("cannot open " + *file);
    std::ostringstream buffer;
    buffer << f.rdbuf();
    text = buffer.str();
  } else {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // Accept either the raw snapshot or a full protocol response line
  // ("OK METRICS {...}"): parse from the first '{' to the last '}'.
  size_t open = text.find('{');
  size_t close = text.rfind('}');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    throw std::invalid_argument(
        "no JSON object in input (expected a METRICS snapshot)");
  }
  obs::JsonValue doc = obs::ParseJson(text.substr(open, close - open + 1));

  out << "uptime " << NumberOr(doc, "uptime_s") << " s, "
      << NumberOr(doc, "qps") << " qps\n";
  out << "requests: submitted "
      << static_cast<uint64_t>(NumberOr(doc, "submitted")) << ", completed "
      << static_cast<uint64_t>(NumberOr(doc, "completed")) << ", rejected "
      << static_cast<uint64_t>(NumberOr(doc, "rejected")) << ", errors "
      << static_cast<uint64_t>(NumberOr(doc, "errors")) << "\n";
  if (const obs::JsonValue* gauges = doc.Find("gauges")) {
    out << "gauges: queue_depth "
        << static_cast<uint64_t>(NumberOr(*gauges, "queue_depth"))
        << ", in_flight "
        << static_cast<uint64_t>(NumberOr(*gauges, "in_flight")) << "\n";
  }
  if (const obs::JsonValue* snapshots = doc.Find("snapshots")) {
    out << "snapshots: version "
        << static_cast<uint64_t>(NumberOr(*snapshots, "version")) << ", live "
        << static_cast<uint64_t>(NumberOr(*snapshots, "live_snapshots"))
        << ", epoch_lag "
        << static_cast<uint64_t>(NumberOr(*snapshots, "epoch_lag"))
        << ", pending_updates "
        << static_cast<uint64_t>(NumberOr(*snapshots, "pending_updates"))
        << ", updates_applied "
        << static_cast<uint64_t>(NumberOr(*snapshots, "updates_applied"))
        << ", batches "
        << static_cast<uint64_t>(NumberOr(*snapshots, "batches_applied"))
        << "\n";
  }
  if (const obs::JsonValue* durability = doc.Find("durability");
      durability != nullptr && durability->Find("enabled") != nullptr &&
      durability->Find("enabled")->bool_value) {
    out << "durability: journal "
        << static_cast<uint64_t>(NumberOr(*durability, "journal_bytes"))
        << " B, appends "
        << static_cast<uint64_t>(NumberOr(*durability, "journal_appends"))
        << ", fsyncs "
        << static_cast<uint64_t>(NumberOr(*durability, "journal_fsyncs"))
        << ", applied_seq "
        << static_cast<uint64_t>(NumberOr(*durability, "applied_seq"))
        << ", checkpoint_seq "
        << static_cast<uint64_t>(NumberOr(*durability, "checkpoint_seq"))
        << ", checkpoints "
        << static_cast<uint64_t>(NumberOr(*durability, "checkpoints_written"))
        << ", replayed "
        << static_cast<uint64_t>(NumberOr(*durability, "replayed_records"))
        << ", recovery " << NumberOr(*durability, "recovery_s") * 1e3
        << " ms\n";
  }
  if (const obs::JsonValue* net = doc.Find("net");
      net != nullptr && net->Find("enabled") != nullptr &&
      net->Find("enabled")->bool_value) {
    out << "net: connections "
        << static_cast<uint64_t>(NumberOr(*net, "connections_open")) << "/"
        << static_cast<uint64_t>(NumberOr(*net, "connections_accepted"))
        << " open/accepted, frames "
        << static_cast<uint64_t>(NumberOr(*net, "frames_in")) << " in / "
        << static_cast<uint64_t>(NumberOr(*net, "frames_out"))
        << " out, bytes "
        << static_cast<uint64_t>(NumberOr(*net, "bytes_in")) << " in / "
        << static_cast<uint64_t>(NumberOr(*net, "bytes_out"))
        << " out, partial_reads "
        << static_cast<uint64_t>(NumberOr(*net, "partial_reads"))
        << ", rejected "
        << static_cast<uint64_t>(NumberOr(*net, "rejected_frames"))
        << ", bad_frames "
        << static_cast<uint64_t>(NumberOr(*net, "bad_frames"))
        << ", in_flight "
        << static_cast<uint64_t>(NumberOr(*net, "in_flight_queries")) << "\n";
  }
  if (const obs::JsonValue* cache = doc.Find("cache")) {
    out << "cache: hits " << static_cast<uint64_t>(NumberOr(*cache, "hits"))
        << ", misses " << static_cast<uint64_t>(NumberOr(*cache, "misses"))
        << ", hit_rate " << NumberOr(*cache, "hit_rate") * 100 << "%"
        << ", evictions "
        << static_cast<uint64_t>(NumberOr(*cache, "evictions"))
        << ", invalidations "
        << static_cast<uint64_t>(NumberOr(*cache, "invalidations")) << "\n";
  }
  if (const obs::JsonValue* methods = doc.Find("methods");
      methods != nullptr && !methods->members.empty()) {
    out << "methods:\n";
    for (const auto& [name, h] : methods->members) {
      PrintHistogramRow(out, name, h);
    }
  }
  if (const obs::JsonValue* stages = doc.Find("stages");
      stages != nullptr && !stages->members.empty()) {
    out << "stages:\n";
    for (const auto& [name, h] : stages->members) {
      // Idle stages (count 0) are noise in a human-facing table.
      if (NumberOr(h, "count") == 0) continue;
      PrintHistogramRow(out, name, h);
    }
  }
  if (const obs::JsonValue* counters = doc.Find("counters");
      counters != nullptr && !counters->members.empty()) {
    out << "engine counters:\n";
    for (const auto& [name, v] : counters->members) {
      out << "  " << std::left << std::setw(24) << name << std::right
          << std::setw(16)
          << static_cast<uint64_t>(v.IsNumber() ? v.number : 0) << "\n";
    }
  }
  if (const obs::JsonValue* slow = doc.Find("slow_queries");
      slow != nullptr && !slow->items.empty()) {
    out << "slow queries (" << slow->items.size() << ", oldest first):\n";
    for (const obs::JsonValue& entry : slow->items) {
      const obs::JsonValue* method = entry.Find("method");
      out << "  " << (method != nullptr ? method->string : "?") << " "
          << static_cast<uint64_t>(NumberOr(entry, "source")) << "->"
          << static_cast<uint64_t>(NumberOr(entry, "target")) << " k="
          << static_cast<uint64_t>(NumberOr(entry, "k")) << " len="
          << static_cast<uint64_t>(NumberOr(entry, "sequence_length"))
          << " " << NumberOr(entry, "latency_ms") << " ms";
      if (NumberOr(entry, "cache_hit") != 0) out << " cached";
      if (NumberOr(entry, "timed_out") != 0) out << " truncated";
      if (const obs::JsonValue* spans = entry.Find("stages");
          spans != nullptr && !spans->members.empty()) {
        out << " [";
        bool first = true;
        for (const auto& [name, v] : spans->members) {
          if (!first) out << ", ";
          first = false;
          out << name << " " << (v.IsNumber() ? v.number : 0);
        }
        out << "]";
      }
      out << "\n";
    }
  }
  return 0;
}

}  // namespace

std::optional<std::string> Args::Get(const std::string& key) const {
  auto it = flags.find(key);
  if (it == flags.end()) return std::nullopt;
  return it->second;
}

std::string Args::GetOr(const std::string& key,
                        const std::string& fallback) const {
  auto v = Get(key);
  return v ? *v : fallback;
}

long long Args::GetInt(const std::string& key) const {
  auto v = Get(key);
  if (!v) throw std::invalid_argument("missing required flag --" + key);
  try {
    size_t consumed = 0;
    long long parsed = std::stoll(*v, &consumed);
    if (consumed != v->size()) throw std::invalid_argument("trailing");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + key + " is not an integer: " + *v);
  }
}

long long Args::GetIntOr(const std::string& key, long long fallback) const {
  return Get(key) ? GetInt(key) : fallback;
}

Args ParseArgs(const std::vector<std::string>& argv) {
  Args args;
  if (argv.empty()) {
    args.command = "help";
    return args;
  }
  args.command = argv[0];
  size_t i = 1;
  while (i < argv.size()) {
    const std::string& token = argv[i];
    if (token.rfind("--", 0) != 0 || token.size() <= 2) {
      throw std::invalid_argument("expected --flag, got: " + token);
    }
    if (i + 1 >= argv.size()) {
      throw std::invalid_argument("flag " + token + " needs a value");
    }
    args.flags[token.substr(2)] = argv[i + 1];
    i += 2;
  }
  return args;
}

std::vector<uint32_t> ParseSequence(const std::string& text) {
  // One strict parser for both front-ends: digits only, so "-1" is
  // rejected instead of wrapping to 4294967295.
  return service::ParseCategorySequence(text);
}

int RunCli(const std::vector<std::string>& argv, std::istream& in,
           std::ostream& out) {
  Args args;
  try {
    args = ParseArgs(argv);
  } catch (const std::invalid_argument& e) {
    out << "error: " << e.what() << "\n" << kUsage;
    return 1;
  }
  try {
    if (args.command == "help" || args.command == "--help") {
      out << kUsage;
      return 0;
    }
    if (args.command == "generate") return CmdGenerate(args, out);
    if (args.command == "stats") return CmdStats(args, out);
    if (args.command == "build-index") return CmdBuildIndex(args, out);
    if (args.command == "query") return CmdQuery(args, out);
    if (args.command == "serve") return CmdServe(args, in, out);
    if (args.command == "metrics") return CmdMetrics(args, in, out);
    out << "error: unknown command '" << args.command << "'\n" << kUsage;
    return 1;
  } catch (const std::invalid_argument& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 2;
  }
}

int RunCli(const std::vector<std::string>& argv, std::ostream& out) {
  return RunCli(argv, std::cin, out);
}

}  // namespace kosr::cli
