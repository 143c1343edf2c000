#include "src/service/service.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/durability/checkpoint.h"
#include "src/util/failpoint.h"

namespace kosr::service {
namespace {

using durability::JournalRecord;

JournalRecord EdgeRecord(const EdgeUpdate& update) {
  JournalRecord record;
  switch (update.kind) {
    case EdgeUpdate::Kind::kAddOrDecrease:
      record.type = JournalRecord::Type::kAddOrDecreaseEdge;
      break;
    case EdgeUpdate::Kind::kSet:
      record.type = JournalRecord::Type::kSetEdge;
      break;
    case EdgeUpdate::Kind::kRemove:
      record.type = JournalRecord::Type::kRemoveEdge;
      break;
  }
  record.a = update.u;
  record.b = update.v;
  record.w = update.w;
  return record;
}

JournalRecord CategoryRecord(bool add, VertexId v, CategoryId c) {
  JournalRecord record;
  record.type = add ? JournalRecord::Type::kAddCategory
                    : JournalRecord::Type::kRemoveCategory;
  record.a = v;
  record.b = c;
  return record;
}

// The engine's update entry points index internal tables unchecked; the
// service fronts untrusted callers (the serve protocol), so range-check
// here and throw — the front-end turns this into an error response
// instead of corrupting the long-lived process. The vertex universe is
// fixed for the service's lifetime, so the check needs no lock.
void CheckVertexId(VertexId v, uint32_t num_vertices, const char* what) {
  if (v >= num_vertices) {
    throw std::invalid_argument(std::string(what) + " " + std::to_string(v) +
                                " outside the vertex universe");
  }
}

/// Exception-safe epoch pin: unpins even when the query throws.
class ScopedPin {
 public:
  ScopedPin(SnapshotDomain& domain, uint32_t slot)
      : domain_(domain), slot_(slot), snapshot_(domain.Pin(slot)) {}
  ~ScopedPin() { domain_.Unpin(slot_); }

  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

  const EngineSnapshot* operator->() const { return snapshot_; }

 private:
  SnapshotDomain& domain_;
  uint32_t slot_;
  const EngineSnapshot* snapshot_;
};

}  // namespace

KosrService::KosrService(KosrEngine engine, const ServiceConfig& config,
                         DurabilityAttachment durability)
    : engine_(std::move(engine)),
      cache_(config.cache_capacity, config.cache_shards),
      num_workers_(config.num_workers != 0
                       ? config.num_workers
                       : std::max(1u, std::thread::hardware_concurrency())),
      queue_capacity_(std::max<size_t>(1, config.queue_capacity)),
      default_time_budget_s_(config.default_time_budget_s),
      slow_query_threshold_s_(config.slow_query_threshold_s),
      stage_sample_every_(config.stage_sample_every),
      update_batch_window_s_(std::max(0.0, config.update_batch_window_s)),
      num_vertices_(engine_.graph().num_vertices()),
      domain_(num_workers_, engine_.SealSnapshot(1)),
      journal_(std::move(durability.journal)),
      journal_dir_(std::move(durability.dir)),
      checkpoint_bytes_(durability.checkpoint_bytes),
      applied_seq_(journal_ ? journal_->last_sequence() : 0),
      checkpoint_seq_(durability.checkpoint_seq),
      checkpoint_exists_(durability.checkpoint_loaded),
      replayed_records_(durability.replayed_records),
      recovery_s_(durability.recovery_s) {
  applied_seq_hint_.store(applied_seq_, std::memory_order_relaxed);
  checkpoint_seq_hint_.store(checkpoint_seq_, std::memory_order_relaxed);
  metrics_.SetSlowLogCapacity(
      config.slow_query_threshold_s > 0 ? config.slow_log_capacity : 0);
  if (config.start_workers) Start();
}

KosrService::~KosrService() { Stop(); }

void KosrService::Start() {
  MutexLock lifecycle(lifecycle_mutex_);
  if (!workers_.empty()) return;
  {
    MutexLock lock(queue_mutex_);
    stopping_ = false;
  }
  {
    MutexLock lock(batch_mutex_);
    batch_stopping_ = false;
  }
  workers_.reserve(num_workers_);
  for (uint32_t i = 0; i < num_workers_; ++i) {
    workers_.emplace_back(&KosrService::WorkerLoop, this, i);
  }
  if (update_batch_window_s_ > 0) {
    flusher_ = std::thread(&KosrService::FlusherLoop, this);
  }
}

void KosrService::Stop() {
  MutexLock lifecycle(lifecycle_mutex_);
  std::deque<Pending> drained;
  {
    MutexLock lock(queue_mutex_);
    stopping_ = true;
    drained.swap(queue_);
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    MutexLock lock(batch_mutex_);
    batch_stopping_ = true;
  }
  batch_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  // Buffered updates are applied, never dropped: a window that had not
  // closed yet still reaches the labels (and the next Start's readers).
  FlushUpdates();
  if (journal_) {
    // Graceful shutdown checkpoints so the next start skips replay (and
    // the index build) entirely. Stop() must not throw — it runs from the
    // destructor — so a failed checkpoint is reported, not propagated; the
    // journal still holds everything and recovery replays it.
    try {
      MutexLock publish(publish_mutex_);
      CheckpointLocked();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shutdown checkpoint failed: %s\n", e.what());
    }
  }
  // Every reader is gone, so every retired snapshot is reclaimable and
  // the live-snapshot gauge converges to 1.
  domain_.Reclaim();
  for (Pending& pending : drained) {
    ServiceResponse response;
    response.status = ResponseStatus::kShutdown;
    pending.done(std::move(response));
  }
}

void KosrService::SubmitAsync(const ServiceRequest& request,
                              std::function<void(ServiceResponse)> done) {
  metrics_.RecordSubmitted();
  // Reject/shutdown resolve inline, but outside the queue lock: the
  // callback is caller code and must not run under queue_mutex_.
  ServiceResponse bounced;
  bool enqueued = false;
  {
    MutexLock lock(queue_mutex_);
    if (stopping_) {
      bounced.status = ResponseStatus::kShutdown;
    } else if (queue_.size() >= queue_capacity_) {
      metrics_.RecordRejected();
      bounced.status = ResponseStatus::kRejected;
      bounced.error = "queue full";
    } else {
      queue_.push_back(Pending{request, std::move(done), WallTimer()});
      enqueued = true;
    }
  }
  if (!enqueued) {
    done(std::move(bounced));
    return;
  }
  queue_cv_.NotifyOne();
}

std::future<ServiceResponse> KosrService::SubmitAsync(
    const ServiceRequest& request) {
  auto promise = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> future = promise->get_future();
  SubmitAsync(request, [promise](ServiceResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

ServiceResponse KosrService::Submit(const ServiceRequest& request) {
  return SubmitAsync(request).get();
}

void KosrService::WorkerLoop(uint32_t slot) {
  // Worker-private query scratch: the hot containers of every search this
  // worker runs live here, allocated once and reused across requests.
  QueryContext ctx;
  // Worker-local request count driving the engine-phase sampling; no
  // cross-worker coordination needed for a 1-in-N sample.
  uint64_t processed = 0;
  const bool obs_on = obs::Enabled();
  for (;;) {
    Pending pending;
    {
      MutexLock lock(queue_mutex_);
      // Explicit wait loop instead of the predicate overload: the guarded
      // reads stay in this (analyzed) scope, not inside a lambda the
      // thread-safety analysis cannot attribute a lock to.
      while (!stopping_ && queue_.empty()) queue_cv_.Wait(queue_mutex_);
      if (stopping_) return;
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    const double queue_wait_s = pending.queued.ElapsedSeconds();
    const bool sample = obs_on && stage_sample_every_ != 0 &&
                        processed++ % stage_sample_every_ == 0;
    // Engine counters accumulate in this thread's private slots; the delta
    // across one request is folded into the shared registry afterwards.
    obs::EngineCounters before;
    if (obs_on) before = obs::TlsCounters();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    ServiceResponse response;
    try {
      response = Process(pending.request, ctx, sample, slot);
    } catch (const std::exception& e) {
      response.status = ResponseStatus::kError;
      response.error = e.what();
    } catch (...) {
      response.status = ResponseStatus::kError;
      response.error = "unknown error";
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    response.latency_s = pending.queued.ElapsedSeconds();
    if (response.ok()) {
      metrics_.RecordCompleted(pending.request.options.algorithm,
                               pending.request.options.nn_mode,
                               response.latency_s);
    } else {
      metrics_.RecordError();
    }
    if (obs_on) {
      ctx.stage_times.Set(obs::Stage::kQueueWait, queue_wait_s);
      metrics_.RecordStages(ctx.stage_times);
      metrics_.AddEngineCounters(obs::Diff(obs::TlsCounters(), before));
      if (response.ok() && slow_query_threshold_s_ > 0 &&
          response.latency_s >= slow_query_threshold_s_) {
        obs::SlowQueryEntry entry;
        entry.method = MethodName(pending.request.options.algorithm,
                                  pending.request.options.nn_mode);
        entry.source = pending.request.query.source;
        entry.target = pending.request.query.target;
        entry.k = pending.request.query.k;
        entry.sequence_length =
            static_cast<uint32_t>(pending.request.query.sequence.size());
        entry.latency_s = response.latency_s;
        entry.cache_hit = response.cache_hit;
        entry.timed_out = response.result.stats.timed_out;
        entry.stages = ctx.stage_times;
        metrics_.RecordSlowQuery(std::move(entry));
      }
    }
    pending.done(std::move(response));
  }
}

bool KosrService::Cacheable(const ServiceRequest& request) {
  // A slot filter is an opaque std::function — no identity to key on.
  return !request.options.filter;
}

CacheKey KosrService::KeyFor(const ServiceRequest& request) {
  CacheKey key;
  key.source = request.query.source;
  key.target = request.query.target;
  key.sequence = request.query.sequence;
  key.k = request.query.k;
  key.algorithm = request.options.algorithm;
  key.nn_mode = request.options.nn_mode;
  key.with_paths = request.options.reconstruct_paths;
  return key;
}

ServiceResponse KosrService::Process(const ServiceRequest& request,
                                     QueryContext& ctx, bool sample_stages,
                                     uint32_t slot) {
  ctx.stage_times.Clear();
  ServiceResponse response;
  const bool cacheable = cache_.enabled() && Cacheable(request);
  CacheKey key;
  if (cacheable) key = KeyFor(request);

  // Epoch pin instead of a lock: resolve the current immutable snapshot
  // and run the whole query — cache lookup and insert included — against
  // that frozen state. Updates never block this path; they publish a new
  // snapshot that the *next* pin resolves. The version tag keeps the
  // cache consistent with the pinned state (see the class comment).
  ScopedPin pin(domain_, slot);
  response.snapshot_version = pin->version();
  if (cacheable) {
    if (std::optional<KosrResult> cached =
            cache_.Lookup(key, pin->version())) {
      response.result = std::move(*cached);
      response.cache_hit = true;
      return response;
    }
  }
  KosrOptions options = request.options;
  if (options.time_budget_s == 0) {
    options.time_budget_s = default_time_budget_s_;
  }
  if (sample_stages) options.collect_phase_times = true;
  WallTimer engine_timer;
  response.result = pin->Query(request.query, options, &ctx);
  if (sample_stages) {
    // NN span = the engine's per-phase timers (cursor probing plus NEN
    // estimation); enumeration is the rest of the engine time.
    const double engine_s = engine_timer.ElapsedSeconds();
    const QueryStats& stats = response.result.stats;
    const double nn_s = stats.nn_time_s + stats.estimation_time_s;
    ctx.stage_times.Set(obs::Stage::kNn, nn_s);
    ctx.stage_times.Set(obs::Stage::kEnumerate,
                        std::max(0.0, engine_s - nn_s));
  }
  // Budget-truncated results are incomplete; serving them from cache would
  // turn one slow query into many wrong answers.
  if (cacheable && !response.result.stats.timed_out) {
    cache_.Insert(key, response.result, pin->version());
  }
  return response;
}

UpdateAck KosrService::AddVertexCategory(VertexId v, CategoryId c) {
  MutexLock publish(publish_mutex_);
  CheckVertexId(v, num_vertices_, "vertex");
  if (c >= engine_.categories().num_categories()) {
    throw std::invalid_argument("unknown category " + std::to_string(c));
  }
  // Journal after validation (the journal must never hold a record replay
  // would reject) and before the mutation (write-ahead).
  uint64_t seq = 0;
  if (journal_) seq = journal_->Append(CategoryRecord(/*add=*/true, v, c));
  // Buffered edge updates precede this call in submission order; apply
  // them first so the combined update stream replays in order.
  FlushLocked();
  if (journal_) {
    journal_->SyncIfAlways();  // no-op when the flush above already synced
    applied_seq_ = std::max(applied_seq_, seq);
    applied_seq_hint_.store(applied_seq_, std::memory_order_relaxed);
  }
  engine_.AddVertexCategory(v, c);
  uint64_t version = ++next_version_;
  cache_.BeginInvalidation(version);
  cache_.InvalidateCategory(c);
  domain_.Publish(engine_.SealSnapshot(version));
  MaybeCheckpointLocked();
  UpdateAck ack;
  ack.applied = true;
  ack.snapshot_version = version;
  return ack;
}

UpdateAck KosrService::RemoveVertexCategory(VertexId v, CategoryId c) {
  MutexLock publish(publish_mutex_);
  CheckVertexId(v, num_vertices_, "vertex");
  if (c >= engine_.categories().num_categories()) {
    throw std::invalid_argument("unknown category " + std::to_string(c));
  }
  uint64_t seq = 0;
  if (journal_) seq = journal_->Append(CategoryRecord(/*add=*/false, v, c));
  FlushLocked();
  if (journal_) {
    journal_->SyncIfAlways();
    applied_seq_ = std::max(applied_seq_, seq);
    applied_seq_hint_.store(applied_seq_, std::memory_order_relaxed);
  }
  engine_.RemoveVertexCategory(v, c);
  uint64_t version = ++next_version_;
  cache_.BeginInvalidation(version);
  cache_.InvalidateCategory(c);
  domain_.Publish(engine_.SealSnapshot(version));
  MaybeCheckpointLocked();
  UpdateAck ack;
  ack.applied = true;
  ack.snapshot_version = version;
  return ack;
}

UpdateAck KosrService::AddOrDecreaseEdge(VertexId u, VertexId v, Weight w) {
  return SubmitEdgeUpdate({EdgeUpdate::Kind::kAddOrDecrease, u, v, w});
}

UpdateAck KosrService::SetEdgeWeight(VertexId u, VertexId v, Weight w) {
  return SubmitEdgeUpdate({EdgeUpdate::Kind::kSet, u, v, w});
}

UpdateAck KosrService::RemoveEdge(VertexId u, VertexId v) {
  return SubmitEdgeUpdate({EdgeUpdate::Kind::kRemove, u, v, 0});
}

UpdateAck KosrService::SubmitEdgeUpdate(const EdgeUpdate& update) {
  CheckVertexId(update.u, num_vertices_, "tail");
  CheckVertexId(update.v, num_vertices_, "head");
  updates_enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (update_batch_window_s_ <= 0) {
    // Journal under the publish lock so sequence order equals apply order
    // on the synchronous path — a checkpoint can then trust applied_seq_
    // to cover a contiguous prefix.
    MutexLock publish(publish_mutex_);
    uint64_t seq = 0;
    if (journal_) seq = journal_->Append(EdgeRecord(update));
    UpdateAck ack = ApplyBatchLocked({&update, 1}, seq);
    MaybeCheckpointLocked();
    return ack;
  }
  size_t depth;
  {
    // Append and buffer-push are atomic with respect to FlushLocked's
    // swap: a journaled record is either in the batch the next flush
    // applies, or still buffered with a sequence above applied_seq_.
    // BUFFERED semantics: the record has reached the journal (write(2),
    // fsynced per policy at the window close), so an acked-buffered
    // update survives a crash once the policy fsync lands.
    MutexLock lock(batch_mutex_);
    if (journal_) {
      pending_last_seq_ = journal_->Append(EdgeRecord(update));
    }
    pending_updates_.push_back(update);
    depth = pending_updates_.size();
  }
  // The first buffered update opens the batch window — wake the flusher;
  // later arrivals ride the already-open window without waking anyone.
  if (depth == 1) batch_cv_.NotifyAll();
  UpdateAck ack;
  ack.applied = false;
  ack.pending = depth;
  ack.snapshot_version = domain_.version();
  return ack;
}

UpdateAck KosrService::FlushUpdates() {
  MutexLock publish(publish_mutex_);
  UpdateAck ack = FlushLocked();
  MaybeCheckpointLocked();
  return ack;
}

UpdateAck KosrService::FlushLocked() {
  std::vector<EdgeUpdate> batch;
  uint64_t batch_last_seq = 0;
  {
    MutexLock lock(batch_mutex_);
    batch.swap(pending_updates_);
    batch_last_seq = pending_last_seq_;
  }
  return ApplyBatchLocked(batch, batch_last_seq);
}

UpdateAck KosrService::ApplyBatchLocked(std::span<const EdgeUpdate> batch,
                                        uint64_t batch_last_seq) {
  UpdateAck ack;
  ack.applied = true;
  if (!batch.empty()) {
    if (journal_) {
      // One fsync makes the whole batch durable before any of it is
      // applied or acknowledged applied (write-ahead; `OK BUFFERED`
      // acks become durable here at the latest under fsync=always).
      journal_->SyncIfAlways();
    }
    KOSR_FAILPOINT(kFailpointMidBatchApply);
    // The repair's work counters (tightness tests, re-searches, pruned
    // relaxations) land in this thread's private slots; fold the batch's
    // delta into the shared registry, as the query workers do per request.
    const bool obs_on = obs::Enabled();
    obs::EngineCounters before;
    if (obs_on) before = obs::TlsCounters();
    ack.summary = engine_.ApplyEdgeUpdates(batch);
    if (obs_on) {
      metrics_.AddEngineCounters(obs::Diff(obs::TlsCounters(), before));
    }
    if (journal_) {
      applied_seq_ = std::max(applied_seq_, batch_last_seq);
      applied_seq_hint_.store(applied_seq_, std::memory_order_relaxed);
    }
    updates_applied_.fetch_add(batch.size(), std::memory_order_relaxed);
    batches_applied_.fetch_add(1, std::memory_order_relaxed);
    if (ack.summary.graph_changed) {
      uint64_t version = ++next_version_;
      // Invalidate before publishing: the gate plus the shard walk close
      // the stale-insert race (a result computed against a pre-update
      // snapshot cannot land after the walk), and new-snapshot readers
      // find the stale entries already gone. An update that repaired no
      // label provably changed no distance, path, or KOSR answer (see
      // EdgeUpdateSummary), so it keeps the whole cache warm — unless the
      // engine serves Dijkstra-mode queries without indexes, where there
      // is no repair signal and any graph change flushes everything.
      if (ack.summary.labels_changed) {
        cache_.BeginInvalidation(version);
        cache_.InvalidateEdgeDelta(FilterFor(ack.summary));
      } else if (!engine_.indexes_built()) {
        cache_.BeginInvalidation(version);
        cache_.InvalidateAll();
      }
      domain_.Publish(engine_.SealSnapshot(version));
    }
  }
  ack.snapshot_version = domain_.version();
  return ack;
}

CheckpointAck KosrService::Checkpoint() {
  if (!journal_) {
    throw std::logic_error("checkpoint requires a journal (--journal)");
  }
  MutexLock publish(publish_mutex_);
  return CheckpointLocked();
}

CheckpointAck KosrService::CheckpointLocked() {
  CheckpointAck ack;
  // Fold buffered updates in first so the checkpoint covers everything
  // accepted so far (their journal records get truncated right after).
  FlushLocked();
  ack.seq = applied_seq_;
  if (checkpoint_exists_ && checkpoint_seq_ == applied_seq_) {
    return ack;  // nothing new since the last checkpoint
  }
  durability::WriteCheckpoint(journal_dir_, engine_, applied_seq_);
  KOSR_FAILPOINT(durability::kFailpointBeforeTruncate);
  // A crash before this truncation recovers from the new checkpoint and
  // skips the journal's already-covered prefix (seq <= manifest seq).
  journal_->TruncateThrough(applied_seq_);
  checkpoint_seq_ = applied_seq_;
  checkpoint_exists_ = true;
  checkpoint_seq_hint_.store(checkpoint_seq_, std::memory_order_relaxed);
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  ack.written = true;
  return ack;
}

void KosrService::MaybeCheckpointLocked() {
  if (!journal_ || checkpoint_bytes_ == 0) return;
  if (journal_->size_bytes() < checkpoint_bytes_) return;
  CheckpointLocked();
}

EdgeInvalidationFilter KosrService::FilterFor(
    const EdgeUpdateSummary& summary) const {
  EdgeInvalidationFilter filter;
  filter.changed_out.assign(num_vertices_, false);
  filter.changed_in.assign(num_vertices_, false);
  const CategoryTable& categories = engine_.categories();
  filter.affected_categories.assign(categories.num_categories(), false);
  auto mark = [&](const std::vector<VertexId>& vertices,
                  std::vector<bool>& flags) {
    for (VertexId v : vertices) {
      flags[v] = true;
      for (CategoryId c : categories.CategoriesOf(v)) {
        filter.affected_categories[c] = true;
      }
    }
  };
  mark(summary.changed_out_vertices, filter.changed_out);
  mark(summary.changed_in_vertices, filter.changed_in);
  return filter;
}

void KosrService::FlusherLoop() {
  for (;;) {
    {
      MutexLock lock(batch_mutex_);
      while (!batch_stopping_ && pending_updates_.empty()) {
        batch_cv_.Wait(batch_mutex_);
      }
      if (batch_stopping_) return;  // Stop() applies the remainder itself
      // The window opened with the first buffered update; let it close,
      // re-checking the remaining time across spurious wakeups.
      WallTimer window_open;
      double remaining = update_batch_window_s_;
      while (remaining > 0 && !batch_stopping_) {
        batch_cv_.WaitFor(batch_mutex_, remaining);
        remaining = update_batch_window_s_ - window_open.ElapsedSeconds();
      }
      if (batch_stopping_) return;
    }
    // A concurrent FlushUpdates may have beaten us to the batch; applying
    // an empty one is a no-op.
    FlushUpdates();
  }
}

MetricsSnapshot KosrService::Metrics() const {
  // Deterministic reclaim pass so the live-snapshot gauge converges even
  // when no reader traffic triggers the opportunistic path.
  domain_.Reclaim();
  SnapshotGauges gauges;
  gauges.version = domain_.version();
  gauges.live_snapshots = domain_.live_snapshots();
  gauges.epoch_lag = domain_.epoch_lag();
  gauges.updates_enqueued = updates_enqueued_.load(std::memory_order_relaxed);
  gauges.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  gauges.pending_updates = gauges.updates_enqueued > gauges.updates_applied
                               ? gauges.updates_enqueued - gauges.updates_applied
                               : 0;
  gauges.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  DurabilityGauges durability;
  if (journal_) {
    durability.enabled = true;
    durability.journal_bytes = journal_->size_bytes();
    durability.journal_appends = journal_->appends();
    durability.journal_fsyncs = journal_->fsyncs();
    durability.journal_truncations = journal_->truncations();
    durability.applied_seq =
        applied_seq_hint_.load(std::memory_order_relaxed);
    durability.checkpoint_seq =
        checkpoint_seq_hint_.load(std::memory_order_relaxed);
    durability.checkpoints_written =
        checkpoints_written_.load(std::memory_order_relaxed);
    durability.replayed_records = replayed_records_;
    durability.recovery_s = recovery_s_;
  }
  NetGauges net;
  {
    MutexLock lock(net_gauges_mutex_);
    if (net_gauges_provider_) net = net_gauges_provider_();
  }
  return metrics_.Snapshot(cache_.stats(),
                           static_cast<uint32_t>(queue_depth()),
                           in_flight_.load(std::memory_order_relaxed), gauges,
                           durability, net);
}

void KosrService::AttachNetGauges(std::function<NetGauges()> provider) {
  MutexLock lock(net_gauges_mutex_);
  net_gauges_provider_ = std::move(provider);
}

uint32_t KosrService::num_categories() const {
  // Guest epoch pin: lock-free, never blocks behind an in-flight update.
  SnapshotDomain::GuestPin pin(domain_);
  return pin.snapshot()->num_categories();
}

size_t KosrService::queue_depth() const {
  MutexLock lock(queue_mutex_);
  return queue_.size();
}

}  // namespace kosr::service
