#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

namespace {

telemetry::Gauge& sessions_open_gauge() {
  static telemetry::Gauge& g = telemetry::MetricsRegistry::global().gauge(
      "kalmmind.serve.sessions_open");
  return g;
}

telemetry::Counter& worker_busy_counter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::global().counter(
      "kalmmind.serve.worker_busy_us_total");
  return c;
}

}  // namespace

DecodeServer::DecodeServer(ServerOptions options)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      cache_(options.gain_cache_capacity, options.gain_window) {
  if (options_.workers != ServerOptions::kManual) {
    pool_ = std::make_unique<ThreadPool>(options_.workers);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_id_ = options_.session_id_base == kInvalidSession
                   ? 1
                   : options_.session_id_base;
  }
}

DecodeServer::~DecodeServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    ready_.clear();
  }
  if (pool_) pool_->shutdown();  // in-flight batches finish, queued jobs park
  // Account for the bins this teardown abandons: every queued-but-undecoded
  // bin is counted into its session's discarded tally and the process-wide
  // kalmmind.serve.discarded_total counter (the close_session satellite —
  // nothing vanishes silently).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, slot] : slots_) {
    if (slot.session) slot.session->discard_queue();
  }
}

SessionId DecodeServer::open_session(SessionConfig config, Status* status) {
  if (Status s = config.check(); !s.ok()) {
    if (status) *status = s;
    return kInvalidSession;
  }
  std::shared_ptr<Session> session;
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (status) *status = Status::Invalid("DecodeServer: shutting down");
      return kInvalidSession;
    }
    id = next_id_++;
  }
  try {
    session = std::make_shared<Session>(id, std::move(config));
  } catch (const std::invalid_argument&) {
    // config.check() passed, so this is a factory-parameter problem
    // (e.g. sskf/lite without StrategyMatrices::preloaded_inverse).
    if (status) {
      *status = Status::Invalid(
          "SessionConfig: strategy is missing required parameters "
          "(e.g. sskf/lite need StrategyMatrices::preloaded_inverse)");
    }
    return kInvalidSession;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot& slot = slots_[id];
    slot.session = std::move(session);
    try_join_group_locked(slot);
  }
  sessions_open_gauge().add(1.0);
  if (status) *status = Status::Ok();
  return id;
}

bool DecodeServer::try_join_group_locked(Slot& slot) {
  const SessionConfig& cfg = slot.session->config();
  if (!options_.batching || !cfg.allow_batching) return false;
  // Health gates read the decoded state, so a health-enabled session's gain
  // trajectory is measurement-dependent: never batch it.
  if (cfg.filter.options.health.enabled) return false;
  // The flight-session scope attributes the cache's hit/miss/eviction
  // journal events to the admitting session.
  telemetry::ScopedFlightSession flight(slot.session->id(), 0);
  const std::shared_ptr<kalman::GainSchedule> schedule =
      cache_.acquire(cfg.filter);
  if (!schedule) return false;  // fingerprint collision: decode solo
  GroupSlot& gslot = groups_[schedule->fingerprint()];
  if (!gslot.group) {
    gslot.group = make_group(schedule);
  } else if (!(gslot.group->config() == cfg.filter)) {
    return false;  // collision against a live group: decode solo
  }
  // A fresh session decodes from schedule iteration 0; if the group's
  // window already slid past it the member would eject on its first bin.
  if (gslot.group->schedule()->base() != 0) return false;
  slot.session->enable_batching();
  gslot.group->add(slot.session);
  slot.group = gslot.group;
  if (telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kBatchJoin,
                    slot.session->id(), 0, schedule->fingerprint());
  }
  return true;
}

PushResult DecodeServer::submit(SessionId id, Vector<double> z) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end() || it->second.closed || stopping_) {
      return PushResult::kUnknownSession;
    }
    session = it->second.session;
  }
  const PushResult result = session->enqueue(std::move(z));
  if (result == PushResult::kRejectedFull) return result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end() || stopping_) return result;
    Slot& slot = it->second;
    if (slot.group) {
      auto git = groups_.find(slot.group->key());
      if (git != groups_.end() && !git->second.scheduled) {
        dispatch_group_locked(git->first, git->second);
      }
    } else if (!slot.scheduled) {
      dispatch_locked(id, slot);
    }
  }
  return result;
}

bool DecodeServer::close_session(SessionId id, CloseMode mode) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    if (!it->second.closed) sessions_open_gauge().add(-1.0);
    it->second.closed = true;  // no new submits either way
    if (mode == CloseMode::kDiscard) session = it->second.session;
  }
  // kDiscard: drop the queued bins now, counted (a consumer that already
  // popped a batch still finishes it — discard is queue surgery, not an
  // interrupt).  kDrain keeps the historical behavior: they still decode.
  if (session) session->discard_queue();
  return true;
}

void DecodeServer::note_busy_since(std::chrono::steady_clock::time_point t0) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  busy_us_.fetch_add(std::uint64_t(us), std::memory_order_relaxed);
  worker_busy_counter().add(std::uint64_t(us));
}

std::size_t DecodeServer::step_timed(Session& session) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t steps = session.step_pending(options_.max_batch, &latency_);
  note_busy_since(t0);
  return steps;
}

BatchGroup::StepResult DecodeServer::step_timed(BatchGroup& group) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchGroup::StepResult result =
      group.step_pending(options_.max_batch, &latency_);
  note_busy_since(t0);
  return result;
}

std::shared_ptr<BatchGroup> DecodeServer::make_group(
    std::shared_ptr<kalman::GainSchedule> schedule) {
  if (!pool_) return std::make_shared<BatchGroup>(std::move(schedule));
  // Lookahead jobs run on the pool and count as worker busy time.  The
  // destructor joins the pool before any member dies, so `this` outlives
  // every job.
  return std::make_shared<BatchGroup>(
      std::move(schedule), [this](std::function<void()> job) {
        return pool_->try_submit([this, job = std::move(job)] {
          const auto t0 = std::chrono::steady_clock::now();
          job();
          note_busy_since(t0);
        });
      });
}

void DecodeServer::dispatch_locked(SessionId id, Slot& slot) {
  slot.scheduled = true;
  ++scheduled_count_;
  if (pool_) {
    pool_->submit([this, id] { run_session(id); });
  } else {
    ready_.push_back({false, id, 0});
  }
}

void DecodeServer::dispatch_group_locked(std::uint64_t key, GroupSlot& slot) {
  slot.scheduled = true;
  ++scheduled_count_;
  if (pool_) {
    pool_->submit([this, key] { run_group(key); });
  } else {
    ready_.push_back({true, 0, key});
  }
}

void DecodeServer::handle_ejections_locked(
    const std::vector<SessionId>& ejected) {
  for (SessionId id : ejected) {
    auto it = slots_.find(id);
    if (it == slots_.end()) continue;
    Slot& slot = it->second;
    slot.group.reset();
    if (!stopping_ && !slot.scheduled && slot.session->queue_depth() > 0) {
      dispatch_locked(id, slot);
    }
  }
}

void DecodeServer::run_group(std::uint64_t key) {
  std::shared_ptr<BatchGroup> group;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = groups_.find(key);
    if (it != groups_.end()) group = it->second.group;
  }
  BatchGroup::StepResult result;
  if (group && !stopping_flag()) {
    result = step_timed(*group);
  }
  std::lock_guard<std::mutex> lock(mu_);
  handle_ejections_locked(result.ejected);
  auto it = groups_.find(key);
  if (it == groups_.end()) return;
  GroupSlot& slot = it->second;
  // Same park-or-requeue decision as run_session, at group granularity.
  if (!stopping_ && group && group->pending()) {
    if (pool_) {
      pool_->submit([this, key] { run_group(key); });
    } else {
      ready_.push_back({true, 0, key});
    }
  } else {
    slot.scheduled = false;
    --scheduled_count_;
    drain_cv_.notify_all();
  }
}

void DecodeServer::run_session(SessionId id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it != slots_.end()) session = it->second.session;
  }
  if (session && !stopping_flag()) {
    step_timed(*session);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  // Atomically (under mu_) decide: more work -> stay scheduled and
  // re-dispatch; empty -> park.  submit() checks `scheduled` under the
  // same mutex, so a bin enqueued concurrently is never stranded.
  if (!stopping_ && session && session->queue_depth() > 0) {
    if (pool_) {
      pool_->submit([this, id] { run_session(id); });
    } else {
      ready_.push_back({false, id, 0});
    }
  } else {
    slot.scheduled = false;
    --scheduled_count_;
    drain_cv_.notify_all();
  }
}

std::size_t DecodeServer::poll() {
  ReadyItem item;
  std::shared_ptr<Session> session;
  std::shared_ptr<BatchGroup> group;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ready_.empty()) return 0;
    item = ready_.front();
    ready_.pop_front();
    if (item.is_group) {
      auto it = groups_.find(item.key);
      if (it == groups_.end()) return 0;
      group = it->second.group;
    } else {
      auto it = slots_.find(item.id);
      if (it == slots_.end()) return 0;
      session = it->second.session;
    }
  }
  if (item.is_group) {
    BatchGroup::StepResult result;
    if (!stopping_flag()) result = step_timed(*group);
    std::lock_guard<std::mutex> lock(mu_);
    handle_ejections_locked(result.ejected);
    auto it = groups_.find(item.key);
    if (it == groups_.end()) return result.steps;
    if (!stopping_ && group->pending()) {
      ready_.push_back(item);
    } else {
      it->second.scheduled = false;
      --scheduled_count_;
      drain_cv_.notify_all();
    }
    return result.steps;
  }
  const std::size_t steps = stopping_flag() ? 0 : step_timed(*session);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(item.id);
  if (it == slots_.end()) return steps;
  if (!stopping_ && session->queue_depth() > 0) {
    ready_.push_back(item);
  } else {
    it->second.scheduled = false;
    --scheduled_count_;
    drain_cv_.notify_all();
  }
  return steps;
}

void DecodeServer::drain() {
  if (!pool_) {
    // Manual mode: pump on the calling thread until nothing is ready.
    while (poll() > 0 || [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return !ready_.empty();
    }()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return scheduled_count_ == 0 || stopping_; });
}

std::shared_ptr<Session> DecodeServer::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.session;
}

std::shared_ptr<const kalman::GainSchedule> DecodeServer::group_schedule(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end() || !it->second.group) return nullptr;
  return it->second.group->schedule();
}

std::vector<Vector<double>> DecodeServer::trajectory(SessionId id) const {
  auto session = find(id);
  return session ? session->trajectory() : std::vector<Vector<double>>{};
}

std::vector<Vector<double>> DecodeServer::trajectory_slice(
    SessionId id, std::size_t from, std::size_t to) const {
  auto session = find(id);
  return session ? session->trajectory_slice(from, to)
                 : std::vector<Vector<double>>{};
}

[[nodiscard]] Status DecodeServer::checkpoint_session(
    SessionId id, SessionSnapshot* out) const {
  auto session = find(id);
  if (!session) return Status::Invalid("checkpoint: unknown session");
  Status s = session->checkpoint(out);
  if (s.ok() && telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kSnapshotTaken, id, out->steps,
                    out->iteration);
  }
  return s;
}

SessionId DecodeServer::restore_session(SessionConfig config,
                                        const SessionSnapshot& snap,
                                        Status* status) {
  if (Status s = config.check(); !s.ok()) {
    if (status) *status = s;
    return kInvalidSession;
  }
  if (config.filter.fingerprint() != snap.config_fingerprint) {
    if (status)
      *status = Status::Invalid(
          "restore: snapshot fingerprint does not match config");
    return kInvalidSession;
  }
  if (snap.x.size() != config.filter.model.x_dim()) {
    if (status)
      *status = Status::Invalid("restore: state dimension mismatch");
    return kInvalidSession;
  }
  // Bit-exact resumption needs the shared gain schedule: the restored
  // session pulls K at exactly snap.iteration from the cache, which a solo
  // filter's freshly-constructed strategy cannot reproduce mid-trajectory.
  if (!options_.batching || !config.allow_batching ||
      config.filter.options.health.enabled) {
    if (status)
      *status = Status::Invalid(
          "restore: config is not batchable on this server (bit-exact "
          "replay needs the shared gain schedule)");
    return kInvalidSession;
  }
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      if (status) *status = Status::Unavailable("DecodeServer: shutting down");
      return kInvalidSession;
    }
    id = next_id_++;
  }
  std::shared_ptr<Session> session;
  try {
    session = std::make_shared<Session>(id, std::move(config));
  } catch (const std::invalid_argument&) {
    if (status) {
      *status = Status::Invalid(
          "SessionConfig: strategy is missing required parameters "
          "(e.g. sskf/lite need StrategyMatrices::preloaded_inverse)");
    }
    return kInvalidSession;
  }
  // Replay against the (warm) gain-schedule cache, outside mu_: extending a
  // cold schedule to snap.iteration computes that many K/P entries, and the
  // admission lock must not pay for it.
  telemetry::ScopedFlightSession flight(id, snap.steps);
  const std::shared_ptr<kalman::GainSchedule> schedule =
      cache_.acquire(session->config().filter);
  if (!schedule) {
    if (status)
      *status =
          Status::Invalid("restore: gain-schedule fingerprint collision");
    return kInvalidSession;
  }
  std::shared_ptr<const kalman::GainSchedule::Entry> entry;
  if (snap.iteration > 0) {
    entry = schedule->at(std::size_t(snap.iteration) - 1);
    if (!entry) {
      if (status)
        *status = Status::Invalid(
            "restore: iteration already slid out of the schedule window");
      return kInvalidSession;
    }
  }
  session->prime_restore(snap, std::move(entry));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto git = groups_.find(schedule->fingerprint());
    if (git != groups_.end() && git->second.group &&
        (!(git->second.group->config() == session->config().filter) ||
         git->second.group->schedule()->base() > snap.iteration)) {
      if (status)
        *status = Status::Invalid(
            "restore: live batch group cannot host this snapshot");
      return kInvalidSession;
    }
    GroupSlot& gslot = groups_[schedule->fingerprint()];
    if (!gslot.group) gslot.group = make_group(schedule);
    Slot& slot = slots_[id];
    slot.session = session;
    session->enable_batching();
    gslot.group->add(session);
    slot.group = gslot.group;
  }
  sessions_open_gauge().add(1.0);
  if (telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kSnapshotRestored, id,
                    snap.steps, snap.iteration);
  }
  if (status) *status = Status::Ok();
  return id;
}

bool DecodeServer::remove_session(SessionId id) {
  std::shared_ptr<BatchGroup> group;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    Slot& slot = it->second;
    if (slot.scheduled) {
      // Pool mode: a worker may be inside the session right now — refuse.
      // Manual mode with quiesced pumping (the migration contract): the
      // ownership token is parked in ready_, so reclaim it here.
      if (pool_) return false;
      for (auto rit = ready_.begin(); rit != ready_.end();) {
        if (!rit->is_group && rit->id == id) {
          rit = ready_.erase(rit);
          --scheduled_count_;
        } else {
          ++rit;
        }
      }
    }
    group = slot.group;
    if (!slot.closed) sessions_open_gauge().add(-1.0);
    slots_.erase(it);
    drain_cv_.notify_all();
  }
  if (group) group->remove(id);
  return true;
}

std::size_t DecodeServer::queued_now() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(slots_.size());
    for (const auto& [id, slot] : slots_) sessions.push_back(slot.session);
  }
  std::size_t queued = 0;
  for (const auto& s : sessions) {
    if (s) queued += s->queue_depth();
  }
  return queued;
}

bool DecodeServer::shed_oldest(SessionId id) {
  auto session = find(id);
  return session && session->shed_oldest();
}

std::deque<Vector<double>> DecodeServer::steal_queue(SessionId id) {
  auto session = find(id);
  return session ? session->steal_queue() : std::deque<Vector<double>>{};
}

std::vector<core::IterationTiming> DecodeServer::timings(SessionId id) const {
  auto session = find(id);
  return session ? session->timings() : std::vector<core::IterationTiming>{};
}

SessionStatsSnapshot DecodeServer::session_stats(SessionId id) const {
  auto session = find(id);
  return session ? session->stats() : SessionStatsSnapshot{};
}

ServerStats DecodeServer::stats() const {
  ServerStats out;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(slots_.size());
    for (const auto& [id, slot] : slots_) {
      sessions.push_back(slot.session);
      if (!slot.closed) ++out.sessions;
    }
    for (const auto& [key, gslot] : groups_) {
      if (gslot.group && gslot.group->size() > 0) ++out.batch_groups;
    }
  }
  SessionCounters totals;
  for (const auto& session : sessions) {
    SessionStatsSnapshot s = session->stats();
    totals += s;
    if (s.batched) ++out.batched_sessions;
    out.queued += s.queue_depth;
    switch (s.state) {
      case SessionState::kDegraded: ++out.degraded_sessions; break;
      case SessionState::kQuarantined: ++out.quarantined_sessions; break;
      case SessionState::kFailed: ++out.failed_sessions; break;
      case SessionState::kHealthy: break;
    }
    out.per_session.push_back(std::move(s));
  }
  out.total_steps = totals.steps;
  out.total_batched_steps = totals.batched_steps;
  out.total_deadline_misses = totals.deadline_misses;
  out.total_invalid_steps = totals.invalid_steps;
  out.total_restarts = totals.restarts;
  out.total_degradations = totals.degradations;
  out.total_quarantine_dropped = totals.quarantine_dropped;
  out.total_rejected = totals.rejected;
  out.total_dropped = totals.dropped;
  out.total_discarded = totals.discarded;
  out.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  out.steps_per_second =
      out.uptime_s > 0.0 ? double(out.total_steps) / out.uptime_s : 0.0;
  out.worker_busy_s =
      double(busy_us_.load(std::memory_order_relaxed)) * 1e-6;
  const double lanes = double(std::max(1u, workers()));
  out.worker_utilization =
      out.uptime_s > 0.0
          ? std::min(1.0, out.worker_busy_s / (out.uptime_s * lanes))
          : 0.0;
  out.step_latency = latency_.summarize();
  out.deadline_slo =
      out.total_steps > 0
          ? double(out.total_steps - out.total_deadline_misses) /
                double(out.total_steps)
          : 1.0;
  const kalman::GainScheduleCache::Stats cache_stats = cache_.stats();
  out.gain_cache_hits = cache_stats.hits;
  out.gain_cache_misses = cache_stats.misses;
  out.gain_cache_evictions = cache_stats.evictions;
  out.gain_cache_collisions = cache_stats.collisions;
  // Refresh the registry gauges from this authoritative snapshot, so a
  // --metrics-out dump and stats().to_string() always agree.
  auto& registry = telemetry::MetricsRegistry::global();
  registry.gauge("kalmmind.serve.sessions_open").set(double(out.sessions));
  registry.gauge("kalmmind.serve.queued_bins").set(double(out.queued));
  registry.gauge("kalmmind.serve.worker_utilization")
      .set(out.worker_utilization);
  registry.gauge("kalmmind.serve.sessions_quarantined")
      .set(double(out.quarantined_sessions));
  registry.gauge("kalmmind.serve.sessions_degraded")
      .set(double(out.degraded_sessions));
  registry.gauge("kalmmind.serve.sessions_batched")
      .set(double(out.batched_sessions));
  registry.gauge("kalmmind.serve.batch_groups").set(double(out.batch_groups));
  registry.gauge("kalmmind.serve.slo_attainment").set(out.deadline_slo);
  return out;
}

std::string ServerStats::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "sessions   : %zu open, %zu queued bins\n", sessions, queued);
  out += line;
  std::snprintf(line, sizeof(line),
                "throughput : %zu steps in %.3f s  (%.1f steps/s)\n",
                total_steps, uptime_s, steps_per_second);
  out += line;
  std::snprintf(line, sizeof(line),
                "workers    : %.3f s busy  (%.1f%% utilization)\n",
                worker_busy_s, worker_utilization * 100.0);
  out += line;
  std::snprintf(line, sizeof(line),
                "latency    : p50 %.3f ms  p99 %.3f ms  max %.3f ms  "
                "(%zu samples)\n",
                step_latency.p50_s * 1e3, step_latency.p99_s * 1e3,
                step_latency.max_s * 1e3, step_latency.samples);
  out += line;
  std::snprintf(line, sizeof(line),
                "quality    : %zu deadline misses, %zu rejected, %zu dropped, "
                "%zu discarded\n",
                total_deadline_misses, total_rejected, total_dropped,
                total_discarded);
  out += line;
  double worst_p99 = 0.0;
  for (const auto& s : per_session) {
    worst_p99 = std::max(worst_p99, s.p99_step_s);
  }
  std::snprintf(line, sizeof(line),
                "slo        : %.2f%% deadline attainment  "
                "(worst session p99 %.3f ms)\n",
                deadline_slo * 100.0, worst_p99 * 1e3);
  out += line;
  std::snprintf(line, sizeof(line),
                "health     : %zu degraded, %zu quarantined, %zu failed  "
                "(%zu restarts, %zu degradations, %zu invalid steps)\n",
                degraded_sessions, quarantined_sessions, failed_sessions,
                total_restarts, total_degradations, total_invalid_steps);
  out += line;
  std::snprintf(line, sizeof(line),
                "batching   : %zu groups, %zu batched sessions, "
                "%zu batched steps  (gain cache: %llu hits, %llu misses, "
                "%llu evictions)\n",
                batch_groups, batched_sessions, total_batched_steps,
                (unsigned long long)gain_cache_hits,
                (unsigned long long)gain_cache_misses,
                (unsigned long long)gain_cache_evictions);
  out += line;
  return out;
}

}  // namespace kalmmind::serve
