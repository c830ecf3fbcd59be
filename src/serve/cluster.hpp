// ShardedDecodeServer: N in-process DecodeServer shards behind
// consistent-hash session placement, with snapshot-replay failover,
// admission control and backpressure (docs/serving.md, docs/robustness.md).
//
// This is the survivability layer the ROADMAP's sharded-service item needs
// before a real network transport: every mechanism here — the
// SessionSnapshot wire frames (serve/snapshot.hpp), the watermark
// admission gate, the retry-with-backoff client, the shard health ladder —
// is transport-agnostic, exercised today across in-process shard
// boundaries and reused verbatim when shards become processes.
//
// Shard model:
//  * Every shard is a *manual-mode* DecodeServer (workers = kManual); the
//    cluster owns pumping via pump(), which any number of caller threads
//    may run concurrently (DecodeServer::poll is safe to call from many
//    threads — one ready item per call, session ownership via the
//    scheduled flag).  A paused or fenced shard is skipped; migration
//    quiesces a shard by pausing it and waiting for in-flight polls to
//    reach zero, which is what makes checkpoint/steal-queue/rebuild safe.
//  * Each shard incarnation gets a disjoint session-id range
//    (ServerOptions::session_id_base), so flight-recorder journals never
//    interleave across shards.  Cluster-level SessionIds are separate and
//    stable across migrations; routes_ maps them to (shard, local id).
//
// Shard health ladder (docs/robustness.md — the PR5 session ladder lifted
// to whole shards).  tick() scores each shard from its own ServerStats
// deltas (SLO attainment, restart churn, quarantine rate, stalled
// consumption) and escalates:
//    healthy -> probe      no new placements; watch another tick
//    probe   -> drain      lossless: checkpoint + steal-queue + restore on
//                          a healthy shard, resubmit stolen bins in order
//    probe   -> quarantine a wedged shard (stall) skips drain: snapshot-
//                          replay failover; bins past the last checkpoint
//                          are counted discarded, the client resubmits
//    drain/quarantine ->   rebuild: fresh DecodeServer incarnation, shard
//    healthy               rejoins the placement ring
// fail_shard (KALMMIND_FAULTS) jumps straight to the quarantine rung.
//
// Failover is bit-exact: a restored session pulls gains from the target
// shard's GainScheduleCache at exactly the snapshot iteration, so its
// continued trajectory is bit-identical to an uninterrupted run
// (tests/serve/cluster_test.cpp proves this under seeded shard kills).
// Two limits of the sliding schedule window (docs/robustness.md, F1/F3):
// a snapshot whose iteration lies below the target's window cannot be
// restored, and a batched session a restored older peer slides out of the
// window is ejected to solo and leaves bit-identity.
//
// Admission control: per-shard pending-bin watermarks with hysteresis.
// Above high_watermark submit() returns an Overloaded Status (never
// blocks, never queues unboundedly); below low_watermark the shard
// re-admits.  RetryingSubmitter is the client half: jittered exponential
// backoff until the bin lands or attempts run out.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace kalmmind::serve {

// Shard rung on the cluster ladder (see the header comment).
enum class ShardState {
  kHealthy = 0,
  kProbe,       // under observation: no new session placements
  kDraining,    // lossless migration in progress
  kQuarantined, // fenced: sessions restored elsewhere from snapshots
};

inline const char* to_string(ShardState s) {
  switch (s) {
    case ShardState::kHealthy: return "healthy";
    case ShardState::kProbe: return "probe";
    case ShardState::kDraining: return "draining";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "?";
}

struct ClusterOptions {
  std::size_t shards = 4;
  // Virtual nodes per shard on the placement ring (evens out the keyspace).
  std::size_t vnodes = 16;
  // Per-shard DecodeServer options.  workers is forced to kManual: the
  // cluster owns pumping (see the shard model above).
  ServerOptions shard;

  // Admission control: queued-bin watermarks per shard, with hysteresis —
  // a shard that trips high_watermark sheds until it drains below
  // low_watermark.
  std::size_t high_watermark = 4096;
  std::size_t low_watermark = 1024;
  // What a shedding shard does with a new bin: the session queue's own
  // backpressure choice, at shard scope.  kReject bounces it with an
  // Overloaded Status (the client retries); kDropOldest admits it and
  // evicts the submitting session's stalest queued bin.
  BackpressurePolicy shed = BackpressurePolicy::kReject;

  // tick() checkpoints a session once it has decoded this many bins past
  // its last snapshot (0: only explicit checkpoint()/checkpoint_all()).
  std::size_t checkpoint_every_bins = 64;

  // Ladder: consecutive bad ticks before a shard escalates one rung, the
  // SLO attainment floor below which a tick is bad, and the per-tick
  // restart delta that counts as churn.
  std::size_t escalate_after_ticks = 2;
  double slo_floor = 0.90;
  std::size_t restart_churn_per_tick = 4;

  [[nodiscard]] Status check() const noexcept {
    if (shards == 0)
      return Status::Invalid("ClusterOptions: shards must be > 0");
    if (vnodes == 0)
      return Status::Invalid("ClusterOptions: vnodes must be > 0");
    if (high_watermark == 0)
      return Status::Invalid("ClusterOptions: high_watermark must be > 0");
    if (low_watermark > high_watermark)
      return Status::Invalid(
          "ClusterOptions: low_watermark must be <= high_watermark");
    if (escalate_after_ticks == 0)
      return Status::Invalid(
          "ClusterOptions: escalate_after_ticks must be > 0");
    if (!(slo_floor >= 0.0 && slo_floor <= 1.0))
      return Status::Invalid("ClusterOptions: slo_floor must be in [0, 1]");
    return Status::Ok();
  }
};

// Per-shard rollup inside ClusterStats (the ISSUE's "per-shard rollups in
// ServerStats": the full ServerStats of the current incarnation plus the
// cluster-side ladder counters).
struct ShardRollup {
  std::size_t index = 0;
  ShardState state = ShardState::kHealthy;
  std::uint64_t generation = 0;       // incarnations so far (rebuild count+1)
  std::size_t pending_estimate = 0;   // admission-control queued-bin view
  bool shedding = false;              // currently above the watermark
  std::uint64_t admission_rejected = 0;
  std::uint64_t migrations_out = 0;   // sessions this shard lost (any rung)
  std::uint64_t restores_in = 0;      // sessions restored onto this shard
  ServerStats server;                 // current incarnation's stats
};

// Point-in-time view of the whole cluster.  The bin conservation law the
// chaos tests assert: decoded + queued + dropped + discarded == submitted,
// and submitted + rejected_overload + rejected_full == submit attempts.
struct ClusterStats {
  std::size_t shards = 0;
  std::size_t sessions = 0;            // live (non-closed, non-dead) routes
  std::uint64_t submitted = 0;         // bins accepted by the cluster
  std::uint64_t rejected_overload = 0; // admission-control bounces
  std::uint64_t rejected_full = 0;     // session-queue-full bounces
  std::uint64_t decoded = 0;           // recorded steps across incarnations
  std::uint64_t invalid_steps = 0;
  std::uint64_t quarantine_dropped = 0;
  std::uint64_t dropped = 0;           // kDropOldest evictions (incl. shed)
  std::uint64_t discarded = 0;         // close/teardown + failover losses
  std::uint64_t queued = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t sessions_migrated = 0;
  std::uint64_t sessions_reaped = 0;   // finished routes folded into totals
  std::uint64_t shard_quarantines = 0;
  std::uint64_t shard_rebuilds = 0;
  double worst_shard_p99_s = 0.0;
  double deadline_slo = 1.0;           // worst shard's attainment
  std::vector<ShardRollup> per_shard;

  std::string to_string() const;
};

class ShardedDecodeServer {
 public:
  static constexpr SessionId kInvalidSession = DecodeServer::kInvalidSession;

  // `status` (optional) reports an invalid ClusterOptions; the cluster is
  // then constructed with defaults so the object is still usable.
  explicit ShardedDecodeServer(ClusterOptions options = {},
                               Status* status = nullptr);
  ~ShardedDecodeServer();

  ShardedDecodeServer(const ShardedDecodeServer&) = delete;
  ShardedDecodeServer& operator=(const ShardedDecodeServer&) = delete;

  // Admit a session on a ring-placed healthy shard.  The returned id is
  // cluster-level: it stays valid across migrations and rebuilds.
  SessionId open_session(SessionConfig config, Status* status = nullptr);

  // Enqueue one bin.  Never blocks: an over-watermark shard returns an
  // Overloaded Status (kReject) or evicts the session's stalest bin
  // (kDropOldest); a fenced/failing-over shard returns Unavailable.  Both
  // are Status::retryable() — see RetryingSubmitter.
  [[nodiscard]] Status submit(SessionId id, Vector<double> z);

  // Stop accepting bins.  On a fenced (mid-migration) shard the close is
  // deferred; the requested mode is remembered on the route and applied to
  // the restored incarnation, so kDiscard keeps its discard semantics
  // across a migration.
  bool close_session(SessionId id, CloseMode mode = CloseMode::kDrain);

  // One pumping pass: polls every active shard once and refreshes the
  // admission estimates.  Safe to call from many threads concurrently.
  // Returns filter steps executed.
  std::size_t pump();

  // Pump until every active shard is idle (manual-mode drain).
  void drain();

  // One control-plane beat: refresh admission watermarks, score shard
  // health, advance the ladder (probe/drain/quarantine/rebuild), take
  // cadence checkpoints, and reap finished sessions (closed-and-drained or
  // dead routes fold their counters into the cluster totals and are
  // erased, so routes_ stays bounded).  Deterministic — tests drive it
  // explicitly.  Stall scoring reads the observable condition (queued
  // bins, zero decode progress since the last tick), so tick() must run
  // no faster than the pump cadence or an under-pumped shard reads as
  // wedged.
  void tick();

  // Snapshot the session now (stored for failover; also journals
  // kSnapshotTaken).  Fails for unknown/dead sessions and non-replayable
  // streams.
  [[nodiscard]] Status checkpoint(SessionId id);
  // Checkpoint every live session; returns how many succeeded.
  std::size_t checkpoint_all();

  // Administratively drain a shard: lossless migration of every session to
  // healthy peers (checkpoint + steal-queue + restore + resubmit), then
  // rebuild.  The shard rejoins the ring healthy.
  [[nodiscard]] Status drain_shard(std::size_t shard);

  // Decoded trajectory across incarnations: the concatenation of the
  // checkpointed prefix and the current incarnation's states — the
  // sequence the chaos test compares bit-for-bit against a solo run.  A
  // dead route keeps every state it decoded (after a failover: up to its
  // last checkpoint) until tick() reaps it.
  std::vector<Vector<double>> trajectory(SessionId id) const;
  SessionStatsSnapshot session_stats(SessionId id) const;
  ClusterStats stats() const;

  // Bins the stream has safely absorbed (consumed + queued on the current
  // incarnation): the client's resubmission cursor after a failover.
  std::size_t next_expected_bin(SessionId id) const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(SessionId id) const;
  ShardState shard_state(std::size_t shard) const;

#if defined(KALMMIND_FAULTS)
  // Fault-injection hooks (KALMMIND_FAULTS builds only).  stall: the shard
  // stops being pumped — queues grow, the ladder detects the stall.
  // fail: the shard is fenced and synchronously failed over (snapshot
  // replay on healthy peers), then rebuilt.
  void fault_stall_shard(std::size_t shard, bool stalled);
  void fault_fail_shard(std::size_t shard);
#endif

 private:
  struct Shard;
  struct Route;

  // The cluster-side tallies of one route: what the client's submits did
  // before any shard-local session saw them.
  struct AdmissionCounters {
    std::uint64_t accepted = 0;           // bins the cluster accepted
    std::uint64_t rejected_overload = 0;  // admission bounces
    std::uint64_t rejected_full = 0;      // session-queue-full bounces
    AdmissionCounters& operator+=(const AdmissionCounters& o) {
      accepted += o.accepted;
      rejected_overload += o.rejected_overload;
      rejected_full += o.rejected_full;
      return *this;
    }
  };

  // submit() past the fence check, inside the shard's inflight guard:
  // admission control + the actual enqueue.
  [[nodiscard]] Status submit_admitted(SessionId id, Shard& shard,
                                       SessionId local, Vector<double> z);

  // Ring lookup: first eligible shard clockwise of key (skips the
  // `exclude` index when another candidate exists).  Returns shards_.size()
  // when nothing accepts placements.
  std::size_t place(std::uint64_t key, std::size_t exclude) const;
  // Pause the shard and wait until no pump() is inside it.
  void quiesce(Shard& shard);
  void resume(Shard& shard);
  // Replace the shard's DecodeServer with a fresh incarnation.
  void rebuild_locked(Shard& shard);
  // Lossless migration of every session off `shard` (admin_mu_ held).
  [[nodiscard]] Status drain_shard_locked(std::size_t shard);
  // Snapshot-replay failover of every session off `shard` (admin_mu_
  // held); queued and post-snapshot bins are counted discarded.
  void failover_shard_locked(std::size_t shard, const char* reason);
  // Move one route to `target` from its stored snapshot; `queued` (may be
  // null) is the stolen undecoded tail, resubmitted to the new incarnation
  // *before* the route is rewritten so a concurrent client submit cannot
  // jump ahead of it.  A close_session deferred by the fence is applied
  // to the new incarnation.  Returns false if the restore was rejected.
  // routes_mu_ must NOT be held.
  bool restore_route(SessionId id, Route& route, std::size_t target,
                     const char* reason, std::deque<Vector<double>>* queued);
  // Take one snapshot + prefix copy for the route (routes_mu_ held via
  // caller contract; see implementation).
  [[nodiscard]] Status checkpoint_route(SessionId id, Route& route);
  // Mark a route dead with its final stats (admin_mu_ held, routes_mu_
  // not).  `source` is the shard server still holding the last
  // incarnation, or null when it is already gone; its states not yet in
  // the prefix are folded in, so trajectory() keeps every state decoded.
  void bury_route(Route& route, SessionStatsSnapshot final_stats,
                  const DecodeServer* source);
  // Fold finished routes (dead, or closed with a drained queue) into
  // retired_ and erase them (admin_mu_ held) — routes_ stays bounded on a
  // long-running cluster.
  void reap_routes_locked();
  void refresh_admission(Shard& shard);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;  // sorted points
  std::atomic<std::uint64_t> next_id_base_{1};  // per-incarnation id ranges

  // Guards routes_, next_session_ and the retired totals below.
  mutable std::mutex routes_mu_;
  std::unordered_map<SessionId, std::unique_ptr<Route>> routes_;
  SessionId next_session_ = 1;
  // Counters folded out of reaped routes: the conservation law
  // (decoded + ... == submitted) stays closed after the Route objects are
  // gone.  queued is always zero at reap time, so it has no slot here.
  AdmissionCounters retired_admission_;
  SessionCounters retired_;
  std::uint64_t routes_reaped_ = 0;

  // Serializes control-plane operations (tick, drain, failover, rebuild).
  mutable std::mutex admin_mu_;
  std::uint64_t snapshots_taken_ = 0;     // admin_mu_
  std::uint64_t sessions_migrated_ = 0;   // admin_mu_
  std::uint64_t shard_quarantines_ = 0;   // admin_mu_
  std::uint64_t shard_rebuilds_ = 0;      // admin_mu_
};

// Client-side retry-with-backoff for the overload path: resubmits a bin
// while the cluster reports a retryable Status (Overloaded/Unavailable),
// sleeping a jittered exponential backoff between attempts.  Deterministic
// tests replace the sleep with a pump callback via set_between_attempts.
class RetryingSubmitter {
 public:
  struct Policy {
    std::size_t max_attempts = 12;
    double base_delay_s = 0.0005;
    double max_delay_s = 0.05;
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;  // jitter PRNG (splitmix64)
  };
  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t exhausted = 0;  // bins that never landed
  };

  explicit RetryingSubmitter(ShardedDecodeServer& cluster);
  RetryingSubmitter(ShardedDecodeServer& cluster, Policy policy);

  // Called between attempts *instead of* sleeping (e.g. pump the cluster
  // in a manual-mode test, making retry convergence deterministic).
  void set_between_attempts(std::function<void()> hook);

  // Submit with retries.  Returns the last Status: ok() once the bin
  // landed, the final retryable Status if attempts ran out, or the
  // permanent error immediately.
  [[nodiscard]] Status submit(SessionId id, const Vector<double>& z);

  Stats stats() const { return stats_; }

 private:
  double next_delay_s(std::size_t retry);

  ShardedDecodeServer& cluster_;
  Policy policy_;
  Stats stats_;
  std::uint64_t prng_;
  std::function<void()> between_attempts_;
};

}  // namespace kalmmind::serve
