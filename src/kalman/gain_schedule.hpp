// Compute-once gain/covariance trajectories, shared across sessions.
//
// The reorganized filter isolates `compute K` from the measurement-
// dependent path (PAPER.md pillar 1): P', S, S^-1 and K at iteration n
// depend only on the model, the options and the inverse strategy — never
// on a measurement.  Every session running the same FilterConfig therefore
// walks an *identical* K/P trajectory, and DecodeServer used to recompute
// it once per session.  A GainSchedule computes the trajectory once,
// replaying the filter's exact kernel sequence (same ops, same order, so
// entries are bit-identical to what a solo KalmanFilter would produce),
// and hands out immutable ref-counted entries.
//
// Memory is bounded by a sliding window: once more than `window` entries
// exist the oldest are dropped and at() returns nullptr for them — a
// consumer that far behind falls out to the solo path (serve/batch_group
// does exactly that).  Entries are shared_ptr<const Entry>, so a holder
// keeps its entry alive across eviction.
//
// GainScheduleCache memoizes schedules per FilterConfig fingerprint with
// LRU eviction at a bounded capacity, exporting
// kalmmind.serve.gain_cache.{hits,misses,evictions}.  An evicted schedule
// stays valid for sessions still holding its shared_ptr; it is simply no
// longer findable, so a later acquire() recomputes.
//
// Thread safety: both classes are internally synchronized.  A schedule
// extends one entry at a time under a single-advancer token: the thread
// holding it runs the K/P iteration outside the schedule's mutex (the
// strategy, P and workspace are touched by the token holder only) and
// publishes the entry under a short lock.  A lookup of an entry that is
// already computed therefore never waits for an advance in flight; a
// lookup past the newest entry waits for the advancer or becomes it.  The
// token hands the kernel sequence from thread to thread in iteration
// order, so entries stay bit-identical whoever computes them.  prefetch()
// is the non-blocking form a serving layer uses to compute the next entry
// before anyone asks for it (serve/batch_group.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "kalman/filter_config.hpp"
#include "linalg/ops.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::kalman {

class GainSchedule {
 public:
  // Everything the measurement-dependent half of iteration n needs.
  struct Entry {
    Matrix<double> k;        // Kalman gain K_n
    Matrix<double> p_after;  // posterior covariance P_n (batch fall-out
                             // re-seeds a solo filter from this)
    InverseEvent event;      // inversion path that produced S^-1_n
  };

  // Precondition: config.check().ok().
  explicit GainSchedule(FilterConfig<double> config,
                        std::size_t window = kDefaultWindow)
      : config_(std::move(config)),
        fingerprint_(config_.fingerprint()),
        window_(window == 0 ? 1 : window),
        strategy_(config_.make_strategy()),
        p_(config_.model.p0) {
    ws_.reserve(config_.model.x_dim(), config_.model.z_dim(),
                config_.options.joseph_update);
  }

  static constexpr std::size_t kDefaultWindow = 4096;

  const FilterConfig<double>& config() const { return config_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  // The entry for iteration n, extending the schedule as needed.  Returns
  // nullptr when n has already slid out of the window (never for n ahead
  // of the window — those are computed on demand).  When `ready` is
  // non-null it reports whether the entry was computed before the call,
  // i.e. whether the caller neither computed it nor waited for it.
  std::shared_ptr<const Entry> at(std::size_t n, bool* ready = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (ready) *ready = computed_ > n;
    while (computed_ <= n) {
      if (advancing_) {
        advanced_cv_.wait(lock);
      } else {
        advance(lock);
      }
    }
    if (n < base_) return nullptr;
    return window_entries_[n - base_];
  }

  // Compute entry n ahead of demand, without waiting: returns true when
  // this call computed it.  Does nothing unless n is exactly the next
  // entry, no advance is in flight, and publishing n keeps entry `keep`
  // (the oldest one a consumer still needs) inside the window.
  bool prefetch(std::size_t n, std::size_t keep) {
    std::unique_lock<std::mutex> lock(mu_);
    if (computed_ != n || advancing_ || n + 1 > keep + window_) return false;
    advance(lock);
    return true;
  }

  // Iterations computed so far ([base, computed) are resident).
  std::size_t computed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return computed_;
  }
  std::size_t base() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_;
  }

#if defined(KALMMIND_FAULTS)
  // Fault-injection hooks (KALMMIND_FAULTS builds only): park the next
  // advance in flight, after it took the token and released mu_, until
  // fault_release_advance().  fault_wait_parked() blocks until an advance
  // is parked.  Tests use them to prove lookups never wait on an advance.
  void fault_park_next_advance() {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_park_ = true;
  }
  void fault_wait_parked() {
    std::unique_lock<std::mutex> lock(fault_mu_);
    fault_cv_.wait(lock, [this] { return fault_parked_; });
  }
  void fault_release_advance() {
    std::lock_guard<std::mutex> lock(fault_mu_);
    fault_park_ = false;
    fault_cv_.notify_all();
  }
#endif

 private:
  // Take the advancer token, compute entry computed_ outside mu_, publish
  // it, slide the window and hand the token back.  `lock` holds mu_ on
  // entry and on exit, and no other advance is in flight.
  void advance(std::unique_lock<std::mutex>& lock) {
    advancing_ = true;
    lock.unlock();
    std::shared_ptr<const Entry> entry;
    try {
#if defined(KALMMIND_FAULTS)
      fault_park_point();
#endif
      entry = compute();
    } catch (...) {
      lock.lock();
      advancing_ = false;
      advanced_cv_.notify_all();
      throw;
    }
    lock.lock();
    window_entries_.push_back(std::move(entry));
    ++computed_;
    while (window_entries_.size() > window_) {
      window_entries_.pop_front();
      ++base_;
    }
    advancing_ = false;
    advanced_cv_.notify_all();
  }

  // One measurement-independent KF iteration (advancer token held) — the
  // predict and compute-K stages of KalmanFilter::step with the identical
  // kernel calls in the identical order, so K_n and P_n match a solo
  // filter bit for bit (health monitoring is measurement-dependent and
  // therefore never batched, see serve/batch_group.hpp).
  std::shared_ptr<const Entry> compute() {
    auto entry = std::make_shared<Entry>();
    linalg::symmetric_sandwich_into(ws_.p_pred, config_.model.f, p_, ws_.fp);
    ws_.p_pred += config_.model.q;
    linalg::symmetric_sandwich_into(ws_.s, config_.model.h, ws_.p_pred,
                                    ws_.hp);
    ws_.s += config_.model.r;
    strategy_->invert_into(ws_.s_inv, ws_.s, next_);
    entry->event = strategy_->last_event();
    linalg::transpose_into(ws_.pht, ws_.hp);
    linalg::multiply_into(entry->k, ws_.pht, ws_.s_inv);
    linalg::multiply_into(ws_.kh, entry->k, config_.model.h);
    linalg::identity_minus_into(ws_.i_minus_kh, ws_.kh);
    if (config_.options.joseph_update) {
      linalg::multiply_into(ws_.joseph_tmp, ws_.i_minus_kh, ws_.p_pred);
      linalg::multiply_bt_into(p_, ws_.joseph_tmp, ws_.i_minus_kh);
      linalg::multiply_into(ws_.kr, entry->k, config_.model.r);
      linalg::multiply_bt_into(ws_.krk, ws_.kr, entry->k);
      p_ += ws_.krk;
    } else {
      linalg::multiply_into(p_, ws_.i_minus_kh, ws_.p_pred);
    }
    entry->p_after = p_;
    ++next_;
    return entry;
  }

#if defined(KALMMIND_FAULTS)
  void fault_park_point() {
    std::unique_lock<std::mutex> lock(fault_mu_);
    if (!fault_park_) return;
    fault_parked_ = true;
    fault_cv_.notify_all();
    fault_cv_.wait(lock, [this] { return !fault_park_; });
    fault_parked_ = false;
  }
#endif

  const FilterConfig<double> config_;
  const std::uint64_t fingerprint_;
  const std::size_t window_;

  // Advancer state: touched only by the thread holding the token.
  InverseStrategyPtr<double> strategy_;  // advanced strictly in order
  Matrix<double> p_;                     // posterior P of iteration next_-1
  KfWorkspace<double> ws_;
  std::size_t next_ = 0;  // iteration the next compute() produces

  // Published state, guarded by mu_.
  mutable std::mutex mu_;
  std::condition_variable advanced_cv_;  // an advance published or failed
  std::deque<std::shared_ptr<const Entry>> window_entries_;
  std::size_t base_ = 0;      // iteration of window_entries_.front()
  std::size_t computed_ = 0;  // one past the newest published iteration
  bool advancing_ = false;    // the advancer token is taken

#if defined(KALMMIND_FAULTS)
  std::mutex fault_mu_;  // see fault_park_next_advance()
  std::condition_variable fault_cv_;
  bool fault_park_ = false;
  bool fault_parked_ = false;
#endif
};

// Bounded, LRU-evicting memo of GainSchedules keyed by config fingerprint
// (verified with FilterConfig::operator== on every hit, so a fingerprint
// collision can never alias two different configs — it just declines to
// share).
class GainScheduleCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    // Verified fingerprint collisions: the key matched a resident schedule
    // whose config compared unequal.  Counted separately from misses — a
    // collision means two live configs share a 64-bit fingerprint, which
    // is worth alerting on, not just a cold cache.
    std::uint64_t collisions = 0;
    std::size_t size = 0;  // schedules currently resident
  };

  explicit GainScheduleCache(std::size_t capacity = 16,
                             std::size_t window = GainSchedule::kDefaultWindow)
      : capacity_(capacity == 0 ? 1 : capacity), window_(window) {}

  // The schedule for `config`, building (miss) or sharing (hit) as needed.
  // Returns nullptr only on a verified fingerprint collision with a
  // resident different config — callers treat that as "don't batch".
  // Precondition: config.check().ok().
  std::shared_ptr<GainSchedule> acquire(const FilterConfig<double>& config) {
    auto& tm = telemetry_();
    std::uint64_t key = config.fingerprint();
    std::lock_guard<std::mutex> lock(mu_);
#if defined(KALMMIND_FAULTS)
    // Collision injection (docs/robustness.md): force every acquire onto
    // one key so two different configs exercise the verified-collision
    // path deterministically.
    if (fault_forced_key_set_) key = fault_forced_key_;
#endif
    if (auto it = map_.find(key); it != map_.end()) {
      if (!(it->second.schedule->config() == config)) {
        // Verified collision: same 64-bit fingerprint, different config.
        // Never alias — decline to share — but do not bury it as a plain
        // miss: count it and journal it so an operator can see that two
        // live configs are contending for one cache line.
        tm.collisions.add();
        ++stats_.collisions;
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record_here(
              telemetry::FlightEventKind::kGainCacheCollision, key);
        }
        return nullptr;
      }
      tm.hits.add();
      ++stats_.hits;
      if (telemetry::enabled()) {
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record_here(telemetry::FlightEventKind::kGainCacheHit, key);
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.schedule;
    }
    tm.misses.add();
    ++stats_.misses;
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record_here(telemetry::FlightEventKind::kGainCacheMiss, key);
    }
    while (map_.size() >= capacity_) {
      const std::uint64_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);  // holders keep the schedule alive via shared_ptr
      tm.evictions.add();
      ++stats_.evictions;
      if (telemetry::enabled()) {
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record_here(telemetry::FlightEventKind::kGainCacheEviction,
                             victim);
      }
    }
    auto schedule = std::make_shared<GainSchedule>(config, window_);
    lru_.push_front(key);
    map_.emplace(key, Node{schedule, lru_.begin()});
    return schedule;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.size = map_.size();
    return s;
  }

#if defined(KALMMIND_FAULTS)
  // Fault-injection hook (KALMMIND_FAULTS builds only): force every
  // acquire() onto `key` regardless of the config's real fingerprint, so a
  // test can make two different configs collide.  clear_fault_forced_key()
  // restores real fingerprints.
  void fault_force_key(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    fault_forced_key_ = key;
    fault_forced_key_set_ = true;
  }
  void clear_fault_forced_key() {
    std::lock_guard<std::mutex> lock(mu_);
    fault_forced_key_set_ = false;
  }
#endif

 private:
  struct Node {
    std::shared_ptr<GainSchedule> schedule;
    std::list<std::uint64_t>::iterator lru_it;
  };

  // Process-wide counters (cached handles, see telemetry/registry.hpp);
  // instance-level numbers live in stats_.
  struct CacheTelemetry {
    telemetry::Counter& hits;
    telemetry::Counter& misses;
    telemetry::Counter& evictions;
    telemetry::Counter& collisions;
  };
  static CacheTelemetry& telemetry_() {
    static CacheTelemetry t{
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.hits"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.misses"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.evictions"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.collisions"),
    };
    return t;
  }

  const std::size_t capacity_;
  const std::size_t window_;
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Node> map_;
  Stats stats_;
#if defined(KALMMIND_FAULTS)
  std::uint64_t fault_forced_key_ = 0;  // see fault_force_key()
  bool fault_forced_key_set_ = false;
#endif
};

}  // namespace kalmmind::kalman
