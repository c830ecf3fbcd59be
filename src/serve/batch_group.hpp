// Batched same-config serving: N sessions sharing one GainSchedule step
// together through a fused, SoA-style kernel pass (docs/serving.md).
//
// Per decoded bin, a solo session pays the full reorganized-filter step —
// dominated by the measurement-INDEPENDENT gain path (P', S, S^-1, K:
// O(z^2 x + z^3-ish) work).  Sessions with equal FilterConfigs walk
// identical gain trajectories, so a BatchGroup reads K_n from the shared
// schedule (computed once per config, amortized across every member) and
// fuses only the measurement-dependent remainder of the cohort:
//
//   X' = F X            one batched small-GEMM over the state panel
//   N  = Z - H X'       innovation panel
//   X  = X' + K_n N     correction panel
//
// where X/Z pack one session per COLUMN (SoA panels: the batch dimension
// is innermost, so linalg::batched_multiply_into runs vector lanes across
// the cohort and one broadcast of each F/H/K coefficient feeds every
// session — the only way to fill a vector unit when the per-session
// operator is just x = 6 wide; see the batched series in
// bench/micro_kernels).  Every output element keeps the exact per-element
// accumulation shape (and per-tier FMA policy) of the dispatched solo
// matvec (single accumulator, shared dimension ascending — see
// linalg/ops.hpp and linalg/simd/simd.hpp), so a batched decode is
// bit-identical to the solo path at any fixed dispatch tier.
//
// Scheduling: DecodeServer dispatches a group the way it dispatches a solo
// session — one consumer at a time, `scheduled` flag at group granularity.
// Each scheduling quantum runs up to max_batch rounds; a round pops at
// most one gated bin per member and groups the poppers into cohorts by
// schedule iteration (members drift apart through quarantine restarts:
// a restarted stream decodes from iteration 0 while its peers are far
// ahead — each cohort gets its own fused pass).
//
// Fall-out (PR5 semantics preserved):
//  * divergence -> quarantine/restart handled inside the session's gate,
//    staying in the group (restart = x0, schedule iteration 0);
//  * deadline-ladder degradation -> the session swaps to the cheap
//    constant-gain solo filter and leaves the group (kEject);
//  * schedule window miss (a member so far behind its iteration slid out
//    of the bounded schedule window) -> the popped bin is requeued and the
//    session falls back to the solo path, carrying x from the batch state
//    and P from its last consumed schedule entry.
//
// Lookahead (pool mode): K_{n+1} depends on nothing a bin carries, so when
// the leading cohort takes entry n and entry n+1 is missing, the group
// posts one job that computes n+1 on an idle worker while the pass for n
// runs.  The next round's bins then find their gain already computed
// instead of waiting one full K/P iteration.  The schedule runs at most
// one entry past the leading member's next iteration, and never slides
// out an entry a member still needs (GainSchedule::prefetch).  Entries are
// bit-identical either way: the schedule's single-advancer token runs the
// same kernel sequence in the same order on whichever thread holds it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/realtime.hpp"
#include "kalman/gain_schedule.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

class BatchGroup {
 public:
  // Hands a lookahead job to an idle worker; false when it could not be
  // queued (the pool is shutting down).
  using PostJob = std::function<bool(std::function<void()>)>;

  // A null `post` (manual mode) computes every entry on demand.
  explicit BatchGroup(std::shared_ptr<kalman::GainSchedule> schedule,
                      PostJob post = nullptr)
      : schedule_(std::move(schedule)), post_(std::move(post)) {}

  std::uint64_t key() const { return schedule_->fingerprint(); }
  const kalman::FilterConfig<double>& config() const {
    return schedule_->config();
  }
  const std::shared_ptr<kalman::GainSchedule>& schedule() const {
    return schedule_;
  }

  // Membership is mutated by server threads (admission / ejection cleanup)
  // while a worker may be mid-pass: guarded by its own mutex, snapshotted
  // per pass.  A member added mid-pass joins the next pass.
  void add(std::shared_ptr<Session> session) {
    std::lock_guard<std::mutex> lock(members_mu_);
    members_.push_back(std::move(session));
  }

  void remove(SessionId id) {
    std::lock_guard<std::mutex> lock(members_mu_);
    members_.erase(std::remove_if(members_.begin(), members_.end(),
                                  [id](const std::shared_ptr<Session>& s) {
                                    return s->id() == id;
                                  }),
                   members_.end());
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(members_mu_);
    return members_.size();
  }

  bool pending() const {
    std::vector<std::shared_ptr<Session>> members;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      members = members_;
    }
    for (const auto& m : members) {
      if (m->queue_depth() > 0) return true;
    }
    return false;
  }

  struct StepResult {
    std::size_t steps = 0;              // bins consumed (decoded or gated)
    std::vector<SessionId> ejected;     // now solo: reschedule individually
  };

  // One scheduling quantum.  Single consumer at a time (the server's
  // group-level `scheduled` flag) — the same contract as
  // Session::step_pending.
  StepResult step_pending(std::size_t max_batch, LatencyRecorder* recorder) {
    StepResult result;
    std::vector<std::shared_ptr<Session>> members;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      members = members_;
    }
    if (members.empty()) return result;

    for (std::size_t round = 0; round < max_batch; ++round) {
      cohort_.clear();
      bool consumed_any = false;
      for (auto& m : members) {
        if (!m) continue;
        Vector<double> z;
        switch (m->batch_pop(&z)) {
          case BatchPop::kEmpty:
            continue;
          case BatchPop::kDropped:
            ++result.steps;
            consumed_any = true;
            continue;
          case BatchPop::kDecode:
            break;
        }
        consumed_any = true;
        cohort_.push_back({m.get(), std::move(z), m->batch_iteration()});
      }
      if (cohort_.empty()) {
        if (!consumed_any) break;  // every queue empty: quantum over
        continue;
      }
      // Cohorts: contiguous runs of equal schedule iteration.
      std::stable_sort(cohort_.begin(), cohort_.end(),
                       [](const Item& a, const Item& b) { return a.n < b.n; });
      std::size_t begin = 0;
      while (begin < cohort_.size()) {
        std::size_t end = begin + 1;
        while (end < cohort_.size() && cohort_[end].n == cohort_[begin].n) {
          ++end;
        }
        run_cohort(begin, end, recorder, &result, members);
        begin = end;
      }
    }
    return result;
  }

 private:
  struct Item {
    Session* session;
    Vector<double> z;
    std::size_t n;  // schedule iteration this bin decodes at
  };

  // Fused pass over cohort_[begin, end), all at the same iteration n.
  void run_cohort(std::size_t begin, std::size_t end,
                  LatencyRecorder* recorder, StepResult* result,
                  std::vector<std::shared_ptr<Session>>& members)
      KALMMIND_REALTIME {
    const std::size_t n = cohort_[begin].n;
    bool ready = false;
    const std::shared_ptr<const kalman::GainSchedule::Entry> entry =
        // kalmmind-lint: allow(RT1,RT2) one bounded schedule probe per cohort pass, amortized over every member; only an entry the lookahead has not computed yet is computed here or waited for
        schedule_->at(n, &ready);
    if (!entry) {
      // Window miss: these members fell behind the bounded schedule.  The
      // popped bins go back to the queue head and the sessions continue
      // solo, in order.
      for (std::size_t i = begin; i < end; ++i) {
        // kalmmind-lint: allow(RT1,RT2) window-miss fall-out: the member is leaving the realtime cohort, and the requeue takes its own session lock on the exit path only
        cohort_[i].session->requeue_front(std::move(cohort_[i].z));
        // kalmmind-lint: allow(RT1,RT2,RT3) ejection rebuilds the member's solo filter outside the cohort's deadline — the documented fall-out slow path
        cohort_[i].session->eject_to_solo();
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record(telemetry::FlightEventKind::kBatchFallOut,
                          cohort_[i].session->id(), 0, n, 0.0, "window_miss");
        }
        // kalmmind-lint: allow(RT1,RT2) membership surgery runs only for a member that already fell out of the cohort; the surviving members' pass is untouched
        drop_member(cohort_[i].session->id(), result, members);
      }
      return;
    }
    if (telemetry::enabled()) detail::count_schedule_lookup(ready);
    // kalmmind-lint: allow(RT1,RT2) at most one job posted per group, and only by the leading cohort; the pool's queue lock is held for a push
    if (post_) look_ahead(n, members);

    const auto t0 = std::chrono::steady_clock::now();
    const kalman::FilterConfig<double>& cfg = schedule_->config();
    const std::size_t m = end - begin;
    const std::size_t x_dim = cfg.model.x_dim();
    const std::size_t z_dim = cfg.model.z_dim();

    // Gather the SoA panels: one session per COLUMN (batch dim innermost).
    x_panel_.resize_for_overwrite(x_dim, m);
    nu_panel_.resize_for_overwrite(z_dim, m);
    for (std::size_t i = 0; i < m; ++i) {
      const Vector<double>& x = cohort_[begin + i].session->batch_state();
      for (std::size_t j = 0; j < x_dim; ++j) x_panel_(j, i) = x[j];
      const Vector<double>& z = cohort_[begin + i].z;
      for (std::size_t j = 0; j < z_dim; ++j) nu_panel_(j, i) = z[j];
    }

    // X' = F X ; N = Z - H X' ; X = X' + K N.  Same per-element
    // accumulation as the solo matvecs (see the header comment).
    linalg::batched_multiply_into(xp_panel_, cfg.model.f, x_panel_);
    linalg::batched_multiply_into(hx_panel_, cfg.model.h, xp_panel_);
    nu_panel_ -= hx_panel_;
    linalg::batched_multiply_into(corr_panel_, entry->k, nu_panel_);
    xp_panel_ += corr_panel_;

    // Scatter back to one-session-per-row for the per-member handoff.
    xn_block_.resize_for_overwrite(m, x_dim);
    for (std::size_t i = 0; i < m; ++i) {
      double* xr = xn_block_.row(i);
      for (std::size_t j = 0; j < x_dim; ++j) xr[j] = xp_panel_(j, i);
    }

    const auto t1 = std::chrono::steady_clock::now();
    const double per_step =
        std::chrono::duration<double>(t1 - t0).count() / double(m);

    telemetry::SpanTracer& tracer = telemetry::SpanTracer::global();
    const bool tracing = tracer.enabled();
    for (std::size_t i = 0; i < m; ++i) {
      Session* session = cohort_[begin + i].session;
      // kalmmind-lint: allow(RT1,RT2) per-member result handoff takes the session's own lock, uncontended while the session is batched; the divergence branches inside (quarantine, postmortem) are the self-healing slow path
      const BatchVerdict verdict = session->note_batch_result(
          entry, xn_block_.row(i), per_step, recorder);
      ++result->steps;
      if (tracing) {
        // kalmmind-lint: allow(RT1,RT2) span emission runs only when tracing is enabled; production serving traces off, and the tracer lock is the audited cost of turning it on
        tracer.complete("serve.step", "serve", tracer.to_us(t0),
                        per_step * 1e6,
                        "\"session\":" + std::to_string(session->id()) +
                            ",\"batched\":true");
      }
      if (verdict == BatchVerdict::kEject) {
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record(telemetry::FlightEventKind::kBatchEject,
                          session->id(), 0, n, 0.0, "degraded");
        }
        // kalmmind-lint: allow(RT1,RT2) an eject verdict is terminal for the member: surgery happens after its last realtime step
        drop_member(session->id(), result, members);
      }
    }
  }

  // The lookahead (see the header comment), called by the cohort that
  // just took entry n.
  void look_ahead(std::size_t n,
                  const std::vector<std::shared_ptr<Session>>& members) {
    if (schedule_->computed() != n + 1) return;  // not the leading cohort
    if (lookahead_queued_->exchange(true)) return;
    std::size_t keep = n;  // the oldest entry a member still needs
    for (const auto& m : members) {
      if (m) keep = std::min(keep, m->batch_iteration());
    }
    auto schedule = schedule_;
    auto queued = lookahead_queued_;
    const bool posted = post_([schedule, queued, n, keep] {
      queued->store(false);
      (void)schedule->prefetch(n + 1, keep);
    });
    if (!posted) queued->store(false);
  }

  void drop_member(SessionId id, StepResult* result,
                   std::vector<std::shared_ptr<Session>>& members) {
    result->ejected.push_back(id);
    remove(id);
    for (auto& m : members) {
      if (m && m->id() == id) m.reset();  // skip in later rounds of this pass
    }
  }

  const std::shared_ptr<kalman::GainSchedule> schedule_;
  const PostJob post_;
  // A lookahead job is queued and has not started.  Shared with the job.
  const std::shared_ptr<std::atomic<bool>> lookahead_queued_ =
      std::make_shared<std::atomic<bool>>(false);

  mutable std::mutex members_mu_;
  std::vector<std::shared_ptr<Session>> members_;

  // Pass-local scratch, reused across quanta (single consumer): the SoA
  // state/measurement panels (dim x cohort) plus the row-major handoff
  // block, and the cohort list.  Steady state allocates nothing once the
  // cohort size stabilizes.
  std::vector<Item> cohort_;
  Matrix<double> x_panel_, xp_panel_, hx_panel_, nu_panel_, corr_panel_,
      xn_block_;
};

}  // namespace kalmmind::serve
