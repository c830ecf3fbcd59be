// DecodeServer behavior: deterministic decoding, backpressure, deadline
// accounting, admission control, clean shutdown, and the gain-schedule
// lookahead of pool-mode batch groups.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "linalg/simd/simd.hpp"
#include "neural/dataset.hpp"
#include "serve/serve.hpp"
#include "telemetry/telemetry.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using linalg::Vector;

SessionConfig interleaved_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 3;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  return cfg;
}

// The same decode the server performs, as a plain sequential loop.
std::vector<Vector<double>> sequential_trajectory(
    const SessionConfig& cfg, const std::vector<Vector<double>>& zs) {
  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> states;
  for (const auto& z : zs) states.push_back(filter.step(z));
  return states;
}

void expect_bit_identical(const std::vector<Vector<double>>& a,
                          const std::vector<Vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].size(), b[n].size());
    for (std::size_t d = 0; d < a[n].size(); ++d) {
      // Exact equality on purpose: per-session decode order is sequential,
      // so concurrency must not perturb a single bit.
      ASSERT_EQ(a[n][d], b[n][d]) << "step " << n << " dim " << d;
    }
  }
}

TEST(ServeDecodeServerTest, SessionsAreBitIdenticalToSequentialRuns) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);

  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kSteps = 40;
  // Distinct measurement stream per session (different seeds).
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(testing::simulate_measurements(model, kSteps, 100 + s));
  }

  DecodeServer server({/*workers=*/4, /*max_batch=*/3});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Status status;
    const SessionId id = server.open_session(cfg, &status);
    ASSERT_NE(id, DecodeServer::kInvalidSession) << status.message();
    ids.push_back(id);
  }

  // Round-robin arrival, like simultaneous acquisition across subjects.
  for (std::size_t n = 0; n < kSteps; ++n) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(server.submit(ids[s], streams[s][n]), PushResult::kAccepted);
    }
  }
  server.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    expect_bit_identical(server.trajectory(ids[s]),
                         sequential_trajectory(cfg, streams[s]));
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.total_steps, kSessions * kSteps);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.sessions, kSessions);
  EXPECT_EQ(stats.step_latency.samples, kSessions * kSteps);
}

TEST(ServeDecodeServerTest, RejectPolicyBouncesWhenFull) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.queue_capacity = 3;
  cfg.backpressure = BackpressurePolicy::kReject;

  // Manual mode: nothing decodes until poll(), so the queue really fills.
  DecodeServer server({ServerOptions::kManual, 8});
  const SessionId id = server.open_session(cfg);
  ASSERT_NE(id, DecodeServer::kInvalidSession);

  const auto zs = testing::simulate_measurements(model, 5);
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[2]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[3]), PushResult::kRejectedFull);
  EXPECT_EQ(server.submit(id, zs[4]), PushResult::kRejectedFull);

  server.drain();
  // Only the accepted prefix decodes, in order.
  expect_bit_identical(
      server.trajectory(id),
      sequential_trajectory(cfg, {zs.begin(), zs.begin() + 3}));

  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.steps, 3u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.max_backlog, 3u);
}

TEST(ServeDecodeServerTest, DropOldestPolicyEvictsStalestBins) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.queue_capacity = 3;
  cfg.backpressure = BackpressurePolicy::kDropOldest;

  DecodeServer server({ServerOptions::kManual, 8});
  const SessionId id = server.open_session(cfg);
  ASSERT_NE(id, DecodeServer::kInvalidSession);

  const auto zs = testing::simulate_measurements(model, 5);
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[2]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[3]), PushResult::kDroppedOldest);  // evicts 0
  EXPECT_EQ(server.submit(id, zs[4]), PushResult::kDroppedOldest);  // evicts 1

  server.drain();
  // The three newest bins decode, from the initial filter state.
  expect_bit_identical(
      server.trajectory(id),
      sequential_trajectory(cfg, {zs.begin() + 2, zs.end()}));

  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.steps, 3u);
  EXPECT_EQ(st.dropped, 2u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServeDecodeServerTest, ManualPollPumpsOneBatchAtATime) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);

  DecodeServer server({ServerOptions::kManual, /*max_batch=*/2});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 5);
  for (const auto& z : zs) server.submit(id, z);

  EXPECT_EQ(server.poll(), 2u);  // first quantum: max_batch bins
  EXPECT_EQ(server.session_stats(id).steps, 2u);
  EXPECT_EQ(server.poll(), 2u);
  EXPECT_EQ(server.poll(), 1u);  // remainder
  EXPECT_EQ(server.poll(), 0u);  // nothing ready
  EXPECT_EQ(server.session_stats(id).steps, 5u);
}

TEST(ServeDecodeServerTest, DeadlineAccountingUsesIterationTimings) {
  const auto model = testing::small_model(4);

  // An impossible deadline: every step must be recorded as a miss, with
  // one IterationTiming row per decoded bin.
  SessionConfig cfg = interleaved_config(model);
  cfg.deadline_s = 1e-12;
  DecodeServer server({/*workers=*/2, 8});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 10);
  for (const auto& z : zs) server.submit(id, z);
  server.drain();

  const auto timings = server.timings(id);
  ASSERT_EQ(timings.size(), 10u);
  for (const auto& t : timings) {
    EXPECT_FALSE(t.meets_deadline);
    EXPECT_GT(t.seconds, 0.0);
  }
  EXPECT_EQ(server.session_stats(id).deadline_misses, 10u);

  // A generous deadline: zero misses.
  SessionConfig relaxed = interleaved_config(model);
  relaxed.deadline_s = 10.0;
  const SessionId id2 = server.open_session(relaxed);
  for (const auto& z : zs) server.submit(id2, z);
  server.drain();
  EXPECT_EQ(server.session_stats(id2).deadline_misses, 0u);
  EXPECT_EQ(server.stats().total_deadline_misses, 10u);
}

TEST(ServeDecodeServerTest, AdmissionRejectsBadConfigsWithoutThrowing) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/1, 8});

  SessionConfig bad_queue;
  bad_queue.filter.model = model;
  bad_queue.queue_capacity = 0;
  Status status;
  EXPECT_EQ(server.open_session(bad_queue, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  SessionConfig bad_strategy;
  bad_strategy.filter.model = model;
  bad_strategy.filter.strategy.kind = kalman::StrategyKind::kTaylor;
  bad_strategy.filter.strategy.taylor_order = 0;  // spec check rejects
  EXPECT_EQ(server.open_session(bad_strategy, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // sskf without a preloaded inverse: FilterConfig::check catches the
  // spec/matrices mismatch — still a Status, not a throw.
  SessionConfig missing_preload;
  missing_preload.filter.model = model;
  missing_preload.filter.strategy.kind = kalman::StrategyKind::kSskf;
  EXPECT_EQ(server.open_session(missing_preload, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // And a good config still opens.
  EXPECT_NE(server.open_session(interleaved_config(model), &status),
            DecodeServer::kInvalidSession);
  EXPECT_TRUE(status.ok());
}

TEST(ServeDecodeServerTest, UnknownAndClosedSessionsRejectSubmits) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/1, 8});
  const auto zs = testing::simulate_measurements(model, 3);

  EXPECT_EQ(server.submit(12345, zs[0]), PushResult::kUnknownSession);
  EXPECT_FALSE(server.close_session(12345));

  const SessionId id = server.open_session(interleaved_config(model));
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_TRUE(server.close_session(id));
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kUnknownSession);

  // Already-queued work still decodes after close.
  server.drain();
  EXPECT_EQ(server.session_stats(id).steps, 1u);
  EXPECT_EQ(server.stats().sessions, 0u);  // closed sessions aren't "open"
}

TEST(ServeDecodeServerTest, CleanShutdownWithQueuedWork) {
  const auto model = testing::small_model(6);
  const auto zs = testing::simulate_measurements(model, 200);
  // Destroy the server while plenty of bins are still queued: must not
  // hang, crash, or race (TSan covers the latter).
  for (int round = 0; round < 3; ++round) {
    DecodeServer server({/*workers=*/4, 2});
    std::vector<SessionId> ids;
    for (int s = 0; s < 4; ++s) {
      ids.push_back(server.open_session(interleaved_config(model)));
    }
    for (const auto& z : zs) {
      for (const auto id : ids) server.submit(id, z);
    }
    // No drain() — destructor races the workers on purpose.
  }
  SUCCEED();
}

TEST(ServeDecodeServerTest, CloseModesDrainOrDiscardWithAccounting) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 12);
  DecodeServer server({/*workers=*/ServerOptions::kManual});

  // kDrain (the default): queued bins still decode after close.
  const SessionId drained = server.open_session(interleaved_config(model));
  for (std::size_t n = 0; n < 5; ++n)
    ASSERT_EQ(server.submit(drained, zs[n]), PushResult::kAccepted);
  ASSERT_TRUE(server.close_session(drained, CloseMode::kDrain));
  server.drain();
  EXPECT_EQ(server.session_stats(drained).steps, 5u);
  EXPECT_EQ(server.session_stats(drained).discarded, 0u);

  // kDiscard: the queued tail is dropped now — and counted, never silent.
  const SessionId discarded = server.open_session(interleaved_config(model));
  for (std::size_t n = 0; n < 3; ++n)
    ASSERT_EQ(server.submit(discarded, zs[n]), PushResult::kAccepted);
  server.drain();
  for (std::size_t n = 3; n < 10; ++n)
    ASSERT_EQ(server.submit(discarded, zs[n]), PushResult::kAccepted);
  ASSERT_TRUE(server.close_session(discarded, CloseMode::kDiscard));
  EXPECT_EQ(server.submit(discarded, zs[0]), PushResult::kUnknownSession);
  server.drain();
  const auto stats = server.session_stats(discarded);
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_EQ(stats.discarded, 7u);
  EXPECT_EQ(server.stats().total_discarded, 7u);
}

TEST(ServeDecodeServerTest, TeardownCountsUndecodedBinsAsDiscarded) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 8);
  auto& counter = telemetry::MetricsRegistry::global().counter(
      "kalmmind.serve.discarded_total");
  const std::uint64_t before = counter.value();
  {
    DecodeServer server({/*workers=*/ServerOptions::kManual});
    const SessionId id = server.open_session(interleaved_config(model));
    for (const auto& z : zs)
      ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    // Destroy with all 8 bins still queued: the destructor must count
    // them, so a teardown never loses bins silently.
  }
  // A -DKALMMIND_TELEMETRY=OFF build compiles the registry counters to
  // no-ops, so the delta is only observable with telemetry compiled in.
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(counter.value() - before, 8u);
  }
}

TEST(ServeDecodeServerTest, TrajectoryRecordingCanBeDisabled) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.record_trajectory = false;
  DecodeServer server({/*workers=*/1, 8});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 8);
  for (const auto& z : zs) server.submit(id, z);
  server.drain();
  EXPECT_TRUE(server.trajectory(id).empty());
  EXPECT_TRUE(server.timings(id).empty());
  EXPECT_EQ(server.session_stats(id).steps, 8u);  // stats still counted
}

TEST(ServeDecodeServerTest, StatsSnapshotAggregatesSessions) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/2, 8});
  const SessionId a = server.open_session(interleaved_config(model));
  const SessionId b = server.open_session(interleaved_config(model));
  const auto zs = testing::simulate_measurements(model, 6);
  for (const auto& z : zs) {
    server.submit(a, z);
    server.submit(b, z);
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.total_steps, 12u);
  EXPECT_EQ(stats.per_session.size(), 2u);
  EXPECT_GT(stats.steps_per_second, 0.0);
  EXPECT_GT(stats.uptime_s, 0.0);
  EXPECT_FALSE(stats.to_string().empty());
}

// ---- gain-schedule lookahead (docs/serving.md) ----------------------------

// The paper's motor dims (x = 6, z = 164): one K/P iteration is two z = 164
// Newton steps, the cost the lookahead takes off a bin's path.  Trained on
// the shortest split build_dataset accepts, to keep the sanitizer runs fast.
const neural::NeuralDataset& motor_dataset() {
  static const neural::NeuralDataset ds = [] {
    neural::DatasetSpec spec = neural::motor_spec();
    spec.train_steps = 2 * spec.encoding.channels;
    spec.test_steps = 64;
    return neural::build_dataset(spec);
  }();
  return ds;
}

SessionConfig motor_config() {
  SessionConfig cfg;
  cfg.filter.model = motor_dataset().model;
  cfg.filter.strategy = kalman::StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=0,approx=2,policy=1)");
  cfg.queue_capacity = 64;
  return cfg;
}

std::uint64_t counter_value(const char* name) {
  return telemetry::MetricsRegistry::global().counter(name).value();
}

// The lookahead job runs on a worker after drain() returns: wait until the
// schedule holds `target` entries.  False on timeout.
bool wait_for_computed(const kalman::GainSchedule& schedule,
                       std::size_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (schedule.computed() < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Paced rounds: one bin per session, decoded, then the lookahead given time
// to compute the next entry — so every round after the first finds its K
// ready.  Checks the depth bound (the lead + 1) after every round.
void run_paced_rounds(DecodeServer& server, const std::vector<SessionId>& ids,
                      const std::vector<std::vector<Vector<double>>>& streams,
                      std::size_t rounds) {
  const auto schedule = server.group_schedule(ids.front());
  ASSERT_NE(schedule, nullptr);
  for (std::size_t n = 0; n < rounds; ++n) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      ASSERT_EQ(server.submit(ids[s], streams[s][n]), PushResult::kAccepted);
    }
    server.drain();
    const std::size_t lead = n + 1;  // every member's next iteration
    EXPECT_LE(schedule->computed(), lead + 1) << "round " << n;
    ASSERT_TRUE(wait_for_computed(*schedule, lead + 1)) << "round " << n;
  }
}

// A paced 2-worker, 16-session motor fleet whose every K after the first
// is computed ahead by the lookahead decodes bit-identically to the solo
// KalmanFilter under every SIMD tier the host runs: the schedule's token
// hands the kernel sequence between worker threads in iteration order.
TEST(ServeDecodeServerTest, LookaheadMotorFleetBitIdenticalToSoloOnEveryTier) {
  constexpr std::size_t kSessions = 16;
  constexpr std::size_t kRounds = 4;
  const SessionConfig cfg = motor_config();
  const auto& bins = motor_dataset().test_measurements;
  ASSERT_GE(bins.size(), kSessions * 3 + kRounds);
  std::vector<std::vector<Vector<double>>> streams(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams[s].assign(bins.begin() + long(3 * s),
                      bins.begin() + long(3 * s + kRounds));
  }

  const linalg::simd::Tier entry_tier = linalg::simd::active_tier();
  for (const linalg::simd::Tier tier : linalg::simd::available_tiers()) {
    SCOPED_TRACE(linalg::simd::tier_name(tier));
    ASSERT_TRUE(linalg::simd::set_dispatch_tier(tier));
    ServerOptions options;
    options.workers = 2;
    DecodeServer server(options);
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(server.open_session(cfg));
    }
    run_paced_rounds(server, ids, streams, kRounds);
    for (std::size_t s = 0; s < kSessions; ++s) {
      SCOPED_TRACE(s);
      expect_bit_identical(server.trajectory(ids[s]),
                           sequential_trajectory(cfg, streams[s]));
    }
    EXPECT_EQ(server.stats().total_batched_steps, kSessions * kRounds);
  }
  linalg::simd::set_dispatch_tier(entry_tier);
}

// The depth bound and the ready/waited counters: the first pass computes
// its K, every later one finds it ready, and the schedule never runs more
// than one entry past the lead, even with idle workers.
TEST(ServeDecodeServerTest, LookaheadRunsExactlyOneEntryAheadOfTheLead) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRounds = 20;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(testing::simulate_measurements(model, kRounds, 40 + s));
  }
  const std::uint64_t ready0 =
      counter_value("kalmmind.serve.gain_schedule.ready_total");
  const std::uint64_t waited0 =
      counter_value("kalmmind.serve.gain_schedule.waited_total");

  DecodeServer server({/*workers=*/2, 8});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session(cfg));
  }
  run_paced_rounds(server, ids, streams, kRounds);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server.group_schedule(ids[0])->computed(), kRounds + 1);
  for (std::size_t s = 0; s < kSessions; ++s) {
    expect_bit_identical(server.trajectory(ids[s]),
                         sequential_trajectory(cfg, streams[s]));
  }
  if (telemetry::kCompiledIn) {
    // A round's submits can race the group pass and split it, so passes
    // per round are >= 1; only round 0's first pass lacks its entry.
    EXPECT_EQ(counter_value("kalmmind.serve.gain_schedule.waited_total") -
                  waited0,
              1u);
    EXPECT_GE(counter_value("kalmmind.serve.gain_schedule.ready_total") -
                  ready0,
              kRounds - 1);
  }
}

// The lookahead never slides out an entry a live member still needs: with
// a 4-entry window and one member idle at iteration 0, the lead's next
// entry waits for demand instead of being computed ahead.
TEST(ServeDecodeServerTest, LookaheadKeepsTheTrailingMembersEntry) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  ServerOptions options;
  options.workers = 2;
  options.gain_window = 4;
  DecodeServer server(options);
  const SessionId lead = server.open_session(cfg);
  const SessionId trailing = server.open_session(cfg);
  const auto zl = testing::simulate_measurements(model, 4, 61);
  const auto zt = testing::simulate_measurements(model, 1, 62);

  const auto schedule = server.group_schedule(lead);
  ASSERT_NE(schedule, nullptr);
  for (std::size_t n = 0; n < 3; ++n) {
    ASSERT_EQ(server.submit(lead, zl[n]), PushResult::kAccepted);
    server.drain();
  }
  ASSERT_TRUE(wait_for_computed(*schedule, 4));  // [0, 4): window full
  ASSERT_EQ(server.submit(lead, zl[3]), PushResult::kAccepted);
  server.drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(schedule->computed(), 4u);  // entry 4 would evict entry 0
  EXPECT_EQ(schedule->base(), 0u);

  ASSERT_EQ(server.submit(trailing, zt[0]), PushResult::kAccepted);
  server.drain();
  const SessionStatsSnapshot t = server.session_stats(trailing);
  EXPECT_TRUE(t.batched);
  EXPECT_EQ(t.batched_steps, 1u);
  expect_bit_identical(server.trajectory(trailing),
                       sequential_trajectory(cfg, zt));
}

// Manual mode (poll(), the cluster's shards) computes each entry on demand:
// nothing ahead of the lead, and every pass counts as waited.
TEST(ServeDecodeServerTest, ManualModeComputesNothingAhead) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kRounds = 10;
  const std::uint64_t ready0 =
      counter_value("kalmmind.serve.gain_schedule.ready_total");
  const std::uint64_t waited0 =
      counter_value("kalmmind.serve.gain_schedule.waited_total");

  DecodeServer server({ServerOptions::kManual, 8});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session(cfg));
  }
  const auto schedule = server.group_schedule(ids[0]);
  ASSERT_NE(schedule, nullptr);
  const auto zs = testing::simulate_measurements(model, kRounds, 77);
  for (std::size_t n = 0; n < kRounds; ++n) {
    for (const SessionId id : ids) server.submit(id, zs[n]);
    server.drain();
    EXPECT_EQ(schedule->computed(), n + 1) << "round " << n;
  }
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(counter_value("kalmmind.serve.gain_schedule.ready_total") -
                  ready0,
              0u);
    EXPECT_EQ(counter_value("kalmmind.serve.gain_schedule.waited_total") -
                  waited0,
              kRounds);
  }
}

}  // namespace
}  // namespace kalmmind::serve
