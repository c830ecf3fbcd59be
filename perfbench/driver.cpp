// Decode-service benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--short]
//   perfbench --repro-f1-f2
//
// One process drives one workload: a seeded open-loop bin generator on the
// main thread against the public APIs of serve/, kalman/, linalg/ and
// telemetry/ (neural/ only synthesises the inputs).  Each workload has a
// paced phase (latency and CPU per bin at a fixed offered rate) and a
// backlog phase (capacity as a median of fixed windows).  With --trace 0
// the last stdout line is the JSON of the end-to-end metrics; with
// --trace 1 the workload runs once untraced and once with spans around
// every call into the program, and the JSON holds the per-layer metrics.
// See README.md for the workloads, metrics and reference figures.

#include <sched.h>
#include <time.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "kalman/filter_config.hpp"
#include "kalman/gain_schedule.hpp"
#include "linalg/ops.hpp"
#include "linalg/simd/simd.hpp"
#include "neural/dataset.hpp"
#include "reference.hpp"
#include "serve/cluster.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "telemetry/registry.hpp"
#include "trace.hpp"

namespace pb = perfbench;
using namespace kalmmind;
using linalg::Matrix;
using linalg::Vector;

namespace {

// ---------------------------------------------------------------- settings

constexpr const char* kSpec =
    "interleaved(calc=gauss,calc_freq=0,approx=2,policy=1)";
constexpr double kDeadlineS = 0.05;  // one 50 ms neural bin
constexpr double kWindowS = 0.1;     // capacity window
constexpr std::size_t kMinLatencySamples = 1000;  // >= 10 beyond p99
constexpr std::size_t kMinWindows = 20;          // capacity windows per run
constexpr std::size_t kDrains = 4;  // cluster_aged: one per shard, rolling
constexpr std::size_t kStreamBins = 2048;  // recorded bins per session
constexpr double kCpuWindowS = 0.25;      // CPU-per-bin window
// Whole rounds the backlog phase keeps handed over but not yet decoded:
// several milliseconds of work on every workload.
constexpr std::size_t kOutstandingRounds = 32;

// Set by --short: a run of a few seconds that checks everything but is too
// short for a supported p99.
bool g_short = false;
long g_max_threads = 0;

struct WorkloadSpec {
  std::string name;
  std::string preset;         // neural dataset preset
  std::size_t sessions = 0;   // fleet size (cluster: late wave)
  double offered = 0;         // bins/s offered in the paced phase
  double paced_s = 0;         // paced-phase length at --seconds 10
  double backlog_s = 0;       // backlog-phase length at --seconds 10
  int setup_repeats = 5;      // set-ups per run; setup_s is their median
  bool cluster = false;
  std::size_t aged_sessions = 0;  // cluster: first wave
  std::size_t age_bins = 0;       // cluster: first-wave age at set-up
  std::size_t replay_probe = 0;   // iterations of the cold-replay probe
};

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> w(3);
  w[0].name = "fleet_motor";
  w[0].preset = "motor";
  w[0].sessions = 64;
  w[0].offered = 12000;
  w[0].paced_s = 6.0;
  w[0].backlog_s = 3.0;
  w[0].replay_probe = 200;
  w[1].name = "fleet_wide";
  w[1].preset = "hippocampus";
  w[1].sessions = 256;
  w[1].offered = 50000;
  w[1].paced_s = 6.0;
  w[1].backlog_s = 2.0;
  w[1].replay_probe = 1000;
  w[2].name = "cluster_aged";
  w[2].preset = "somatosensory";
  w[2].sessions = 24;
  w[2].offered = 20000;
  w[2].paced_s = 5.0;
  w[2].backlog_s = 2.0;
  w[2].setup_repeats = 3;
  w[2].cluster = true;
  w[2].aged_sessions = 48;
  w[2].age_bins = 4400;
  w[2].replay_probe = 4400;
  return w;
}

// Table II upper ends (EXPERIMENTS.md, Gauss/Newton sweep): a decoded
// stream whose MSE against the float64 reference exceeds this lies outside
// the paper's accuracy range for its dataset.
double accuracy_bound(const std::string& preset) {
  if (preset == "motor") return 6.9e-2;
  if (preset == "somatosensory") return 2.7e-3;
  return 4.1e-3;
}

// --------------------------------------------------------------- utilities

double now_s() {
  return std::chrono::duration<double>(pb::Clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// CPU time of the calling thread.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

long status_field_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(f, line))
    if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n + 1);
  return -1;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

telemetry::Counter& steps_counter() {
  return telemetry::MetricsRegistry::global().counter(
      "kalmmind.serve.steps_total");
}

// Sum of every event counter and histogram observation the registry
// exports (telemetry.events_per_bin).
double registry_events() {
  std::istringstream in(telemetry::MetricsRegistry::global().prometheus_text());
  std::string line;
  double sum = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    const std::string name = line.substr(0, sp);
    const auto ends = [&](const char* s) {
      const std::size_t n = std::strlen(s);
      return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
    };
    if (ends("_total") || ends("_count")) sum += std::atof(line.c_str() + sp + 1);
  }
  return sum;
}

// ------------------------------------------------------------ input synthesis

// One config: the preset's trained model, its encoder, the program's filter
// config and the reference filter's gain trajectory.
struct ConfigData {
  neural::DatasetSpec spec;
  neural::NeuralDataset dataset;
  neural::PopulationEncoder encoder;
  // The preset's reach, continued past its training window: where the
  // trained model's x0 says a session starts (kStreamBins samples).
  std::vector<neural::KinematicState> reach;
  kalman::FilterConfig<double> filter;
  pb::ref::Model ref_model;
  std::unique_ptr<pb::ref::GainTrajectory> ref_gains;
  std::size_t z = 0;
};

neural::DatasetSpec preset_spec(const std::string& name) {
  if (name == "motor") return neural::motor_spec();
  if (name == "somatosensory") return neural::somatosensory_spec();
  return neural::hippocampus_spec();
}

pb::ref::Mat to_ref(const Matrix<double>& m) {
  pb::ref::Mat out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j);
  return out;
}

std::unique_ptr<ConfigData> make_config(const std::string& preset) {
  auto c = std::make_unique<ConfigData>();
  c->spec = preset_spec(preset);
  c->dataset = neural::build_dataset(c->spec);
  // The encoder build_dataset used: the same RNG draws in the same order.
  linalg::Rng rng(c->spec.seed);
  (void)neural::generate_kinematics(c->spec.kinematics,
                                    c->spec.train_steps + c->spec.test_steps,
                                    rng);
  c->encoder = neural::make_encoder(c->spec.encoding, rng);
  // The same reach, longer: its draws up to the end of the training window
  // are build_dataset's, so it continues from the model's x0.
  linalg::Rng reach_rng(c->spec.seed);
  auto reach = neural::generate_kinematics(
      c->spec.kinematics, c->spec.train_steps + kStreamBins, reach_rng);
  c->reach.assign(reach.begin() + long(c->spec.train_steps), reach.end());
  c->filter.model = c->dataset.model;
  c->filter.strategy = kalman::StrategySpec::parse(kSpec);
  c->z = c->dataset.model.z_dim();
  const auto& m = c->dataset.model;
  c->ref_model.f = to_ref(m.f);
  c->ref_model.q = to_ref(m.q);
  c->ref_model.h = to_ref(m.h);
  c->ref_model.r = to_ref(m.r);
  c->ref_model.p0 = to_ref(m.p0);
  c->ref_model.x0.assign(m.x0.data(), m.x0.data() + m.x0.size());
  return c;
}

// A session's measurement stream: a seeded recording of kStreamBins bins
// (flat, bins x z), replayed in a loop, so bin n is recording bin
// n mod kStreamBins.  Stored as float to keep the benchmark's own footprint
// small; the stream *is* the float-rounded values, and the program and the
// reference both read them as double.
struct Stream {
  std::vector<float> z;
  std::size_t dim = 0;
  std::size_t recorded() const { return dim ? z.size() / dim : 0; }
  const float* ptr(std::size_t n) const {
    return z.data() + (n % recorded()) * dim;
  }
  Vector<double> bin(std::size_t n) const {
    const float* p = ptr(n);
    return Vector<double>(std::vector<double>(p, p + dim));
  }
};

// Session streams share the preset's reach and differ in their neural
// noise.  Every session starts where the model's x0 says.  The noise of the
// first kLeadInBins bins (the gain's convergence window, which dominates
// the accuracy metric) is drawn from `lead_seed`, fixed per session index;
// the rest from `seed`, the workload seed.
constexpr std::size_t kLeadInBins = 256;
Stream make_stream(const ConfigData& c, std::uint64_t lead_seed,
                   std::uint64_t seed, std::size_t bins) {
  linalg::Rng lead_rng(lead_seed), rng(seed);
  Vector<double> noise(c.z);
  std::vector<Vector<double>> obs;
  for (std::size_t n = 0; n < bins; ++n)
    obs.push_back(c.encoder.encode_one(c.reach[n], noise,
                                       n < kLeadInBins ? lead_rng : rng));
  Stream s;
  s.dim = c.z;
  s.z.resize(bins * c.z);
  for (std::size_t n = 0; n < bins; ++n)
    for (std::size_t j = 0; j < c.z; ++j)
      s.z[n * c.z + j] = float(obs[n][j] - c.dataset.channel_means[j]);
  return s;
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name, unit;
  double value = 0;
};

struct Outcome {
  pb::Tally tally;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  bool correct = true;
  std::vector<std::string> problems;
  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

void put(std::vector<Metric>& v, const std::string& n, const std::string& u,
         double x) {
  v.push_back({n, u, x});
}

// ------------------------------------------------------------- the phases

// Completion is observed through the process-wide steps counter (one
// relaxed atomic read per poll) instead of stats(), which sorts every
// session's latency buffer.  Bins are attributed to rounds in submission
// order: round k counts as decoded once the counter covers every bin
// accepted up to and including round k.
struct Observer {
  std::uint64_t base = 0;
  std::vector<std::uint64_t> cum;   // accepted bins through round k
  std::vector<std::uint64_t> in_round;
  std::size_t next_round = 0;       // first round not yet seen complete
  std::size_t warmup_rounds = 0;    // not sampled: lazy set-up, first touches
  std::vector<double> samples;
  std::vector<std::size_t> rounds;  // scratch for one poll
  std::uint64_t over_deadline = 0;

  void begin(std::size_t nrounds) {
    base = steps_counter().value();
    cum.assign(nrounds, 0);
    in_round.assign(nrounds, 0);
    next_round = 0;
  }
  std::uint64_t decoded() const { return steps_counter().value() - base; }
  // Returns true when the poll saw something new.
  bool poll(std::size_t submitted_rounds, const std::vector<double>& due,
            double t0) {
    const std::uint64_t d = decoded();
    const double seen = now_s() - t0;
    while (next_round < submitted_rounds && cum[next_round] <= d) {
      if (next_round >= warmup_rounds) rounds.push_back(next_round);
      if (seen - due[next_round] > kDeadlineS) over_deadline += in_round[next_round];
      ++next_round;
    }
    if (rounds.empty()) return false;
    pb::add_poll_samples(samples, rounds, due, seen);
    return true;
  }
};

struct PacedResult {
  std::vector<double> latency_s;
  std::vector<double> lateness_s;
  std::uint64_t accepted = 0, attempted = 0, refused = 0;
  std::uint64_t over_deadline = 0;
  double cpu_s = 0, wall_s = 0;
  double cpu_s_per_bin = 0;  // median over kCpuWindowS windows
  double submit_s = 0;  // time inside the program's submit calls
  double events = 0;    // registry events over the phase (traced run)
  double peak_rss_mb = 0;  // VmHWM once the phase's bins are decoded
};

// One paced phase: `nrounds` rounds at `round_hz`; round k hands bin
// bin0 + k to every session of `live`, all due at the same time (one bin
// period of a BCI fleet).  `submit(s, n)` returns true if the program
// accepted bin n of session s.  `control(k)` runs the control plane before
// round k (cluster only); the generator's time inside it is *control_s.
PacedResult run_paced(std::size_t nrounds, double round_hz,
                      const std::vector<std::size_t>& live,
                      const std::function<bool(std::size_t, std::size_t)>& submit,
                      const std::function<void(std::size_t, Observer&)>& control,
                      const double* control_s, std::size_t bin0, pb::Tracer& tr,
                      bool count_events) {
  PacedResult r;
  Observer obs;
  obs.begin(nrounds);
  obs.warmup_rounds = nrounds / 10;
  std::vector<double> due(nrounds), sent(nrounds);
  for (std::size_t k = 0; k < nrounds; ++k) due[k] = double(k) / round_hz;
  // Program CPU: the process's CPU minus the generator thread's own (it
  // spins to observe completions), plus the generator's time inside
  // program calls (submit; tick and drain_shard, counted in *control_s).
  auto program_cpu = [&] {
    return cpu_s() - thread_cpu_s() + r.submit_s + (control_s ? *control_s : 0.0);
  };
  std::vector<double> cpu_at, bins_at;  // CPU windows after the warm-up
  const double ev0 = count_events ? registry_events() : 0;
  const double c0 = program_cpu();
  const double t0 = now_s() + 0.002;
  std::uint64_t accepted = 0;
  for (std::size_t k = 0; k < nrounds; ++k) {
    if (control) control(k, obs);
    // Wait for the due time, observing completions meanwhile.  The
    // generator spins rather than sleeps: a sleeping vCPU halts, and on a
    // shared host its wake-up can take milliseconds, which would be
    // charged to the program's latency.
    while (now_s() - t0 < due[k]) obs.poll(k, due, t0);
    sent[k] = now_s() - t0;
    {
      pb::Tracer::Scope span(tr, "submit_round", "serve", std::int64_t(k));
      const double s0 = now_s();
      for (std::size_t s : live) {
        ++r.attempted;
        if (submit(s, bin0 + k)) ++accepted;
        else ++r.refused;
      }
      r.submit_s += now_s() - s0;
    }
    if (k == nrounds / 2)
      g_max_threads = std::max(g_max_threads, status_field_kb("Threads:"));
    obs.in_round[k] = accepted - (k ? obs.cum[k - 1] : 0);
    obs.cum[k] = accepted;
    if (k >= obs.warmup_rounds &&
        (cpu_at.empty() ||
         sent[k] - sent[obs.warmup_rounds] >= kCpuWindowS * double(cpu_at.size()))) {
      cpu_at.push_back(program_cpu());
      bins_at.push_back(double(accepted));
    }
    obs.poll(k + 1, due, t0);
  }
  // Drain: keep observing until every accepted bin is decoded.
  const double deadline = now_s() + 60.0;
  while (obs.next_round < nrounds && now_s() < deadline) obs.poll(nrounds, due, t0);
  r.wall_s = now_s() - t0;
  r.cpu_s = program_cpu() - c0;
  // Read here, not at the end of the run: the backlog phase decodes as many
  // bins as the host allows, and every decoded state stays in memory.
  r.peak_rss_mb = double(status_field_kb("VmHWM:")) / 1024.0;
  std::vector<double> per_bin;
  for (std::size_t w = 1; w < cpu_at.size(); ++w)
    if (bins_at[w] > bins_at[w - 1])
      per_bin.push_back((cpu_at[w] - cpu_at[w - 1]) / (bins_at[w] - bins_at[w - 1]));
  r.cpu_s_per_bin = per_bin.empty() ? r.cpu_s / double(std::max<std::uint64_t>(1, accepted))
                                    : pb::median(per_bin);
  if (count_events) r.events = registry_events() - ev0;
  r.accepted = accepted;
  r.latency_s = std::move(obs.samples);
  r.lateness_s = pb::lateness(due, sent);
  r.over_deadline = obs.over_deadline;
  return r;
}

struct BacklogResult {
  double bins_per_s = 0;
  std::size_t windows = 0;  // windows the median is over
  std::size_t rounds = 0;   // whole rounds handed over
  std::uint64_t attempted = 0, accepted = 0, refused = 0;
};

// Backlog phase: for `duration_s`, keep the program saturated with whole
// rounds (kOutstandingRounds of them outstanding, so queues stay small),
// then wait until every accepted bin is decoded, reading the decoded count
// at fixed windows.  Streams are looped recordings, so the phase needs no
// estimate of capacity in advance.
BacklogResult run_backlog(double duration_s, std::size_t bin0,
                          const std::vector<std::size_t>& live,
                          const std::function<bool(std::size_t, std::size_t)>& submit,
                          pb::Tracer& tr) {
  BacklogResult r;
  const std::uint64_t base = steps_counter().value();
  std::vector<double> times;
  std::vector<std::uint64_t> counts;
  const double t0 = now_s();
  const double deadline = t0 + duration_s + 60.0;
  for (;;) {
    const std::uint64_t d = steps_counter().value() - base;
    const double t = now_s() - t0;
    if (t >= double(times.size()) * kWindowS) {
      times.push_back(t);
      counts.push_back(d);
    }
    const bool submitting = t < duration_s;
    if (!submitting && d >= r.accepted) break;
    if (now_s() > deadline) break;
    if (submitting && r.accepted - d < kOutstandingRounds * live.size()) {
      pb::Tracer::Scope span(tr, "submit_round", "serve");
      for (std::size_t s : live) {
        ++r.attempted;
        if (submit(s, bin0 + r.rounds)) ++r.accepted;
        else ++r.refused;
      }
      ++r.rounds;
    } else if (submitting) {
      // Latency is not measured here, and kOutstandingRounds cover a late
      // wake-up: sleep, leaving the serving threads a CPU.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  times.push_back(now_s() - t0);
  counts.push_back(steps_counter().value() - base);
  const pb::WindowRate rate = pb::window_median_rate(times, counts, r.accepted);
  r.bins_per_s = rate.rate;
  r.windows = rate.windows;
  return r;
}

// ----------------------------------------------------------- correctness

// The first state of `traj` that is not bit-identical to the program's solo
// KalmanFilter stepped over the same stream (traj.size() if none).
std::size_t solo_divergence(const ConfigData& c, const Stream& stream,
                            const std::vector<Vector<double>>& traj) {
  auto solo = c.filter.make_filter();
  for (std::size_t n = 0; n < traj.size(); ++n) {
    const auto& x = solo.step(stream.bin(n));
    for (std::size_t i = 0; i < x.size(); ++i)
      if (x[i] != traj[n][i]) return n;
  }
  return traj.size();
}

bool same_as_solo(const ConfigData& c, const Stream& stream,
                  const std::vector<Vector<double>>& traj) {
  return solo_divergence(c, stream, traj) == traj.size();
}

// MSE of a decoded trajectory against the reference filter on the same
// stream, over all its states and over its first `head` states.  The
// backlog phase's length follows the host, so decode_mse reads the head:
// the bins handed over before it, a number fixed by the plan.  The
// reference's gain trajectory is extended on demand.
struct Mse {
  double all = 0, head = 0;
};
Mse reference_mse(ConfigData& c, const Stream& stream,
                  const std::vector<Vector<double>>& traj, std::size_t head) {
  if (traj.empty()) return {};
  head = std::min(head, traj.size());
  if (!c.ref_gains || c.ref_gains->size() < traj.size())
    c.ref_gains = std::make_unique<pb::ref::GainTrajectory>(c.ref_model, traj.size());
  pb::ref::Session ref(c.ref_model, *c.ref_gains);
  double se = 0, se_head = 0;
  for (std::size_t n = 0; n < traj.size(); ++n) {
    if (n == head) se_head = se;
    const auto& x = ref.step(stream.ptr(n));
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = traj[n][i] - x[i];
      se += d * d;
    }
  }
  if (head == traj.size()) se_head = se;
  const double dim = double(c.ref_model.x0.size());
  return {se / (double(traj.size()) * dim),
          head ? se_head / (double(head) * dim) : 0.0};
}

// Fails the run if a decoded stream lies outside the paper's accuracy range
// of the reference filter.
void check_accuracy(const std::string& preset, std::size_t s, double mse,
                    Outcome& out) {
  if (!(mse <= accuracy_bound(preset)))
    out.fail("session " + std::to_string(s) + ": MSE " + std::to_string(mse) +
             " vs reference outside the accuracy range");
}

// Checks every decoded stream of a fleet: one state per bin, accuracy
// against the reference filter, and a seeded sample bit-identical to the
// program's solo KalmanFilter.  Returns the MSE over each stream's first
// `head` states, averaged over sessions.
// `fetch(s)` reads session s's decoded trajectory from the program; each
// is checked and dropped before the next is read.
using Fetch = std::function<std::vector<Vector<double>>(std::size_t)>;
double check_streams(ConfigData& c, const std::vector<Stream>& streams,
                     const Fetch& fetch, std::size_t expected, std::size_t head,
                     const std::vector<std::size_t>& bitcheck,
                     const std::string& preset, Outcome& out) {
  double mse_sum = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const auto traj = fetch(s);
    if (traj.size() != expected) {
      out.fail("session " + std::to_string(s) + ": " +
               std::to_string(traj.size()) + " states for " +
               std::to_string(expected) + " bins");
      continue;
    }
    const Mse mse = reference_mse(c, streams[s], traj, head);
    check_accuracy(preset, s, mse.all, out);
    mse_sum += mse.head;
    if (std::find(bitcheck.begin(), bitcheck.end(), s) != bitcheck.end() &&
        !same_as_solo(c, streams[s], traj))
      out.fail("session " + std::to_string(s) +
               ": not bit-identical to the solo KalmanFilter");
  }
  return streams.empty() ? 0.0 : mse_sum / double(streams.size());
}

std::vector<std::size_t> pick_sample(std::size_t n, std::size_t k,
                                     std::uint64_t seed) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; out.size() < std::min(n, k); ++i) {
    const std::size_t s = std::size_t(mix(seed, i) % n);
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

// ----------------------------------------------------------------- probes

// Per-layer kernel probes on the workload's own config and inputs.
void kernel_probes(const ConfigData& c, const WorkloadSpec& w,
                   const std::vector<Stream>& streams, Outcome& out,
                   pb::Tracer& tr, double* iteration_ns, double* kernel_ns) {
  // gain_schedule: a cold schedule replayed to the probe age.
  {
    kalman::GainSchedule schedule(c.filter);
    const double t0 = now_s();
    {
      pb::Tracer::Scope span(tr, "gain_schedule.at(cold)", "kalman");
      (void)schedule.at(w.replay_probe - 1);
    }
    const double dt = now_s() - t0;
    put(out.layer, "gain_schedule.cold_replay_ms", "ms", dt * 1e3);
    put(out.layer, "gain_schedule.iteration_us", "us",
        dt * 1e6 / double(w.replay_probe));
    *iteration_ns = dt * 1e9 / double(w.replay_probe);
  }
  // filter: solo steps over the first bins of one stream.
  {
    auto f = c.filter.make_filter();
    const std::size_t n = 200;
    std::vector<Vector<double>> bins;
    for (std::size_t i = 0; i < n; ++i) bins.push_back(streams[0].bin(i));
    const double t0 = now_s();
    {
      pb::Tracer::Scope span(tr, "filter.step", "kalman");
      for (const auto& z : bins) (void)f.step(z);
    }
    put(out.layer, "filter.step_us", "us", (now_s() - t0) * 1e6 / double(n));
  }
  // linalg: the batched K*nu GEMM of one round, and the H P H^t sandwich.
  {
    const std::size_t m = streams.size(), z = c.z, x = 6;
    Matrix<double> k(x, z), panel(z, m), outm;
    for (std::size_t i = 0; i < x; ++i)
      for (std::size_t j = 0; j < z; ++j) k(i, j) = 1e-3 * double(i + j);
    for (std::size_t j = 0; j < z; ++j)
      for (std::size_t s = 0; s < m; ++s) panel(j, s) = streams[s].ptr(0)[j];
    const int reps = 200;
    const double t0 = now_s();
    {
      pb::Tracer::Scope span(tr, "batched_multiply_into", "linalg");
      for (int r = 0; r < reps; ++r) linalg::batched_multiply_into(outm, k, panel);
    }
    const double gemm_ns = (now_s() - t0) * 1e9 / double(reps) / double(m);
    put(out.layer, "linalg.batched_gemm_ns_per_session", "ns", gemm_ns);
    // F x, H x and K nu of one bin: the batched kernels the data plane runs.
    *kernel_ns = gemm_ns * (1.0 + double(z * x + x * x) / double(x * z));
    Matrix<double> p = c.dataset.model.p0, sand, scratch;
    const double t1 = now_s();
    {
      pb::Tracer::Scope span(tr, "symmetric_sandwich_into", "linalg");
      for (int r = 0; r < reps; ++r)
        linalg::symmetric_sandwich_into(sand, c.dataset.model.h, p, scratch);
    }
    put(out.layer, "linalg.sandwich_us", "us", (now_s() - t1) * 1e6 / double(reps));
  }
  // snapshot: the codec on a checkpoint of a real session.
  {
    serve::ServerOptions o;
    o.workers = serve::ServerOptions::kManual;
    serve::DecodeServer server(o);
    serve::SessionConfig sc;
    sc.filter = c.filter;
    const auto id = server.open_session(sc);
    for (std::size_t i = 0; i < 8; ++i) (void)server.submit(id, streams[0].bin(i));
    server.drain();
    serve::SessionSnapshot snap;
    if (!server.checkpoint_session(id, &snap).ok()) out.fail("probe checkpoint failed");
    const int reps = 2000;
    std::vector<std::uint8_t> frame;
    double t0 = now_s();
    {
      pb::Tracer::Scope span(tr, "snapshot.encode", "snapshot");
      for (int r = 0; r < reps; ++r) frame = serve::encode(snap);
    }
    put(out.layer, "snapshot.encode_us", "us", (now_s() - t0) * 1e6 / reps);
    serve::SessionSnapshot back;
    t0 = now_s();
    {
      pb::Tracer::Scope span(tr, "snapshot.decode", "snapshot");
      for (int r = 0; r < reps; ++r)
        if (!serve::decode(frame, &back).ok()) out.fail("probe decode failed");
    }
    put(out.layer, "snapshot.decode_us", "us", (now_s() - t0) * 1e6 / reps);
    put(out.layer, "snapshot.frame_bytes", "bytes", double(frame.size()));
  }
}

// Serve-layer probes for the layer a workload does not drive itself: a
// manual-mode DecodeServer (server.submit_us, for cluster_aged) or a small
// two-shard cluster pumped on this thread (cluster.*, for the fleets).  Both
// use the workload's config and the first eight streams.
void serve_probes(const ConfigData& c, const std::vector<Stream>& streams,
                  bool cluster_layer, Outcome& out, pb::Tracer& tr) {
  const std::size_t sessions = std::min<std::size_t>(8, streams.size());
  const std::size_t bins = 64;
  serve::SessionConfig sc;
  sc.filter = c.filter;
  sc.queue_capacity = 4 * bins;
  if (!cluster_layer) {
    serve::ServerOptions o;
    o.workers = serve::ServerOptions::kManual;
    serve::DecodeServer server(o);
    std::vector<serve::SessionId> ids;
    for (std::size_t s = 0; s < sessions; ++s) ids.push_back(server.open_session(sc));
    double t = 0;
    for (std::size_t n = 0; n < bins; ++n)
      for (std::size_t s = 0; s < sessions; ++s) {
        auto z = streams[s].bin(n);
        const double t0 = now_s();
        pb::Tracer::Scope span(tr, "DecodeServer::submit", "serve.server");
        (void)server.submit(ids[s], std::move(z));
        t += now_s() - t0;
      }
    put(out.layer, "server.submit_us", "us", 1e6 * t / double(bins * sessions));
    return;
  }
  serve::ClusterOptions co;
  co.shards = 2;
  serve::ShardedDecodeServer cluster(co);
  serve::RetryingSubmitter client(cluster);
  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < sessions; ++s) ids.push_back(cluster.open_session(sc));
  double submit_t = 0, pump_t = 0, tick_t = 0;
  std::uint64_t pumps = 0, empty = 0, steps = 0, ticks = 0;
  for (std::size_t n = 0; n < bins; ++n) {
    for (std::size_t s = 0; s < sessions; ++s) {
      auto z = streams[s].bin(n);
      const double t0 = now_s();
      pb::Tracer::Scope span(tr, "ShardedDecodeServer::submit", "serve.cluster");
      if (!client.submit(ids[s], z).ok()) out.fail("cluster probe submit refused");
      submit_t += now_s() - t0;
    }
    for (;;) {
      const double t0 = now_s();
      std::size_t k;
      {
        pb::Tracer::Scope span(tr, "pump", "serve.cluster");
        k = cluster.pump();
      }
      pump_t += now_s() - t0;
      ++pumps;
      if (k == 0) {
        ++empty;
        break;
      }
      steps += k;
    }
    if (n % 8 == 7) {
      const double t0 = now_s();
      pb::Tracer::Scope span(tr, "tick", "serve.cluster");
      cluster.tick();
      tick_t += now_s() - t0;
      ++ticks;
    }
  }
  double t0 = now_s();
  std::size_t checkpointed;
  {
    pb::Tracer::Scope span(tr, "checkpoint_all", "serve.cluster");
    checkpointed = cluster.checkpoint_all();
  }
  const double ck_t = now_s() - t0;
  std::size_t on_shard0 = 0;
  for (auto id : ids) on_shard0 += cluster.shard_of(id) == 0;
  t0 = now_s();
  {
    pb::Tracer::Scope span(tr, "drain_shard", "serve.cluster");
    (void)cluster.drain_shard(0);
  }
  const double drain_t = now_s() - t0;
  std::size_t lost = 0;
  for (std::size_t s = 0; s < sessions; ++s)
    lost += cluster.trajectory(ids[s]).size() != bins;
  put(out.layer, "cluster.submit_us", "us", 1e6 * submit_t / double(bins * sessions));
  put(out.layer, "cluster.retries_per_kbin", "count",
      1e3 * double(client.stats().retries) / double(bins * sessions));
  put(out.layer, "cluster.pump_us_per_step", "us", steps ? 1e6 * pump_t / double(steps) : 0.0);
  put(out.layer, "cluster.pump_empty_ratio", "ratio", double(empty) / double(pumps));
  put(out.layer, "cluster.tick_us", "us", 1e6 * tick_t / double(ticks));
  put(out.layer, "cluster.checkpoint_us_per_session", "us",
      checkpointed ? 1e6 * ck_t / double(checkpointed) : 0.0);
  put(out.layer, "cluster.drain_ms_per_session", "ms",
      on_shard0 ? 1e3 * drain_t / double(on_shard0) : 0.0);
  put(out.layer, "cluster.sessions_lost", "count", double(lost));
}

// ------------------------------------------------------------ cluster pumps

// Two benchmark threads pump the cluster's manual-mode shards.
class Pumps {
 public:
  Pumps(serve::ShardedDecodeServer& c, pb::Tracer& tr) : c_(c), tr_(tr) {
    for (auto& t : threads_) t = std::thread([this] { loop(); });
  }
  ~Pumps() { stop(); }
  Pumps(const Pumps&) = delete;
  Pumps& operator=(const Pumps&) = delete;
  void stop() {
    stop_.store(true);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }
  std::uint64_t pumps() const { return pumps_.load(); }
  std::uint64_t empty() const { return empty_.load(); }
  std::uint64_t steps() const { return steps_.load(); }
  double busy_s() const { return double(busy_ns_.load()) * 1e-9; }
  // The pump threads' own CPU, pumping and sleeping alike.
  double cpu_s() const { return double(cpu_ns_.load()) * 1e-9; }
  // Their CPU inside the pump() calls that decoded something: a CPU-clock
  // figure, unlike busy_s(), so a pump thread preempted inside a call does
  // not count the time it waited.
  double busy_cpu_s() const { return double(busy_cpu_ns_.load()) * 1e-9; }

 private:
  void loop() {
    double cpu = thread_cpu_s();
    while (!stop_.load(std::memory_order_relaxed)) {
      const auto t0 = pb::Clock::now();
      std::size_t n;
      {
        pb::Tracer::Scope span(tr_, "pump", "serve.cluster");
        n = c_.pump();
      }
      pumps_.fetch_add(1, std::memory_order_relaxed);
      const auto ns = std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        pb::Clock::now() - t0).count());
      if (n == 0) {
        empty_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      } else {
        steps_.fetch_add(n, std::memory_order_relaxed);
        busy_ns_.fetch_add(ns, std::memory_order_relaxed);
      }
      // An iteration that decoded something did not sleep, so its CPU is
      // the pump() call's.
      const double now = thread_cpu_s();
      const auto used = std::uint64_t(1e9 * (now - cpu));
      cpu_ns_.fetch_add(used, std::memory_order_relaxed);
      if (n) busy_cpu_ns_.fetch_add(used, std::memory_order_relaxed);
      cpu = now;
    }
  }
  serve::ShardedDecodeServer& c_;
  pb::Tracer& tr_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pumps_{0}, empty_{0}, steps_{0}, busy_ns_{0},
      cpu_ns_{0}, busy_cpu_ns_{0};
  std::thread threads_[2];
};

// --------------------------------------------------------------- workloads

struct Plan {
  std::size_t paced_bins = 0;  // per session
  double bin_hz = 0;           // per session
  double backlog_s = 0;        // backlog-phase wall time
};

Plan plan_for(const WorkloadSpec& w, double seconds, std::size_t live) {
  Plan p;
  const double scale = seconds / 10.0;
  p.bin_hz = w.offered / double(live);
  p.paced_bins = std::size_t(std::llround(w.paced_s * scale * p.bin_hz));
  p.backlog_s = w.backlog_s * scale;
  return p;
}

void stamp_common(Outcome& out, const PacedResult& paced,
                  const BacklogResult& backlog, double setup_s, double mse) {
  if (!g_short && (paced.latency_s.size() < kMinLatencySamples ||
                   !pb::tail_supported(paced.latency_s.size(), 0.99)))
    out.fail("paced phase gave " + std::to_string(paced.latency_s.size()) +
             " latency samples; p99 needs at least 1000");
  if (!g_short && backlog.windows < kMinWindows)
    out.fail("backlog phase gave " + std::to_string(backlog.windows) +
             " capacity windows; bins_per_s needs at least " +
             std::to_string(kMinWindows));
  std::printf("paced: %zu latency samples, %" PRIu64 " bins over 50 ms\n",
              paced.latency_s.size(), paced.over_deadline);
  std::printf("backlog: %zu rounds, median of %zu windows of %.0f ms\n",
              backlog.rounds, backlog.windows, 1e3 * kWindowS);
  put(out.e2e, "bin_latency_p50_ms", "ms", 1e3 * pb::percentile(paced.latency_s, 0.50));
  // p99 is printed on every run but reported as a per-layer metric: on a
  // shared host its run-to-run spread follows the host's CPU steal (see
  // README.md), so it cannot carry a regression bound.
  const double p99_ms = 1e3 * pb::percentile(paced.latency_s, 0.99);
  std::printf("latency: p50 %.4f ms, p99 %.4f ms over %zu samples\n",
              1e3 * pb::percentile(paced.latency_s, 0.50), p99_ms,
              paced.latency_s.size());
  put(out.layer, "bin_latency_p99_ms", "ms", p99_ms);
  put(out.e2e, "bins_per_s", "1/s", backlog.bins_per_s);
  put(out.e2e, "cpu_us_per_bin", "us", 1e6 * paced.cpu_s_per_bin);
  put(out.e2e, "setup_s", "s", setup_s);
  put(out.e2e, "peak_rss_mb", "MB", paced.peak_rss_mb);
  put(out.e2e, "decode_mse", "mse", mse);
}

// Serving-side CPU of one batched bin whose K/P schedule entry is already
// computed.  A server shaped like the workload's decodes kProbeRounds
// rounds of a first cohort of `sessions`, which computes the schedule; then
// as many sessions more open at iteration 0, find every entry cached, and
// decode the same rounds.  The result is the second cohort's serving CPU
// per bin.  `shards` > 0: a manual-mode cluster of that many shards pumped
// on this thread (cluster_aged), timed by this thread's CPU inside its
// drain(): the kernels, the hand-off and pump()'s own work.  Otherwise a
// DecodeServer with a pool of `workers` (the fleets) fed at the paced
// phase's `round_hz`, timed as the process's CPU less this thread's: the
// kernels, the hand-off, and the workers' wake-ups and contention.  Submits
// are left out either way: the paced phase times them directly.
double warm_bin_ns(const ConfigData& c, const std::vector<Stream>& streams,
                   std::size_t sessions, std::size_t workers, double round_hz,
                   std::size_t shards, pb::Tracer& tr) {
  constexpr std::size_t kProbeRounds = 256;
  serve::SessionConfig sc;
  sc.filter = c.filter;
  sc.queue_capacity = kProbeRounds + 16;
  std::unique_ptr<serve::DecodeServer> server;
  std::unique_ptr<serve::ShardedDecodeServer> cluster;
  if (shards) {
    serve::ClusterOptions co;
    co.shards = shards;
    co.high_watermark = std::size_t(1) << 30;
    co.low_watermark = co.high_watermark / 2;
    cluster = std::make_unique<serve::ShardedDecodeServer>(co);
  } else {
    serve::ServerOptions o;
    o.workers = workers;
    server = std::make_unique<serve::DecodeServer>(o);
  }
  auto cohort = [&](const char* name) {
    std::vector<serve::SessionId> ids;
    for (std::size_t s = 0; s < sessions; ++s)
      ids.push_back(cluster ? cluster->open_session(sc) : server->open_session(sc));
    pb::Tracer::Scope span(tr, name, "serve");
    // Read once around the whole cohort, with the workers idle at both
    // ends: a running thread's CPU is only brought up to date at ticks.
    const double proc0 = cpu_s(), own0 = thread_cpu_s(), start = now_s();
    double pumped = 0;  // cluster: this thread's CPU inside drain()
    for (std::size_t n = 0; n < kProbeRounds; ++n) {
      if (!cluster)
        while (now_s() - start < double(n) / round_hz) {}  // spin to the due time
      const std::uint64_t target = steps_counter().value() + sessions;
      for (std::size_t s = 0; s < sessions; ++s) {
        if (cluster) (void)cluster->submit(ids[s], streams[s].bin(n));
        else (void)server->submit(ids[s], streams[s].bin(n));
      }
      if (cluster) {
        const double t0 = thread_cpu_s();
        cluster->drain();
        pumped += thread_cpu_s() - t0;
      } else {
        while (steps_counter().value() < target) {}  // spin, as the generator does
      }
    }
    const double cpu =
        cluster ? pumped : (cpu_s() - proc0) - (thread_cpu_s() - own0);
    return 1e9 * cpu / double(kProbeRounds * sessions);
  };
  const double cold_ns = cohort("decode(cold schedule)");
  const double warm_ns = cohort("decode(warm schedule)");
  std::printf("serving probe: %zu sessions, %s, %.0f ns/bin computing the "
              "schedule, %.0f ns/bin with it cached\n",
              sessions, shards ? "manual-mode shards" : "worker pool", cold_ns,
              warm_ns);
  return warm_ns;
}

// The per-bin ledger of the paced phase.  Each line is measured on its own,
// none as the remainder of another:
//   schedule  K/P iterations the phase needed (one per round per schedule,
//             plus one per solo bin) x the cold-replay probe's ns each;
//   kernel    the batched F x, H x and K nu of one bin (GEMM probe);
//   serve     the generator's time inside program calls (submit, tick,
//             drain_shard, resubmits; timed in the phase) + the serving
//             side with the schedule cached (warm_bin_ns less the kernel
//             line) + the pump threads' CPU outside pump() calls that
//             decoded something (cluster; timed in the phase).
// Their sum must come within kLedgerTolerance of the program's CPU per bin
// over the phase (as in cpu_us_per_bin), and no line may be negative;
// otherwise the run fails.  What is left (thread wake-ups, cache misses
// under load, the pump threads' sleeps) is ledger.unexplained_share.
constexpr double kLedgerTolerance = 0.25;
struct Ledger {
  double schedule_ns = 0, kernel_ns = 0;
  double client_ns = 0, warm_ns = 0, idle_ns = 0;
};
void put_ledger(Outcome& out, const PacedResult& paced, const Ledger& l,
                std::size_t z) {
  // F x, H x and K nu once K comes from the schedule: 2*x*z + x^2 MACs.
  const double floor_macs = double(2 * 6 * z + 6 * 6);
  const double bins = double(std::max<std::uint64_t>(1, paced.accepted));
  const double cpu_ns = 1e9 * paced.cpu_s / bins;
  const double serving_ns = l.warm_ns - l.kernel_ns;
  const double serve_ns = l.client_ns + serving_ns + l.idle_ns;
  const double sum = l.schedule_ns + l.kernel_ns + serve_ns;
  const double unexplained = (cpu_ns - sum) / cpu_ns;
  std::printf("ledger: schedule %.0f + kernel %.0f + serve %.0f (client %.0f, "
              "serving %.0f, idle pumps %.0f) = %.0f ns/bin vs paced CPU %.0f "
              "ns/bin: %.1f%% unexplained (tolerance %.0f%%)\n",
              l.schedule_ns, l.kernel_ns, serve_ns, l.client_ns, serving_ns,
              l.idle_ns, sum, cpu_ns, 100.0 * unexplained,
              100.0 * kLedgerTolerance);
  for (double line : {l.schedule_ns, l.kernel_ns, l.client_ns, serving_ns, l.idle_ns})
    if (!(line >= 0.0)) out.fail("ledger: a negative line");
  if (!(std::fabs(unexplained) <= kLedgerTolerance))
    out.fail("ledger: the lines explain " + std::to_string(sum) + " of " +
             std::to_string(cpu_ns) + " ns/bin, outside the tolerance");
  put(out.layer, "ledger.schedule_ns_per_bin", "ns", l.schedule_ns);
  put(out.layer, "ledger.kernel_ns_per_bin", "ns", l.kernel_ns);
  put(out.layer, "ledger.serve_ns_per_bin", "ns", serve_ns);
  put(out.layer, "ledger.cpu_ns_per_bin", "ns", cpu_ns);
  put(out.layer, "ledger.ns_per_floor_mac", "ns", cpu_ns / floor_macs);
  put(out.layer, "ledger.unexplained_share", "ratio", unexplained);
  put(out.layer, "gen.lateness_p99_ms", "ms", 1e3 * pb::percentile(paced.lateness_s, 0.99));
}

// ---- fleets: one DecodeServer with two workers --------------------------

Outcome run_fleet(const WorkloadSpec& w, ConfigData& c,
                  const std::vector<Stream>& streams, const Plan& plan,
                  pb::Tracer& tr, std::uint64_t seed, bool layers) {
  Outcome out;
  serve::ServerOptions so;
  so.workers = 2;
  serve::SessionConfig sc;
  sc.filter = c.filter;
  // Room for every paced bin, should the server fall behind, and for the
  // backlog's outstanding rounds.
  sc.queue_capacity = plan.paced_bins + kOutstandingRounds + 16;
  std::vector<double> setups;
  std::unique_ptr<serve::DecodeServer> server;
  std::vector<serve::SessionId> ids(w.sessions);
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    server.reset();
    const double t0 = now_s();
    pb::Tracer::Scope span(tr, "setup", "serve.server");
    server = std::make_unique<serve::DecodeServer>(so);
    for (std::size_t s = 0; s < w.sessions; ++s) {
      Status st;
      ids[s] = server->open_session(sc, &st);
      if (ids[s] == serve::DecodeServer::kInvalidSession) {
        out.fail(std::string("open_session: ") + st.message());
        return out;
      }
    }
    setups.push_back(now_s() - t0);
  }
  std::vector<std::size_t> live(w.sessions);
  for (std::size_t s = 0; s < w.sessions; ++s) live[s] = s;
  auto submit = [&](std::size_t s, std::size_t n) -> bool {
    return server->submit(ids[s], streams[s].bin(n)) == serve::PushResult::kAccepted;
  };
  PacedResult paced = run_paced(plan.paced_bins, plan.bin_hz, live, submit,
                                nullptr, nullptr, 0, tr, layers);
  const serve::ServerStats mid = server->stats();
  BacklogResult backlog = run_backlog(plan.backlog_s, plan.paced_bins, live, submit, tr);
  server->drain();
  const serve::ServerStats end = server->stats();

  out.tally.attempted = paced.attempted + backlog.attempted;
  out.tally.failed = paced.refused + backlog.refused;
  out.tally.succeeded = paced.accepted + backlog.accepted;
  out.tally.over_deadline = paced.over_deadline;
  if (out.tally.failed) out.fail("fleet refused " + std::to_string(out.tally.failed) + " bins");
  const double mse = check_streams(
      c, streams, [&](std::size_t s) { return server->trajectory(ids[s]); },
      plan.paced_bins + backlog.rounds, plan.paced_bins,
      pick_sample(w.sessions, w.preset == "motor" ? 1 : 2, seed), w.preset, out);
  server.reset();
  stamp_common(out, paced, backlog, pb::median(setups), mse);

  if (layers) {
    double iter_ns = 0;
    Ledger ledger;
    kernel_probes(c, w, streams, out, tr, &iter_ns, &ledger.kernel_ns);
    const double bins = double(paced.accepted);
    // One schedule iteration per round serves every session of the round.
    ledger.schedule_ns = iter_ns * double(plan.paced_bins) / bins;
    ledger.client_ns = 1e9 * paced.submit_s / bins;
    ledger.warm_ns = warm_bin_ns(c, streams, w.sessions, so.workers, plan.bin_hz, 0, tr);
    put(out.layer, "server.submit_us", "us", 1e6 * paced.submit_s / bins);
    put(out.layer, "server.batched_share", "ratio",
        end.total_steps ? double(end.total_batched_steps) / double(end.total_steps) : 0.0);
    put(out.layer, "server.worker_utilization", "ratio", mid.worker_utilization);
    put(out.layer, "server.gain_cache_misses", "count", double(end.gain_cache_misses));
    put(out.layer, "telemetry.events_per_bin", "count", paced.events / bins);
    put_ledger(out, paced, ledger, c.z);
    serve_probes(c, streams, true, out, tr);
  }
  return out;
}

// ---- cluster_aged: four manual-mode shards pumped by two threads ---------

Outcome run_cluster(const WorkloadSpec& w, ConfigData& c,
                    const std::vector<Stream>& streams, const Plan& plan,
                    pb::Tracer& tr, std::uint64_t seed, bool layers) {
  Outcome out;
  const std::size_t aged = w.aged_sessions, total = aged + w.sessions;
  serve::ClusterOptions co;
  co.shards = 4;
  co.high_watermark = std::size_t(1) << 30;
  co.low_watermark = co.high_watermark / 2;
  co.checkpoint_every_bins = 256;
  serve::SessionConfig sc;
  sc.filter = c.filter;
  // Room for the first wave's ageing, every paced bin, and the backlog's
  // outstanding rounds.
  sc.queue_capacity = w.age_bins + plan.paced_bins + kOutstandingRounds * total + 16;

  std::vector<double> setups;
  std::unique_ptr<serve::ShardedDecodeServer> cluster;
  std::unique_ptr<Pumps> pumps;
  std::vector<serve::SessionId> ids(total);
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    pumps.reset();
    cluster.reset();
    const double t0 = now_s();
    pb::Tracer::Scope span(tr, "setup", "serve.cluster");
    cluster = std::make_unique<serve::ShardedDecodeServer>(co);
    pumps = std::make_unique<Pumps>(*cluster, tr);
    for (std::size_t s = 0; s < aged; ++s) ids[s] = cluster->open_session(sc);
    const std::uint64_t base = steps_counter().value();
    for (std::size_t n = 0; n < w.age_bins; ++n)
      for (std::size_t s = 0; s < aged; ++s)
        if (!cluster->submit(ids[s], streams[s].bin(n)).ok()) out.fail("ageing submit refused");
    while (steps_counter().value() - base < aged * w.age_bins)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (std::size_t s = aged; s < total; ++s) ids[s] = cluster->open_session(sc);
    setups.push_back(now_s() - t0);
  }
  for (auto id : ids)
    if (id == serve::ShardedDecodeServer::kInvalidSession) {
      out.fail("open_session failed");
      return out;
    }

  // The client side of each session.
  constexpr std::size_t kNone = std::size_t(-1);
  struct Client {
    std::size_t next = 0;      // bins handed over (the stream cursor)
    std::size_t refused = 0;   // bins the cluster refused
    std::string refusal;       // the first refusal's status
    std::size_t drains_at_refusal = 0;  // drains done by the first refusal
    std::size_t unhosted_in = kNone;    // drain that could not rehome it
    // Its cursor at each drain that moved it, or restored a session onto
    // its shard.
    std::vector<std::size_t> disturbed_at;
  };
  std::vector<Client> clients(total);
  for (std::size_t s = 0; s < aged; ++s) clients[s].next = w.age_bins;
  serve::RetryingSubmitter::Policy rp;
  rp.max_attempts = 64;
  serve::RetryingSubmitter client(*cluster, rp);
  double cluster_submit_s = 0;
  std::size_t drains = 0;
  auto submit = [&](std::size_t s, std::size_t) -> bool {
    Client& cl = clients[s];
    const std::size_t n = cl.next++;
    const auto t0 = now_s();
    const Status st = client.submit(ids[s], streams[s].bin(n));
    cluster_submit_s += now_s() - t0;
    if (!st.ok() && cl.refused++ == 0) {
      cl.refusal = st.message();
      cl.drains_at_refusal = drains;
    }
    return st.ok();
  };
  std::vector<std::size_t> live(total);
  for (std::size_t s = 0; s < total; ++s) live[s] = s;

  // Control plane: tick() every 50 ms of the paced phase; a rolling
  // drain_shard over the four shards at fixed rounds.  Each drain first
  // waits until the data plane has decoded every accepted bin, so which
  // sessions move, and which cannot, does not depend on timing.
  const std::string kNoHost = "cluster: no shard could host a session";
  double tick_s = 0, drain_s = 0, next_tick = now_s() + 0.05;
  double control_s = 0;  // generator time inside tick, drain and resubmits
  std::size_t ticks = 0, drained_sessions = 0;
  std::vector<std::size_t> drain_at;
  for (std::size_t i = 0; i < kDrains; ++i)
    drain_at.push_back(plan.paced_bins * (2 * i + 1) / (2 * kDrains));
  std::uint64_t resubmitted = 0;
  auto control = [&](std::size_t k, Observer& obs) {
    if (now_s() >= next_tick) {
      const double t0 = now_s();
      {
        pb::Tracer::Scope span(tr, "tick", "serve.cluster", std::int64_t(k));
        cluster->tick();
      }
      tick_s += now_s() - t0;
      control_s += now_s() - t0;
      ++ticks;
      next_tick += 0.05;
    }
    if (drains < drain_at.size() && k == drain_at[drains]) {
      while (obs.decoded() < (k ? obs.cum[k - 1] : 0))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      const std::size_t shard = drains % co.shards;  // rolling
      std::vector<std::size_t> on_shard, was_on(total, co.shards);
      for (std::size_t s = 0; s < total; ++s)
        if (clients[s].refused == 0) {
          was_on[s] = cluster->shard_of(ids[s]);
          if (was_on[s] == shard) on_shard.push_back(s);
        }
      const double t0 = now_s();
      Status st;
      {
        pb::Tracer::Scope span(tr, "drain_shard", "serve.cluster", std::int64_t(k));
        st = cluster->drain_shard(shard);
      }
      drain_s += now_s() - t0;
      std::printf("drain_shard(%zu) at round %zu: %s\n", shard, k,
                  st.ok() ? "ok" : st.message());
      // Evidence for F1: the sessions this drain could not rehome are among
      // the ones it found on the shard.
      if (!st.ok() && st.message() == kNoHost)
        for (std::size_t s : on_shard)
          if (clients[s].unhosted_in == kNone) clients[s].unhosted_in = drains;
      std::vector<bool> received(co.shards, false);
      for (std::size_t s : on_shard) {
        const std::size_t to = cluster->shard_of(ids[s]);
        if (to < co.shards && to != shard) received[to] = true;
      }
      for (std::size_t s = 0; s < total; ++s)
        if (was_on[s] == shard || (was_on[s] < co.shards && received[was_on[s]]))
          clients[s].disturbed_at.push_back(clients[s].next);
      drained_sessions += on_shard.size();
      ++drains;
      // Client side of a migration: resume each stream at the cluster's
      // resubmission cursor.
      for (std::size_t s = 0; s < total; ++s) {
        if (clients[s].refused) continue;
        const std::size_t cursor = cluster->next_expected_bin(ids[s]);
        if (cursor < clients[s].next) {
          resubmitted += clients[s].next - cursor;
          for (std::size_t n = cursor; n < clients[s].next; ++n)
            (void)client.submit(ids[s], streams[s].bin(n));
        }
      }
      control_s += now_s() - t0;  // the drain and the resubmits
    }
  };

  // Solo steps, from the registry's process-wide counters.
  auto solo_steps = [] {
    return steps_counter().value() -
           telemetry::MetricsRegistry::global()
               .counter("kalmmind.serve.batched_steps_total")
               .value();
  };
  const std::uint64_t solo0 = solo_steps();
  const std::uint64_t pumps0 = pumps->pumps(), empty0 = pumps->empty(),
                      psteps0 = pumps->steps();
  const double busy0 = pumps->busy_s(), pump_cpu0 = pumps->cpu_s(),
               busy_cpu0 = pumps->busy_cpu_s();
  PacedResult paced = run_paced(plan.paced_bins, plan.bin_hz, live, submit,
                                control, &control_s, 0, tr, layers);
  const double pump_busy = pumps->busy_s() - busy0;
  const double pump_cpu = pumps->cpu_s() - pump_cpu0;
  const double pump_busy_cpu = pumps->busy_cpu_s() - busy_cpu0;
  const std::uint64_t paced_solo_steps = solo_steps() - solo0;
  const std::uint64_t pump_calls = pumps->pumps() - pumps0,
                      pump_empty = pumps->empty() - empty0,
                      pump_steps = pumps->steps() - psteps0;
  // checkpoint_all() over the live sessions at the end of the paced phase,
  // timed on its own (the cadence checkpoints inside tick() share their
  // time with health scoring).
  double checkpoint_s = 0;
  std::size_t checkpointed = 0;
  if (layers) {
    pb::Tracer::Scope span(tr, "checkpoint_all", "serve.cluster");
    const double t0 = now_s();
    checkpointed = cluster->checkpoint_all();
    checkpoint_s = now_s() - t0;
  }
  {
    pb::Tracer::Scope span(tr, "tick", "serve.cluster");
    cluster->tick();  // reaps routes that died in the drains
  }
  // Every session keeps being offered bins, so the failed share is the
  // same in every round of both phases.
  BacklogResult backlog = run_backlog(plan.backlog_s, 0, live, submit, tr);
  cluster->drain();
  pumps->stop();
  const serve::ClusterStats cs = cluster->stats();
  const auto client_stats = client.stats();

  // Accounting over the measured phases: the first wave's ageing is
  // set-up, decoded and checked here but not counted.  A session fails
  // every bin it was handed in them only on evidence of a known fault:
  //   F1/F2  its bins were refused as a dead route ("unknown or closed
  //          session"), first after a drain_shard that found it on the
  //          drained shard and returned "no shard could host a session";
  //          its readable states (none, once the route is reaped: F2) must
  //          still be the solo filter's;
  //   F3     a late-wave session whose trajectory leaves the solo filter's
  //          at the first or second bin after a drain_shard that moved it or
  //          restored a session onto its shard (whichever bin follows the
  //          first-wave restore that slides the schedule window past it),
  //          and whose session_stats show it decoding outside any batch
  //          group; it must still be inside the accuracy range.
  // Any other refusal, missing state or mismatch fails the run.
  std::size_t f1 = 0, f2 = 0, f3 = 0, mse_sessions = 0;
  double mse_sum = 0;
  const std::size_t sample = pick_sample(aged, 1, seed)[0];
  out.tally.attempted = paced.attempted + backlog.attempted;
  for (std::size_t s = 0; s < total; ++s) {
    const Client& cl = clients[s];
    const std::size_t measured = cl.next - (s < aged ? w.age_bins : 0);
    const std::string who = std::string(s < aged ? "first" : "late") +
                            "-wave session " + std::to_string(s);
    const auto traj = cluster->trajectory(ids[s]);
    if (cl.refused) {
      const bool f1_evidence = s >= aged && cl.unhosted_in != kNone &&
                               cl.drains_at_refusal > cl.unhosted_in &&
                               cl.refusal == "cluster: unknown or closed session";
      if (!f1_evidence) {
        out.fail(who + ": " + std::to_string(cl.refused) + " bins refused (\"" +
                 cl.refusal + "\") without a drain that could not host it");
        continue;
      }
      ++f1;
      const std::size_t accepted = cl.next - cl.refused;
      if (traj.size() > accepted)
        out.fail(who + ": more states than bins accepted");
      else if (traj.size() < accepted)
        ++f2;
      if (!same_as_solo(c, streams[s], traj))
        out.fail(who + ": its readable states are not the solo KalmanFilter's");
      out.tally.failed += measured;
      continue;
    }
    if (traj.size() != cl.next) {
      out.fail(who + ": " + std::to_string(traj.size()) + " states for " +
               std::to_string(cl.next) + " bins, none refused");
      continue;
    }
    const Mse mse = reference_mse(c, streams[s], traj,
                                  (s < aged ? w.age_bins : 0) + plan.paced_bins);
    check_accuracy(w.preset, s, mse.all, out);
    const std::size_t diverged_at =
        s >= aged || s == sample ? solo_divergence(c, streams[s], traj) : traj.size();
    if (diverged_at < traj.size()) {
      bool at_restore = false;
      for (std::size_t at : cl.disturbed_at)
        at_restore = at_restore || diverged_at == at || diverged_at == at + 1;
      if (s < aged || !at_restore || cluster->session_stats(ids[s]).batched) {
        out.fail(who + ": bin " + std::to_string(diverged_at) +
                 " is not bit-identical to the solo KalmanFilter");
        continue;
      }
      ++f3;
      out.tally.failed += measured;
      continue;
    }
    mse_sum += mse.head;
    ++mse_sessions;
  }
  out.tally.succeeded = out.tally.attempted - out.tally.failed;
  out.tally.over_deadline = paced.over_deadline;
  std::printf("cluster: %zu of %zu sessions lost their shard (F1; %zu of them "
              "with decoded states unreadable, F2), %zu left the solo "
              "trajectory at a drain (F3); %" PRIu64
              " bins failed; %" PRIu64
              " resubmitted from next_expected_bin\n",
              f1, total, f2, f3, out.tally.failed, resubmitted);
  const double mse = mse_sessions ? mse_sum / double(mse_sessions) : 0.0;
  stamp_common(out, paced, backlog, pb::median(setups), mse);

  if (layers) {
    double iter_ns = 0;
    Ledger ledger;
    kernel_probes(c, w, streams, out, tr, &iter_ns, &ledger.kernel_ns);
    const double bins = double(paced.accepted);
    const double offered = double(paced.attempted + backlog.attempted);
    put(out.layer, "cluster.submit_us", "us", 1e6 * cluster_submit_s / offered);
    put(out.layer, "cluster.retries_per_kbin", "count",
        1e3 * double(client_stats.retries) / offered);
    put(out.layer, "cluster.pump_us_per_step", "us",
        pump_steps ? 1e6 * pump_busy / double(pump_steps) : 0.0);
    put(out.layer, "cluster.pump_empty_ratio", "ratio",
        pump_calls ? double(pump_empty) / double(pump_calls) : 0.0);
    put(out.layer, "cluster.tick_us", "us", ticks ? 1e6 * tick_s / double(ticks) : 0.0);
    put(out.layer, "cluster.checkpoint_us_per_session", "us",
        checkpointed ? 1e6 * checkpoint_s / double(checkpointed) : 0.0);
    put(out.layer, "cluster.drain_ms_per_session", "ms",
        drained_sessions ? 1e3 * drain_s / double(drained_sessions) : 0.0);
    put(out.layer, "cluster.sessions_lost", "count", double(f1));
    std::uint64_t steps = 0, batched = 0, misses = 0;
    for (const auto& sh : cs.per_shard) {
      steps += sh.server.total_steps;
      batched += sh.server.total_batched_steps;
      misses += sh.server.gain_cache_misses;
    }
    put(out.layer, "server.batched_share", "ratio", steps ? double(batched) / double(steps) : 0.0);
    put(out.layer, "server.worker_utilization", "ratio", pump_busy / (2.0 * paced.wall_s));
    put(out.layer, "server.gain_cache_misses", "count", double(misses));
    put(out.layer, "telemetry.events_per_bin", "count", paced.events / bins);
    // Each shard's schedule advances once per round; a solo bin pays a
    // whole K/P iteration of its own.
    const double solo = double(paced_solo_steps);
    ledger.schedule_ns = iter_ns * (double(co.shards * plan.paced_bins) + solo) / bins;
    ledger.client_ns = 1e9 * (paced.submit_s + control_s) / bins;
    // The pump threads' CPU outside pump() calls that decoded something.
    ledger.idle_ns = 1e9 * (pump_cpu - pump_busy_cpu) / bins;
    ledger.warm_ns = warm_bin_ns(c, streams, aged, 0, 0.0, co.shards, tr);
    put_ledger(out, paced, ledger, c.z);
    serve_probes(c, streams, false, out, tr);
  }
  return out;
}

// ------------------------------------------------------------------- repro

// F1 and F2 on their smallest shape, with inputs that do not depend on any
// seed: two shards, one somatosensory session aged 5000 bins, six sessions
// opened after it that decode 500 bins each, then drain_shard(0).
int repro_f1_f2() {
  auto c = make_config("somatosensory");
  serve::ClusterOptions co;
  co.shards = 2;
  co.high_watermark = std::size_t(1) << 30;
  co.low_watermark = co.high_watermark / 2;
  serve::ShardedDecodeServer cluster(co);
  serve::SessionConfig sc;
  sc.filter = c->filter;
  sc.queue_capacity = 8192;
  std::vector<serve::SessionId> ids{cluster.open_session(sc)};
  const Stream aged = make_stream(*c, 1, 1, kStreamBins);
  for (std::size_t n = 0; n < 5000; ++n) (void)cluster.submit(ids[0], aged.bin(n));
  cluster.drain();
  std::vector<Stream> late;
  for (std::size_t s = 0; s < 6; ++s) {
    ids.push_back(cluster.open_session(sc));
    late.push_back(make_stream(*c, 2 + s, 2 + s, kStreamBins));
  }
  for (std::size_t n = 0; n < 500; ++n)
    for (std::size_t s = 0; s < 6; ++s) (void)cluster.submit(ids[1 + s], late[s].bin(n));
  cluster.drain();
  const Status st = cluster.drain_shard(0);
  std::printf("drain_shard(0): %s\n", st.ok() ? "ok" : st.message());
  std::size_t dead = 0;
  for (std::size_t s = 1; s < ids.size(); ++s) {
    const bool refused = !cluster.submit(ids[s], late[s - 1].bin(0)).ok();
    const std::size_t states = cluster.trajectory(ids[s]).size();
    dead += refused;
    std::printf("late session %zu: %s, trajectory() returns %zu of 500 states\n",
                s, refused ? "submit refused (F1: route dead)" : "alive", states);
  }
  std::printf("F1: %zu of 6 late sessions lost; F2: ClusterStats.decoded = %" PRIu64
              " counts their bins\n",
              dead, cluster.stats().decoded);
  return 0;
}

// ------------------------------------------------------------------- main

void host_stamp() {
  const char* simd_env = std::getenv("KALMMIND_SIMD");
  cpu_set_t set;
  CPU_ZERO(&set);
  sched_getaffinity(0, sizeof(set), &set);
  std::string cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) {
      if (!cpus.empty()) cpus += ',';
      cpus += std::to_string(i);
    }
  std::printf("host: nproc=%ld cpus=[%s] simd=%s compiler=\"%s\" KALMMIND_SIMD=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpus.c_str(),
              linalg::simd::tier_name(linalg::simd::active_tier()), __VERSION__,
              simd_env ? simd_env : "(unset)");
#if defined(KALMMIND_FAULTS)
  std::printf("build: fault hooks compiled in\n");
#endif
}

// Keep the load off the lowest-numbered CPU when there are four or more:
// three threads run on the rest.
void pin_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0 || CPU_COUNT(&set) < 4) return;
  for (int i = 0; i < CPU_SETSIZE; ++i)
    if (CPU_ISSET(i, &set)) {
      CPU_CLR(i, &set);
      break;
    }
  sched_setaffinity(0, sizeof(set), &set);
}

void print_json(const Outcome& o, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              o.correct ? "true" : "false", o.tally.attempted, o.tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_motor|fleet_wide|cluster_aged "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] [--short]\n"
               "       perfbench --repro-f1-f2\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") workload = val();
    else if (a == "--seed") seed = std::strtoull(val(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(val());
    else if (a == "--trace") trace = std::atoi(val());
    else if (a == "--trace-out") trace_out = val();
    else if (a == "--short") short_mode = true;
    else if (a == "--repro-f1-f2") return repro_f1_f2();
    else return usage();
  }
  WorkloadSpec w;
  bool found = false;
  for (const auto& cand : workloads())
    if (cand.name == workload) {
      w = cand;
      found = true;
    }
  if (!found || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  if (short_mode) {
    // A few seconds end to end: smaller fleets, shorter phases, and (for
    // the cluster) an age just past the schedule window.
    g_short = true;
    seconds = 1.5;
    w.sessions = std::min<std::size_t>(w.sessions, 16);
    w.aged_sessions = std::min<std::size_t>(w.aged_sessions, 8);
    w.offered /= 4;
    w.replay_probe = std::min<std::size_t>(w.replay_probe, 200);
  }
  pin_cpus();
  host_stamp();

  // Inputs: one trained model per preset, one stream per session.
  const double syn0 = now_s();
  auto config = make_config(w.preset);
  const std::size_t total = w.sessions + w.aged_sessions;
  const Plan plan = plan_for(w, seconds, total);
  std::vector<Stream> streams(total);
  for (std::size_t s = 0; s < total; ++s)
    streams[s] = make_stream(*config, mix(0, s), mix(seed, s), kStreamBins);
  std::printf("workload %s: %zu sessions (a %zu-bin recording each, looped), "
              "z=%zu, spec %s, offered %.0f bins/s (%zu paced bins per session "
              "at %.1f Hz), backlog %.2f s; inputs synthesised in %.2f s\n",
              w.name.c_str(), total, kStreamBins, config->z, kSpec, w.offered,
              plan.paced_bins, plan.bin_hz, plan.backlog_s, now_s() - syn0);
  std::fflush(stdout);

  auto run = [&](bool layers, pb::Tracer& tr) {
    return w.cluster ? run_cluster(w, *config, streams, plan, tr, seed, layers)
                     : run_fleet(w, *config, streams, plan, tr, seed, layers);
  };
  pb::Tracer off(false);
  Outcome result = run(false, off);
  std::vector<Metric> metrics = result.e2e;
  if (trace == 1) {
    pb::Tracer on(true);
    Outcome traced = run(true, on);
    for (std::size_t i = 0; i < traced.e2e.size() && i < result.e2e.size(); ++i)
      std::printf("tracing overhead %s: %+.6g %s (traced %.6g, untraced %.6g)\n",
                  traced.e2e[i].name.c_str(), traced.e2e[i].value - result.e2e[i].value,
                  traced.e2e[i].unit.c_str(), traced.e2e[i].value, result.e2e[i].value);
    for (const auto& [name, t] : on.totals())
      std::printf("span %-40s count %9" PRIu64 " total %12.3f ms self %12.3f ms\n",
                  name.c_str(), t.count, t.total_ns / 1e6, t.self_ns / 1e6);
    if (!trace_out.empty() && on.write_chrome_json(trace_out))
      std::printf("trace: %zu spans written to %s\n", on.size(), trace_out.c_str());
    if (!traced.correct) {
      result.correct = false;
      for (auto& p : traced.problems) result.problems.push_back("traced: " + p);
    }
    metrics = traced.layer;
  }
  std::printf("bins: attempted %" PRIu64 ", succeeded %" PRIu64 ", failed %" PRIu64
              ", over 50 ms %" PRIu64 "\n",
              result.tally.attempted, result.tally.succeeded, result.tally.failed,
              result.tally.over_deadline);
  if (!result.tally.closed()) result.fail("attempted != succeeded + failed");
  for (const auto& p : result.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("threads: %ld during the paced phase\n", g_max_threads);
  print_json(result, metrics);
  return result.correct ? 0 : 1;
}
