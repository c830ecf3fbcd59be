// Unit tests of the benchmark's own statistics and reference filter, on
// synthetic inputs.  Exit code 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "reference.hpp"

namespace pb = perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void percentile_rule() {
  // 1000 samples leave exactly ten beyond p99; 999 leave nine.
  check(pb::samples_beyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  check(pb::tail_supported(1000, 0.99), "p99 supported at 1000 samples");
  check(!pb::tail_supported(999, 0.99), "p99 refused at 999 samples");
  check(pb::tail_supported(20, 0.50), "p50 supported at 20 samples");
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(double(i));
  check(pb::percentile(v, 0.99) == 990.0, "nearest-rank p99 of 1..1000 is 990");
  check(pb::percentile(v, 0.50) == 500.0, "nearest-rank p50 of 1..1000 is 500");
  check(pb::median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

void window_median() {
  // 1000 units/s steady, one stalled window, one partial final window.
  std::vector<double> t = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  std::vector<std::uint64_t> c = {0, 100, 200, 200, 300, 350};
  // Windows: 1000, 1000, 0 (stall, nothing completed: left out), 1000, and
  // the last one reaches the total of 350, so it is partial and left out.
  const pb::WindowRate r = pb::window_median_rate(t, c, 350);
  check(near(r.rate, 1000.0, 1e-9) && r.windows == 3,
        "window median ignores stalls and the partial last window");
  std::vector<std::uint64_t> c2 = {0, 100, 300, 400, 450, 500};
  // Windows 1000, 2000, 1000, 500, 500 -> median 1000.
  const pb::WindowRate r2 = pb::window_median_rate(t, c2, 1000);
  check(near(r2.rate, 1000.0, 1e-9) && r2.windows == 5,
        "window median of 1000/2000/1000/500/500 is 1000");
}

void accounting() {
  pb::Tally t;
  t.attempted = 10;
  t.succeeded = 7;
  t.failed = 3;
  check(t.closed(), "attempted = succeeded + failed holds");
  t.failed = 2;
  check(!t.closed(), "a lost bin breaks the tally");
  // Samples: bins of one round seen in one poll are one sample.
  std::vector<double> samples;
  std::vector<std::size_t> rounds = {2, 2, 3, 2};
  const std::vector<double> due = {0.0, 0.1, 0.2, 0.3};
  pb::add_poll_samples(samples, rounds, due, 0.35);
  check(samples.size() == 2 && near(samples[0], 0.15, 1e-12) &&
            near(samples[1], 0.05, 1e-12),
        "one latency sample per round per poll");
  check(rounds.empty(), "the poll's rounds are consumed");
}

void lateness() {
  const std::vector<double> due = {0.0, 1.0, 2.0};
  const std::vector<double> sent = {0.5, 0.9, 2.25};
  const auto l = pb::lateness(due, sent);
  check(l.size() == 3 && l[0] == 0.5 && l[1] == 0.0 && l[2] == 0.25,
        "generator lateness clamps early sends to zero");
}

// Scalar random walk x' = x + w (var q), z = x + v (var r): the prior
// variance converges to M = (q + sqrt(q^2 + 4qr)) / 2 and the gain to
// M / (M + r), the solution of the scalar Riccati equation.
void reference_closed_form() {
  const double q = 0.3, r = 2.0;
  pb::ref::Model m;
  m.f = pb::ref::Mat(1, 1);
  m.f(0, 0) = 1.0;
  m.q = pb::ref::Mat(1, 1);
  m.q(0, 0) = q;
  m.h = pb::ref::Mat(1, 1);
  m.h(0, 0) = 1.0;
  m.r = pb::ref::Mat(1, 1);
  m.r(0, 0) = r;
  m.p0 = pb::ref::Mat(1, 1);
  m.p0(0, 0) = 5.0;
  m.x0 = {0.0};
  pb::ref::GainTrajectory g(m, 200);
  const double mss = (q + std::sqrt(q * q + 4 * q * r)) / 2;
  check(near(g.gain(199)(0, 0), mss / (mss + r), 1e-12),
        "reference gain converges to the scalar Riccati solution");
  // First step by hand: P' = 5 + q, K = P' / (P' + r).
  check(near(g.gain(0)(0, 0), (5 + q) / (5 + q + r), 1e-12),
        "reference first gain matches the textbook formula");
  pb::ref::Session s(m, g);
  const double z = 1.7;
  const double x = s.step(&z)[0];
  check(near(x, g.gain(0)(0, 0) * z, 1e-12), "reference update x = K z from x0 = 0");
}

// A 3x3 inverse and a 2-state filter against the direct form K = P'H^t S^-1.
void reference_direct_form() {
  pb::ref::Mat a(3, 3);
  const double v[9] = {4, 1, 0.5, 1, 3, 0.2, 0.5, 0.2, 2};
  for (int i = 0; i < 9; ++i) a.a[std::size_t(i)] = v[i];
  const auto prod = pb::ref::mul(a, pb::ref::inverse(a));
  bool id = true;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      id = id && near(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
  check(id, "Gauss-Jordan inverse: A A^-1 = I");

  pb::ref::Model m;
  m.f = pb::ref::Mat(2, 2);
  m.f(0, 0) = 1;
  m.f(0, 1) = 0.05;
  m.f(1, 1) = 0.98;
  m.q = pb::ref::Mat(2, 2);
  m.q(0, 0) = 0.01;
  m.q(1, 1) = 0.02;
  m.h = pb::ref::Mat(3, 2);
  m.h(0, 0) = 1;
  m.h(1, 1) = 1;
  m.h(2, 0) = 0.5;
  m.h(2, 1) = -0.3;
  m.r = a;
  m.p0 = pb::ref::Mat(2, 2);
  m.p0(0, 0) = 1;
  m.p0(1, 1) = 1;
  m.x0 = {0, 0};
  pb::ref::GainTrajectory g(m, 1);
  const auto p_pred =
      pb::ref::add(pb::ref::mul(pb::ref::mul(m.f, m.p0), pb::ref::transpose(m.f)), m.q);
  const auto ht = pb::ref::transpose(m.h);
  const auto s = pb::ref::add(pb::ref::mul(pb::ref::mul(m.h, p_pred), ht), m.r);
  const auto k = pb::ref::mul(pb::ref::mul(p_pred, ht), pb::ref::inverse(s));
  bool same = true;
  for (std::size_t i = 0; i < k.a.size(); ++i) same = same && near(k.a[i], g.gain(0).a[i], 1e-12);
  check(same, "information-form gain equals P'H^t (H P' H^t + R)^-1");
}

}  // namespace

int main() {
  percentile_rule();
  window_median();
  accounting();
  lateness();
  reference_closed_form();
  reference_direct_form();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
