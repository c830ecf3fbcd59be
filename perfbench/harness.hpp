// Statistics and accounting helpers of the decode-service benchmark.
//
// Everything here is pure (no program code, no clocks) so the self-test can
// check it on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Samples that lie strictly beyond the q-quantile of n samples under the
// nearest-rank rule.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank = std::size_t(std::ceil(q * double(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

// A tail percentile is reported only when at least ten samples lie beyond
// it; with fewer, it would be no tail at all.
inline constexpr std::size_t kMinBeyond = 10;
inline bool tail_supported(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

// Nearest-rank percentile of unsorted samples (copied, not reordered).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Throughput as the median over fixed-length windows.  `counts[i]` is the
// cumulative number of completed units read at `times[i]` (seconds); each
// consecutive pair is one window.  A window that ends at or after the
// moment the total was reached is partial and left out, and so is any
// window in which nothing completed yet (work had not reached the server).
// `windows` is how many windows the median is over; a backlog too short
// for one whole window falls back to count / time with `windows` = 0.
struct WindowRate {
  double rate = 0.0;
  std::size_t windows = 0;
};
inline WindowRate window_median_rate(const std::vector<double>& times,
                                     const std::vector<std::uint64_t>& counts,
                                     std::uint64_t total) {
  std::vector<double> rates;
  for (std::size_t i = 1; i < times.size() && i < counts.size(); ++i) {
    if (counts[i] >= total) break;
    const double dt = times[i] - times[i - 1];
    if (dt <= 0.0 || counts[i] == counts[i - 1]) continue;
    rates.push_back(double(counts[i] - counts[i - 1]) / dt);
  }
  if (rates.empty() && times.size() > 1 && times.back() > 0.0)
    return {double(counts.back()) / times.back(), 0};  // too short to window
  return {median(rates), rates.size()};
}

// Open-loop generator lateness: how long after its due time each bin was
// actually handed to the program (never negative: an early send counts 0).
inline std::vector<double> lateness(const std::vector<double>& due,
                                    const std::vector<double>& sent) {
  std::vector<double> out(std::min(due.size(), sent.size()));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = std::max(0.0, sent[i] - due[i]);
  return out;
}

// Bin accounting of one run.  Every attempted bin is either succeeded
// (decoded once, in order, and readable) or failed (refused, lost, or
// decoded but unreadable).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;
  std::uint64_t over_deadline = 0;  // succeeded bins later than 50 ms
  bool closed() const { return attempted == succeeded + failed; }
};

// One latency sample per round among the bins seen completing in one poll:
// bins of one round seen together share their due time and their seen time,
// so they are one observation, not many.  `rounds` is consumed.
inline void add_poll_samples(std::vector<double>& samples,
                             std::vector<std::size_t>& rounds,
                             const std::vector<double>& due_s, double seen_s) {
  std::sort(rounds.begin(), rounds.end());
  rounds.erase(std::unique(rounds.begin(), rounds.end()), rounds.end());
  for (std::size_t r : rounds) samples.push_back(seen_s - due_s[r]);
  rounds.clear();
}

}  // namespace perfbench
