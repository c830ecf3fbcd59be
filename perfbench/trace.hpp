// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// layer's public functions.  Each span has a name, a layer, start and end,
// the span that was open on the same thread when it began (its parent), and
// the round it belongs to, so spans of one round share an id.  Nothing is
// written until the run ends; then the spans go out as Chrome-trace JSON and
// are folded into per-layer self time and counts.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the recorder's spans, -1 = root
  std::int64_t round = -1;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_).count();
  }

  // RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer,
          std::int64_t round = -1)
        : t_(t.on_ ? &t : nullptr) {
      if (t_) index_ = t_->open(name, layer, round);
    }
    ~Scope() {
      if (t_) t_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int64_t index_ = -1;
  };

  struct LayerTotals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  // Self time per span name: its duration minus the part its child spans
  // cover (children nest on one thread, so they do not overlap).
  std::map<std::string, LayerTotals> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0) child_ns[std::size_t(s.parent)] += double(s.end_ns - s.start_ns);
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      LayerTotals& t = out[std::string(s.layer) + "/" + s.name];
      ++t.count;
      t.total_ns += double(s.end_ns - s.start_ns);
      t.self_ns += double(s.end_ns - s.start_ns) - child_ns[i];
    }
    return out;
  }

  bool write_chrome_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld,\"round\":%lld}}",
                   i ? "," : "", s.name, s.layer, s.thread,
                   double(s.start_ns) / 1e3, double(s.end_ns - s.start_ns) / 1e3,
                   i, (long long)s.parent, (long long)s.round);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  struct ThreadStack {
    std::uint32_t id = 0;
    std::vector<std::int64_t> open;
  };
  static ThreadStack& stack() {
    static thread_local ThreadStack s;
    return s;
  }

  std::int64_t open(const char* name, const char* layer, std::int64_t round) {
    ThreadStack& st = stack();
    SpanRecord rec;
    rec.name = name;
    rec.layer = layer;
    rec.start_ns = now_ns();
    rec.parent = st.open.empty() ? -1 : st.open.back();
    std::lock_guard<std::mutex> lock(mu_);
    if (st.id == 0) st.id = ++threads_;
    rec.thread = st.id;
    rec.round = round >= 0 || rec.parent < 0 ? round
                                             : spans_[std::size_t(rec.parent)].round;
    spans_.push_back(rec);
    const auto index = std::int64_t(spans_.size() - 1);
    st.open.push_back(index);
    return index;
  }

  void close(std::int64_t index) {
    const std::int64_t end = now_ns();
    stack().open.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[std::size_t(index)].end_ns = end;
  }

  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint32_t threads_ = 0;
};

}  // namespace perfbench
