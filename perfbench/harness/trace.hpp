// Span recorder and JSON writer for the svabench harness.
//
// Spans are recorded from the harness around its calls into the
// program's public entry points (the program itself is not
// instrumented).  Each span carries its own id, its parent's id (0 at
// the root) and a request id shared by every span of one build, query or
// ingest.  Spans stay in memory until the run ends and are written out
// with the rest of the raw result; perfbench/run.py turns them into
// Chrome trace-event JSON and derives self times from them.
#pragma once

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace svabench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  double start_us = 0.0;  ///< relative to the tracer's epoch
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t req = 0;     ///< request id shared by one request's spans
  int tid = 0;              ///< recording thread's lane in the trace viewer
};

/// Thread-safe, append-only span store.  When disabled, every call is a
/// no-op that returns id 0, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Reserves an id for a span whose children are recorded before it ends.
  std::int64_t reserve() { return enabled_ ? next_id_.fetch_add(1) : 0; }

  /// Records a finished span; `id` 0 reserves a fresh one.  Returns the id.
  std::int64_t record(std::string name, Clock::time_point start, Clock::time_point end,
                      std::int64_t parent, std::int64_t req, int tid = 0,
                      std::int64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = reserve();
    Span s{std::move(name), us(start), us(end), id, parent, req, tid};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(s));
    return id;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span on the calling thread; children name it via id().
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::int64_t parent, std::int64_t req)
      : tracer_(tracer),
        name_(std::move(name)),
        parent_(parent),
        req_(req),
        id_(tracer.reserve()),
        start_(Clock::now()) {}
  ~Scope() {
    if (id_ != 0) tracer_.record(std::move(name_), start_, Clock::now(), parent_, req_, 0, id_);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::int64_t parent_;
  std::int64_t req_;
  std::int64_t id_;
  Clock::time_point start_;
};

/// Minimal streaming JSON object writer (the harness's raw output).
class Json {
 public:
  Json() { out_ << std::setprecision(17); }

  Json& begin(const char* key = nullptr) { return open(key, '{'); }
  Json& end() { return close('}'); }
  Json& begin_array(const char* key = nullptr) { return open(key, '['); }
  Json& end_array() { return close(']'); }

  Json& field(const char* key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      out_ << v;
    } else {
      out_ << "null";
    }
    return *this;
  }
  Json& field(const char* key, std::int64_t v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& field(const char* key, std::uint64_t v) {
    sep(key);
    out_ << v;
    return *this;
  }
  Json& field(const char* key, int v) { return field(key, static_cast<std::int64_t>(v)); }
  Json& field(const char* key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
    return *this;
  }
  Json& field(const char* key, const std::string& v) {
    sep(key);
    quote(v);
    return *this;
  }
  Json& field(const char* key, const char* v) { return field(key, std::string(v)); }

  template <typename T>
  Json& array(const char* key, const std::vector<T>& values) {
    begin_array(key);
    for (const T& v : values) field(nullptr, v);
    return end_array();
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  Json& open(const char* key, char c) {
    sep(key);
    out_ << c;
    first_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    first_ = false;
    return *this;
  }
  void sep(const char* key) {
    if (!first_) out_ << ',';
    first_ = false;
    if (key != nullptr) {
      quote(key);
      out_ << ':';
    }
  }
  void quote(const std::string& s) {
    out_ << '"';
    for (const char ch : s) {
      const auto c = static_cast<unsigned char>(ch);
      if (c == '"' || c == '\\') {
        out_ << '\\' << ch;
      } else if (c < 0x20) {
        out_ << "\\u" << std::hex << std::setw(4) << std::setfill('0') << int{c}
             << std::dec << std::setfill(' ');
      } else {
        out_ << ch;
      }
    }
    out_ << '"';
  }

  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace svabench
