// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code, around each call into one of the program's layers;
// they are kept in memory and written out once the run ends.
#ifndef DBLSH_PERFBENCH_TRACE_H_
#define DBLSH_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;  // layer boundary, e.g. "collection.search"
  uint64_t op;       // operation id shared by the spans of one request
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;    // index of the enclosing span, -1 at the top
  double Us() const { return 1e-3 * static_cast<double>(end_ns - start_ns); }
};

class Tracer {
 public:
  // Reserving up front keeps reallocation out of the timed spans.
  explicit Tracer(bool enabled, size_t reserve = size_t{1} << 16)
      : enabled_(enabled) {
    if (enabled_) spans_.reserve(reserve);
  }
  bool enabled() const { return enabled_; }

  // Opens a span; returns its index (-1 when tracing is off).
  int32_t Begin(const char* name, uint64_t op, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, op, NowNs(), 0, parent});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Moves in the spans another tracer (e.g. a client thread's) recorded.
  void Append(const Tracer& other) {
    const auto offset = static_cast<int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(s);
    }
  }

  // Durations in microseconds of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.Us());
    }
    return out;
  }

  // Per operation: total microseconds of spans named `name`.
  std::map<uint64_t, double> PerOp(const std::string& name) const {
    std::map<uint64_t, double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out[s.op] += s.Us();
    }
    return out;
  }

  // Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"op\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d}\n",
                   s.name, static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, uint64_t op, int32_t parent = -1)
      : tracer_(tracer), index_(tracer->Begin(name, op, parent)) {}
  ~Scoped() { tracer_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // DBLSH_PERFBENCH_TRACE_H_
