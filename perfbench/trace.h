// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around the calls it makes into each
// layer; the program under test is not instrumented. Each track (one TPC-C
// session, the SQL session, the main thread) owns its own span vector and is
// written by one logical thread at a time, so recording takes no lock.
// Everything is written once, at exit, as Chrome trace-event JSON.
#ifndef TELL_PERFBENCH_TRACE_H_
#define TELL_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace tellbench {

/// Host nanoseconds since the first call (steady clock).
inline uint64_t HostNowNs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - kEpoch)
          .count());
}

struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the parent span in the same track, or -1 for a root.
  int64_t parent = -1;
  /// Shared by one session's transaction (or statement) and its children.
  uint64_t trace_id = 0;
};

struct Track {
  std::string label;
  std::vector<Span> spans;
};

/// Per-layer totals: span count, summed duration and summed self time
/// (duration minus the time covered by direct children).
struct LayerTime {
  uint64_t spans = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

class Tracer {
 public:
  /// Tracks are created up front, before any recording thread starts, so
  /// the track vector never reallocates under a writer.
  explicit Tracer(std::vector<std::string> labels) {
    tracks_.reserve(labels.size());
    for (std::string& label : labels) tracks_.push_back({std::move(label), {}});
  }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on `track` and returns its index; Close() sets its end.
  int64_t Open(size_t track, const char* name, const char* layer,
               int64_t parent = -1) {
    Span span;
    span.name = name;
    span.layer = layer;
    span.start_ns = HostNowNs();
    span.parent = parent;
    return Add(track, span);
  }

  void Close(size_t track, int64_t span) {
    tracks_[track].spans[static_cast<size_t>(span)].end_ns = HostNowNs();
  }

  /// Records a span and returns its index. A root span starts a new trace
  /// id (track and index); a child inherits its parent's.
  int64_t Add(size_t track, Span span) {
    std::vector<Span>& spans = tracks_[track].spans;
    span.trace_id = span.parent >= 0
                        ? spans[static_cast<size_t>(span.parent)].trace_id
                        : (static_cast<uint64_t>(track + 1) << 40) |
                              spans.size();
    spans.push_back(span);
    return static_cast<int64_t>(spans.size()) - 1;
  }

  std::map<std::string, LayerTime> LayerTimes() const {
    std::map<std::string, LayerTime> layers;
    for (const Track& track : tracks_) {
      std::vector<uint64_t> child_ns(track.spans.size(), 0);
      for (const Span& span : track.spans) {
        if (span.parent >= 0) {
          child_ns[static_cast<size_t>(span.parent)] += Duration(span);
        }
      }
      for (size_t i = 0; i < track.spans.size(); ++i) {
        const Span& span = track.spans[i];
        LayerTime& layer = layers[span.layer];
        const uint64_t dur = Duration(span);
        layer.spans += 1;
        layer.total_ns += dur;
        layer.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
      }
    }
    return layers;
  }

  /// Writes every span as Chrome trace-event JSON ("X" complete events, one
  /// thread row per track), which Perfetto and chrome://tracing open.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    for (size_t t = 0; t < tracks_.size(); ++t) {
      std::fprintf(f,
                   "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":"
                   "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                   first ? "" : ",\n", t, tracks_[t].label.c_str());
      first = false;
      const std::vector<Span>& spans = tracks_[t].spans;
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\","
                     "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"trace_id\":%llu,\"span_id\":%zu,\"parent_id\":%lld}}",
                     t, s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(Duration(s)) / 1e3,
                     static_cast<unsigned long long>(s.trace_id), i,
                     static_cast<long long>(s.parent));
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static uint64_t Duration(const Span& s) {
    return s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
  }

  std::vector<Track> tracks_;
};

}  // namespace tellbench

#endif  // TELL_PERFBENCH_TRACE_H_
