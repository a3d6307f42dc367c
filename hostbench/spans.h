// In-memory span log of the traced run.
//
// The benchmark's own files open a span around each call into a layer of
// the library. A span has a name, a layer, a start and end on the steady
// clock, the span that was open when it began (its parent), and a request
// id: spans of one request share the request index, other spans carry -1.
// Spans are recorded per thread without locks (worker-thread callbacks of
// the parallel runner record too), kept in memory, and written out once at
// the end of the run.
#ifndef HOSTBENCH_SPANS_H_
#define HOSTBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

enum class Layer : std::uint8_t {
  kRound,  // the round itself: its self time is the unattributed remainder
  kSetup,
  kHarness,
  kLoadgen,
  kHdl,
  kSim,
  kChain,
  kCheck,
};
inline constexpr int kLayerCount = 8;
const char* LayerName(Layer layer);

class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  // Opens a span on the calling thread and returns its handle. A span opened
  // on a thread with no open span gets the adopted parent (see Adopt) or, if
  // none, no parent.
  std::uint64_t Begin(const char* name, Layer layer, std::int64_t id = -1);
  void End(std::uint64_t handle);

  // Spans that worker threads open while `handle` is open on this thread
  // become its children (the parallel runner's callbacks run inside Run()).
  void Adopt(std::uint64_t handle) { adopted_ = handle; }
  void Unadopt() { adopted_ = kNone; }

  // Drops every span (start of a new round). Not thread-safe.
  void Clear();

  // Sum of the durations of the spans called `name`.
  double TotalNs(const std::string& name) const;

  // Wall time of every layer's self time over the root span (the first span
  // opened). Each instant of the root is split equally among the innermost
  // spans open at that instant, so the values add up to the root's duration;
  // on one thread this is the usual duration minus child coverage.
  std::map<std::string, double> SelfSeconds() const;
  double RootSeconds() const;

  // Chrome trace_event JSON (opens in Perfetto / chrome://tracing).
  bool WriteChromeJson(const std::string& path) const;

  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

 private:
  struct Span {
    const char* name;
    Layer layer;
    std::int64_t id;
    std::uint64_t parent;  // handle, or kNone
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::uint32_t> open;  // indices of this thread's open spans
  };
  // A handle packs the thread slot (high 16 bits) and span index.
  static std::uint64_t Handle(std::uint64_t thread, std::uint64_t index) {
    return (thread << 48) | index;
  }
  ThreadLog& Local();
  const Span& At(std::uint64_t handle) const {
    return threads_[handle >> 48]->spans[handle & ((std::uint64_t{1} << 48) - 1)];
  }

  std::uint64_t generation_ = NextGeneration();
  static std::uint64_t NextGeneration();
  // Fixed slots, so a worker registering its log never moves another
  // thread's; each slot is written once, by its own thread, under mu_.
  static constexpr std::size_t kMaxThreads = 64;
  std::mutex mu_;
  std::unique_ptr<ThreadLog> threads_[kMaxThreads];
  std::size_t thread_count_ = 0;  // guarded by mu_ while spans are recorded
  std::uint64_t adopted_ = kNone;
};

// Opens a span on construction and closes it on End() or destruction; a
// no-op when `log` is null (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, Layer layer, std::int64_t id = -1)
      : log_(log), handle_(log != nullptr ? log->Begin(name, layer, id) : 0) {}
  ~Scope() { End(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void End() {
    if (log_ != nullptr) {
      log_->End(handle_);
      log_ = nullptr;
    }
  }
  std::uint64_t handle() const { return handle_; }

 private:
  SpanLog* log_;
  std::uint64_t handle_;
};

}  // namespace hostbench

#endif  // HOSTBENCH_SPANS_H_
