#include "hostbench/spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hostbench {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct ThreadSlot {
  std::uint64_t generation = 0;
  std::uint64_t slot = 0;
};
thread_local ThreadSlot tls_slot;

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "unattributed", "setup", "harness", "loadgen", "hdl", "sim", "chain", "check"};
  return kNames[static_cast<int>(layer)];
}

std::uint64_t SpanLog::NextGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

SpanLog::ThreadLog& SpanLog::Local() {
  if (tls_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_count_ == kMaxThreads) {
      std::fprintf(stderr, "hostbench: more than %zu threads recorded spans\n", kMaxThreads);
      std::abort();
    }
    threads_[thread_count_] = std::make_unique<ThreadLog>();
    threads_[thread_count_]->spans.reserve(1u << 12);
    tls_slot.generation = generation_;
    tls_slot.slot = thread_count_++;
  }
  return *threads_[tls_slot.slot];
}

std::uint64_t SpanLog::Begin(const char* name, Layer layer, std::int64_t id) {
  ThreadLog& log = Local();
  const std::uint64_t parent =
      log.open.empty() ? adopted_ : Handle(tls_slot.slot, log.open.back());
  const std::uint32_t index = static_cast<std::uint32_t>(log.spans.size());
  log.spans.push_back(Span{name, layer, id, parent, NowNs(), 0});
  log.open.push_back(index);
  return Handle(tls_slot.slot, index);
}

void SpanLog::End(std::uint64_t handle) {
  const std::uint64_t now = NowNs();
  ThreadLog& log = *threads_[handle >> 48];
  const std::uint32_t index = static_cast<std::uint32_t>(handle & ((std::uint64_t{1} << 48) - 1));
  log.spans[index].end_ns = now;
  // Spans close innermost-first on each thread.
  if (!log.open.empty() && log.open.back() == index) {
    log.open.pop_back();
  }
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < thread_count_; ++i) {
    threads_[i].reset();
  }
  thread_count_ = 0;
  adopted_ = kNone;
  generation_ = NextGeneration();
}

double SpanLog::TotalNs(const std::string& name) const {
  double total = 0;
  for (std::size_t t = 0; t < thread_count_; ++t) {
    const auto& log = threads_[t];
    for (const Span& s : log->spans) {
      if (name == s.name) {
        total += static_cast<double>(s.end_ns - s.begin_ns);
      }
    }
  }
  return total;
}

double SpanLog::RootSeconds() const {
  if (thread_count_ == 0 || threads_[0]->spans.empty()) {
    return 0;
  }
  const Span& root = threads_[0]->spans[0];
  return static_cast<double>(root.end_ns - root.begin_ns) * 1e-9;
}

std::map<std::string, double> SpanLog::SelfSeconds() const {
  std::map<std::string, double> self;
  for (int l = 0; l < kLayerCount; ++l) {
    self[LayerName(static_cast<Layer>(l))] = 0;
  }
  if (thread_count_ == 0 || threads_[0]->spans.empty()) {
    return self;
  }
  const Span& root = threads_[0]->spans[0];

  // Sweep over span boundaries, keeping the set of open spans that have no
  // open child (the leaves); each interval between boundaries is split
  // equally among the leaves. Spans outside the root are clipped to it.
  struct Edge {
    std::uint64_t t;
    bool open;
    std::uint64_t handle;
  };
  std::vector<Edge> edges;
  for (std::uint64_t th = 0; th < thread_count_; ++th) {
    const auto& spans = threads_[th]->spans;
    for (std::uint64_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t b = std::clamp(spans[i].begin_ns, root.begin_ns, root.end_ns);
      const std::uint64_t e = std::clamp(spans[i].end_ns, b, root.end_ns);
      edges.push_back({b, true, Handle(th, i)});
      edges.push_back({e, false, Handle(th, i)});
    }
  }
  // Closes before opens at equal times; the root opens first and closes last.
  std::stable_sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : (!a.open && b.open);
  });
  std::map<std::uint64_t, int> open_children;
  std::vector<std::uint64_t> leaves;
  std::map<std::uint64_t, bool> is_open;
  std::vector<double> layer_ns(kLayerCount, 0.0);
  std::uint64_t prev = root.begin_ns;
  for (const Edge& edge : edges) {
    if (!leaves.empty() && edge.t > prev) {
      const double share = static_cast<double>(edge.t - prev) / static_cast<double>(leaves.size());
      for (std::uint64_t leaf : leaves) {
        layer_ns[static_cast<int>(At(leaf).layer)] += share;
      }
    }
    prev = std::max(prev, edge.t);
    const std::uint64_t parent = At(edge.handle).parent;
    const bool parent_open = parent != kNone && is_open[parent];
    if (edge.open) {
      is_open[edge.handle] = true;
      if (parent_open && open_children[parent]++ == 0) {
        leaves.erase(std::find(leaves.begin(), leaves.end(), parent));
      }
      leaves.push_back(edge.handle);
    } else {
      is_open[edge.handle] = false;
      const auto it = std::find(leaves.begin(), leaves.end(), edge.handle);
      if (it != leaves.end()) {
        leaves.erase(it);
      }
      if (parent_open && --open_children[parent] == 0) {
        leaves.push_back(parent);
      }
    }
  }
  for (int l = 0; l < kLayerCount; ++l) {
    self[LayerName(static_cast<Layer>(l))] = layer_ns[l] * 1e-9;
  }
  return self;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::uint64_t base =
      thread_count_ == 0 || threads_[0]->spans.empty() ? 0 : threads_[0]->spans[0].begin_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (std::uint64_t th = 0; th < thread_count_; ++th) {
    const auto& spans = threads_[th]->spans;
    for (std::uint64_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%llu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"span\":%llu,\"parent\":%lld}}",
                   first ? "" : ",\n", s.name, LayerName(s.layer),
                   static_cast<unsigned long long>(th),
                   static_cast<double>(s.begin_ns - base) * 1e-3,
                   static_cast<double>(s.end_ns - s.begin_ns) * 1e-3,
                   static_cast<long long>(s.id), static_cast<unsigned long long>(Handle(th, i)),
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace hostbench
