// Clocks, allocation counting and the in-memory span tracer.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bench.hpp"

namespace wsrbench {

namespace {

std::atomic<std::uint64_t> g_allocs{0};

/// Taken before any other static initializer of the binary runs, so
/// setup_s covers the library's own static set-up (the algorithm
/// registry) too.
struct ProcessStart {
  double t = now_s();
};
__attribute__((init_priority(101))) ProcessStart g_process_start;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double since_process_start_s() { return now_s() - g_process_start.t; }

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace trace {

namespace {

bool g_enabled = false;
std::vector<SpanRec> g_spans;
std::int32_t g_open = -1;  ///< innermost open span

std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

void enable(bool on) {
  g_enabled = on;
  if (on) g_spans.reserve(1 << 16);
}
bool enabled() { return g_enabled; }
std::uint64_t allocations() {
  return g_allocs.load(std::memory_order_relaxed);
}
std::size_t mark() { return g_spans.size(); }

Span::Span(const char* name, std::int64_t op) {
  if (!g_enabled) return;
  SpanRec r;
  r.name = name;
  r.op = op;
  r.parent = g_open;
  index_ = static_cast<std::int32_t>(g_spans.size());
  g_spans.push_back(r);
  g_open = index_;
  // Stamp last, so the span's own bookkeeping is outside it.
  g_spans[index_].allocs0 = allocations();
  g_spans[index_].t0 = now_s();
}

Span::~Span() {
  if (index_ < 0) return;
  const double t1 = now_s();
  SpanRec& r = g_spans[index_];
  r.t1 = t1;
  r.allocs1 = allocations();
  g_open = r.parent;
  if (r.parent >= 0) {
    SpanRec& p = g_spans[r.parent];
    p.child_s += r.t1 - r.t0;
    p.child_allocs += r.allocs1 - r.allocs0;
  }
}

LayerTotals totals(std::size_t begin, std::size_t end) {
  LayerTotals out;
  for (std::size_t i = begin; i < end && i < g_spans.size(); ++i) {
    const SpanRec& r = g_spans[i];
    const double self = (r.t1 - r.t0) - r.child_s;
    out.allocs[layer_of(r.name)] +=
        static_cast<double>(r.allocs1 - r.allocs0 - r.child_allocs);
    out.by_name_s[r.name] += self;
  }
  return out;
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double base = g_spans.empty() ? 0 : g_spans.front().t0;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRec& r = g_spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"span\":%zu,\"parent\":%d,\"allocs\":%llu}}\n",
                 i == 0 ? "" : ",", r.name, layer_of(r.name).c_str(),
                 (r.t0 - base) * 1e6, (r.t1 - r.t0) * 1e6,
                 static_cast<long long>(r.op), i, r.parent,
                 static_cast<unsigned long long>(r.allocs1 - r.allocs0));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace trace
}  // namespace wsrbench

// --- allocation counting -------------------------------------------------------
// Every allocation of the process (library and benchmark alike) goes through
// these; the count is what trace::Span charges to the innermost open span.

void* operator new(std::size_t n) {
  wsrbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  wsrbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
