// Shared pieces of the benchmark binary: options, the result record that
// becomes the final JSON line, clocks, order statistics and the span tracer
// used by traced runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Activities in the catalog, and so classes of the network.
inline constexpr int kNumClasses = 12;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Fault injected into the benchmark's view of the program's output, used
  // by the self-test to prove each check can fail: "flip-label",
  // "drop-report", "drop-prediction" or empty.
  std::string inject;
  // Checkpoint of the served network (perfbench/served_model.bin).
  std::string model_path;
  // Where a traced run writes its spans.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run reports. `check` records a failed correctness check;
// any failure makes the run exit non-zero.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(const std::string& name, double value, const std::string& unit);
  void check(bool ok, const std::string& what);
  bool correct() const { return failures.empty(); }
  // The final stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string to_json() const;
};

// Monotonic wall clock in seconds / nanoseconds (steady_clock).
double now_s();
std::uint64_t now_ns();
// CPU time of the whole process and of the calling thread, in seconds.
double process_cpu_s();
double thread_cpu_s();
// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();
// Threads the process currently has (/proc/self/task).
int process_threads();
int host_cores();

double median(std::vector<double> v);
// Quantile by linear interpolation between order statistics, q in [0, 1].
double quantile(std::vector<double> v, double q);

// 64-bit FNV-1a over raw bytes; chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

// In-memory span recorder for traced runs. Spans are opened and closed on
// one thread (the benchmark's main thread); nesting follows open order.
// Disabled, open() returns -1 and records nothing.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  int open(const char* name, std::uint64_t request);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Summed duration and count of spans named exactly `name`.
  double total_ns(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  // Span duration minus the part its direct children cover.
  double self_ns(std::size_t index) const;
  // Summed self time of every span below `root` whose name starts with one
  // of the layer prefixes ("proto.", "serve.", ...).
  double layer_self_ns_under(int root) const;
  // Writes the spans as a JSON array: name, start, end, parent, request.
  void write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  mutable std::vector<double> child_ns_;  // filled lazily by self_ns
  void fill_child_ns() const;
};

Tracer& tracer();

// RAII span on the process tracer.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0)
      : index_(tracer().open(name, request)) {}
  ~Scope() { tracer().close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

}  // namespace perfbench
