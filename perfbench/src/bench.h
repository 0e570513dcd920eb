// Shared pieces of the perfbench binary: the command line, the result record
// printed as the run's last line, the span tracer, a Zipf sampler, the label
// respeller that turns a seed into inputs of a fixed shape, and process-level
// probes (CPU affinity, RSS, CPU time).
//
// Everything here is the benchmark's own code. It times calls into the
// program's public functions from the outside; nothing in src/ is modified
// or instrumented.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/dns/name.h"
#include "src/support/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = ".bench_build";  // spans and the temporary store go here
};

// What a workload hands back to main(): the operation counts, the verdict of
// its correctness checks, and every metric it measured. main() prints them
// all; run.py checks the names against BENCHMARK.json.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  // first few check failures, for stderr
  std::map<std::string, double> metrics;

  // `name` must be one of the metrics of BENCHMARK.json; run.py refuses a
  // result with any other name.
  void Set(const std::string& name, double value);
  void Fail(const std::string& what);
};

// Median / nearest-rank percentile of a small sample (q in [0, 1]).
double Percentile(std::vector<double> values, double q);

// Span tracer (choosing-metrics §4): a span has a name, start, end, the span
// that caused it and the request it belongs to. Spans are kept in memory (up
// to a cap, then only counted) and written as TSV when the run ends. Self
// time per name is aggregated as spans close: duration minus the time of
// the direct children.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span; returns its id (0 when tracing is off).
  int64_t Begin(const char* name, int64_t request);
  void End(int64_t id);

  struct Totals {
    int64_t calls = 0;
    int64_t self_ns = 0;
  };
  const Totals& totals(const std::string& name) const;
  double MeanSelfNs(const std::string& name) const;

  // Writes the retained spans to `path` (TSV: id parent request name start
  // end, nanoseconds since the tracer's epoch). Returns false on I/O error.
  bool Write(const std::string& path) const;
  int64_t spans_recorded() const { return next_id_ - 1; }

 private:
  struct Span {
    int64_t id;
    int64_t parent;
    int64_t request;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;
  };
  static constexpr size_t kMaxRetained = 1 << 16;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  int64_t next_id_ = 1;
  std::vector<Span> open_;      // stack of open spans
  std::vector<Span> retained_;  // closed spans, up to kMaxRetained
  // Keyed by the name literal's address: a handful of names, looked up on
  // every span end, so a linear scan beats hashing a string.
  std::vector<std::pair<const char*, Totals>> totals_;
};

// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = 0)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

// Zipf(s) over ranks [0, n): rank r is drawn with probability ∝ 1/(r+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(dnsv::SplitMix64* rng) const;

 private:
  std::vector<double> cdf_;
};

// A seeded one-to-one renaming of the labels below a zone's origin. A label
// keeps its length and its pattern of letters and digits, so a respelled
// input keeps its shape (names, depths, wire sizes) and only its spelling
// changes. Equal labels stay equal and distinct labels stay distinct; the
// wildcard label and names outside the origin are kept as they are.
// README.md §inputs says why the workloads' shapes are fixed.
class Respeller {
 public:
  Respeller(dnsv::DnsName origin, uint64_t seed) : origin_(std::move(origin)), rng_(seed) {}
  std::string Label(const std::string& label);
  dnsv::DnsName Name(dnsv::DnsName name);

 private:
  dnsv::DnsName origin_;
  dnsv::SplitMix64 rng_;
  std::map<std::string, std::string> renamed_;
  std::set<std::string> used_;
};

// Uniform double in [0, 1).
inline double UnitDouble(dnsv::SplitMix64* rng) {
  return static_cast<double>(rng->Next() >> 11) * (1.0 / 9007199254740992.0);
}

// The CPUs the process may run on when it starts (sched_getaffinity).
std::vector<int> AllowedCpus();
// Restricts the calling thread, and the threads it creates afterwards, to
// `cpus`. Used to rotate the measured work over every allowed CPU
// (README.md §estimators); a failure leaves the affinity as it was.
void PinCurrentThread(const std::vector<int>& cpus);

// High-water resident set of this process, in MiB.
double PeakRssMb();
// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();

// Workload entry points.
RunResult RunServeWide(const Args& args, Clock::time_point process_start);
RunResult RunVerifyTrain(const Args& args, Clock::time_point process_start);

// Self-test: each correctness check must report failures on known-bad input.
// Returns the number of checks that failed to detect their planted fault.
int RunServeSelfTest(const Args& args);
int RunVerifySelfTest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
