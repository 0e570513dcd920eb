// perfbench: one binary, two workloads (README.md). Prints progress to
// stderr and, as the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {"name": value, ...}}
// with every metric the workload measured. run.py picks the end-to-end or
// the per-layer set of BENCHMARK.json from it and attaches the units.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "perfbench/src/bench.h"

namespace perfbench {

void RunResult::Fail(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (q == 0.5) {
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

int64_t Tracer::Begin(const char* name, int64_t request) {
  int64_t parent = open_.empty() ? 0 : open_.back().id;
  int64_t id = next_id_++;
  open_.push_back(Span{id, parent, request, name, NanosBetween(epoch_, Clock::now()), 0, 0});
  return id;
}

void Tracer::End(int64_t id) {
  int64_t now = NanosBetween(epoch_, Clock::now());
  Span span = open_.back();
  open_.pop_back();
  if (span.id != id) std::abort();  // spans must nest
  span.end_ns = now;
  int64_t duration = span.end_ns - span.start_ns;
  Totals* found = nullptr;
  for (auto& [name, totals] : totals_) {
    if (name == span.name) found = &totals;
  }
  if (found == nullptr) found = &totals_.emplace_back(span.name, Totals{}).second;
  Totals& totals = *found;
  ++totals.calls;
  totals.self_ns += duration - span.child_ns;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (retained_.size() < kMaxRetained) retained_.push_back(span);
}

const Tracer::Totals& Tracer::totals(const std::string& name) const {
  static const Totals kEmpty;
  for (const auto& [span_name, totals] : totals_) {
    if (name == span_name) return totals;
  }
  return kEmpty;
}

double Tracer::MeanSelfNs(const std::string& name) const {
  const Totals& t = totals(name);
  return t.calls == 0 ? 0 : static_cast<double>(t.self_ns) / static_cast<double>(t.calls);
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const Span& span : retained_) {
    out << span.id << '\t' << span.parent << '\t' << span.request << '\t' << span.name << '\t'
        << span.start_ns << '\t' << span.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::string Respeller::Label(const std::string& label) {
  if (label == dnsv::kWildcardLabel) return label;
  auto it = renamed_.find(label);
  if (it != renamed_.end()) return it->second;
  std::string fresh;
  do {
    fresh = label;
    for (char& c : fresh) {
      if (c >= 'a' && c <= 'z') {
        c = static_cast<char>('a' + rng_.NextBelow(26));
      } else if (c >= '0' && c <= '9') {
        c = static_cast<char>('0' + rng_.NextBelow(10));
      }
    }
  } while (!used_.insert(fresh).second);
  renamed_.emplace(label, fresh);
  return fresh;
}

dnsv::DnsName Respeller::Name(dnsv::DnsName name) {
  if (!name.IsSubdomainOf(origin_)) return name;
  size_t own = name.labels.size() - origin_.labels.size();
  for (size_t i = 0; i < own; ++i) name.labels[i] = Label(name.labels[i]);
  return name;
}

size_t Zipf::Sample(dnsv::SplitMix64* rng) const {
  double u = UnitDouble(rng);
  size_t r = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

std::vector<int> AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  return cpus;
}

void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintResult(const RunResult& result) {
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + name + "\": " + JsonNumber(value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve-wide|verify-train\n"
               "          --seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       %s --selftest [--out-dir DIR]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

void RunResult::Set(const std::string& name, double value) { metrics[name] = value; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Clock::time_point process_start = Clock::now();
  AllowedCpus();  // record the starting affinity before any pinning

  // Hermetic runs: a caller's environment must not switch the verifier's
  // solver layering or bind an artifact store behind the benchmark's back.
  unsetenv("DNSV_STORE_DIR");
  unsetenv("DNSV_STORE_FORCE");
  unsetenv("DNSV_SOLVER_FORCE");

  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(Usage(argv[0]));
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return Usage(argv[0]);
    }
  }

  if (args.selftest) {
    int missed = RunServeSelfTest(args) + RunVerifySelfTest(args);
    std::fprintf(stderr, "selftest: %s\n",
                 missed == 0 ? "every check reported its planted fault" : "FAILED");
    return missed == 0 ? 0 : 1;
  }
  if (args.seconds <= 0) return Usage(argv[0]);

  RunResult result;
  if (args.workload == "serve-wide") {
    result = RunServeWide(args, process_start);
  } else if (args.workload == "verify-train") {
    result = RunVerifyTrain(args, process_start);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  PrintResult(result);
  return 0;
}
