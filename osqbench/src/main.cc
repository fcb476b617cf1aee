// osqbench — the end-to-end benchmark program.
//
//   osqbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                --data-dir <dir>
//   osqbench prepare --out <snapshot path>     (xdomain-read's snapshot)
//   osqbench selftest                          (the checker's own test)
//
// `run` prints a table of its metrics, then, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}.  osqbench/run.py
// builds this program and drives it; see osqbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

const char* ArgValue(int argc, char** argv, const char* flag) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: osqbench run --workload W --seed N --seconds S "
               "--trace 0|1 --data-dir D\n"
               "       osqbench prepare --out PATH\n"
               "       osqbench selftest\n");
  return 2;
}

// JSON has no NaN or infinity; a metric that is not finite is a bug in
// the benchmark, reported as a failed check.
bool Finite(double v) { return v == v && v - v == 0; }

}  // namespace

int main(int argc, char** argv) {
  const osqbench::Clock::time_point process_start = osqbench::Clock::now();
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "selftest") return osqbench::RunSelfTest();
  if (cmd == "prepare") {
    const char* out = ArgValue(argc, argv, "--out");
    return out == nullptr ? Usage() : osqbench::PrepareXdomain(out);
  }
  if (cmd != "run") return Usage();

  osqbench::RunArgs args;
  args.process_start = process_start;
  const char* workload = ArgValue(argc, argv, "--workload");
  const char* seed = ArgValue(argc, argv, "--seed");
  const char* seconds = ArgValue(argc, argv, "--seconds");
  const char* trace = ArgValue(argc, argv, "--trace");
  const char* data_dir = ArgValue(argc, argv, "--data-dir");
  if (workload == nullptr || seed == nullptr || seconds == nullptr ||
      trace == nullptr || data_dir == nullptr) {
    return Usage();
  }
  args.workload = workload;
  args.seed = std::strtoull(seed, nullptr, 10);
  args.seconds = std::strtod(seconds, nullptr);
  args.trace = std::strcmp(trace, "1") == 0;
  args.data_dir = data_dir;
  if (args.seconds <= 0) return Usage();

  osqbench::Report report;
  if (args.workload == "xdomain-read" || args.workload == "flickr-verify") {
    report = osqbench::RunSingleEngine(args);
  } else if (args.workload == "community-churn") {
    report = osqbench::RunCommunityChurn(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload);
    return 2;
  }

  for (const osqbench::Report::Metric& m : report.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!Finite(m.value)) report.Fail("metric " + m.name + " is not finite");
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const osqbench::Report::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                Finite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
