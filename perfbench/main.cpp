// perfbench: the repository benchmark. Runs one workload through the
// public svc::VolumeManager API, checks its outputs, and prints the
// result as the last line of stdout:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the benchmark's spans as Chrome JSON to --trace-out).
// Exit code 0 when the output check passed, 1 when it failed or the run
// broke, 2 on bad arguments. README.md describes every metric.
//
// Usage: perfbench --workload rand_4k|seq_64k|migrate --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = val;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stoi(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return false;
        opt.trace = val == "1";
      } else if (key == "--trace-out") {
        opt.trace_out = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && opt.seconds >= 1 && opt.seconds <= 600 &&
         (opt.workload == "rand_4k" || opt.workload == "seq_64k" ||
          opt.workload == "migrate");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload rand_4k|seq_64k|migrate "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    c56::obs::TraceRecorder spans(1 << 16);
    perfbench::Outcome out = opt.workload == "migrate"
                                 ? perfbench::run_migrate(opt, spans)
                                 : perfbench::run_closed_loop(opt, spans);
    if (opt.trace && !opt.trace_out.empty()) {
      std::ofstream(opt.trace_out) << spans.to_json();
    }
    std::fprintf(stderr, "%s", out.metrics.text().c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": %s}\n",
        out.correct ? "true" : "false",
        static_cast<long long>(out.attempted),
        static_cast<long long>(out.failed), out.metrics.json().c_str());
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
