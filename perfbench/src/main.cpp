// bgpsim_perfbench: runs one benchmark workload and prints its report as
// one JSON object on the last line of stdout.
//
//   bgpsim_perfbench --workload headline|fulltable|campaign --seed N
//                    --seconds S --trace 0|1 [--pinned FILE] [--emit-prints]
//
// perfbench/run.py builds this binary and wraps its report in the
// benchmark's result format; see perfbench/README.md.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "fingerprint.hpp"
#include "workloads.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string host_name() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bgpsim_perfbench: %s\nusage: bgpsim_perfbench --workload "
               "headline|fulltable|campaign --seed N --seconds S --trace 0|1 "
               "[--pinned FILE] [--emit-prints]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--emit-prints") {
        args.emit_prints = true;
        continue;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--pinned") {
        args.pinned = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (args.workload.empty()) return usage("--workload is required");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bgpsim_perfbench: %s\n", e.what());
    return 1;
  }

  std::string out = "{\"workload\": " + quoted(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(report.attempted) +
                    ", \"failed\": " + std::to_string(report.failed) +
                    ", \"pinned_checked\": " +
                    std::to_string(report.pinned_checked) + ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ", " : "") + quoted(report.errors[i]);
  }
  out += "], \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}, \"meta\": {\"host\": " + quoted(host_name()) +
         ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : report.meta) {
    out += ", " + quoted(key) + ": " + value;
  }
  out += "}, \"prints\": [";
  for (std::size_t i = 0; i < report.prints.size(); ++i) {
    const perfbench::Print& p = report.prints[i];
    out += (i ? ", " : "") + quoted(p.variant + " " +
                                    std::to_string(p.trial_seed) + " " +
                                    perfbench::hex(p.value));
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
