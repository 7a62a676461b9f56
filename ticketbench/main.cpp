// ticketbench: the Heimdall ticket benchmark.
//
//   ticketbench --workload univ_acl_serial --seed 1 --seconds 30 --trace 0
//
// Runs epochs of the named workload (see workloads.hpp) until `--seconds` of
// ticket time are measured, then prints one line per metric ("name value
// unit"), a metadata line and, last, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced epochs and reports the per-layer table,
// writing the folded spans and the first traced epoch's raw spans (Chrome
// trace_event JSON) under --artifacts. Every run also writes its raw
// per-epoch and per-ticket times there.
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "util/json.hpp"

#ifndef TICKETBENCH_BUILD_TYPE
#define TICKETBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ticketbench;
using heimdall::util::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string artifacts;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ticketbench: " << why << "\n"
            << "usage: ticketbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                   [--artifacts DIR] [--revision REV]\n"
               "workloads:";
  for (const WorkloadSpec& workload : workloads()) std::cerr << ' ' << workload.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = value == "1";
      else if (flag == "--artifacts") args.artifacts = value;
      else if (flag == "--revision") args.revision = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

/// Shortest text that reads back as the same double.
std::string number(double value) {
  char buffer[32];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc() ? std::string(buffer, end) : "0";
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  try {
    const WorkloadSpec& workload = find_workload(args.workload);
    Harness harness(workload, args.seed);
    prepare_tracer();

    std::vector<EpochResult> epochs;
    double measured_s = 0;
    auto run_start = std::chrono::steady_clock::now();
    for (std::size_t epoch = 0;; ++epoch) {
      bool traced = args.trace && epoch % 2 == 1;
      double started_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start).count();
      epochs.push_back(harness.run_epoch(epoch, traced));
      epochs.back().started_s = started_s;
      measured_s += epochs.back().wall_s;
      bool enough = timed_tickets(epochs, false) >= 2 * kReportedTickets &&
                    (!args.trace || timed_tickets(epochs, true) >= kReportedTickets);
      if (measured_s >= args.seconds && enough) break;
    }

    std::vector<std::string> failures;
    for (const EpochResult& epoch : epochs) {
      failures.insert(failures.end(), epoch.failures.begin(), epoch.failures.end());
      for (const TicketRecord& ticket : epoch.tickets)
        if (!ticket.failure.empty())
          failures.push_back("ticket " + std::to_string(ticket.index + 1) + " (" +
                             to_string(ticket.kind) + "): " + ticket.failure);
    }
    std::vector<Metric> metrics =
        args.trace ? per_layer_metrics(epochs) : end_to_end_metrics(epochs);
    if (args.trace) {
      // The traced run's attribution contract: phases cover the ticket and
      // no span was evicted.
      for (const Metric& metric : metrics) {
        if (metric.name == "service.phase_coverage" && metric.value < 0.95)
          failures.push_back("service.phase_coverage " + number(metric.value) + " < 0.95");
        if (metric.name == "obs.trace_dropped" && metric.value != 0)
          failures.push_back("obs.trace_dropped " + number(metric.value) + " != 0");
      }
    }
    std::size_t attempted = attempted_tickets(epochs);
    std::size_t failed = failed_tickets(epochs);
    bool correct = failures.empty();

    const std::string build_type = TICKETBENCH_BUILD_TYPE;
    unsigned nproc = std::thread::hardware_concurrency();
    Json meta;
    meta.set("workload", Json(workload.name));
    meta.set("seed", Json(std::to_string(args.seed)));
    meta.set("seconds", Json(args.seconds));
    meta.set("trace", Json(args.trace));
    meta.set("nproc", Json(static_cast<double>(nproc)));
    meta.set("technicians", Json(workload.technicians));
    meta.set("oversubscribed", Json(workload.technicians + 1 > nproc));
    meta.set("build_type", Json(build_type));
    meta.set("release_build", Json(build_type == "Release"));
    meta.set("revision", Json(args.revision));
    meta.set("representation", Json(harness.representation()));
    meta.set("epochs", Json(epochs.size()));
    meta.set("measured_s", Json(measured_s));

    for (const std::string& failure : failures) std::cerr << "FAIL " << failure << '\n';
    if (build_type != "Release")
      std::cout << "WARNING: " << build_type << " build; timings are not comparable\n";
    for (const Metric& metric : metrics)
      std::cout << workload.name << ' ' << metric.name << ' ' << number(metric.value) << ' '
                << metric.unit << '\n';
    std::cout << "meta " << meta.dump() << '\n';

    if (!args.artifacts.empty()) {
      std::filesystem::path dir = std::filesystem::path(args.artifacts) /
                                  (workload.name + "-seed" + std::to_string(args.seed) +
                                   (args.trace ? "-traced" : ""));
      std::filesystem::create_directories(dir);
      Json result;
      result.set("meta", meta);
      Json values;
      for (const Metric& metric : metrics) values.set(metric.name, Json(metric.value));
      result.set("metrics", std::move(values));
      Json failure_list{heimdall::util::JsonArray{}};
      for (const std::string& failure : failures) failure_list.push_back(Json(failure));
      result.set("failures", std::move(failure_list));
      write_file(dir / "result.json", result.dump(2) + "\n");
      write_file(dir / "epochs.tsv", epoch_table(epochs));
      write_file(dir / "tickets.tsv", ticket_table(epochs));
      if (args.trace) {
        write_file(dir / "folded.tsv",
                   folded_table(fold_traced(epochs), timed_tickets(epochs, true)));
        for (const EpochResult& epoch : epochs) {
          if (!epoch.traced) continue;
          write_file(dir / "spans.json", epoch.chrome_trace + "\n");
          break;
        }
      }
    }
    std::cout << result_line(correct, attempted, failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "ticketbench: " << error.what() << '\n';
    return 1;
  }
}
