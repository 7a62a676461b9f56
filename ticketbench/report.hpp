// Metrics of the Heimdall ticket benchmark, computed from finished epochs.
//
// End-to-end metrics come from untraced epochs only. Per-layer metrics come
// from traced epochs: spans the program emits are folded by name, harness
// spans split each ticket into open/script/verdict/close, and counter deltas
// are normalized per ticket, per submission or per batch. README.md lists
// which end-to-end metric each per-layer metric should move.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace ticketbench {

/// Tickets the end-to-end figures are computed over: at least ten lie
/// beyond their p95. A run times twice as many untraced tickets, because
/// only half of its epochs count (see end_to_end_metrics).
inline constexpr std::size_t kReportedTickets = 200;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ticket latency, throughput and phase medians over the pooled tickets of
/// the untraced epochs the hypervisor stole least from (the half, rounded
/// up), with each epoch's stolen share taken out of its times; median
/// set-up time over every untraced epoch; the process's peak resident set.
std::vector<Metric> end_to_end_metrics(const std::vector<EpochResult>& epochs);

/// The per-layer table over the traced epochs; obs.trace_overhead compares
/// them with the untraced epochs of the same run.
std::vector<Metric> per_layer_metrics(const std::vector<EpochResult>& epochs);

/// Spans of one name: how often they ran, their total and their self time
/// (duration minus the time their child spans cover).
struct SpanTotals {
  std::size_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

/// Every traced epoch's spans folded by name.
std::map<std::string, SpanTotals> fold_traced(const std::vector<EpochResult>& epochs);

/// The folded table as tab-separated text, heaviest total first.
std::string folded_table(const std::map<std::string, SpanTotals>& folded, std::size_t tickets);

/// Tickets attempted and failed, across all epochs (traced or not: their
/// ratio is error_rate).
std::size_t attempted_tickets(const std::vector<EpochResult>& epochs);
std::size_t failed_tickets(const std::vector<EpochResult>& epochs);

/// Timed tickets of the traced (or untraced) epochs.
std::size_t timed_tickets(const std::vector<EpochResult>& epochs, bool traced);

/// One row per epoch (start, set-up, wall, process CPU and machine steal
/// seconds, tickets, raw latency p50/p95) as tab-separated text, to see how
/// the host's speed moved during a run.
std::string epoch_table(const std::vector<EpochResult>& epochs);

/// One row per timed ticket (epoch, index, kind, raw phase timings).
std::string ticket_table(const std::vector<EpochResult>& epochs);

double peak_rss_mb();

}  // namespace ticketbench
