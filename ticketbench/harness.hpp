// Epoch runner of the Heimdall ticket benchmark.
//
// One epoch builds a fresh SessionManager over the workload's scenario,
// runs one untimed warm-up ticket, then lets the workload's technicians pull
// tickets closed-loop through the public service API:
//
//   SessionManager::open -> TicketSession::run_script -> submit().get() -> close
//
// Each call is timed from outside the program (steady_clock) and wrapped in
// a bench.{ticket,open,script,verdict,close} span, so a traced epoch folds
// the program's own spans under the phase that caused them. Every ticket is
// checked by an oracle, and every epoch ends with ledger and production
// checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netmodel/acl.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace ticketbench {

/// One ticket as the technician experienced it.
struct TicketRecord {
  std::size_t index = 0;
  TicketKind kind = TicketKind::AclChange;
  double ticket_ms = 0;
  double open_ms = 0;
  double verdict_ms = 0;  ///< 0 for tickets that never submit
  std::size_t denied = 0;
  std::size_t applied = 0;
  std::size_t quarantined = 0;
  std::size_t batch_size = 0;
  std::uint64_t queue_wait_us = 0;
  std::uint64_t analyze_us = 0;
  std::uint64_t verify_us = 0;
  std::uint64_t audit_us = 0;
  /// Empty when the oracle accepted the ticket.
  std::string failure;
};

/// Counters read from the program's public surfaces before and after the
/// timed part of an epoch (obs::Registry counters, ServiceStats and
/// LedgerStats under their own names).
using CounterDeltas = std::map<std::string, std::uint64_t>;

struct EpochResult {
  double started_s = 0;  ///< since the run began; set by the caller
  double setup_s = 0;
  double wall_s = 0;   ///< first open to last verdict, drain included
  double cpu_s = 0;    ///< process CPU time over wall_s (stolen time excluded)
  double steal_s = 0;  ///< CPU time the hypervisor stole from the machine over wall_s
  bool traced = false;
  std::vector<TicketRecord> tickets;
  CounterDeltas counters;
  /// Spans the traced epoch recorded, and the same as Chrome trace_event
  /// JSON (both empty when untraced).
  std::vector<heimdall::obs::SpanRecord> spans;
  std::string chrome_trace;
  /// Run-level oracle and workload-validity failures.
  std::vector<std::string> failures;
};

class Harness {
 public:
  /// Checks the analysis representation the workload must run (sharded
  /// for the fabric, dense for the university) before any epoch.
  Harness(const WorkloadSpec& workload, std::uint64_t seed);

  /// Runs epoch number `epoch` with `tickets` tickets (0 = the workload's
  /// epoch size). Tracing, when asked for, covers only the timed part.
  EpochResult run_epoch(std::size_t epoch, bool traced, std::size_t tickets = 0);

  const WorkloadSpec& workload() const { return workload_; }
  const TicketPlan& plan() const { return plan_; }
  /// "dense" or "sharded": what the engine picks for this network.
  const std::string& representation() const { return representation_; }

 private:
  Harness(const WorkloadSpec& workload, std::uint64_t seed, const Scenario& pristine);

  const WorkloadSpec& workload_;
  TicketPlan plan_;
  heimdall::net::Acl pristine_guard_;
  std::string representation_;
};

/// Raises the tracer's ring so no traced epoch evicts a span.
void prepare_tracer();

}  // namespace ticketbench
