#include "harness.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <thread>

#include "analysis/engine.hpp"
#include "obs/metrics.hpp"
#include "service/manager.hpp"

namespace ticketbench {

namespace obs = heimdall::obs;
namespace service = heimdall::service;

using heimdall::net::Acl;
using heimdall::net::Network;

namespace {

using Clock = std::chrono::steady_clock;

/// CPU time of all the process's threads. The guest kernel leaves time the
/// hypervisor stole out of it.
double process_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Time the hypervisor ran something else while this machine's CPUs had
/// work, summed over CPUs ("steal" of /proc/stat); 0 where not reported.
double machine_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0,
                steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  if (!stat || cpu != "cpu") return 0;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// The registry counters the per-layer table reads.
const char* const kRegistryCounters[] = {
    "engine.analyses",        "engine.cache_hits",        "engine.retraced_pairs",
    "dp.lpm_lookups",         "dp.trace_cache_hits",      "dp.trace_cache_misses",
    "twin.commands_mediated", "twin.commands_denied",     "spec.policies_rechecked",
    "enforcer.batches",       "enforcer.waves_coalesced", "enforcer.waves_split",
};

CounterDeltas read_counters(const service::SessionManager& manager) {
  CounterDeltas out;
  obs::Registry& registry = obs::Registry::global();
  for (const char* name : kRegistryCounters) out[name] = registry.counter(name).value();
  service::ServiceStats stats = manager.stats();
  out["service.submissions"] = stats.submissions;
  out["service.batches"] = stats.batches;
  out["service.artifact_hits"] = stats.artifact_hits;
  out["service.artifact_misses"] = stats.artifact_misses;
  heimdall::enforce::PolicyEnforcer::LedgerStats ledger = manager.enforcer().ledger_stats();
  out["ledger.commits"] = ledger.commits;
  out["ledger.quorum_failures"] = ledger.quorum_failures;
  out["obs.trace_dropped"] = obs::tracer().dropped();
  return out;
}

CounterDeltas minus(CounterDeltas after, const CounterDeltas& before) {
  for (auto& [name, value] : after) value -= before.at(name);
  return after;
}

bool is_denial(const heimdall::twin::CommandResult& result) {
  return !result.ok && result.output.rfind("DENIED", 0) == 0;
}

bool is_probe(const std::string& line) {
  return line.rfind("ping ", 0) == 0 || line.rfind("traceroute ", 0) == 0;
}

/// Why the oracle rejects the finished ticket, or "" when it accepts.
std::string judge(const ScriptedTicket& scripted,
                  const std::vector<heimdall::twin::CommandResult>& results,
                  const service::SubmitOutcome* outcome) {
  if (results.size() != scripted.script.size()) return "script stopped early";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const heimdall::twin::CommandResult& result = results[i];
    if (scripted.must_deny[i]) {
      if (!is_denial(result)) return "out-of-privilege command not denied: " + scripted.script[i];
      continue;
    }
    // A probe may report an undelivered flow (that is the diagnosis); it
    // must still be mediated and executed.
    bool executed = result.ok || (is_probe(scripted.script[i]) && !is_denial(result) &&
                                  result.output.rfind("error", 0) != 0);
    if (!executed)
      return "in-privilege command failed: " + scripted.script[i] + " -> " + result.output;
  }
  if (!scripted.writes()) return "";
  const heimdall::enforce::QuarantineReport& report = outcome->report;
  if (scripted.kind == TicketKind::AclChange) {
    if (!report.quarantined.empty())
      return "benign change quarantined: " + report.quarantined.front().second;
    if (report.applied_changes.empty()) return "benign change not applied";
    return "";
  }
  if (!report.applied_changes.empty()) return "violating change applied";
  if (report.quarantined.empty()) return "violating change not quarantined";
  for (const auto& [change, reason] : report.quarantined)
    if (reason.rfind("policy", 0) != 0) return "violating change quarantined for: " + reason;
  return "";
}

TicketRecord run_ticket(service::SessionManager& manager, const ScriptedTicket& scripted,
                        std::size_t index, const std::string& actor) {
  TicketRecord record;
  record.index = index;
  record.kind = scripted.kind;
  std::vector<heimdall::twin::CommandResult> results;
  service::SubmitOutcome outcome;
  try {
    obs::ScopedSpan ticket_span("bench.ticket", "bench");
    Clock::time_point start = Clock::now();
    std::unique_ptr<service::TicketSession> session;
    {
      obs::ScopedSpan span("bench.open", "bench");
      session = manager.open(scripted.ticket, actor);
    }
    Clock::time_point opened = Clock::now();
    {
      obs::ScopedSpan span("bench.script", "bench");
      results = session->run_script(scripted.script);
    }
    Clock::time_point scripted_at = Clock::now();
    Clock::time_point verdict_at = scripted_at;
    if (scripted.writes()) {
      obs::ScopedSpan span("bench.verdict", "bench");
      outcome = session->submit().get();
      verdict_at = Clock::now();
    }
    {
      obs::ScopedSpan span("bench.close", "bench");
      session->close();
      session.reset();
    }
    Clock::time_point closed = Clock::now();
    record.ticket_ms = ms_between(start, closed);
    record.open_ms = ms_between(start, opened);
    record.verdict_ms = ms_between(scripted_at, verdict_at);
  } catch (const std::exception& error) {
    record.failure = std::string("threw: ") + error.what();
    return record;
  }
  for (const heimdall::twin::CommandResult& result : results) record.denied += is_denial(result);
  if (scripted.writes()) {
    record.applied = outcome.report.applied_changes.size();
    record.quarantined = outcome.report.quarantined.size();
    record.batch_size = outcome.batch_size;
    record.queue_wait_us = outcome.queue_wait_us;
    record.analyze_us = outcome.report.stages.analyze_us;
    record.verify_us = outcome.report.stages.verify_us;
    record.audit_us = outcome.report.stages.audit_us;
  }
  record.failure = judge(scripted, results, scripted.writes() ? &outcome : nullptr);
  return record;
}

/// The exact mix the workload defines, counted over the generated tickets.
void check_mix(const WorkloadSpec& workload, const std::vector<ScriptedTicket>& tickets,
               std::vector<std::string>& failures) {
  std::size_t writes = 0, violating = 0, must_deny = 0, odd_scripts = 0;
  for (const ScriptedTicket& ticket : tickets) {
    writes += ticket.writes();
    violating += ticket.kind == TicketKind::Violating;
    for (bool deny : ticket.must_deny) must_deny += deny;
    if (!ticket.writes() && ticket.script.size() != kDiagnosisCommands) ++odd_scripts;
  }
  std::size_t diagnoses = tickets.size() - writes;
  std::size_t want_writes = tickets.size() / workload.write_every;
  std::size_t want_violating =
      workload.violating_every == 0 ? 0 : want_writes / workload.violating_every;
  if (writes != want_writes || violating != want_violating)
    failures.push_back("generated mix: " + std::to_string(writes) + " writes / " +
                       std::to_string(violating) + " violating of " +
                       std::to_string(tickets.size()));
  if (odd_scripts != 0 || must_deny != diagnoses * kDeniedPerDiagnosis)
    failures.push_back("generated mix: " + std::to_string(must_deny) +
                       " out-of-privilege commands for " + std::to_string(diagnoses) +
                       " diagnoses");
}

/// Ledger health and production contents after the epoch drained.
void check_production(const service::SessionManager& manager, const TicketPlan& plan,
                      const Acl& pristine_guard, const std::vector<ScriptedTicket>& tickets,
                      std::vector<std::string>& failures) {
  if (!manager.enforcer().audit_intact()) failures.push_back("audit ledger not intact");
  heimdall::enforce::PolicyEnforcer::LedgerStats ledger = manager.enforcer().ledger_stats();
  if (ledger.quorum_failures != 0)
    failures.push_back(std::to_string(ledger.quorum_failures) + " quorum failures");
  Network production = manager.production_copy();
  const Acl* guard = production.device(plan.guard()).find_acl(plan.guard_acl());
  if (guard == nullptr || *guard != pristine_guard)
    failures.push_back("guard ACL " + plan.guard_acl() + " changed in production");
  for (const ScriptedTicket& ticket : tickets) {
    if (ticket.kind != TicketKind::AclChange) continue;
    const Acl* acl = production.device(ticket.device).find_acl(ticket.acl);
    if (acl == nullptr || acl->entries.size() != 1) {
      failures.push_back("production lacks ACL " + ticket.acl + " on " + ticket.device.str());
      return;
    }
  }
}

std::string scratch_representation(const Network& network) {
  heimdall::analysis::Engine engine(service::ServiceOptions{}.engine_options);
  heimdall::analysis::Snapshot snapshot = engine.analyze(network);
  if (snapshot.sharded && !snapshot.reachability) return "sharded";
  if (snapshot.reachability && !snapshot.sharded) return "dense";
  return "none";
}

}  // namespace

void prepare_tracer() {
  obs::Tracer& tracer = obs::tracer();
  tracer.set_enabled(false);
  tracer.set_capacity(std::size_t{1} << 22);
  tracer.clear();
}

Harness::Harness(const WorkloadSpec& workload, std::uint64_t seed)
    : Harness(workload, seed, build_scenario(workload.network)) {}

Harness::Harness(const WorkloadSpec& workload, std::uint64_t seed, const Scenario& pristine)
    : workload_(workload),
      plan_(workload, pristine.production, seed),
      pristine_guard_(*pristine.production.device(plan_.guard()).find_acl(plan_.guard_acl())),
      representation_(scratch_representation(pristine.production)) {
  const std::string want = workload.network == NetworkKind::Fabric ? "sharded" : "dense";
  if (representation_ != want)
    throw std::runtime_error(workload.name + " must run " + want + " reachability, engine picks " +
                             representation_);
}

EpochResult Harness::run_epoch(std::size_t epoch, bool traced, std::size_t tickets) {
  if (tickets == 0) tickets = workload_.epoch_tickets;
  EpochResult result;
  result.traced = traced;

  std::vector<ScriptedTicket> scripted;
  scripted.reserve(tickets);
  for (std::size_t i = 0; i < tickets; ++i)
    scripted.push_back(plan_.ticket(epoch * workload_.epoch_tickets + i));
  check_mix(workload_, scripted, result.failures);
  ScriptedTicket warmup = plan_.warmup(epoch);
  // Reset so the epoch shows whether the service itself built sharded
  // matrices.
  obs::Registry::global().gauge("matrix.equiv_classes").set(0);

  Clock::time_point setup_start = Clock::now();
  Scenario scenario = build_scenario(workload_.network);
  auto manager = std::make_unique<service::SessionManager>(std::move(scenario.production),
                                                           std::move(scenario.policies));
  TicketRecord warm = run_ticket(*manager, warmup, 0, "tech-warmup");
  result.setup_s = std::chrono::duration<double>(Clock::now() - setup_start).count();
  if (!warm.failure.empty()) result.failures.push_back("warm-up ticket: " + warm.failure);

  CounterDeltas before = read_counters(*manager);
  if (traced) {
    obs::tracer().clear();
    obs::tracer().set_enabled(true);
  }
  std::vector<TicketRecord> records(tickets);
  std::atomic<std::size_t> next{0};
  Clock::time_point wall_start = Clock::now();
  double cpu_start = process_cpu_s();
  double steal_start = machine_steal_s();
  std::vector<std::thread> technicians;
  for (std::size_t t = 0; t < workload_.technicians; ++t) {
    technicians.emplace_back([&, t] {
      std::string actor = "tech-" + std::to_string(t + 1);
      for (;;) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tickets) return;
        records[i] = run_ticket(*manager, scripted[i], epoch * workload_.epoch_tickets + i, actor);
      }
    });
  }
  for (std::thread& technician : technicians) technician.join();
  manager->drain();
  result.wall_s = std::chrono::duration<double>(Clock::now() - wall_start).count();
  result.cpu_s = process_cpu_s() - cpu_start;
  result.steal_s = machine_steal_s() - steal_start;
  if (traced) {
    obs::tracer().set_enabled(false);
    result.spans = obs::tracer().spans();
    result.chrome_trace = obs::tracer().to_chrome_json();
    obs::tracer().clear();
  }
  result.counters = minus(read_counters(*manager), before);

  std::vector<ScriptedTicket> applied = {warmup};
  applied.insert(applied.end(), scripted.begin(), scripted.end());
  check_production(*manager, plan_, pristine_guard_, applied, result.failures);
  std::int64_t classes = obs::Registry::global().gauge("matrix.equiv_classes").value();
  if ((classes > 0) != (representation_ == "sharded"))
    result.failures.push_back("service ran " + std::string(classes > 0 ? "sharded" : "dense") +
                              " reachability, workload needs " + representation_);
  result.tickets = std::move(records);
  return result;
}

}  // namespace ticketbench
