// Tests of the ticket benchmark itself: its inputs are a pure function of
// the seed, and a short run of every workload passes the oracle.
#include <gtest/gtest.h>

#include "report.hpp"

namespace ticketbench {
namespace {

/// Tiny epochs keep the exact mix: a multiple of 20 tickets holds one
/// violating change per 20 writes and one write per 10 diagnosis tickets.
constexpr std::size_t kTinyEpoch = 20;

struct Totals {
  std::size_t applied = 0, quarantined = 0, denied = 0, failed = 0;
  bool operator==(const Totals&) const = default;
};

Totals totals(const EpochResult& epoch) {
  Totals out;
  for (const TicketRecord& ticket : epoch.tickets) {
    out.applied += ticket.applied;
    out.quarantined += ticket.quarantined;
    out.denied += ticket.denied;
    out.failed += !ticket.failure.empty();
  }
  return out;
}

std::vector<std::string> acl_devices(const TicketPlan& plan, std::size_t tickets) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < tickets; ++i) {
    ScriptedTicket ticket = plan.ticket(i);
    if (ticket.kind == TicketKind::AclChange) out.push_back(ticket.device.str());
  }
  return out;
}

TEST(TicketPlan, SameSeedSameTickets) {
  for (const WorkloadSpec& workload : workloads()) {
    Scenario scenario = build_scenario(workload.network);
    TicketPlan a(workload, scenario.production, 42);
    TicketPlan b(workload, scenario.production, 42);
    for (std::size_t i = 0; i < 200; ++i) {
      ScriptedTicket x = a.ticket(i), y = b.ticket(i);
      EXPECT_EQ(x.kind, y.kind) << workload.name << " ticket " << i;
      EXPECT_EQ(x.script, y.script) << workload.name << " ticket " << i;
      EXPECT_EQ(x.must_deny, y.must_deny) << workload.name << " ticket " << i;
      EXPECT_EQ(x.ticket.affected, y.ticket.affected) << workload.name << " ticket " << i;
      EXPECT_EQ(x.ticket.description, y.ticket.description) << workload.name << " ticket " << i;
    }
  }
}

TEST(TicketPlan, DifferentSeedChangesRouterRotation) {
  const WorkloadSpec& workload = find_workload("univ_acl_serial");
  Scenario scenario = build_scenario(workload.network);
  TicketPlan a(workload, scenario.production, 1);
  TicketPlan b(workload, scenario.production, 2);
  EXPECT_NE(acl_devices(a, 40), acl_devices(b, 40));
}

TEST(TicketPlan, DiagnosisMixMatchesDefinition) {
  const WorkloadSpec& workload = find_workload("univ_diagnose_mostly");
  Scenario scenario = build_scenario(workload.network);
  TicketPlan plan(workload, scenario.production, 9);
  std::size_t diagnoses = 0, denied = 0;
  for (std::size_t i = 0; i < workload.epoch_tickets; ++i) {
    ScriptedTicket ticket = plan.ticket(i);
    if (ticket.writes()) continue;
    ++diagnoses;
    EXPECT_EQ(ticket.script.size(), kDiagnosisCommands);
    for (bool deny : ticket.must_deny) denied += deny;
  }
  EXPECT_EQ(diagnoses * workload.write_every, workload.epoch_tickets * (workload.write_every - 1));
  EXPECT_EQ(denied, diagnoses * kDeniedPerDiagnosis);
}

TEST(Harness, SameSeedSameOutcomes) {
  for (const char* name : {"univ_acl_concurrent", "univ_diagnose_mostly"}) {
    Harness first(find_workload(name), 5);
    Harness second(find_workload(name), 5);
    Totals a = totals(first.run_epoch(0, false, kTinyEpoch));
    Totals b = totals(second.run_epoch(0, false, kTinyEpoch));
    EXPECT_EQ(a, b) << name;
    EXPECT_GT(a.applied, 0u) << name;
  }
}

TEST(Harness, TinyRunOfEveryWorkloadPassesTheOracle) {
  prepare_tracer();
  for (const WorkloadSpec& workload : workloads()) {
    Harness harness(workload, 11);
    for (bool traced : {false, true}) {
      EpochResult epoch = harness.run_epoch(traced ? 1 : 0, traced, kTinyEpoch);
      EXPECT_TRUE(epoch.failures.empty())
          << workload.name << ": " << (epoch.failures.empty() ? "" : epoch.failures.front());
      Totals sums = totals(epoch);
      EXPECT_EQ(sums.failed, 0u) << workload.name;
      std::size_t violating = workload.violating_every == 0
                                  ? 0
                                  : kTinyEpoch / workload.write_every / workload.violating_every;
      EXPECT_EQ(sums.quarantined, violating) << workload.name;
      EXPECT_EQ(traced, !epoch.spans.empty()) << workload.name;
    }
    EXPECT_EQ(harness.representation(),
              workload.network == NetworkKind::Fabric ? "sharded" : "dense");
  }
}

TEST(Report, TracedRunAttributesTheTicket) {
  prepare_tracer();
  Harness harness(find_workload("univ_acl_serial"), 3);
  std::vector<EpochResult> epochs;
  epochs.push_back(harness.run_epoch(0, false, kTinyEpoch));
  epochs.push_back(harness.run_epoch(1, true, kTinyEpoch));
  std::map<std::string, double> metrics;
  for (const Metric& metric : per_layer_metrics(epochs)) metrics[metric.name] = metric.value;
  EXPECT_GE(metrics.at("service.phase_coverage"), 0.95);
  EXPECT_EQ(metrics.at("obs.trace_dropped"), 0);
  EXPECT_EQ(metrics.at("error_rate"), 0);
  EXPECT_GT(metrics.at("analysis.fingerprint_calls"), 0);
  EXPECT_GT(metrics.at("enforcer.quorum_commits"), 0);
  EXPECT_GT(metrics.at("obs.trace_overhead"), 0);
}

}  // namespace
}  // namespace ticketbench
