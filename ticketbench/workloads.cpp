#include "workloads.hpp"

#include <stdexcept>

#include "scenarios/fabric.hpp"
#include "scenarios/university.hpp"
#include "util/random.hpp"

namespace ticketbench {

using heimdall::net::Acl;
using heimdall::net::Device;
using heimdall::net::DeviceId;
using heimdall::net::DeviceKind;
using heimdall::net::Network;

namespace scen = heimdall::scen;
namespace priv = heimdall::priv;

namespace {

/// k=6 fat-tree, 4 subnets per edge, 8 hosts per subnet: 45 routers and 576
/// hosts, above the engine's 512-host threshold for sharded reachability.
scen::FabricOptions fabric_options() {
  return {.k = 6, .subnets_per_edge = 4, .hosts_per_subnet = 8};
}

// The guarded ACL and the policy-breaking entry of the university network,
// as in service::run_load.
const char* const kUniversityGuard = "u13";
const char* const kUniversityGuardAcl = "SEC_IN";
const char* const kUniversityViolation = "permit ip 10.20.7.0 0.0.0.255 10.20.15.0 0.0.0.255";

/// The fabric's "acl" issue: the stray deny on the destination edge's
/// uplinks that cuts pod0 off from pod1.
scen::IssueSpec fabric_acl_issue() {
  for (scen::IssueSpec& issue : scen::fabric_issues(fabric_options()))
    if (issue.key == "acl") return std::move(issue);
  throw std::logic_error("fabric_issues has no \"acl\" issue");
}

/// Injects the "acl" issue and returns the guard ACL it installs.
Acl& inject_fabric_guard(Network& network, const scen::IssueSpec& issue) {
  issue.inject(network);
  Device& edge = network.device(issue.root_cause);
  if (edge.acls().size() != 1 || edge.acls().front().entries.size() != 2)
    throw std::logic_error("fabric \"acl\" issue no longer installs one deny + permit ACL");
  return edge.acls().front();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "univ_acl_serial", .network = NetworkKind::University, .technicians = 1,
       .epoch_tickets = 100, .write_every = 1, .violating_every = 20},
      {.name = "univ_acl_concurrent", .network = NetworkKind::University, .technicians = 3,
       .epoch_tickets = 100, .write_every = 1, .violating_every = 20},
      {.name = "univ_diagnose_mostly", .network = NetworkKind::University, .technicians = 2,
       .epoch_tickets = 300, .write_every = 10, .violating_every = 0},
      {.name = "fabric_acl", .network = NetworkKind::Fabric, .technicians = 1,
       .epoch_tickets = 40, .write_every = 1, .violating_every = 20},
  };
  return all;
}

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& workload : workloads())
    if (workload.name == name) return workload;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string to_string(TicketKind kind) {
  switch (kind) {
    case TicketKind::AclChange: return "acl-change";
    case TicketKind::Violating: return "violating";
    case TicketKind::Diagnosis: return "diagnosis";
  }
  return "acl-change";
}

Scenario build_scenario(NetworkKind network) {
  Scenario out;
  if (network == NetworkKind::University) {
    out.production = scen::build_university();
    out.policies = scen::university_policies(out.production);
    return out;
  }
  out.production = scen::build_fabric(fabric_options());
  out.policies = scen::fabric_policies(fabric_options());
  // Production is the repaired state of the "acl" issue: the guard ACL stays
  // bound to the uplinks with only its permit-all entry.
  Acl& guard = inject_fabric_guard(out.production, fabric_acl_issue());
  guard.entries.erase(guard.entries.begin());
  return out;
}

TicketPlan::TicketPlan(const WorkloadSpec& workload, const Network& production,
                       std::uint64_t seed)
    : workload_(workload), seed_(seed) {
  if (workload.network == NetworkKind::University) {
    guard_ = DeviceId(kUniversityGuard);
    guard_acl_ = kUniversityGuardAcl;
    violating_entry_ = kUniversityViolation;
  } else {
    scen::IssueSpec issue = fabric_acl_issue();
    Network scratch = scen::build_fabric(fabric_options());
    Acl& injected = inject_fabric_guard(scratch, issue);
    guard_ = issue.root_cause;
    guard_acl_ = injected.name;
    violating_entry_ = injected.entries.front().to_string();
  }
  for (const Device& device : production.devices()) {
    if (device.is_router() && device.id() != guard_) routers_.push_back(device.id());
    if (device.kind() == DeviceKind::Host) hosts_.push_back(device.id());
  }
  if (routers_.empty() || hosts_.size() < 2)
    throw std::invalid_argument("workload network lacks routers or hosts");
  heimdall::util::Rng rng(seed);
  rng.shuffle(routers_);
}

std::vector<TicketPlan::Complaint> TicketPlan::complaints(std::size_t epoch) const {
  heimdall::util::Rng rng(seed_ ^ (0xc2b2ae3d27d4eb4fULL * (epoch + 1)));
  // Distinct ordered host pairs.
  std::vector<Complaint> out;
  while (out.size() < kComplaints) {
    const DeviceId& src = rng.pick(hosts_);
    const DeviceId& dst = rng.pick(hosts_);
    bool seen = src == dst;
    for (const Complaint& complaint : out)
      seen = seen || (complaint.src == src && complaint.dst == dst);
    if (!seen) out.push_back({src, dst});
  }
  return out;
}

ScriptedTicket TicketPlan::ticket(std::size_t index) const {
  if (index % workload_.write_every != 0) return diagnosis(index);
  std::size_t write = index / workload_.write_every;
  if (workload_.violating_every != 0 && (write + 1) % workload_.violating_every == 0)
    return violating(index);
  // The ACL name is unique per ticket: creating an ACL that exists fails.
  return acl_change(index, write, "TB" + std::to_string(index + 1));
}

ScriptedTicket TicketPlan::warmup(std::size_t epoch) const {
  return acl_change(kWarmupIdBase + epoch, epoch, "TBW" + std::to_string(epoch));
}

ScriptedTicket TicketPlan::acl_change(std::size_t index, std::size_t rotation,
                                      std::string acl) const {
  ScriptedTicket out;
  out.kind = TicketKind::AclChange;
  out.device = routers_[rotation % routers_.size()];
  out.acl = std::move(acl);
  out.ticket.id = static_cast<int>(index + 1);
  out.ticket.task = priv::TaskClass::AclChange;
  out.ticket.description = "tighten ingress filtering (documentation prefixes)";
  out.ticket.affected = {out.device};
  out.script = {
      "acl " + out.device.str() + " create " + out.acl,
      "acl " + out.device.str() + " " + out.acl +
          " add deny ip 198.51.100.0 0.0.0.255 192.0.2.0 0.0.0.255",
  };
  out.must_deny.assign(out.script.size(), false);
  return out;
}

ScriptedTicket TicketPlan::violating(std::size_t index) const {
  ScriptedTicket out;
  out.kind = TicketKind::Violating;
  out.device = guard_;
  out.acl = guard_acl_;
  out.ticket.id = static_cast<int>(index + 1);
  out.ticket.task = priv::TaskClass::AclChange;
  out.ticket.description = "open access through " + guard_acl_;
  out.ticket.affected = {guard_};
  out.script = {"acl " + guard_.str() + " " + guard_acl_ + " add 0 " + violating_entry_};
  out.must_deny.assign(out.script.size(), false);
  return out;
}

ScriptedTicket TicketPlan::diagnosis(std::size_t index) const {
  // Per-ticket stream: ticket i's script does not depend on which tickets
  // ran before it.
  heimdall::util::Rng rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  std::vector<Complaint> recurring = complaints(index / workload_.epoch_tickets);
  std::size_t which = static_cast<std::size_t>(rng.next_below(recurring.size()));
  const Complaint& complaint = recurring[which];
  const std::string src = complaint.src.str();
  const std::string dst = complaint.dst.str();

  ScriptedTicket out;
  out.kind = TicketKind::Diagnosis;
  out.ticket = heimdall::msp::Ticket::connectivity(
      static_cast<int>(index + 1), complaint.src, complaint.dst,
      "complaint " + std::to_string(which) + ": " + src + " cannot reach " + dst,
      priv::TaskClass::Connectivity);

  // Reads on the two hosts the reporter named, which every slice holds.
  std::vector<std::string> reads = {
      "show topology",          "traceroute " + src + " " + dst, "ping " + dst + " " + src,
      "traceroute " + dst + " " + src, "show interfaces " + src,  "show interfaces " + dst,
      "show config " + src,     "show config " + dst,           "show acls " + dst,
      "show vlans " + src,
  };
  // Secrets and high-impact operations: explicitly denied on every device
  // of every ticket's Privilege_msp.
  std::vector<std::string> denied = {
      "reboot " + src, "erase " + dst, "secret " + src + " enable-secret hunter2",
      "reboot " + dst,
  };
  rng.shuffle(reads);
  rng.shuffle(denied);
  out.script = {"ping " + src + " " + dst};
  out.script.insert(out.script.end(), reads.begin(),
                    reads.begin() + (kDiagnosisCommands - kDeniedPerDiagnosis - 1));
  out.must_deny.assign(out.script.size(), false);
  for (std::size_t d = 0; d < kDeniedPerDiagnosis; ++d) {
    // Insert after the opening ping, at a seeded position.
    std::size_t at = 1 + static_cast<std::size_t>(rng.next_below(out.script.size()));
    out.script.insert(out.script.begin() + static_cast<std::ptrdiff_t>(at), denied[d]);
    out.must_deny.insert(out.must_deny.begin() + static_cast<std::ptrdiff_t>(at), true);
  }
  return out;
}

}  // namespace ticketbench
