// Ticket workloads of the Heimdall ticket benchmark.
//
// A workload fixes the production network, the technician count and the
// ticket mix. Tickets are a pure function of (workload, seed, index): the
// service under test only ever sees the scripted tickets generated here, and
// two runs with one seed drive it with identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "msp/ticket.hpp"
#include "netmodel/network.hpp"
#include "spec/policy.hpp"

namespace ticketbench {

namespace msp = heimdall::msp;
namespace net = heimdall::net;
namespace spec = heimdall::spec;

enum class NetworkKind { University, Fabric };

struct WorkloadSpec {
  std::string name;
  NetworkKind network = NetworkKind::University;
  /// Closed-loop clients: each waits for its ticket's verdict before taking
  /// the next one.
  std::size_t technicians = 1;
  /// Tickets per epoch. Every epoch starts from a freshly built production
  /// network, because applied ACL changes grow production and would make a
  /// ticket's cost depend on how many tickets ran before it. A multiple of
  /// write_every * violating_every so every epoch holds the exact mix.
  std::size_t epoch_tickets = 100;
  /// One ticket in `write_every` is an ACL change; the rest are read-only
  /// diagnoses. 1 = every ticket writes.
  std::size_t write_every = 1;
  /// One ACL change in `violating_every` breaks a pinned policy (0 = none).
  std::size_t violating_every = 20;
};

/// The four workloads. BENCHMARK.json lists all but univ_acl_concurrent,
/// which is too noisy on a shared host to gate on (see README.md).
const std::vector<WorkloadSpec>& workloads();

/// Throws std::invalid_argument for an unknown name.
const WorkloadSpec& find_workload(const std::string& name);

enum class TicketKind { AclChange, Violating, Diagnosis };

std::string to_string(TicketKind kind);

/// One technician ticket: the ticket the service slices a twin for, the
/// console lines the technician types, and what the oracle expects.
struct ScriptedTicket {
  msp::Ticket ticket;
  TicketKind kind = TicketKind::AclChange;
  std::vector<std::string> script;
  /// Parallel to `script`: true for a command outside the ticket's
  /// Privilege_msp, which the reference monitor must deny.
  std::vector<bool> must_deny;
  /// AclChange: the router and the ACL the ticket creates on it.
  /// Violating: the guard router whose ACL must stay untouched.
  net::DeviceId device;
  std::string acl;

  bool writes() const { return kind != TicketKind::Diagnosis; }
};

/// The production network and pinned policies of one epoch.
struct Scenario {
  net::Network production;
  std::vector<spec::Policy> policies;
};

/// Builds a workload's production network and policy set from scratch.
/// Deterministic; the fabric variant carries a permit-all guard ACL on the
/// edge whose uplink deny the violating tickets re-introduce.
Scenario build_scenario(NetworkKind network);

/// Generates tickets for one workload and seed. The seed picks the router
/// rotation, the recurring diagnosis complaints and every script; the
/// network only supplies device names.
class TicketPlan {
 public:
  TicketPlan(const WorkloadSpec& workload, const net::Network& production, std::uint64_t seed);

  /// Ticket number `index` of the run (0-based, continuing across epochs).
  ScriptedTicket ticket(std::size_t index) const;

  /// The untimed benign ACL change that warms epoch `epoch`'s service.
  ScriptedTicket warmup(std::size_t epoch) const;

  const net::DeviceId& guard() const { return guard_; }
  const std::string& guard_acl() const { return guard_acl_; }

 private:
  ScriptedTicket acl_change(std::size_t index, std::size_t rotation, std::string acl) const;
  ScriptedTicket violating(std::size_t index) const;
  ScriptedTicket diagnosis(std::size_t index) const;

  const WorkloadSpec& workload_;
  std::uint64_t seed_;
  std::vector<net::DeviceId> routers_;  // seeded rotation, guard excluded
  std::vector<net::DeviceId> hosts_;
  net::DeviceId guard_;
  std::string guard_acl_;
  std::string violating_entry_;
  struct Complaint {
    net::DeviceId src;
    net::DeviceId dst;
  };
  /// The recurring complaints of epoch `epoch`. Each epoch starts from a
  /// fresh service, so complaints need only recur within it; drawing a new
  /// set per epoch averages a run over many sets.
  std::vector<Complaint> complaints(std::size_t epoch) const;
};

/// Diagnosis scripts hold this many commands, kDeniedPerDiagnosis of them
/// out of privilege.
inline constexpr std::size_t kDiagnosisCommands = 10;
inline constexpr std::size_t kDeniedPerDiagnosis = 2;
/// Warm-up tickets get ids above every measured ticket's.
inline constexpr std::size_t kWarmupIdBase = 1000000000;
/// Recurring (src, dst) complaints the diagnosis tickets draw from.
inline constexpr std::size_t kComplaints = 16;

}  // namespace ticketbench
