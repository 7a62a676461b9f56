#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>

namespace ticketbench {

using heimdall::obs::SpanId;
using heimdall::obs::SpanRecord;

namespace {

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Nearest-rank percentile; `q` in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::vector<const EpochResult*> select(const std::vector<EpochResult>& epochs, bool traced) {
  std::vector<const EpochResult*> out;
  for (const EpochResult& epoch : epochs)
    if (epoch.traced == traced) out.push_back(&epoch);
  return out;
}

double ticket_p50(const std::vector<const EpochResult*>& epochs) {
  std::vector<double> latencies;
  for (const EpochResult* epoch : epochs)
    for (const TicketRecord& ticket : epoch->tickets) latencies.push_back(ticket.ticket_ms);
  return median(std::move(latencies));
}

/// Per-span parent links of one epoch, to ask what a span ran under.
class SpanTree {
 public:
  explicit SpanTree(const std::vector<SpanRecord>& spans) : spans_(spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) by_id_[spans[i].id] = i;
  }

  /// The nearest ancestor whose name is in `names`, or nullptr.
  const SpanRecord* ancestor_in(const SpanRecord& span, const std::set<std::string>& names) const {
    SpanId parent = span.parent;
    while (parent != 0) {
      auto it = by_id_.find(parent);
      if (it == by_id_.end()) return nullptr;
      const SpanRecord& record = spans_[it->second];
      if (names.count(record.name)) return &record;
      parent = record.parent;
    }
    return nullptr;
  }

 private:
  const std::vector<SpanRecord>& spans_;
  std::unordered_map<SpanId, std::size_t> by_id_;
};

/// Total time of the spans named in `names` that no other span of `names`
/// encloses, so nested layers are not counted twice.
double outermost_us(const std::vector<SpanRecord>& spans, const SpanTree& tree,
                    const std::set<std::string>& names) {
  double total = 0;
  for (const SpanRecord& span : spans)
    if (names.count(span.name) && tree.ancestor_in(span, names) == nullptr)
      total += static_cast<double>(span.duration_us);
  return total;
}

/// Share of the epoch's busy CPU time that the hypervisor gave to other
/// machines.
double stolen_share(const EpochResult& epoch) {
  return ratio(epoch.steal_s, epoch.cpu_s + epoch.steal_s);
}

}  // namespace

std::size_t attempted_tickets(const std::vector<EpochResult>& epochs) {
  std::size_t total = 0;
  for (const EpochResult& epoch : epochs) total += epoch.tickets.size();
  return total;
}

std::size_t timed_tickets(const std::vector<EpochResult>& epochs, bool traced) {
  std::size_t total = 0;
  for (const EpochResult* epoch : select(epochs, traced)) total += epoch->tickets.size();
  return total;
}

std::size_t failed_tickets(const std::vector<EpochResult>& epochs) {
  std::size_t total = 0;
  for (const EpochResult& epoch : epochs)
    for (const TicketRecord& ticket : epoch.tickets) total += !ticket.failure.empty();
  return total;
}

std::string epoch_table(const std::vector<EpochResult>& epochs) {
  std::ostringstream out;
  out << "epoch\ttraced\tstarted_s\tsetup_s\twall_s\tcpu_s\tsteal_s\ttickets\tticket_p50_ms"
         "\tticket_p95_ms\n";
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const EpochResult& epoch = epochs[i];
    std::vector<double> latencies;
    for (const TicketRecord& ticket : epoch.tickets) latencies.push_back(ticket.ticket_ms);
    out << i << '\t' << epoch.traced << '\t' << epoch.started_s << '\t' << epoch.setup_s << '\t'
        << epoch.wall_s << '\t' << epoch.cpu_s << '\t' << epoch.steal_s << '\t'
        << epoch.tickets.size() << '\t' << percentile(latencies, 0.50) << '\t'
        << percentile(latencies, 0.95) << '\n';
  }
  return out.str();
}

std::string ticket_table(const std::vector<EpochResult>& epochs) {
  std::ostringstream out;
  out << "epoch\ttraced\tticket\tkind\tticket_ms\topen_ms\tverdict_ms\n";
  for (std::size_t i = 0; i < epochs.size(); ++i)
    for (const TicketRecord& ticket : epochs[i].tickets)
      out << i << '\t' << epochs[i].traced << '\t' << ticket.index + 1 << '\t'
          << to_string(ticket.kind) << '\t' << ticket.ticket_ms << '\t' << ticket.open_ms << '\t'
          << ticket.verdict_ms << '\n';
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<Metric> end_to_end_metrics(const std::vector<EpochResult>& epochs) {
  // On a shared virtual machine the hypervisor steals CPU time from whole
  // stretches of a run, more in some runs than in others, and a stolen slice
  // lands on whichever ticket was running. Epochs are alike by construction
  // (fresh production, the same mix), so the run keeps the half of its
  // untraced epochs with the smallest stolen share and takes the stolen
  // share out of each kept epoch's times: every timing is scaled by
  // cpu / (cpu + steal). Tickets of the kept epochs are pooled so the p95
  // has enough samples beyond it. Where the kernel reports no steal the
  // factor is 1 and these are plain wall-clock times; epochs.tsv and
  // tickets.tsv keep the raw ones.
  std::vector<const EpochResult*> kept = select(epochs, false);
  std::vector<double> setup;
  for (const EpochResult* epoch : kept) setup.push_back(epoch->setup_s);
  std::stable_sort(kept.begin(), kept.end(), [](const EpochResult* a, const EpochResult* b) {
    return stolen_share(*a) < stolen_share(*b);
  });
  kept.resize((kept.size() + 1) / 2);

  std::vector<double> ticket, open, verdict;
  double wall = 0;
  for (const EpochResult* epoch : kept) {
    double unstolen = 1 - stolen_share(*epoch);
    wall += unstolen * epoch->wall_s;
    for (const TicketRecord& record : epoch->tickets) {
      ticket.push_back(unstolen * record.ticket_ms);
      open.push_back(unstolen * record.open_ms);
      if (record.kind != TicketKind::Diagnosis) verdict.push_back(unstolen * record.verdict_ms);
    }
  }
  return {
      {"ticket_p50_ms", percentile(ticket, 0.50), "ms"},
      {"ticket_p95_ms", percentile(ticket, 0.95), "ms"},
      {"throughput_tps", ratio(static_cast<double>(ticket.size()), wall), "1/s"},
      {"open_p50_ms", median(open), "ms"},
      {"verdict_p50_ms", median(verdict), "ms"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::map<std::string, SpanTotals> fold_traced(const std::vector<EpochResult>& epochs) {
  std::map<std::string, SpanTotals> folded;
  for (const EpochResult* epoch : select(epochs, true)) {
    std::unordered_map<SpanId, double> child_us;
    for (const SpanRecord& span : epoch->spans)
      if (span.parent != 0) child_us[span.parent] += static_cast<double>(span.duration_us);
    for (const SpanRecord& span : epoch->spans) {
      SpanTotals& totals = folded[span.name];
      ++totals.count;
      totals.total_us += static_cast<double>(span.duration_us);
      auto it = child_us.find(span.id);
      totals.self_us +=
          static_cast<double>(span.duration_us) - (it == child_us.end() ? 0.0 : it->second);
    }
  }
  return folded;
}

std::string folded_table(const std::map<std::string, SpanTotals>& folded, std::size_t tickets) {
  std::vector<std::pair<std::string, SpanTotals>> rows(folded.begin(), folded.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.total_us > b.second.total_us; });
  std::ostringstream out;
  out << "span\tcount\tper_ticket\ttotal_ms\tmean_ms\tself_ms\tself_ms_per_ticket\n";
  double n = static_cast<double>(std::max<std::size_t>(tickets, 1));
  for (const auto& [name, totals] : rows) {
    out << name << '\t' << totals.count << '\t' << static_cast<double>(totals.count) / n << '\t'
        << totals.total_us / 1000 << '\t'
        << totals.total_us / 1000 / static_cast<double>(std::max<std::size_t>(totals.count, 1))
        << '\t' << totals.self_us / 1000 << '\t' << totals.self_us / 1000 / n << '\n';
  }
  return out.str();
}

std::vector<Metric> per_layer_metrics(const std::vector<EpochResult>& epochs) {
  const std::set<std::string> open_work = {"engine.fingerprint", "engine.analyze",
                                           "engine.dataplane", "engine.compile",
                                           "twin.build_artifacts"};
  const std::set<std::string> open_span = {"bench.open"};
  const std::set<std::string> verify_spans = {"spec.verify_network", "spec.verify",
                                              "spec.verify_delta"};

  double tickets = 0, submits = 0, open_work_us = 0, dataplane_in_open = 0, spec_verify_us = 0;
  double queue_wait_us = 0, analyze_us = 0, verify_us = 0, audit_us = 0;
  CounterDeltas counters;
  std::map<std::string, SpanTotals> folded = fold_traced(epochs);
  for (const EpochResult* epoch : select(epochs, true)) {
    tickets += static_cast<double>(epoch->tickets.size());
    for (const TicketRecord& record : epoch->tickets) {
      if (record.kind == TicketKind::Diagnosis) continue;
      ++submits;
      queue_wait_us += static_cast<double>(record.queue_wait_us);
      analyze_us += static_cast<double>(record.analyze_us);
      verify_us += static_cast<double>(record.verify_us);
      audit_us += static_cast<double>(record.audit_us);
    }
    for (const auto& [name, value] : epoch->counters) counters[name] += value;
    SpanTree tree(epoch->spans);
    spec_verify_us += outermost_us(epoch->spans, tree, verify_spans);
    for (const SpanRecord& span : epoch->spans) {
      if (!open_work.count(span.name) || tree.ancestor_in(span, open_span) == nullptr) continue;
      if (tree.ancestor_in(span, open_work) == nullptr)
        open_work_us += static_cast<double>(span.duration_us);
      if (span.name == "engine.dataplane") ++dataplane_in_open;
    }
  }
  auto total_ms = [&](const std::string& name) { return folded[name].total_us / 1000; };
  double phases_ms = total_ms("bench.open") + total_ms("bench.script") +
                     total_ms("bench.verdict") + total_ms("bench.close");
  auto count = [&](const std::string& name) { return static_cast<double>(folded[name].count); };
  auto delta = [&](const std::string& name) { return static_cast<double>(counters[name]); };
  double traced_p50 = ticket_p50(select(epochs, true));
  double untraced_p50 = ticket_p50(select(epochs, false));
  double attempted = static_cast<double>(attempted_tickets(epochs));

  return {
      {"error_rate", ratio(static_cast<double>(failed_tickets(epochs)), attempted), "ratio"},
      {"service.open_self_ms", ratio(total_ms("bench.open") - open_work_us / 1000, tickets),
       "ms"},
      {"service.queue_wait_ms", ratio(queue_wait_us / 1000, submits), "ms"},
      {"service.batch_size", ratio(delta("service.submissions"), delta("service.batches")),
       "count"},
      {"service.artifact_hit_rate",
       ratio(delta("service.artifact_hits"),
             delta("service.artifact_hits") + delta("service.artifact_misses")),
       "ratio"},
      {"service.phase_coverage", ratio(phases_ms, total_ms("bench.ticket")), "ratio"},
      {"analysis.fingerprint_ms", ratio(total_ms("engine.fingerprint"), tickets), "ms"},
      {"analysis.fingerprint_calls", ratio(count("engine.fingerprint"), tickets), "count"},
      {"analysis.dataplane_ms", ratio(total_ms("engine.dataplane"), tickets), "ms"},
      {"analysis.dataplane_miss_rate", ratio(dataplane_in_open, tickets), "ratio"},
      {"analysis.compile_ms", ratio(total_ms("engine.compile"), tickets), "ms"},
      {"analysis.compile_calls", ratio(count("engine.compile"), tickets), "count"},
      {"analysis.analyze_self_ms", ratio(folded["engine.analyze"].self_us / 1000, tickets), "ms"},
      {"analysis.cache_hit_rate", ratio(delta("engine.cache_hits"), delta("engine.analyses")),
       "ratio"},
      {"analysis.retraced_pairs", ratio(delta("engine.retraced_pairs"), tickets), "count"},
      {"dataplane.trace_cache_hit_rate",
       ratio(delta("dp.trace_cache_hits"),
             delta("dp.trace_cache_hits") + delta("dp.trace_cache_misses")),
       "ratio"},
      {"dataplane.lpm_lookups", ratio(delta("dp.lpm_lookups"), tickets), "count"},
      {"twin.build_ms", ratio(total_ms("twin.build_artifacts"), tickets), "ms"},
      {"twin.script_ms", ratio(total_ms("bench.script"), tickets), "ms"},
      {"twin.mediate_us", ratio(folded["twin.mediate"].total_us, count("twin.mediate")), "us"},
      {"twin.denied_share",
       ratio(delta("twin.commands_denied"), delta("twin.commands_mediated")), "ratio"},
      {"spec.verify_ms", ratio(spec_verify_us / 1000, tickets), "ms"},
      {"spec.policies_rechecked", ratio(delta("spec.policies_rechecked"), tickets), "count"},
      {"enforcer.analyze_ms", ratio(analyze_us / 1000, submits), "ms"},
      {"enforcer.verify_ms", ratio(verify_us / 1000, submits), "ms"},
      {"enforcer.audit_ms", ratio(audit_us / 1000, submits), "ms"},
      {"enforcer.quarantine_ms", ratio(total_ms("enforcer.quarantine_batch"), submits), "ms"},
      {"enforcer.waves_coalesced",
       ratio(delta("enforcer.waves_coalesced"), delta("enforcer.batches")), "count"},
      {"enforcer.waves_split", ratio(delta("enforcer.waves_split"), delta("enforcer.batches")),
       "count"},
      {"enforcer.seal_us", ratio(folded["enclave.seal"].total_us, tickets), "us"},
      {"enforcer.quorum_commits", ratio(delta("ledger.commits"), tickets), "count"},
      {"obs.trace_overhead", ratio(traced_p50, untraced_p50), "ratio"},
      {"obs.trace_dropped", delta("obs.trace_dropped"), "count"},
  };
}

}  // namespace ticketbench
