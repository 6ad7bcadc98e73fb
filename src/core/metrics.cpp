#include "core/metrics.hpp"

#include <cmath>
#include <cstdio>

namespace dlouvain::core {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_counters_json(std::string& out, const util::MetricsSnapshot& counters) {
  out += '{';
  for (std::size_t i = 0; i < util::kNumCounters; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += counter_name(static_cast<util::Counter>(i));
    out += "\":";
    out += std::to_string(counters.values[i]);
  }
  out += ",\"pool.busy_seconds\":" + json_number(counters.busy_seconds);
  out += '}';
}

void append_breakdown_json(std::string& out, const TimeBreakdown& b) {
  out += "{\"ghost_exchange\":" + json_number(b.ghost_exchange) +
         ",\"community_info\":" + json_number(b.community_info) +
         ",\"compute\":" + json_number(b.compute) +
         ",\"delta_exchange\":" + json_number(b.delta_exchange) +
         ",\"allreduce\":" + json_number(b.allreduce) +
         ",\"rebuild\":" + json_number(b.rebuild) +
         ",\"compute_busy\":" + json_number(b.compute_busy) +
         ",\"comm_hidden\":" + json_number(b.comm_hidden) + '}';
}

void append_updates_json(std::string& out, const UpdateTelemetry& u) {
  out += "{\"batches_applied\":" + std::to_string(u.batches_applied) +
         ",\"edges_added\":" + std::to_string(u.edges_added) +
         ",\"edges_removed\":" + std::to_string(u.edges_removed) +
         ",\"vertices_reactivated\":" + std::to_string(u.vertices_reactivated) +
         ",\"reconverge_iterations\":" + std::to_string(u.reconverge_iterations) +
         ",\"fallback_to_full\":" + std::to_string(u.fallback_to_full) + '}';
}

void append_service_json(std::string& out, const ServiceTelemetry& s) {
  out += "{\"job_id\":" + std::to_string(s.job_id);
  out += ",\"cache_hit\":";
  out += s.cache_hit ? "true" : "false";
  out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
  out += ",\"jobs_served\":" + std::to_string(s.jobs_served);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(s.cache_misses);
  out += ",\"rejected\":" + std::to_string(s.rejected);
  out += ",\"sessions_open\":" + std::to_string(s.sessions_open);
  out += ",\"drain\":\"" + json_escape(s.drain) + "\"}";
}

std::string dist_result_to_json(const DistResult& r) {
  std::string out;
  out.reserve(1024 + 512 * r.phase_telemetry.size());
  out += "{\"schema\":\"";
  out += kManifestSchema;
  out += "\",\"engine\":\"distributed\"";
  out += ",\"modularity\":" + json_number(r.modularity);
  out += ",\"num_communities\":" + std::to_string(r.num_communities);
  out += ",\"phases\":" + std::to_string(r.phases);
  out += ",\"total_iterations\":" + std::to_string(r.total_iterations);
  out += ",\"seconds\":" + json_number(r.seconds);
  out += ",\"messages\":" + std::to_string(r.messages);
  out += ",\"bytes\":" + std::to_string(r.bytes);
  out += ",\"resumed_from_phase\":" + std::to_string(r.resumed_from_phase);
  out += ",\"restored\":{\"seconds\":" + json_number(r.restored.seconds) +
         ",\"messages\":" + std::to_string(r.restored.messages) +
         ",\"bytes\":" + std::to_string(r.restored.bytes) + '}';
  out += ",\"counters\":";
  append_counters_json(out, r.counters);
  out += ",\"breakdown\":";
  append_breakdown_json(out, r.breakdown);
  out += ",\"phases_detail\":[";
  for (std::size_t i = 0; i < r.phase_telemetry.size(); ++i) {
    const auto& ph = r.phase_telemetry[i];
    if (i != 0) out += ',';
    out += "{\"phase\":" + std::to_string(ph.phase);
    out += ",\"iterations\":" + std::to_string(ph.iterations);
    out += ",\"threads\":" + std::to_string(ph.threads);
    out += ",\"graph_vertices\":" + std::to_string(ph.graph_vertices);
    out += ",\"graph_arcs\":" + std::to_string(ph.graph_arcs);
    out += ",\"modularity_after\":" + json_number(ph.modularity_after);
    out += ",\"threshold_used\":" + json_number(ph.threshold_used);
    out += ",\"seconds\":" + json_number(ph.seconds);
    out += ",\"breakdown\":";
    append_breakdown_json(out, ph.breakdown);
    out += ",\"load_lambda\":" + json_number(ph.load_lambda);
    out += ",\"time_lambda\":" + json_number(ph.time_lambda);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace dlouvain::core
