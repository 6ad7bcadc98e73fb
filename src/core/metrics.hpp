// JSON emission for the observability layer (ISSUE 4): the machine-readable
// run manifest consumed by tools/check_bench_regression.py and the bench
// harness instead of re-parsing stdout.
//
// Layering: the raw registry/trace primitives live in util/ (so the comm
// layer can count); THIS header owns everything that knows about DistResult
// and the manifest schema. The full `Result::to_json()` in dlouvain.cpp is
// built from these helpers.
//
// Manifest schema (stable, versioned): see docs/OBSERVABILITY.md. The
// top-level "schema" key is "dlouvain-run-manifest/7"; v2 added the always-
// present "updates" section (streaming-session telemetry), v3 the
// "recovery.ladder" section (graduated recovery telemetry: retransmits,
// verdicts, shrinks) and the arq.*/heartbeat.* counters, v4 the "overlap"
// object on distributed manifests (the overlap-mode decision and its
// inputs), v5 the per-phase load_lambda/time_lambda in phases_detail, v6
// drops v5's run-level and per-phase load-migration records and names the
// lambda sampling traffic load_sample.* (both versions always sampled the
// lambdas), and v7 drops the "overlap" object and the overlap.* counters
// (every exchange blocks where it is launched; breakdown.comm_hidden stays
// and reads 0). v1-v6 documents remain valid inputs for the tooling
// (tools/check_bench_regression.py, tools/validate_trace.py accept all
// versions).
#pragma once

#include <string>
#include <string_view>

#include "core/telemetry.hpp"
#include "util/metrics.hpp"

namespace dlouvain::core {

inline constexpr std::string_view kManifestSchema = "dlouvain-run-manifest/7";

/// JSON string escaping (quotes, backslash, control characters).
std::string json_escape(std::string_view s);

/// Round-trippable double formatting (%.17g); NaN/inf become null, which is
/// what strict JSON parsers require.
std::string json_number(double v);

/// Appends the named-counter object: every catalog entry from
/// util/metrics.hpp plus the pool busy-seconds gauge. `{"comm.messages":N,
/// ..., "pool.busy_seconds":X}`.
void append_counters_json(std::string& out, const util::MetricsSnapshot& counters);

/// Appends a TimeBreakdown object (the Section V-A buckets).
void append_breakdown_json(std::string& out, const TimeBreakdown& b);

/// Appends the manifest-v2 "updates" object (streaming-session telemetry;
/// all zeros for a one-shot run).
void append_updates_json(std::string& out, const UpdateTelemetry& u);

/// Telemetry of the long-lived clustering service (dlouvaind; see
/// docs/SERVICE.md). One struct serves both emission sites: a per-response
/// view (job_id / cache_hit / queue_depth at admission, plus the daemon
/// totals at that moment) appended to each run manifest as an OPTIONAL
/// "service" section, and the daemon's final drain manifest
/// ("dlouvain-service-manifest/1"), where job_id stays -1. The run-manifest
/// schema is unchanged by the section -- the section is additive and the
/// tooling accepts manifests with or without it.
struct ServiceTelemetry {
  std::int64_t job_id{-1};       ///< admission id of this response's job; -1 daemon-wide
  bool cache_hit{false};         ///< this response was served from the result cache
  std::int64_t queue_depth{0};   ///< jobs queued (at admission / at emission)
  std::int64_t jobs_served{0};   ///< responses produced (computed + cached)
  std::int64_t cache_hits{0};
  std::int64_t cache_misses{0};
  std::int64_t rejected{0};      ///< admissions refused (full queue, bad plan, limits)
  std::int64_t sessions_open{0}; ///< named streaming sessions currently resident
  std::string drain{"none"};     ///< none | clean | forced (docs/SERVICE.md)
};

/// Appends the "service" object for either emission site of
/// ServiceTelemetry.
void append_service_json(std::string& out, const ServiceTelemetry& s);

/// Full manifest for one distributed run: scalars, restored counters,
/// counter catalog, breakdown, per-phase detail. Identical on every rank
/// (DistResult is collective-produced).
std::string dist_result_to_json(const DistResult& r);

}  // namespace dlouvain::core
