#!/usr/bin/env python3
"""Smoke-test dlouvain_cli observability outputs (the trace_smoke ctest).

Runs the CLI on a small generated graph with --trace-out and --metrics-out,
then checks:

  * the trace is Chrome trace_event JSON: a traceEvents list whose entries
    all carry name/ph/pid/ts, complete ("X") events carry dur, and at least
    --ranks distinct pids appear (one per simulated rank);
  * the manifest matches the "dlouvain-run-manifest/N" schema (v2 adds the
    streaming "updates" section, v3 the "recovery.ladder" object; v7 has no
    "overlap" object) and recorded real traffic (comm.messages > 0 for a
    multi-rank run);
  * v5+ manifests carry per-phase load/time lambdas, and the per-phase
    sampling collective behind them shows up as `load_sample` spans.

Exit code 0 = both artifacts valid, 1 = validation failure, 2 = the CLI
itself failed.

Usage:
  validate_trace.py --cli build/tools/dlouvain_cli [--ranks 2]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def check_trace(path, min_pids):
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents list")
    pids = set()
    spans = 0
    for ev in events:
        for key in ("name", "ph", "pid", "ts"):
            if key not in ev:
                fail(f"{path}: event missing '{key}': {ev}")
        if ev["ph"] == "X":
            spans += 1
            if "dur" not in ev:
                fail(f"{path}: complete event missing 'dur': {ev}")
            if ev["dur"] < 0 or ev["ts"] < 0:
                fail(f"{path}: negative timestamp in {ev}")
        pids.add(ev["pid"])
    if len(pids) < min_pids:
        fail(f"{path}: only {len(pids)} pid(s), expected >= {min_pids} "
             f"(one per simulated rank)")
    if spans == 0:
        fail(f"{path}: no complete ('X') span events recorded")
    names = {ev["name"] for ev in events if ev["ph"] == "X"}
    # load_sample: the per-phase load-lambda sampling collective runs on
    # EVERY run, so its span must always appear.
    for required in ("phase", "iteration", "compute", "load_sample"):
        if required not in names:
            fail(f"{path}: span taxonomy missing '{required}' "
                 f"(got {sorted(names)})")
    print(f"trace ok: {spans} spans across {len(pids)} pids")


def check_manifest(path):
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema", "")
    if not schema.startswith("dlouvain-run-manifest/"):
        fail(f"{path}: schema '{schema}' is not a run manifest")
    counters = manifest.get("counters", {})
    if counters.get("comm.messages", 0) <= 0:
        fail(f"{path}: comm.messages not positive in a multi-rank run")
    if "recovery" not in manifest:
        fail(f"{path}: manifest carries no recovery object")
    # v2 adds the always-present streaming "updates" section; v1 documents
    # (no updates object) remain valid inputs.
    version = schema.rsplit("/", 1)[-1]
    if version.isdigit() and int(version) >= 2:
        updates = manifest.get("updates")
        if not isinstance(updates, dict) or "batches_applied" not in updates:
            fail(f"{path}: v2 manifest carries no updates object")
    # v3 adds the recovery-ladder telemetry nested under recovery.
    if version.isdigit() and int(version) >= 3:
        ladder = manifest.get("recovery", {}).get("ladder")
        if not isinstance(ladder, dict) or "retransmits" not in ladder:
            fail(f"{path}: v3 manifest carries no recovery.ladder object")
    # v5 adds the per-phase load/time lambdas, sampled on every run.
    if version.isdigit() and int(version) >= 5:
        phases = manifest.get("phases_detail", [])
        if not phases:
            fail(f"{path}: v5+ manifest carries no phases_detail")
        for ph in phases:
            for key in ("load_lambda", "time_lambda"):
                if not isinstance(ph.get(key), (int, float)) or ph[key] < 1:
                    fail(f"{path}: phase {ph.get('phase')} {key} "
                         f"{ph.get(key)!r} is not a lambda >= 1")
    # Optional "service" section (manifests replied by dlouvaind carry one;
    # direct CLI runs do not). When present it must be well-formed.
    if "service" in manifest:
        service = manifest["service"]
        if not isinstance(service, dict):
            fail(f"{path}: service section is not an object")
        for key in ("job_id", "cache_hit", "queue_depth", "jobs_served",
                    "cache_hits", "cache_misses", "rejected",
                    "sessions_open", "drain"):
            if key not in service:
                fail(f"{path}: service section missing '{key}'")
        if service["drain"] not in ("none", "draining", "clean"):
            fail(f"{path}: service drain state '{service['drain']}' unknown")
    print(f"manifest ok: schema {schema}, "
          f"{counters['comm.messages']} messages")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="dlouvain_cli binary")
    parser.add_argument("--ranks", type=int, default=2)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="dlouvain_trace_") as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        manifest_path = os.path.join(tmp, "manifest.json")
        cmd = [
            args.cli, "--generate", "channel", "--scale", "0.2",
            "--ranks", str(args.ranks), "--trace-out", trace_path,
            "--metrics-out", manifest_path,
        ]
        print("+", " ".join(cmd), flush=True)
        result = subprocess.run(cmd)
        if result.returncode != 0:
            print(f"FAIL: CLI exited with {result.returncode}")
            return 2
        check_trace(trace_path, min_pids=args.ranks)
        check_manifest(manifest_path)
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
