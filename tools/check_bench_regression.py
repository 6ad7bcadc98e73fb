#!/usr/bin/env python3
"""Guard the committed perf trail (BENCH_PR3.json and successors).

Runs the micro_kernels PR3 emitter (when --bench is given) on a small input,
then compares the fresh numbers against the committed baseline:

  * every kernel present in both files must not be more than --tolerance
    slower per arc than the baseline (faster is always fine);
  * the machine-independent speedup floor: the flat local-move kernel must
    stay at least --min-speedup x faster than the hash baseline measured in
    the SAME run (this is the PR3 acceptance bar and does not depend on what
    hardware recorded the baseline).

With --manifest, additionally validates a run manifest produced by
`dlouvain_cli --metrics-out` (or Plan::metrics): schema id, counter catalog
and internal consistency (whole-job totals == restored + executed).

When the current results carry an `update` section (the PR6 trail, produced
by `micro_update --pr6_json=...` or `--emit pr6 --bench build/bench/
micro_update`), the streaming-session acceptance bar is checked instead of
the kernel table: Session::update must be at least --min-update-speedup x
faster than the from-scratch run on the same final graph, and the session's
modularity must sit within --mod-tolerance of the from-scratch result.

When the current results carry an `arq` section (the PR7 trail, produced by
`micro_comm --pr7_json=...` or `--emit pr7 --bench build/bench/micro_comm`),
the rung-1 link-layer contracts are checked: the ARQ-off baseline, ARQ-on
clean, 0.1%-loss and 0.1%-corruption runs must all have produced identical
bits, every injected fault must have been repaired by a retransmission, and
no message may have exhausted the retry budget at the sub-threshold rate.
Timing overheads are recorded in the trail but not asserted (wall clocks on
shared hosts are noise).

When the current results are the PR8 trail (`micro_kernels --pr8_json=...`
or `--emit pr8`), the sweep-kernel acceptance bar is checked too: the
segmented kernel must be at least --min-lane-speedup x faster than the flat
gather baseline measured in the SAME run (interleaved reps, so the ratio is
noise-robust).

Exit code 0 = within bounds, 1 = regression or malformed input,
2 = missing input file (e.g. the baseline was never committed).

Usage:
  check_bench_regression.py --baseline BENCH_PR3.json \
      --bench build/bench/micro_kernels --scale 12 --dist-scale 10 --reps 3
  check_bench_regression.py --baseline BENCH_PR3.json --current fresh.json
  check_bench_regression.py --baseline BENCH_PR3.json --current fresh.json \
      --manifest run_manifest.json
  check_bench_regression.py --baseline BENCH_PR8.json --emit pr8 \
      --bench build/bench/micro_kernels --scale 12 --reps 3
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def load(path, what):
    """Read a JSON file; exit 2 (not a traceback) when it is absent."""
    if not os.path.exists(path):
        print(f"MISSING: {what} file '{path}' does not exist.\n"
              f"  Generate it first (see --help), or point --{what} at the "
              f"committed copy.")
        sys.exit(2)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# Counters every "dlouvain-run-manifest/N" document must carry (the catalog
# in docs/OBSERVABILITY.md; keep the two in sync).
MANIFEST_COUNTERS = (
    "comm.messages", "comm.bytes", "comm.duplicates_dropped",
    "ghost.bytes_delta", "ghost.records_shipped",
    "ledger.refresh_records", "ledger.delta_records",
    "checkpoint.messages", "checkpoint.bytes", "checkpoint.file_bytes",
    "pool.busy_seconds",
)

# v1-v7 split ghost-exchange bytes by wire format; v8 dropped the dense
# format and its counter with it (every ghost update ships only changed
# entries, counted in ghost.bytes_delta).
MANIFEST_COUNTERS_V1_TO_V7 = (
    "ghost.bytes_dense",
)

# v3 adds the recovery-ladder catalog entries (rung-1 ARQ and the rung-2
# heartbeat lane); v1/v2 documents remain valid inputs without them.
MANIFEST_COUNTERS_V3 = (
    "arq.nacks", "arq.retransmits", "arq.backoff_ms", "arq.escalations",
    "heartbeat.slow_extensions",
)

# v4-v6 carry the overlap cost-model probe reclassification counters (probe
# allreduce traffic was model overhead, not algorithm traffic); v1-v3
# documents predate them and v7 dropped them with the cost model.
MANIFEST_COUNTERS_V4 = (
    "overlap.probe_messages", "overlap.probe_bytes",
)

# v6 names the per-phase load-lambda sampling reclassification counters (the
# allgather is observability overhead, not algorithm traffic); v1-v5
# documents remain valid inputs without them.
MANIFEST_COUNTERS_V6 = (
    "load_sample.messages", "load_sample.bytes",
)


# Keys the optional per-response "service" section carries when a manifest
# was replied by dlouvaind rather than written by the CLI (see
# docs/SERVICE.md; catalog in docs/OBSERVABILITY.md).
SERVICE_KEYS = (
    "job_id", "cache_hit", "queue_depth", "jobs_served", "cache_hits",
    "cache_misses", "rejected", "sessions_open", "drain",
)


def check_manifest(manifest, failures):
    """Validate a --metrics-out run manifest; append problems to failures."""
    schema = manifest.get("schema", "")
    if not schema.startswith("dlouvain-run-manifest/"):
        failures.append(f"manifest schema '{schema}' is not a run manifest")
        return
    # Optional service section: present only on manifests replied by the
    # dlouvaind daemon; when present it must carry the whole catalog.
    if "service" in manifest:
        service = manifest["service"]
        if not isinstance(service, dict):
            failures.append("manifest service section is not an object")
        else:
            for key in SERVICE_KEYS:
                if key not in service:
                    failures.append(f"manifest service section missing '{key}'")
            if service.get("drain") not in ("none", "draining", "clean"):
                failures.append(
                    f"manifest service drain state "
                    f"'{service.get('drain')}' is not none/draining/clean")
    engine = manifest.get("engine")
    recovery = manifest.get("recovery")
    if not isinstance(recovery, dict):
        failures.append("manifest carries no recovery object")
    # v2 adds the always-present streaming "updates" section; v1 documents
    # (no updates object) remain valid inputs.
    version = schema.rsplit("/", 1)[-1]
    if version.isdigit() and int(version) >= 2:
        if not isinstance(manifest.get("updates"), dict):
            failures.append("v2 manifest carries no updates object")
    if engine != "distributed":
        return  # serial/shared manifests carry no counters by design
    # v4-v6 carry the always-present "overlap" object recording the overlap
    # mode and its cost-model decision + inputs; v7 dropped it with the
    # overlap modes.
    if version.isdigit() and 4 <= int(version) <= 6:
        overlap = manifest.get("overlap")
        if not isinstance(overlap, dict):
            failures.append("v4 distributed manifest carries no overlap object")
        else:
            for key in ("mode", "decision", "decided", "predicted_hidden_s",
                        "measured_latency_s", "phases_engaged",
                        "phases_declined"):
                if key not in overlap:
                    failures.append(f"manifest overlap object missing '{key}'")
            if overlap.get("decision") not in ("on", "off", "undecided"):
                failures.append(
                    f"manifest overlap decision "
                    f"'{overlap.get('decision')}' is not on/off/undecided")
    # v5 adds the per-phase load/time lambdas.
    if version.isdigit() and int(version) >= 5 and engine == "distributed":
        for ph in manifest.get("phases_detail", []):
            if "load_lambda" not in ph or "time_lambda" not in ph:
                failures.append("v5 phases_detail entry missing load/time lambda")
                break
    counters = manifest.get("counters", {})
    required = MANIFEST_COUNTERS
    if version.isdigit() and int(version) <= 7:
        required = required + MANIFEST_COUNTERS_V1_TO_V7
    if version.isdigit() and int(version) >= 3:
        required = required + MANIFEST_COUNTERS_V3
    if version.isdigit() and 4 <= int(version) <= 6:
        required = required + MANIFEST_COUNTERS_V4
    if version.isdigit() and int(version) >= 6:
        required = required + MANIFEST_COUNTERS_V6
    for name in required:
        if name not in counters:
            failures.append(f"manifest counters missing '{name}'")
    restored = manifest.get("restored", {})
    executed = counters.get("comm.messages", 0)
    total = manifest.get("messages", 0)
    if restored.get("messages", 0) + executed != total:
        failures.append(
            f"manifest messages {total} != restored {restored.get('messages', 0)} "
            f"+ executed {executed} (counter-semantics contract broken)")
    print(f"manifest: {engine} run, {total} messages "
          f"({executed} executed, {restored.get('messages', 0)} restored): ok")


def check_arq_section(arq, failures):
    """Validate the PR7 rung-1 ARQ-overhead trail; append problems to failures.

    The contracts are structural, not timing-based (wall clocks on a loaded
    or single-core host are noise): (1) retransmission is a repair mechanism
    only, so all four runs -- ARQ off, ARQ on clean, lossy, corrupting --
    must have produced identical bits; (2) every injected drop costs at
    least one retransmission (repair, never a silent skip); (3) faults at
    the sub-threshold rate must never exhaust the retry budget.
    """
    for key in ("identical", "baseline_seconds", "clean_seconds",
                "loss_seconds", "corrupt_seconds", "injected_losses",
                "injected_corruptions", "retransmits_loss",
                "retransmits_corrupt", "escalations"):
        if key not in arq:
            failures.append(f"arq section missing '{key}'")
            return
    print(f"arq trail: ranks={arq.get('ranks')} "
          f"{arq.get('messages_per_rank')} msgs/rank  "
          f"baseline {arq['baseline_seconds']:.3f}s, clean "
          f"{arq['clean_seconds']:.3f}s, loss {arq['loss_seconds']:.3f}s "
          f"({arq['injected_losses']} drops / {arq['retransmits_loss']} "
          f"retransmits), corrupt {arq['corrupt_seconds']:.3f}s "
          f"({arq['injected_corruptions']} hits / {arq['retransmits_corrupt']} "
          f"retransmits)")
    if arq["identical"] is not True:
        failures.append("ARQ runs did not produce results identical to the "
                        "clean baseline")
    if arq["escalations"] != 0:
        failures.append(
            f"{arq['escalations']} message(s) exhausted the retransmit budget "
            f"at the sub-threshold fault rate")
    if arq["injected_losses"] > 0 and \
            arq["retransmits_loss"] < arq["injected_losses"]:
        failures.append(
            f"only {arq['retransmits_loss']} retransmit(s) for "
            f"{arq['injected_losses']} injected drop(s); every loss must be "
            f"repaired by the link layer")
    if arq["injected_corruptions"] > 0 and arq["retransmits_corrupt"] < 1:
        failures.append(
            f"{arq['injected_corruptions']} injected corruption(s) but no "
            f"retransmissions; the checksum lane is not catching them")
    if arq["injected_losses"] == 0 and arq["injected_corruptions"] == 0:
        failures.append("fault scenarios injected nothing; the trail proves "
                        "no repair happened (raise the stream volume)")


def check_update_section(update, min_speedup, mod_tolerance, failures):
    """Validate the PR6 streaming-update trail; append problems to failures."""
    for key in ("speedup", "modularity_delta", "update_seconds_mean",
                "scratch_seconds", "touched_fraction"):
        if key not in update:
            failures.append(f"update section missing '{key}'")
            return
    print(f"update trail: ranks={update.get('ranks')} "
          f"batches={update.get('batches')}x{update.get('batch_edges')} edges  "
          f"update {update['update_seconds_mean']:.3f}s vs scratch "
          f"{update['scratch_seconds']:.3f}s = {update['speedup']:.2f}x "
          f"(floor {min_speedup:.2f}x), |dQ| {update['modularity_delta']:.2e} "
          f"(tol {mod_tolerance:.0e}), touched "
          f"{update['touched_fraction']:.2%}/batch, "
          f"{update.get('fallbacks', 0)} fallback(s)")
    if update["speedup"] < min_speedup:
        failures.append(
            f"Session::update only {update['speedup']:.2f}x faster than "
            f"from-scratch (floor {min_speedup:.2f}x)")
    if update["modularity_delta"] > mod_tolerance:
        failures.append(
            f"session modularity drifted {update['modularity_delta']:.2e} from "
            f"the from-scratch run (tolerance {mod_tolerance:.0e})")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--current", help="fresh results JSON (skip running the bench)")
    parser.add_argument("--bench", help="micro_kernels binary to produce fresh results")
    parser.add_argument("--scale", type=int, default=12, help="RMAT scale for --bench")
    parser.add_argument("--dist-scale", type=int, default=10,
                        help="RMAT scale for the pr3 breakdown run")
    parser.add_argument("--reps", type=int, default=3, help="best-of repetitions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed per-kernel slowdown vs baseline (0.25 = 25%%)")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="required hash/flat local-move ratio in the fresh run")
    parser.add_argument("--manifest",
                        help="also validate this --metrics-out run manifest")
    parser.add_argument("--emit",
                        choices=("pr3", "pr6", "pr7", "pr8"),
                        default="pr3",
                        help="which trail --bench should produce (default pr3)")
    parser.add_argument("--ranks", type=int, default=8,
                        help="ranks for the pr6 session / pr7 ARQ runs")
    parser.add_argument("--min-update-speedup", type=float, default=3.0,
                        help="required Session::update vs from-scratch speedup "
                             "when an update section is present")
    parser.add_argument("--mod-tolerance", type=float, default=1e-3,
                        help="allowed |session - scratch| modularity gap for "
                             "the update section")
    parser.add_argument("--min-lane-speedup", type=float, default=1.05,
                        help="required flat/segmented local-move ratio for "
                             "the pr8 trail")
    args = parser.parse_args()

    if bool(args.current) == bool(args.bench):
        parser.error("pass exactly one of --current or --bench")

    if args.bench:
        fd, current_path = tempfile.mkstemp(suffix=".json",
                                            prefix=f"bench_{args.emit}_")
        os.close(fd)
        cmd = [
            args.bench,
            f"--{args.emit}_json={current_path}",
            f"--{args.emit}_scale={args.scale}",
            f"--{args.emit}_reps={args.reps}",
        ]
        if args.emit == "pr3":
            cmd += [f"--pr3_dist_scale={args.dist_scale}"]
        elif args.emit == "pr6":
            cmd += [f"--pr6_ranks={args.ranks}"]
        elif args.emit == "pr7":
            cmd += [f"--pr7_ranks={args.ranks}"]
        print("+", " ".join(cmd), flush=True)
        result = subprocess.run(cmd)
        if result.returncode != 0:
            print(f"FAIL: bench exited with {result.returncode}")
            return 1
    else:
        current_path = args.current

    baseline = load(args.baseline, "baseline")
    current = load(current_path, "current")

    failures = []
    if args.manifest:
        check_manifest(load(args.manifest, "manifest"), failures)
    if "update" in current:
        check_update_section(current["update"], args.min_update_speedup,
                             args.mod_tolerance, failures)
    if "arq" in current:
        check_arq_section(current["arq"], failures)
    if current.get("bench") == "micro_kernels.pr8":
        lane_ratio = current.get("ratios", {}).get("flat_over_best_lane")
        if lane_ratio is None:
            failures.append("pr8 results carry no flat_over_best_lane ratio")
        else:
            print(f"sweep-kernel speedup (flat/segmented, same machine, "
                  f"interleaved reps): {lane_ratio:.2f}x "
                  f"(floor {args.min_lane_speedup:.2f}x)")
            if lane_ratio < args.min_lane_speedup:
                failures.append(
                    f"segmented kernel only {lane_ratio:.2f}x faster than the "
                    f"flat gather baseline "
                    f"(floor {args.min_lane_speedup:.2f}x)")
    base_kernels = baseline.get("kernels", {})
    curr_kernels = current.get("kernels", {})
    same_input = baseline.get("graph") == current.get("graph")
    for name in sorted(set(base_kernels) & set(curr_kernels)):
        base_ns = base_kernels[name]["ns_per_arc"]
        curr_ns = curr_kernels[name]["ns_per_arc"]
        slowdown = curr_ns / base_ns - 1.0
        status = "ok"
        # A smaller smoke input can legitimately be faster per arc (cache
        # residency); only a SLOWDOWN beyond tolerance fails.
        if slowdown > args.tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {curr_ns:.2f} ns/arc vs baseline {base_ns:.2f} "
                f"(+{100 * slowdown:.1f}% > {100 * args.tolerance:.0f}%)")
        note = "" if same_input else " [different input size]"
        print(f"{name}: {curr_ns:8.2f} ns/arc  baseline {base_ns:8.2f}  "
              f"({slowdown:+.1%}) {status}{note}")

    ratio = current.get("ratios", {}).get("local_move_hash_over_flat")
    if ratio is None:
        # The kernel-ratio floor applies to kernel trails (pr3/pr8); a pr6
        # update trail carries no kernel table by design.
        if "kernels" in current or "kernels" in baseline:
            failures.append("current results carry no local_move_hash_over_flat ratio")
    else:
        print(f"local-move speedup (hash/flat, same machine): {ratio:.2f}x "
              f"(floor {args.min_speedup:.2f}x)")
        if ratio < args.min_speedup:
            failures.append(
                f"flat local-move kernel only {ratio:.2f}x faster than the hash "
                f"baseline (floor {args.min_speedup:.2f}x)")

    if failures:
        print("\nFAIL:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
