"""Observatory benchmark entry point.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` prints the five end-to-end metrics of the workload;
``--trace 1`` runs the workload twice for half the seconds each, plain
then through the span-recording bootstrap, and prints the per-layer
metrics plus the tracing overhead.  ``--workload all`` runs the three
workloads in turn and prefixes each metric with its workload.  The last
stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a human-readable report and a
provenance stamp.  Run it from the root of a checkout; it exits
non-zero, printing no result, when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_warm", "serve_cold", "campaign")
#: Set-ups per run, half before and half after the timed window;
#: ``setup_s`` is their median.  A serve_cold set-up is a bare boot
#: (~0.2 s), so it takes more of them to be steady.
SETUP_REPS = {"serve_warm": 6, "serve_cold": 20, "campaign": 6}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def provenance(seed: int) -> dict:
    """Host, interpreter and source identity for the result."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "source_digest": digest.hexdigest()[:16],
            "seed": seed}


def measure(args: argparse.Namespace, workload: str
            ) -> tuple[dict, int, int, dict]:
    """Run one workload and print its report; returns its metrics,
    attempts, failures and failures by phase and kind."""
    from perfbench import layers, workloads
    from perfbench.oracle import FAILURE_KINDS
    from perfbench.report import END_TO_END, TAIL_Q, beyond, end_to_end

    phases = []
    ctx = workloads.Context(ROOT, args.seed, traced=False)
    try:
        if not args.trace:
            plain = workloads.run(ctx, workload, args.seconds,
                                  SETUP_REPS[workload])
            phases.append(("plain", plain))
        else:
            half = args.seconds / 2.0
            plain = workloads.run(ctx, workload, half, 1)
            ctx.traced = True
            traced = workloads.run(ctx, workload, half, 1)
            phases += [("plain", plain), ("traced", traced)]
    finally:
        ctx.cleanup()

    values = {name: end_to_end(phase, workload) for name, phase in phases}
    for name, phase in phases:
        ordered = sorted(phase.latencies)
        print(f"{workload} [{name}] "
              f"connections={workloads.CONNECTIONS.get(workload, 1)} "
              f"samples={len(ordered)} attempted={phase.attempted} "
              f"failed={phase.failed} tail=p{TAIL_Q[workload] * 100:g} "
              f"with {beyond(ordered, TAIL_Q[workload])} beyond, "
              f"window={phase.window_s:.2f}s setups="
              + ",".join(f"{s:.3f}" for s in phase.setups))
        for kind in FAILURE_KINDS:
            if phase.failures[kind]:
                print(f"  failed[{kind}] = {phase.failures[kind]}")
        for metric, unit in END_TO_END:
            print(f"  {metric:<12} {values[name][metric]:>12.4f} {unit}")
    metrics: dict[str, dict] = {}
    if not args.trace:
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": values["plain"][metric],
                               "unit": unit}
    else:
        layer = layers.per_layer(traced.spans, traced.window,
                                 traced.client, traced.stats, workload)
        layer["proc.cpu_ms_per_op"] = (
            plain.cpu_s * 1000.0 / max(1, len(plain.latencies)))
        layer["trace.overhead_p50_ms"] = (
            values["traced"]["p50_ms"] - values["plain"]["p50_ms"])
        layer["trace.overhead_rate_pct"] = 100.0 * (
            1.0 - values["traced"]["rate_per_s"]
            / values["plain"]["rate_per_s"])
        for metric, unit in layers.PER_LAYER:
            metrics[metric] = {"value": layer[metric], "unit": unit}
            print(f"  {metric:<32} {layer[metric]:>14.4f} {unit}")
    return (metrics, sum(phase.attempted for _, phase in phases),
            sum(phase.failed for _, phase in phases),
            {name: dict(phase.failures) for name, phase in phases})


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro in this checkout; nothing to "
              "measure", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every program process is reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, ROOT)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], check=True,
                   stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    stamp = provenance(args.seed)
    stamp.update(workload=args.workload, seconds=args.seconds,
                 trace=args.trace, failures={})
    for workload in names:
        values, tried, lost, failures = measure(args, workload)
        prefix = f"{workload}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in values.items()})
        attempted, failed = attempted + tried, failed + lost
        stamp["failures"][workload] = failures
    print("provenance " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        sys.exit(1)
