"""tuttekit benchmark: one workload, one seed, every metric by name.

    python3 bench/run.py --workload invariants --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Each measurement runs in a fresh interpreter (worker.py), so the
library's module-level caches start empty as in a user's session.  Load is
a closed loop with one caller.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of the workload's ops untraced, then the same ops traced, each in a
fresh interpreter, and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it carries the host
record and run details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import worker  # this directory is on sys.path when run.py is run as a script

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPS = 5
STARTUP_REPS = 7
WORKLOADS = ("invariants", "kernel", "quasi", "cli")
# The highest percentile with at least ten ops beyond it at the op count a
# run reaches on the reference host; workloads.py sizes its schedules so
# that it falls inside a band of like ops.
TAIL_PERCENTILE = 95
# Ops of a traced run: whole schedule cycles, about ten seconds untraced;
# fixed so that counts repeat exactly from run to run.
TRACE_OPS = {"invariants": 100, "kernel": 360, "quasi": 160, "cli": 80}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


PER_LAYER = [
    ("combinatorics.enumerate_set_partitions.items", "count", "lower"),
    ("combinatorics.enumerate_set_partitions.busy_s", "s", "lower"),
    ("combinatorics.TPoly.ops", "count", "lower"),
    ("combinatorics.TPoly.self_s", "s", "lower"),
    ("graphs.canonical_form.calls", "count", "lower"),
    ("graphs.canonical_form.self_s", "s", "lower"),
    ("graphs.connected_partitions.items", "count", "lower"),
    ("graphs.connected_partitions.busy_s", "s", "lower"),
    ("graphs.contract_edge_set.calls", "count", "lower"),
    ("graphs.contract_edge_set.self_s", "s", "lower"),
    ("graphs.internal_edge_count.calls", "count", "lower"),
    ("graphs.internal_edge_count.self_s", "s", "lower"),
    ("graphs.is_bright_star_forest.calls", "count", "lower"),
    ("graphs.is_bright_star_forest.self_s", "s", "lower"),
    ("graphs.star_forest_canonical_map.calls", "count", "lower"),
    ("symfun.mtilde_to_m.self_s", "s", "lower"),
    ("symfun.m_to_e.calls", "count", "lower"),
    ("symfun.m_to_e.self_s", "s", "lower"),
    ("symfun.m_to_p.calls", "count", "lower"),
    ("symfun.m_to_p.self_s", "s", "lower"),
    ("symfun.degrees_built", "count", "lower"),
    ("invariants.tutte_sym.calls", "count", "lower"),
    ("invariants.tutte_sym.self_s", "s", "lower"),
    ("invariants.chromatic_sym.calls", "count", "lower"),
    ("invariants.chromatic_sym.self_s", "s", "lower"),
    ("invariants.tutte_from_contractions.self_s", "s", "lower"),
    ("invariants.tutte_from_connected_partitions.self_s", "s", "lower"),
    ("invariants.delcon.calls", "count", "lower"),
    ("invariants.delcon.self_s", "s", "lower"),
    ("invariants.delcon.memo_hit_ratio", "ratio", "higher"),
    ("kernel.is_tutte_friendly.calls", "count", "lower"),
    ("kernel.is_tutte_friendly.self_s", "s", "lower"),
    ("kernel.is_x_friendly.calls", "count", "lower"),
    ("kernel.is_x_friendly.self_s", "s", "lower"),
    ("kernel.b_value.calls", "count", "lower"),
    ("kernel.b_value.self_s", "s", "lower"),
    ("kernel.friendly_scan.partitions", "count", "lower"),
    ("kernel.friendly_scan.scanned_over_bell", "ratio", "lower"),
    ("kernel.reduce_to_star_forests.calls", "count", "lower"),
    ("kernel.reduce_to_star_forests.self_s", "s", "lower"),
    ("kernel.reduce.steps.loop", "count", "lower"),
    ("kernel.reduce.steps.multi", "count", "lower"),
    ("kernel.reduce.steps.os_plus", "count", "lower"),
    ("kernel.reduce.steps.iso", "count", "lower"),
    ("kernel.replay_certificate.self_s", "s", "lower"),
    ("kernel.kernel_membership.self_s", "s", "lower"),
    ("kernel.combination_tutte_sym.self_s", "s", "lower"),
    ("kernel.witness_graph.self_s", "s", "lower"),
    ("kernel.witness_mtilde_coefficient.self_s", "s", "lower"),
    ("quasi.tq.calls", "count", "lower"),
    ("quasi.tq.self_s", "s", "lower"),
    ("quasi.xq.calls", "count", "lower"),
    ("quasi.xq.self_s", "s", "lower"),
    ("quasi.colorings", "count", "lower"),
    ("quasi.tq_from_connected_partitions.self_s", "s", "lower"),
    ("quasi.tq_from_arc_subsets.self_s", "s", "lower"),
    ("quasi.truncate_symfunc.self_s", "s", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.error_contract_ok_frac", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("host.calib_ms", "ms", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values: list[float], q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty list")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# The probe's time on the host where the baseline was recorded.  Each
# in-process op time is scaled by it over the median of the probes taken
# around that op, so that a neighbour slowing the whole shared host, for
# seconds or for minutes, does not read as a slower program.
REFERENCE_PROBE_S = 0.002
PROBE_WINDOW = 10  # probes on each side of an op


def host_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Times as they would read at the reference probe speed."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        out.append(t * REFERENCE_PROBE_S / local)
    return out


def calib_ms() -> float:
    """Median time of a fixed pure-Python loop, to compare hosts."""
    return statistics.median(worker.spin_s(300_000) for _ in range(5)) * 1000


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "calib_ms": calib_ms(),
    }


def spawn(workload: str, seed: int, seconds: float, mode: str, ops: int | None = None) -> tuple[float, dict]:
    """Run worker.py; returns (seconds from start to READY, its result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {mode} exited with {code}")
    return ready, json.loads(lines[-1])


def cli_probes() -> dict[str, float]:
    """Interpreter start-up with tuttekit.cli, and the CLI's error contract."""
    sys.path.insert(0, SRC)
    import workloads as wl

    env = wl.cli_env(SRC)
    times = []
    for _ in range(STARTUP_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import tuttekit.cli"], env=env, check=True)
        times.append((perf_counter() - t0) * 1000)
    workdir = os.path.join(ROOT, ".bench_out", f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    calls = wl.malformed_calls(workdir)
    ok = sum(wl.error_contract_ok(*wl.run_cli(argv, env, workdir)) for argv in calls)
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    os.rmdir(workdir)
    return {"cli.startup_ms": statistics.median(times), "cli.error_contract_ok_frac": ok / len(calls)}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    runs = [spawn(workload, seed, seconds, "setup") for _ in range(SETUP_REPS - 1)]
    runs.append(spawn(workload, seed, seconds, "run"))
    res = runs[-1][1]
    setups = host_scaled([ready for ready, _ in runs], [out["setup_probe_s"] for _, out in runs])
    raw = [x * 1000 for x in res["latencies_s"]]
    scaled = host_scaled(raw, res["probes_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": 1000 * len(scaled) / sum(scaled),
        "latency_p50_ms": percentile(scaled, 50),
        "latency_tail_ms": percentile(scaled, TAIL_PERCENTILE),
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    res["unscaled"] = {
        "throughput_ops_s": res["ops"] / res["measured_s"],
        "latency_p50_ms": percentile(raw, 50),
        "latency_tail_ms": percentile(raw, TAIL_PERCENTILE),
        "setup_s": statistics.median(ready for ready, _ in runs),
        "probe_median_ms": statistics.median(res["probes_s"]) * 1000,
    }
    return res, metrics


def per_layer(workload: str, seed: int, seconds: float, calib: float) -> tuple[dict, dict]:
    ops = TRACE_OPS[workload]
    _, plain = spawn(workload, seed, seconds, "run", ops=ops)
    _, res = spawn(workload, seed, seconds, "trace", ops=ops)
    metrics = dict(res["layers"])
    metrics.update(cli_probes())
    metrics["trace.overhead_frac"] = res["measured_s"] / plain["measured_s"] - 1
    metrics["host.calib_ms"] = calib
    # both runs check every answer, so both count as attempted
    res["ops"] += plain["ops"]
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    res["runs"] = 2
    return res, metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tuttekit", "__init__.py")):
        print(f"error: no tuttekit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    host = host_record()
    if args.trace:
        res, metrics = per_layer(args.workload, args.seed, args.seconds, host["calib_ms"])
        units = PER_LAYER_UNITS
    else:
        res, metrics = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END
    for msg in res["failures"]:
        print(f"failure: {msg}", file=sys.stderr)
    detail = {"workload": args.workload, "seed": args.seed, "host": host, "ops": res["ops"],
              "tail_percentile": TAIL_PERCENTILE, "unscaled": res.get("unscaled")}
    print(json.dumps(detail))
    # each run's known-answer block counts as one item
    attempted = res["ops"] + res.get("runs", 1)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": attempted,
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
