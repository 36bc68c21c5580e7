"""One fresh interpreter running one workload: set-up, then a closed loop.

Started by run.py, never by hand.  It prints ``READY`` when set-up ends
(imports, seeded inputs, input files, known answers), then runs ops one
after another until ``--seconds`` of op time have been measured or
``--ops`` ops have run, and prints one JSON line with the raw results.
After each op, outside its time, it times a short fixed loop (the probe)
so that run.py can correct op times for the host's speed at that moment.

Modes: ``setup`` stops after READY; ``run`` measures; ``trace`` measures
with the tracer installed.  A cli op calls ``tuttekit.cli.main`` in this
process; its answer is checked after the loop, outside op time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

PROBE_ITERATIONS = 20_000

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--ops", type=int, default=None)
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import workloads as wl

    pool = wl.make_pool(args.workload, args.seed)
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, wl, pool, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, pool, workdir) -> int:
    is_cli = args.workload == "cli"
    argvs = [wl.cli_argv(inp, i, workdir) for i, inp in enumerate(pool)] if is_cli else None

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(wl.bell)
        tracer.install()
    memo_before = len(wl.invariants._delcon_memo)
    known_bad = wl.known_answer_failures(workdir)
    print("READY", flush=True)
    setup_probe = statistics.median(spin_s(PROBE_ITERATIONS) for _ in range(5))
    if args.mode == "setup":
        print(json.dumps({"setup_probe_s": setup_probe}), flush=True)
        return 0
    gc.collect()

    op = wl.OPS.get(args.workload)
    latencies: list[float] = []
    failures: list[str] = [f"known answer: {m}" for m in known_bad]
    failed = 0
    unattributed = 0.0
    measured = 0.0
    outcomes = []
    probes: list[float] = []  # host speed right after each op, outside its time
    for i, inp in enumerate(pool):
        if args.ops is not None and i >= args.ops:
            break
        if args.ops is None and measured >= args.seconds:
            break
        if tracer is not None:
            tracer.op = i
            top0 = tracer.top_s
        t0 = perf_counter()
        try:
            if is_cli:
                outcomes.append(wl.cli_main_inprocess(argvs[i]))
            else:
                bad = op(inp)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            bad = [f"raised {exc!r}"]
            if is_cli:
                outcomes.append((None, repr(exc)))
        d = perf_counter() - t0
        probes.append(spin_s(PROBE_ITERATIONS))
        latencies.append(d)
        measured += d
        if tracer is not None:
            unattributed += d - (tracer.top_s - top0)
        if not is_cli and bad:
            failed += 1
            failures.append(f"op {i} {inp!r}: {bad}")

    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(wl.invariants._delcon_memo) - memo_before)
        layers["trace.unattributed_s"] = unattributed
    if is_cli:
        memo: dict = {}
        for i, (code, stderr) in enumerate(outcomes):
            try:
                bad = wl.check_cli(pool[i], code, stderr, _read_json(argvs[i][-1]), memo)
            except Exception as exc:  # a checker crash counts against the op
                bad = [f"check raised {exc!r}"]
            if bad:
                failed += 1
                failures.append(f"op {i} {argvs[i][:2]}: {bad}")

    result = {
        "ops": len(latencies),
        "failed": failed + (1 if known_bad else 0),
        "failures": failures[:10],
        "latencies_s": latencies,
        "measured_s": measured,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probes_s": probes,
        "setup_probe_s": setup_probe,
    }
    if tracer is not None:
        result["layers"] = layers
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


def spin_s(iterations: int) -> float:
    """Seconds taken by a fixed pure-Python loop: the host-speed probe."""
    t0 = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return perf_counter() - t0


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
