"""End-to-end and per-layer benchmark of bruhatlab.

    python3 perfbench/run.py --workload census --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` tree.  The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`.  The line before it is the
full record (environment stamp, failure witness, raw samples); `--out FILE`
also appends the record to FILE for `perfbench/compare.py`.

--trace 0 (end-to-end): the main process runs whole passes of ops in a
closed loop, as many as fit in --seconds and at least one.  Every pass runs
the same ops.  Before each pass the program is imported and set up afresh,
outside the timed window.  The run reports throughput, the median and 90th
percentile over the ops of each op's mean latency across passes, and peak
memory.  `setup_s` is the median of SETUP_PROBES fresh processes that each
import the program and build the workload's shared context.

--trace 1 (per-layer): four fresh processes each set up the workload and
run one pass, whatever --seconds says, alternately untraced and traced.
The per-layer metrics come from the first traced process.  The two traced
ones must agree on every call count.  The ratio of the median traced to the
median untraced wall time is reported as `trace.overhead_ratio`.

Exit status: 0 when every op and every check passed, 1 otherwise.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, OpFailed, load_bruhatlab  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
# every process the benchmark starts must end within this many seconds of
# its own start
DEADLINE_S = 170.0


def _setup(args):
    bl = load_bruhatlab(SRC)
    return bl, WORKLOADS[args.workload](bl, args.seed, args.size)


def _run_pass(work, failures) -> tuple:
    """Run one pass in a closed loop, then its pass check; return the wall
    time of each op and the number of ops failed."""
    ops = work.pass_ops()
    results, op_failures, times = [], [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append(work.run(op))
        except OpFailed as exc:
            op_failures.append(str(exc))
        except Exception:  # an op that raises is a failed op; keep measuring
            op_failures.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
    failed = len(op_failures)
    if not op_failures:
        problem = work.check_pass(results)
        if problem:
            op_failures.append(problem)
            failed = len(ops)
    failures.extend(op_failures)
    return times, failed


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _child(args, probe: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--probe", probe,
    ]
    remaining = DEADLINE_S - (time.perf_counter() - _T0)
    if remaining <= 0:
        raise RuntimeError("out of time before starting a probe process")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{probe} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- probe processes ------------------------------------------------------------


def probe_main(args) -> dict:
    if args.probe == "setup":
        _setup(args)
        return {"setup_s": time.perf_counter() - _T0}
    bl = load_bruhatlab(SRC)
    tracer = Tracer() if args.probe == "traced" else None
    if tracer:
        tracer.install(bl)
    t0 = time.perf_counter()
    work = WORKLOADS[args.workload](bl, args.seed, args.size)
    failures = []
    times, failed = _run_pass(work, failures)
    out = {
        "backend": bl.backend.BACKEND,
        "wall_s": time.perf_counter() - t0,
        "attempted": len(times),
        "failed": failed,
        "failures": failures[:3],
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
    return out


# -- the two kinds of run ---------------------------------------------------------


def end_to_end(args) -> dict:
    bl, work = _setup(args)
    main_setup_s = time.perf_counter() - _T0
    failures, passes, failed, setups = [], [], 0, []
    while True:
        # setup probes run between passes, outside the timed window, so
        # their median spans the run rather than one moment of it
        if len(setups) < SETUP_PROBES:
            setups.append(_child(args, "setup")["setup_s"])
        if passes:
            # a fresh import per pass: no pass reuses what another cached
            del bl, work
            gc.collect()
            bl, work = _setup(args)
        times, pass_failed = _run_pass(work, failures)
        passes.append(times)
        failed += pass_failed
        timed_s = sum(map(sum, passes))
        # stop before a pass that would likely overrun the window
        if timed_s * (len(passes) + 1) / len(passes) > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(_child(args, "setup")["setup_s"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # every pass runs the same ops: an op's latency is its mean over passes
    per_op = [statistics.fmean(col) for col in zip(*passes)]
    attempted = len(passes) * len(per_op)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((attempted - failed) / timed_s, "ops/s"),
        "op_ms.p50": (1e3 * statistics.median(per_op), "ms"),
        "op_ms.p90": (1e3 * _percentile(per_op, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "backend": bl.backend.BACKEND,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:3],
        "metrics": metrics,
        "detail": {
            "passes": len(passes),
            "ops_per_pass": len(per_op),
            "timed_s": timed_s,
            "main_setup_s": main_setup_s,
            "setup_s_samples": setups,
        },
    }


def per_layer(args) -> dict:
    plain, traced = [], []
    for _ in range(2):
        plain.append(_child(args, "plain"))
        traced.append(_child(args, "traced"))
    layers = traced[0]["layers"]
    calls = [
        {k: v for k, v in t["layers"].items() if k.endswith(".calls")}
        for t in traced
    ]
    failures = [f for t in plain + traced for f in t["failures"]]
    attempted = sum(t["attempted"] for t in plain + traced)
    failed = sum(t["failed"] for t in plain + traced)
    if calls[0] != calls[1]:
        diff = sorted(k for k in calls[0] if calls[0][k] != calls[1][k])
        failures.append(f"traced call counts differ between two runs: {diff}")
        failed = max(failed, 1)
    metrics = {k: tuple(v) for k, v in layers.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(t["wall_s"] for t in traced)
        / statistics.median(t["wall_s"] for t in plain),
        "ratio",
    )
    return {
        "backend": plain[0]["backend"],
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:3],
        "metrics": metrics,
        "detail": {
            "plain_wall_s": [t["wall_s"] for t in plain],
            "traced_wall_s": [t["wall_s"] for t in traced],
        },
    }


# -- environment stamp --------------------------------------------------------------


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over the program sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bruhatlab")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path) and name.endswith((".py", ".pyx")):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, backend: str) -> dict:
    import numpy

    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs A1, p=3 inputs (the smoke test)")
    ap.add_argument("--out", help="append the full record to this JSONL file")
    ap.add_argument("--probe", choices=("setup", "plain", "traced"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bruhatlab", "__init__.py")):
        print(f"no bruhatlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(probe_main(args)))
        return 0
    res = per_layer(args) if args.trace else end_to_end(args)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args, res["backend"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()
        },
        "detail": res["detail"],
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    correct = res["failed"] == 0
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
