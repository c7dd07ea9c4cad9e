"""Benchmark of the rootsplit command-line tool.

Run from the repository root:

    python3 bench/run.py --workload catalog_r3 --seed 1 --seconds 50 --trace 0

Workloads (workloads.py says what each one runs and why): catalog_r3 and
classify_wolf_r8, which BENCHMARK.json lists, subsystems_r4, which is too
unsteady to list, and catalog_r4 and wolf_r8, which fail on known defects
of the program. Each workload is a fixed list of ``rootsplit`` command
lines, run in-process through ``rootsplit.cli.main`` so that import cost
stays out of the timed passes.
Whole passes repeat for about ``--seconds``; every output is checked against
known answers and against the first pass's bytes. Before each op the
garbage collector runs untimed, so that every op starts from a clean heap,
as it would in a fresh ``rootsplit`` process.

Every timed step (an op, or the set-up in a fresh process) is followed by
the fixed reference work of reference.py, and its time is divided by the
mean of the reference times on either side of it and reported in seconds at
the reference's full speed. This takes out the drift in the speed of a
shared machine, which no estimator over raw times of one run can.

End-to-end metrics (``--trace 0``), all in those scaled seconds:

- wall_s: one pass, as the sum over ops of each op's median time;
- op_s.p50, op_s.p90: percentiles over the ops of those median times;
- setup_s: median over fresh processes, spread over the run, of importing
  rootsplit, building and validating the catalog systems the workload
  needs, and generating its inputs;
- peak_rss_mb: peak resident memory of the benchmark process.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
per function of rootsplit (tracing.py): calls, seconds and self seconds (as
measured, not scaled) and work counts of one traced pass plus the traced
set-up, and the tracing overhead. Failed ops over attempted ops (fail_frac)
is in the result file.

Every run writes its facts, per-op times and problems to
``bench/out/<workload>_seed<n>_trace<t>.json`` (traced runs also write their
spans), prints the metrics by name with their units, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from reference import Reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh processes whose set-up is timed per run; setup_s is their median
SETUP_REPEATS = 30
SETUP_TIMEOUT_S = 120
#: op id of the traced in-process set-up
SETUP_OP = "setup"

#: functions that every workload of BENCHMARK.json calls; their times are
#: per-layer metrics. A function a workload never calls would report a time
#: of exactly 0 on every run, so for the others only calls and work counts
#: are per-layer metrics; their times are in the result file's full table.
TIMED_LAYERS = (
    "cli.main",
    "pipeline.classify_subsystem",
    "pipeline.describe_subsystem",
    "splitting.find_splittings",
    "splitting.check_constraints",
    "subalgebra.closed_subsystem",
    "subalgebra.wolf_subsystem",
    "catalog.components",
    "catalog.identify_type",
    "catalog.highest_root",
    "catalog.normalize",
    "catalog.build",
    "rootcore.validate_root_system",
)
#: per-layer work counts: (metric, function, counter, unit)
LAYER_COUNTS = (
    ("catalog.weyl_group.elements", "catalog.weyl_group", "elements", "count"),
    ("subalgebra.enumerate_closed_subsystems.classes",
     "subalgebra.enumerate_closed_subsystems", "classes", "count"),
    ("splitting.find_splittings.weights_in", "splitting.find_splittings", "weights_in", "count"),
    ("splitting.find_splittings.certificates", "splitting.find_splittings",
     "certificates", "count"),
    ("report.emit.bytes", "report.emit", "bytes", "bytes"),
)
#: per-layer ratios of useful outcomes to calls: (metric, function, counter)
LAYER_RATIOS = (
    ("subalgebra.is_wolf_pair.true_frac", "subalgebra.is_wolf_pair", "true"),
    ("splitting.find_splittings.hit_frac", "splitting.find_splittings", "hits"),
)


@dataclass
class OpRun:
    op_id: int
    op: object  # workloads.Op
    start_ns: int
    end_ns: int
    code: int | None  # None if the command raised
    data: bytes
    stderr: str
    scaled: float  # seconds at the reference speed (reference.py)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def op_seconds(passes: list[list[OpRun]]) -> list[float]:
    """Each op's median scaled time over the passes."""
    return [statistics.median(rows[i].scaled for rows in passes)
            for i in range(len(passes[0]))]


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: import rootsplit, build and validate
    the catalog systems, generate the inputs."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_pass(wl, ids, out_path: Path, ref: Reference, tracer=None) -> list[OpRun]:
    from rootsplit import cli

    rows = []
    for op in wl.ops:
        op_id = next(ids)
        if tracer is not None:
            tracer.op = op_id
        out_path.unlink(missing_ok=True)
        err = io.StringIO()
        gc.collect()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = cli.main([*op.argv, "--output", str(out_path)])
            except Exception:  # a crash is a failed op; the run goes on
                code = None
                err.write(traceback.format_exc())
            end = time.perf_counter_ns()
        data = out_path.read_bytes() if out_path.exists() else b""
        rows.append(OpRun(op_id, op, start, end, code, data, err.getvalue(),
                          ref.scaled((end - start) / 1e9)))
    return rows


def timed_passes(wl, seconds: float, out_path: Path, setup, tracer=None):
    """Rounds of one untraced pass, followed by one traced pass when a tracer
    is given, until another round would end after ``seconds``; at least one.
    Between rounds, ``setup()`` runs as often as keeps SETUP_REPEATS of them
    spread over the run. Returns the passes, each as (traced, rows), and the
    scaled set-up times."""
    ref = Reference()
    ids = itertools.count()
    passes, setups = [], []
    started = time.perf_counter()
    rounds = 0
    while True:
        passes.append((False, run_pass(wl, ids, out_path, ref)))
        if tracer is not None:
            tracer.install()
            try:
                passes.append((True, run_pass(wl, ids, out_path, ref, tracer)))
            finally:
                tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - started
        done = elapsed + elapsed / rounds > seconds
        while len(setups) < (SETUP_REPEATS if done else SETUP_REPEATS * elapsed / seconds):
            setups.append(ref.scaled(setup()))
        if done:
            break
    out_path.unlink(missing_ok=True)
    return passes, setups


def op_problems(row: OpRun, first: OpRun) -> list[str]:
    if row.code != 0:
        return [f"exit code {row.code}: {row.stderr.strip()[-400:]}"]
    try:
        problems = row.op.check(row.data)
    except (ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if row.data != first.data:
        problems.append("output bytes differ from the first pass")
    return problems


def machine_facts() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # not a checkout of its own
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git
        return "unknown"
    return proc.stdout.strip() or "unknown"


def layer_metrics(tracer, traced_passes: list[list[OpRun]], overhead: float):
    """Per-function table of one traced pass (the low median over traced
    passes, so counts stay whole) plus the traced set-up, and the per-layer
    metrics taken from it."""
    tables = [tracer.table({r.op_id for r in rows}) for rows in traced_passes]
    setup_table = tracer.table({SETUP_OP})
    full = {}
    for name, setup_row in setup_table.items():
        keys = set(setup_row).union(*(t[name] for t in tables))
        full[name] = {k: setup_row.get(k, 0)
                      + statistics.median_low(t[name].get(k, 0) for t in tables)
                      for k in sorted(keys)}
    metrics = {}
    for name, row in full.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        if name in TIMED_LAYERS:
            metrics[f"{name}.s"] = (row["s"], "s")
            metrics[f"{name}.self_s"] = (row["self_s"], "s")
    for metric, name, key, unit in LAYER_COUNTS:
        metrics[metric] = (full[name].get(key, 0), unit)
    for metric, name, key in LAYER_RATIOS:
        calls = full[name]["calls"]
        metrics[metric] = (full[name].get(key, 0) / calls if calls else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics, full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the seconds it took")
    args = parser.parse_args(argv)

    if not (SRC / "rootsplit" / "__init__.py").is_file():
        print(f"bench: no rootsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    import workloads  # imports rootsplit from SRC

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    wl = workloads.setup(args.workload, args.seed)
    if args.setup_only:
        print(time.perf_counter() - started)
        return 0

    import rootsplit
    from rootsplit import catalog

    if SRC not in Path(rootsplit.__file__).resolve().parents:
        print(f"bench: rootsplit was imported from {rootsplit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    own_problems = []
    if "generated" in wl.inputs:
        own_problems += workloads.check_conjugates(args.seed, wl.inputs["generated"])

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        catalog.build.cache_clear()  # so that the traced set-up builds again
        tracer.install()
        tracer.op = SETUP_OP
        try:
            setup_start = time.perf_counter_ns()
            workloads.setup(args.workload, args.seed)
            setup_end = time.perf_counter_ns()
        finally:
            tracer.uninstall()
    passes, setup_times = timed_passes(
        wl, args.seconds, OUT_DIR / f"{stem}.op-output",
        lambda: fresh_setup_seconds(args.workload, args.seed), tracer)

    first = passes[0][1]
    failures = []
    for p, (_, rows) in enumerate(passes):
        for row, first_row in zip(rows, first):
            problems = op_problems(row, first_row)
            if problems:
                failures.append({"pass": p, "op": row.op.label, "problems": problems})
    attempted = sum(len(rows) for _, rows in passes)
    per_op = op_seconds([rows for traced, rows in passes if not traced])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
        "inputs": wl.inputs,
        "setup_s_samples": setup_times,
        "passes": [{"traced": traced, "wall_s": sum(r.seconds for r in rows),
                    "ops": [[r.op.label, r.seconds, r.scaled] for r in rows]}
                   for traced, rows in passes],
        "op_s": dict(zip((op.label for op in wl.ops), per_op)),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
    }
    if tracer is not None:
        traced_passes = [rows for traced, rows in passes if traced]
        windows = {SETUP_OP: (setup_start, setup_end)}
        windows.update({r.op_id: (r.start_ns, r.end_ns) for rows in traced_passes for r in rows})
        own_problems += tracer.tree_problems(windows)
        overhead = sum(op_seconds(traced_passes)) / sum(per_op) - 1
        metrics, result["layer_table"] = layer_metrics(tracer, traced_passes, overhead)
        spans_path = OUT_DIR / f"{stem}_spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        result["spans_file"] = spans_path.name
    else:
        metrics = {
            "wall_s": (sum(per_op), "s"),
            "op_s.p50": (percentile(per_op, 0.5), "s"),
            "op_s.p90": (percentile(per_op, 0.9), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["benchmark_problems"] = own_problems
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} passes={len(passes)} ops={attempted} "
          f"fail_frac={result['fail_frac']:.4f} ({len(failures)}/{attempted})")
    for problem in own_problems + [f"{f['op']}: {p}" for f in failures[:10] for p in f["problems"]]:
        print(f"  problem: {problem}")
    if tracer is not None:
        print(f"{'function':45} {'calls':>8} {'s':>10} {'self_s':>10}")
        for name, row in result["layer_table"].items():
            print(f"{name:45} {row['calls']:8g} {row['s']:10.4f} {row['self_s']:10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not own_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
