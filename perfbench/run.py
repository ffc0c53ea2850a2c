"""divbound benchmark: three seeded CLI workloads, end to end and per layer.

Usage, from the root of a source checkout (nothing is installed; divbound is
imported from src/):

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for sizes): verify_mix, curves_coding,
large_alphabet.  Each is a closed loop with one client: the next command is
issued only after the previous one returns, from one thread of one process.

The run generates the workload's inputs from the seed, times the cold start
of the CLI, then starts a fresh worker process that issues one warm-up round
and then timed rounds through click.testing.CliRunner until --seconds have
passed.  Every output is checked against independent references
(checks.py).  Times are reported in calibrated seconds: host seconds
scaled by a reference kernel timed in the same phase (calibrate.py), so
that the host's changing speed cancels.  With --trace 0 the last line
reports the end-to-end metrics;
with --trace 1 the worker alternates plain and traced rounds and the last
line reports the per-layer metrics, while the spans go to
perfbench/out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import calibrate
from checks import Checker
from spans import UNREACHABLE
from workloads import FINDING_PROBES, WORK_UNITS, WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> unit; every per-layer figure the traced run reports
PER_LAYER = {
    **{
        f"{name}.self_s": "s"
        for name in (
            "oracle.sample_batch", "oracle.fine_grid", "oracle.verify_min",
            "fdiv.batch_chernoff", "fdiv.batch_f_divergence", "fdiv.batch_bhattacharyya",
            "fdiv.batch_total_variation", "fdiv.f_divergence",
            "bounds.exact_kl_min", "bounds.inverse_exact_kl", "bounds.inverse_jeffreys",
            "coding.redundancy_sweep", "coding.l1_bounds", "coding.shannon_code", "coding.codespec",
            "textio.read_dist_file", "textio.read_lengths_file",
            "dist.make_dist", "dist.align", "jensen.sandwich",
            "cli", "textio", "dist", "fdiv", "bounds", "coding", "jensen", "oracle",
        )
    },
    "oracle.sample_batch.pairs": "count",
    "oracle.sign_sets.rounds": "count",
    "oracle.sign_sets.accept_ratio": "ratio",
    "oracle.fine_grid.pairs": "count",
    "fdiv.batch_chernoff.rows": "count",
    "fdiv.chernoff.objective_evals": "count",
    "fdiv.chernoff.elem_passes": "count",
    "fdiv.batch_f_divergence.elems": "count",
    "search.golden_section_min.calls": "count",
    "search.golden.objective_evals": "count",
    "search.bisect_increasing.calls": "count",
    "search.bisect.fn_evals": "count",
    "bounds.exact_kl_min.calls": "count",
    "coding.tightened_bound.calls": "count",
    "textio.bytes": "bytes",
    "textio.fmt_g12.calls": "count",
    "dist.align.calls": "count",
    "dist.align.union_labels": "count",
    "dist.align.fast_path_ratio": "ratio",
    "setup.divbound_import_s": "s",
    "trace.overhead_ratio": "ratio",
}


def machine() -> dict:
    """What the numbers were measured on; never compare across these."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    return info


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cold_start(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    return time.perf_counter() - t0, proc


def setup_seconds() -> tuple[float, float]:
    """Cold start of `python -m divbound.cli --help`, calibrated by a reference start.

    After one untimed pair, each of SETUP_REPEATS pairs runs the CLI start
    and then calibrate.REFERENCE_START.  Returns (the median of the pairs'
    ratios times calibrate.REFERENCE_START_S, the CLI start's median in
    host seconds).
    """
    times, ratios = [], []
    for i in range(SETUP_REPEATS + 1):
        dt, proc = _cold_start([sys.executable, "-m", "divbound.cli", "--help"])
        if proc.returncode != 0 or "Usage" not in proc.stdout:
            raise RuntimeError(f"cold start failed ({proc.returncode}): {proc.stderr[-500:]}")
        ref_dt, ref = _cold_start(calibrate.REFERENCE_START)
        if ref.returncode != 0:
            raise RuntimeError(f"reference start failed ({ref.returncode}): {ref.stderr[-500:]}")
        if i:
            times.append(dt)
            ratios.append(dt / ref_dt)
    return statistics.median(ratios) * calibrate.REFERENCE_START_S, statistics.median(times)


def divbound_import_seconds() -> float:
    """Median self time of divbound's own modules under -X importtime."""
    totals = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import divbound.cli"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
        )
        us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                if parts[2].strip().startswith("divbound"):
                    us += int(parts[0].split(":")[1])
        totals.append(us * 1e-6)
    return statistics.median(totals)


def run_worker(plan_file: Path, workdir: Path) -> tuple[dict, float]:
    """Start the worker, wait for it, return (its result, its peak RSS in MB)."""
    with open(workdir / "worker.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(plan_file)],
            cwd=ROOT, env=_env(), stdout=log, stderr=subprocess.STDOUT,
        )
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"worker still running after {WORKER_TIMEOUT_S} s")
            time.sleep(0.02)
    except BaseException:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}: {(workdir / 'worker.log').read_text()[-2000:]}"
        )
    with open(workdir / "result.json", encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def tail_note(n: int) -> str:
    """The highest percentile with at least ten samples beyond it, or why none."""
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return f"p{p:g} is the highest percentile with 10 samples beyond it ({n} commands)"
    return f"no tail percentile: {n} timed commands, and a p90 needs 100 for 10 samples beyond it"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "divbound" / "cli.py").is_file():
        print(f"error: no divbound sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / "_work"))
    try:
        return _run(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_outputs(plan, result):
    """(attempted, failed, problem lines, finding lines) over every output.

    Identical outputs of one command share a verdict.  The finding probes
    are checked the same way but never count as attempted or failed.
    """
    checker = Checker(plan)
    verdicts: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    for rnd in [result["warmup"], *result["rounds"], *result["traced"]]:
        for i, (code, stdout, err) in enumerate(rnd["out"]):
            key = (i, code, stdout)
            if key not in verdicts:
                verdicts[key] = checker.check(plan.commands[i], code, stdout)
                if verdicts[key]:
                    argv = " ".join(plan.commands[i].argv)
                    problems += [f"{argv}: {p}" for p in verdicts[key][:5]] + ([err] if err else [])
            attempted += 1
            failed += bool(verdicts[key])
    findings = [
        f"{' '.join(cmd.argv)}: {p}"
        for cmd, (code, stdout) in zip(FINDING_PROBES, result["probes"])
        for p in checker.check(cmd, code, stdout)
    ]
    return attempted, failed, problems, findings


def end_to_end(plan, result, setup, peak_rss_mb, failed, attempted) -> dict:
    rounds = result["rounds"]
    n = len(plan.commands)
    # Times are calibrated seconds (calibrate.py): each command's mean host
    # latency over the run's rounds, scaled by the mean of the kernel passes
    # interleaved with those rounds.  Means, not medians or minima, because
    # the host's speed changes within a command; the mean time of the
    # commands and the mean time of the kernel both follow its mean speed.
    scale = calibrate.scale([k for r in rounds for k in r["kernel"]])
    host = [statistics.fmean(r["cmd"][i] for r in rounds) for i in range(n)]
    cal = [t * scale for t in host]
    metrics = {
        "setup_s": setup[0],
        "wall_s": sum(cal),
        "cmd_p50_s": statistics.median(cal),
        "work_per_s": sum(c.units for c in plan.commands) / sum(cal),
        "peak_rss_mb": peak_rss_mb,
    }
    work_name, work_unit = WORK_UNITS[plan.workload]
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} cold starts of `python -m divbound.cli --help` "
                   f"over a reference start, times {calibrate.REFERENCE_START_S} s "
                   f"(host median {setup[1]:.6g} s)",
        "wall_s": f"one round of {n} commands, each at its mean over {len(rounds)} rounds, "
                  f"calibrated ({sum(host):.6g} host s)",
        "cmd_p50_s": f"median over the {n} commands of each one's mean latency, calibrated "
                     f"({statistics.median(host):.6g} host s)",
        "work_per_s": f"= {work_name} ({work_unit}), per calibrated second",
        "peak_rss_mb": "peak RSS of the worker process, with the kernel's 4 MB",
    }
    for k, v in metrics.items():
        print(f"  {k:<22} {v:>14.6g} {END_TO_END[k]:<8} {notes[k]}")
    print(f"  {work_name:<22} {metrics['work_per_s']:>14.6g} {work_unit}")
    print(f"  {'(calibration)':<22} {scale:>14.6g} cal s/s  = {calibrate.REFERENCE_S} s over the mean "
          f"of {sum(len(r['kernel']) for r in rounds)} kernel passes")
    print(f"  {'failed_frac':<22} {failed / attempted:>14.6g} ratio    ({failed}/{attempted} commands)")
    print(f"  {tail_note(len(rounds) * n)}")
    return metrics


def per_layer(result, import_s: float) -> dict:
    traced, plain = result["traced"], result["rounds"]
    # self times in calibrated seconds, each round by its own kernel passes
    scales = [calibrate.scale(t["kernel"]) for t in traced]
    layers = {
        k: statistics.median(
            t["layers"].get(k, 0.0) * (sc if k.endswith(".self_s") else 1.0) for t, sc in zip(traced, scales)
        )
        for k in set().union(*(t["layers"] for t in traced))
    }

    def ratio(num, den):
        return layers.get(num, 0.0) / layers[den] if layers.get(den) else 0.0

    layers["oracle.sign_sets.accept_ratio"] = ratio("oracle.sign_sets.accepted", "oracle.sign_sets.drawn")
    layers["dist.align.fast_path_ratio"] = ratio("dist.align.fast_path", "dist.align.calls")
    layers["setup.divbound_import_s"] = import_s
    # plain and traced rounds alternate, so compare them pair by pair, in
    # calibrated seconds
    layers["trace.overhead_ratio"] = statistics.median(
        t["wall"] * sc / (r["wall"] * calibrate.scale(r["kernel"])) for t, sc, r in zip(traced, scales, plain)
    )
    metrics = {k: float(layers.get(k, 0.0)) for k in PER_LAYER}
    for k, v in metrics.items():
        print(f"  {k:<36} {v:>14.6g} {PER_LAYER[k]}")
    print("  (self times in calibrated seconds, median over traced rounds; "
          "setup.divbound_import_s in host seconds)")
    return metrics


def write_spans(path: Path, header: dict, traced) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "fields": ["round", "name", "start", "end", "parent", "command"],
                             "unreachable": UNREACHABLE}) + "\n")
        for r, t in enumerate(traced):
            for s in t["spans"]:
                fh.write(json.dumps([r, *s]) + "\n")


def _run(args, workdir: Path) -> int:
    mach = machine()
    plan = make_plan(args.workload, args.seed, str(workdir))
    # the traced run reports divbound's import time in place of cold starts
    setup = None if args.trace else setup_seconds()
    import_s = divbound_import_seconds() if args.trace else None

    plan_file = workdir / "plan.json"
    with open(plan_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "src": str(SRC),
                "commands": [c.argv for c in plan.commands],
                "probes": [c.argv for c in FINDING_PROBES],
                "seconds": args.seconds,
                "trace": bool(args.trace),
                "result": str(workdir / "result.json"),
            },
            fh,
        )
    result, peak_rss_mb = run_worker(plan_file, workdir)
    attempted, failed, problems, findings = check_outputs(plan, result)

    print(f"machine {json.dumps(mach, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: closed loop, 1 client; "
        f"{len(result['rounds'])} {'plain' if args.trace else 'timed'} round(s) of {len(plan.commands)} commands"
        + (f" and {len(result['traced'])} traced round(s)" if args.trace else "")
    )
    for p in problems:
        print(f"FAILED {p}")
    for f in findings:
        print(f"finding (untimed probe, not counted as failed): {f}")

    if args.trace:
        metrics, units = per_layer(result, import_s), PER_LAYER
        write_spans(BENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
                    {"machine": mach, "workload": args.workload, "seed": args.seed}, result["traced"])
    else:
        metrics, units = end_to_end(plan, result, setup, peak_rss_mb, failed, attempted), END_TO_END

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
