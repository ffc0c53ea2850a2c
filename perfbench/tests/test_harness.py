"""Tests of the benchmark harness itself: run with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import calibrate
import reference as ref
import run
import spans
import workloads
from checks import Checker
from workloads import Command, Plan

BENCH = Path(__file__).resolve().parents[1]


# -- self time ---------------------------------------------------------------

def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_children():
    s = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 5.0, 6.0, 0)]
    assert spans.self_times(s) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_only_direct_children():
    s = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 9.0, 0), _span("c", 2.0, 8.0, 1)]
    assert spans.self_times(s) == pytest.approx([2.0, 2.0, 6.0])


def test_self_time_takes_the_union_of_overlapping_children():
    s = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 3.0, 6.0, 0),
        _span("d", 9.0, 12.0, 0),  # sticks out of its parent: only 9..10 counts
    ]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_sum_self_time_per_layer():
    s = [
        ("cli.command", 0.0, 10.0, -1, 0),
        ("textio.read_dist_file", 1.0, 5.0, 0, 0),
        ("dist.make_dist", 2.0, 4.0, 1, 0),
        ("textio.read_dist_file", 6.0, 7.0, 0, 0),
    ]
    m = spans.layer_metrics(s, {"textio.bytes": 12.0})
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["textio.read_dist_file.self_s"] == pytest.approx(3.0)
    assert m["textio.self_s"] == pytest.approx(3.0)
    assert m["dist.self_s"] == pytest.approx(2.0)
    assert m["oracle.self_s"] == 0.0
    assert m["textio.bytes"] == 12.0


# -- references ---------------------------------------------------------------

def test_fht_series_and_closed_forms_agree_at_the_switch():
    t = ref.T_SERIES
    t2 = t * t
    series_l = t2 * sum(c * t2 ** k for k, c in enumerate(ref._L_SERIES))
    series_v = t * sum(c * t2 ** k for k, c in enumerate(ref._V_SERIES))
    assert ref.fht_l(t) == pytest.approx(series_l, rel=1e-14)
    assert ref.fht_v(t) == pytest.approx(series_v, rel=1e-14)


def test_fht_against_hyperbolic_functions():
    for t in (0.3, 1.0, 4.0, 15.0):
        coth = math.cosh(t) / math.sinh(t)
        v = t * (1.0 - (coth - 1.0 / t) ** 2)
        l_ = math.log(t / math.sinh(t)) + t * coth - t * t / math.sinh(t) ** 2
        assert ref.fht_v(t) == pytest.approx(v, rel=1e-13)
        assert ref.fht_l(t) == pytest.approx(l_, rel=1e-12)
    # no overflow far out, where eps -> 1 and L ~ log(2t)
    assert ref.fht_l(1e6) == pytest.approx(math.log(2e6), rel=1e-6)


def test_exact_kl_matches_pinsker_refinement_for_small_eps():
    # L = V^2/2 + V^4/36 + V^6/270 + ... with V = 2 eps (Topsoe)
    for eps in (1e-4, 1e-3, 1e-2):
        v = 2.0 * eps
        assert ref.exact_kl(eps) == pytest.approx(v**2 / 2 + v**4 / 36 + v**6 / 270, rel=1e-12)


def test_inverse_jeffreys_round_trip():
    for eps in (1e-5, 0.1, 0.5, 0.9, 0.999):
        assert ref.inverse_jeffreys(ref.jeffreys_curve(eps)) == pytest.approx(eps, rel=1e-14)


def test_huffman_lengths_are_complete_and_optimal_on_a_known_source():
    assert ref.huffman_lengths([0.4, 0.3, 0.2, 0.1]) == [1, 2, 3, 3]
    rng = np.random.default_rng(0)
    p = rng.exponential(size=50)
    p /= p.sum()
    lengths = np.array(ref.huffman_lengths(p))
    assert math.fsum(2.0 ** -lengths) == 1.0
    entropy = -float((p * np.log2(p)).sum())
    assert entropy <= float(p @ lengths) < entropy + 1.0


# -- output checks --------------------------------------------------------------

def _invoke(argv):
    from divbound.cli import main

    res = CliRunner().invoke(main, argv)
    return res.exit_code, res.stdout


def _corruptions(stdout):
    """Every numeric cell of every data row, moved by a relative 1e-3."""
    lines = stdout.splitlines()
    for r in range(1, len(lines)):
        cells = lines[r].split(",")
        for c, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                continue
            if math.isinf(v):
                continue
            bad = cells.copy()
            bad[c] = f"{v + max(abs(v) * 1e-3, 1e-6):.12g}"
            yield "\n".join(lines[:r] + [",".join(bad)] + lines[r + 1:]) + "\n"


def _small_plan(tmp_path, monkeypatch) -> Plan:
    monkeypatch.setattr(workloads, "BIG_LABELS", 3000)
    monkeypatch.setattr(workloads, "PERMUTED_LABELS", 300)
    plan = workloads.make_plan("large_alphabet", 5, str(tmp_path))
    curves = workloads.make_plan("curves_coding", 5, str(tmp_path))
    plan.dists.update(curves.dists)
    plan.lengths.update(curves.lengths)
    plan.commands += curves.commands
    eps = [0.9]
    for m, names in (("tv", ["tv"]), ("bhattacharyya", ["bhattacharyya_lower", "bhattacharyya_upper"])):
        argv = ["verify", "--measure", m, "--grid", "0.9:0.1:0.9", "--samples", "50", "--seed", "5"]
        plan.commands.append(Command(argv, "verify", {"names": names, "eps": eps}, 1))
    return plan


def test_checks_pass_real_outputs_and_catch_every_corrupted_value(tmp_path, monkeypatch):
    plan = _small_plan(tmp_path, monkeypatch)
    checker = Checker(plan)
    kinds = set()
    for cmd in plan.commands:
        code, stdout = _invoke(cmd.argv)
        assert checker.check(cmd, code, stdout) == [], cmd.argv
        kinds.add(cmd.kind)
        for bad in _corruptions(stdout):
            assert checker.check(cmd, code, bad), (cmd.argv, bad)
    assert kinds == {"verify", "bounds", "sweep", "sourcecode", "divergence", "sandwich"}


def test_checks_catch_flags_and_exit_codes(tmp_path, monkeypatch):
    plan = _small_plan(tmp_path, monkeypatch)
    checker = Checker(plan)
    verify = next(c for c in plan.commands if c.kind == "verify")
    code, out = _invoke(verify.argv)
    assert checker.check(verify, code, out.replace(",true,true", ",true,false"))
    assert checker.check(verify, code, out.replace(",0,true", ",1,true"))
    assert checker.check(verify, 1, out)
    huffman = next(c for c in plan.commands if c.kind == "sourcecode" and c.check["lengths"])
    code, out = _invoke(huffman.argv)
    flag = out.rstrip("\n").rsplit(",", 1)[1]
    flipped = "true" if flag == "false" else "false"
    assert checker.check(huffman, code, out.rstrip("\n")[: -len(flag)] + flipped + "\n")


def test_exact_kl_check_flags_the_golden_section_excess_near_one():
    eps = [0.97, 0.98, 0.99]
    cmd = Command(["bounds"], "bounds", {"measure": "exact_kl", "eps": eps}, 0)
    checker = Checker(Plan("curves_coding", 0))
    # the reference itself, printed at 12 digits, passes
    good = "eps,value\n" + "".join(f"{e:.12g},{ref.exact_kl(e):.12g}\n" for e in eps)
    assert checker.check(cmd, 0, good) == []
    # golden section overshoots by 4.5e-10 at 0.98
    bad = good.replace(f"{ref.exact_kl(0.98):.12g}", f"{ref.exact_kl(0.98) + 4.5e-10:.12g}")
    assert len(checker.check(cmd, 0, bad)) == 1


# -- tracing ------------------------------------------------------------------

def test_recorder_attaches_and_restores(tmp_path):
    import divbound
    import divbound.fdiv as fdiv
    import divbound.oracle as oracle
    from divbound.cli import main

    before = {k: v.evaluate for k, v in oracle.ORACLE_MEASURES.items()}
    rec = spans.Recorder()
    rec.install()
    try:
        res = rec.command_span(CliRunner().invoke, 0)(
            main, ["verify", "--measure", "bhattacharyya", "--grid", "0.9:0.1:0.9", "--samples", "20"]
        )
    finally:
        rec.restore()
    assert res.exit_code == 0
    names = {s[0] for s in rec.spans}
    assert {"cli.command", "oracle.grid_verify", "oracle.verify_min", "oracle.sample_batch",
            "fdiv.batch_bhattacharyya", "fdiv.batch_total_variation", "bounds.extremal_pair"} <= names
    assert rec.spans[0][0] == "cli.command" and rec.spans[0][3] == -1
    assert all(s[3] >= 0 for s in rec.spans[1:])
    assert rec.counts["oracle.sample_batch.pairs"] == 2 * 20 * 7
    assert rec.counts["oracle.sign_sets.rounds"] > 0
    assert {k: v.evaluate for k, v in oracle.ORACLE_MEASURES.items()} == before
    assert oracle.batch_total_variation is fdiv.batch_total_variation
    assert not hasattr(oracle._sample_batch, "__wrapped__")
    assert not hasattr(divbound.coding.CodeSpec.__post_init__, "__wrapped__")


# -- calibration ---------------------------------------------------------------

def test_calibration_scales_by_the_mean_kernel_time():
    assert calibrate.scale([0.01, 0.03]) == pytest.approx(calibrate.REFERENCE_S / 0.02)


def test_calibration_kernel_runs_without_divbound():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, calibrate; t = calibrate.kernel(); "
         "print(t > 0, any(m.startswith('divbound') for m in sys.modules))"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.split() == ["True", "False"], proc.stderr


# -- the benchmark contract ---------------------------------------------------------

def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves_coding", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
