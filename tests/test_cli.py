import ast
import dataclasses
import gc
import io
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import divbound
import divbound.cli as cli
import divbound.jensen as jensen
import divbound.oracle as oracle
from divbound.bounds import MEASURES
from divbound.cli import main
from divbound.fdiv import f_divergence
from divbound.generators import REGISTRY
from divbound.oracle import grid_verify
from divbound.textio import fmt_g12, read_dist_file


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def dist_files(tmp_path):
    p = tmp_path / "p.txt"
    q = tmp_path / "q.txt"
    p.write_text("a\t0.5\nb\t0.5\n", encoding="utf-8")
    q.write_text("# a comment\na\t0.25\nb\t0.75\n", encoding="utf-8")
    return str(p), str(q)


@pytest.fixture
def nan_file(tmp_path):
    f = tmp_path / "nan.txt"
    f.write_text("a\tnan\nb\t0.5\n", encoding="utf-8")
    return str(f)


@pytest.fixture
def source_file(tmp_path):
    s = tmp_path / "s.txt"
    s.write_text("a\t0.6\nb\t0.3\nc\t0.1\n", encoding="utf-8")
    return str(s)


class TestDivergence:
    def test_kl(self, runner, dist_files):
        p, q = dist_files
        r = runner.invoke(main, ["divergence", "--divergence", "kl", "--p", p, "--q", q])
        assert r.exit_code == 0
        assert r.stdout == "measure,value\nkl,0.143841036226\n"

    def test_infinity_rendered(self, runner, tmp_path, dist_files):
        p = tmp_path / "point.txt"
        p.write_text("a\t1.0\nb\t0.0\n", encoding="utf-8")
        r = runner.invoke(
            main,
            ["divergence", "--divergence", "dual_kl", "--p", str(p), "--q", dist_files[0]],
        )
        assert r.exit_code == 0
        assert r.stdout.splitlines()[1] == "dual_kl,inf"

    def test_unknown_measure_is_usage_error(self, runner, dist_files):
        p, q = dist_files
        r = runner.invoke(main, ["divergence", "--divergence", "renyi", "--p", p, "--q", q])
        assert r.exit_code == 2

    def test_malformed_file_reports_line(self, runner, tmp_path, dist_files):
        bad = tmp_path / "bad.txt"
        bad.write_text("a\t0.5\nb\tnot-a-number\n", encoding="utf-8")
        r = runner.invoke(
            main, ["divergence", "--divergence", "kl", "--p", str(bad), "--q", dist_files[1]]
        )
        assert r.exit_code == 2
        assert "line 2" in r.stderr

    def test_nan_mass_is_usage_error(self, runner, nan_file, dist_files):
        r = runner.invoke(
            main, ["divergence", "--divergence", "kl", "--p", nan_file, "--q", dist_files[0]]
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "non-finite probability mass" in r.stderr

    def test_all_zero_file_under_infinite_tolerance_is_usage_error(
        self, runner, tmp_path, dist_files
    ):
        # 0 / 0 renormalizes to NaN masses, which the distribution rejects
        zero = tmp_path / "zero.txt"
        zero.write_text("a\t0\nb\t0\n", encoding="utf-8")
        r = runner.invoke(
            main,
            [
                "divergence", "--divergence", "kl", "--p", str(zero), "--q", dist_files[0],
                "--tol-normalization", "inf",
            ],
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "non-finite probability mass" in r.stderr
        assert "Warning" not in r.stderr

    @pytest.mark.parametrize("tol", ["nan", "-1e-9", "-inf"])
    def test_nan_or_negative_tolerance_is_usage_error(self, runner, tmp_path, dist_files, tol):
        # NaN would accept this file, a negative tolerance every file's rejection
        off = tmp_path / "off.txt"
        off.write_text("a\t0.5\nb\t0.6\n", encoding="utf-8")
        r = runner.invoke(
            main,
            [
                "divergence", "--divergence", "kl", "--p", str(off), "--q", dist_files[0],
                "--tol-normalization", tol,
            ],
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "Invalid value for '--tol-normalization'" in r.stderr

    def test_malformed_file_reports_line_under_python_O(self, tmp_path, dist_files):
        # the fallback to the line loop rests on no assert, which -O strips
        bad = tmp_path / "bad.txt"
        bad.write_text("a\t0.25\nb\t0.25\nc\t0.5\t1\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(divbound.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "divbound.cli", "divergence", "--divergence", "kl",
             "--p", str(bad), "--q", dist_files[0]],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "line 3: expected 'label<TAB>value'" in proc.stderr

    def test_output_file(self, runner, dist_files, tmp_path):
        p, q = dist_files
        out = tmp_path / "out.csv"
        r = runner.invoke(
            main,
            ["divergence", "--divergence", "tv", "--p", p, "--q", q, "--output", str(out)],
        )
        assert r.exit_code == 0
        assert out.read_text(encoding="utf-8") == "measure,value\ntv,0.25\n"


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_divergence_prints_the_registry_generator(runner, dist_files, name):
    p, q = dist_files
    r = runner.invoke(main, ["divergence", "--divergence", name, "--p", p, "--q", q])
    assert r.exit_code == 0
    value = f_divergence(REGISTRY[name], read_dist_file(p), read_dist_file(q))
    assert r.stdout == f"measure,value\n{name},{fmt_g12(value)}\n"


def test_generator_choices_are_the_registry_names():
    names = ["capacitory", "chi2", "dual_chi2", "dual_kl", "hellinger2", "jeffreys", "kl", "tv"]
    assert sorted(REGISTRY) == names
    option = next(p for p in cli.divergence.params if p.name == "name")
    assert list(option.type.choices) == names
    # sandwich offers only the generators with a certified partner
    option = next(p for p in cli.sandwich.params if p.name == "name")
    assert list(option.type.choices) == sorted(jensen.PARTNERS) == ["capacitory", "dual_chi2", "dual_kl"]


# one small valid input per subcommand that has a choice option
_CHOICE_ARGS = {
    "divergence": ["--p", "{p}", "--q", "{q}"],
    "bounds": ["--grid", "0.1:0.1:0.3"],
    "sandwich": ["--p", "{p}", "--q", "{q}"],
    "verify": ["--grid", "0.9:0.1:0.9", "--samples", "20"],
}
_CHOICES = [
    (name, param.opts[0], value)
    for name, command in sorted(main.commands.items())
    for param in command.params
    if isinstance(param.type, click.Choice)
    for value in param.type.choices
]


def test_choice_walk_covers_every_choice_option():
    options = sorted({(name, opt) for name, opt, _ in _CHOICES})
    assert options == [
        ("bounds", "--measure"), ("divergence", "--divergence"),
        ("sandwich", "--f"), ("verify", "--measure"),
    ]


@pytest.mark.parametrize("command,option,value", _CHOICES)
def test_every_offered_choice_works(runner, dist_files, command, option, value):
    p, q = dist_files
    args = [a.format(p=p, q=q) for a in _CHOICE_ARGS[command]]
    r = runner.invoke(main, [command, option, value, *args])
    assert r.exit_code == 0, r.stderr


class TestBounds:
    def test_jeffreys_grid(self, runner):
        r = runner.invoke(main, ["bounds", "--measure", "jeffreys", "--grid", "0.05:0.05:0.95"])
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "eps,value"
        assert len(lines) == 20  # header + 19 rows

    def test_round_trip_byte_identical(self, runner):
        r = runner.invoke(main, ["bounds", "--measure", "capacitory", "--grid", "0.1:0.1:0.9"])
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        reemitted = [lines[0]]
        for row in lines[1:]:
            e, v = row.split(",")
            reemitted.append(f"{fmt_g12(float(e))},{fmt_g12(float(v))}")
        assert "\n".join(reemitted) + "\n" == r.stdout

    def test_inf_at_eps_one(self, runner):
        r = runner.invoke(main, ["bounds", "--measure", "jeffreys", "--grid", "0.5:0.5:1.0"])
        assert r.exit_code == 0
        assert r.stdout.strip().splitlines()[-1] == "1,inf"

    # bounds and verify read the same start:step:stop grid
    @pytest.mark.parametrize(
        "grid",
        [
            "0.9:0.1:0.1", "nan:0.1:0.5", "0.1:0.1:inf", "0.1:0.1", "0.1:0.1:0.5:0.9", "0:1e-320:1",
            "0.5:1e-17:0.5000000000000001",  # 12 points that round onto 2 floats
        ],
    )
    def test_bad_grid(self, runner, grid):
        for args in (["bounds", "--measure", "jeffreys"], ["verify", "--measure", "tv"]):
            r = runner.invoke(main, [*args, "--grid", grid])
            assert r.exit_code == 2
            assert r.stdout == "" and "Error:" in r.stderr

    def test_grid_size_is_capped(self, runner):
        for args in (["bounds", "--measure", "tv"], ["verify", "--measure", "tv"]):
            r = runner.invoke(main, [*args, "--grid", "0:1e-320:1"])
            assert r.exit_code == 2
            assert r.stdout == ""
            assert "grid '0:1e-320:1' has more than 1000000 points" in r.stderr
        assert len(cli._linear_grid("1:1:1000000")) == 10**6
        with pytest.raises(click.BadParameter, match="more than 1000000 points"):
            cli._linear_grid("1:1:1000001")

    @pytest.mark.parametrize("measure", ["tv", "exact_kl"])
    def test_grid_past_one_is_usage_error(self, runner, measure):
        r = runner.invoke(main, ["bounds", "--measure", measure, "--grid", "0:0.5:2"])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert r.stderr.endswith("Error: grid point eps=1.5 outside [0, 1]\n")

    def test_non_finite_value_exits_one(self, runner, monkeypatch):
        m = dataclasses.replace(MEASURES["tv"], closed_form=lambda eps: eps * np.nan)
        monkeypatch.setitem(MEASURES, "tv", m)
        r = runner.invoke(main, ["bounds", "--measure", "tv", "--grid", "0.5:0.5:1"])
        assert r.exit_code == 1
        assert r.stdout == ""
        assert r.stderr == "error: bound 'tv': value nan at eps=0.5; only eps = 1 may be inf\n"

    def test_capacitory_keeps_full_precision_at_small_eps(self, runner):
        r = runner.invoke(
            main, ["bounds", "--measure", "capacitory", "--grid", "0.000001:0.000001:0.000003"]
        )
        assert r.exit_code == 0
        # eps^2 + eps^4/6 to 12 digits; the textbook form printed 8.99999540785e-12
        assert r.stdout == "eps,value\n1e-06,1e-12\n2e-06,4e-12\n3e-06,9.00000000001e-12\n"


class TestSandwich:
    def test_dual_kl_row(self, runner, dist_files):
        p, q = dist_files
        r = runner.invoke(main, ["sandwich", "--f", "dual_kl", "--p", p, "--q", q])
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "r_min,r_max,left,middle,right,chi2"
        vals = lines[1].split(",")
        assert float(vals[5]) == pytest.approx(1.0 / 3.0, abs=1e-11)
        assert float(vals[3]) == pytest.approx(0.14384103622589045, abs=1e-11)

    def test_invalid_pairing_is_usage_error(self, runner, dist_files):
        p, q = dist_files
        r = runner.invoke(main, ["sandwich", "--f", "kl", "--p", p, "--q", q])
        assert r.exit_code == 2
        assert r.stdout == ""

    def test_nonconvex_partner_names_the_generator(self, runner, dist_files):
        p, q = dist_files
        r = runner.invoke(main, ["sandwich", "--f", "chi2", "--p", p, "--q", q])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "Invalid value for '--f': 'chi2' is not one of" in r.stderr
        assert "np.float64" not in r.stderr

    def test_help_names_the_certified_pairings(self, runner):
        r = runner.invoke(main, ["sandwich", "--help"])
        assert r.exit_code == 0
        assert "  --f [capacitory|dual_chi2|dual_kl]\n" in r.stdout
        certified = re.search(r"\(certified: ([^)]*)\)", " ".join(r.stdout.split())).group(1)
        assert certified.split(", ") == sorted(jensen.PARTNERS)

    def test_nan_mass_is_usage_error(self, runner, nan_file, dist_files):
        r = runner.invoke(
            main, ["sandwich", "--f", "dual_kl", "--p", nan_file, "--q", dist_files[0]]
        )
        assert r.exit_code == 2
        assert "non-finite probability mass" in r.stderr


class TestSourcecode:
    def test_shannon_default(self, runner, source_file):
        r = runner.invoke(main, ["sourcecode", "--dist", source_file, "--base", "2"])
        assert r.exit_code == 0
        header, row = r.stdout.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["avg_length"]) == pytest.approx(1.6, abs=1e-12)
        assert float(cols["kraft_sum"]) == pytest.approx(13 / 16, abs=1e-12)
        assert float(cols["kl_pq"]) == pytest.approx(0.0034503992608882173, abs=1e-11)
        assert cols["delta_nonneg"] == "true"

    def test_explicit_lengths(self, runner, source_file, tmp_path):
        lf = tmp_path / "len.txt"
        lf.write_text("a\t1\nb\t2\nc\t4\n", encoding="utf-8")
        r = runner.invoke(
            main,
            ["sourcecode", "--dist", source_file, "--base", "2", "--lengths", str(lf)],
        )
        assert r.exit_code == 0

    def test_code_with_no_redundancy(self, runner):
        # the Shannon code of this source has redundancy -4.4e-16 in floats,
        # and x = Delta log d = -3.1e-16 ended in a ValueError traceback
        r = runner.invoke(main, ["sourcecode", "--dist", str(DATA / "source_zero_redundancy.tsv"), "--base", "2"])
        assert r.exit_code == 0, r.stderr
        header, row = r.stdout.strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["redundancy"]) < 0.0
        assert cols["bound_csiszar"] == cols["bound_tightened"] == cols["bound_jeffreys"] == "0"
        assert 0.0 < float(cols["actual_l1"]) <= 1e-9

    def test_nan_mass_is_usage_error(self, runner, nan_file):
        r = runner.invoke(main, ["sourcecode", "--dist", nan_file, "--base", "2"])
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "non-finite probability mass" in r.stderr

    def test_kraft_violation_exits_one(self, runner, source_file, tmp_path):
        lf = tmp_path / "len.txt"
        lf.write_text("a\t1\nb\t1\nc\t1\n", encoding="utf-8")
        r = runner.invoke(
            main,
            ["sourcecode", "--dist", source_file, "--base", "2", "--lengths", str(lf)],
        )
        assert r.exit_code == 1
        assert r.stderr.startswith("error: Kraft sum")

    def test_mismatched_lengths_alphabet(self, runner, source_file, tmp_path):
        lf = tmp_path / "len.txt"
        lf.write_text("a\t1\nb\t2\nz\t4\n", encoding="utf-8")
        r = runner.invoke(
            main,
            ["sourcecode", "--dist", source_file, "--base", "2", "--lengths", str(lf)],
        )
        assert r.exit_code == 2

    def test_base_past_the_largest_float_is_usage_error(self, runner, source_file, tmp_path):
        # 10^400 is an integer no float holds: a usage error that names d,
        # where the code's float(d) once ended in an OverflowError traceback
        base = "1" + "0" * 400
        lf = tmp_path / "len.txt"
        lf.write_text("a\t1\nb\t2\nc\t2\n", encoding="utf-8")
        for extra in ([], ["--lengths", str(lf)]):
            r = runner.invoke(main, ["sourcecode", "--dist", source_file, "--base", base, *extra])
            assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
            assert r.stdout == ""
            assert f"Error: code base d={base} must be at most the largest float, " in r.stderr

    def test_large_mismatch_message_stays_short(self, runner, tmp_path):
        # 10^4 labels, half of them unknown to the lengths file: the error
        # names the first five of each kind and counts the rest
        n = 10**4
        src = tmp_path / "src.txt"
        src.write_text("".join(f"s{j:05d}\t{1.0 / n!r}\n" for j in range(n)), encoding="utf-8")
        lf = tmp_path / "len.txt"
        lf.write_text("".join(f"{'s' if j % 2 else 'x'}{j:05d}\t14\n" for j in range(n)), encoding="utf-8")
        r = runner.invoke(
            main, ["sourcecode", "--dist", str(src), "--base", "2", "--lengths", str(lf)]
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert len(r.stderr) < 400
        assert (
            "(missing 5000: ['s00000', 's00002', 's00004', 's00006', 's00008', ...], "
            "extra 5000: ['x00000', 'x00002', 'x00004', 'x00006', 'x00008', ...])"
        ) in r.stderr


class TestSourcecodeSweep:
    def test_rows_and_ordering(self, runner):
        r = runner.invoke(main, ["sourcecode-sweep", "--grid", "1e-6:1:7"])
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "delta_log_d,bound_csiszar,bound_tightened,bound_jeffreys"
        assert len(lines) == 8
        for row in lines[1:]:
            _, cs, ti, je = (float(x) for x in row.split(","))
            assert ti <= cs + 1e-9
            assert je <= cs + 1e-9

    @pytest.mark.parametrize(
        "grid",
        # one point over the cap: without it this is a slow run, not a 1e9-point allocation
        ["0:1:5", "nan:1:5", "1e-6:inf:3", "1e-6:1:3:9", "1e-6:1", "1e-6:1:2.5", "1e-6:1:1000001"],
    )
    def test_bad_grid(self, runner, grid):
        r = runner.invoke(main, ["sourcecode-sweep", "--grid", grid])
        assert r.exit_code == 2
        assert r.stdout == "" and "Error:" in r.stderr

    def test_a_grid_up_to_1e308_warns_of_no_overflow(self, runner):
        # 2 x overflows at x = 1e308 unless x is clamped before the multiply
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = runner.invoke(main, ["sourcecode-sweep", "--grid", "1e-320:1e308:4"])
        assert r.exit_code == 0 and r.stderr == ""
        assert r.stdout == (
            "delta_log_d,bound_csiszar,bound_tightened,bound_jeffreys\n"
            "9.99988867183e-321,1.41420569026e-160,1.41420569026e-160,9.99994433576e-161\n"
            "2.15441870005e-111,6.56417352003e-56,6.56417352003e-56,4.6415716089e-56\n"
            "4.6415716089e+98,2,1.999999998,2\n"
            "1e+308,2,1.999999998,2\n"
        )

    def test_jeffreys_column_is_correctly_rounded(self, runner):
        r = runner.invoke(main, ["sourcecode-sweep", "--grid", "1e-6:1:4"])
        assert r.exit_code == 0
        # 2 eps(x / 2) from mpmath at 50 digits, rounded to 12
        column = [row.split(",")[3] for row in r.stdout.splitlines()[1:]]
        assert column == ["0.000999999958333", "0.00999995833332", "0.0999583316006", "0.958196846233"]


DATA = Path(__file__).resolve().parent / "data"


def _in_data(argv: list[str]) -> list[str]:
    """argv with its input file names made paths under tests/data."""
    return [str(DATA / a) if a.endswith((".tsv", ".len")) else a for a in argv]


# curve CSVs recorded before the FHT branches were split per point and the
# climb began to return its stopping pass
CURVE_GOLDEN = [
    (["sourcecode-sweep", "--grid", "1e-6:1:50"], "sourcecode_sweep_grid_1e-6_1_50.csv"),
    (["bounds", "--measure", "exact_kl", "--grid", "0.05:0.05:0.95"], "bounds_exact_kl_grid_0.05_0.05_0.95.csv"),
    (["bounds", "--measure", "exact_kl", "--grid", "0.01:0.01:0.99"], "bounds_exact_kl_grid_0.01_0.01_0.99.csv"),
]


@pytest.mark.parametrize("argv,golden", CURVE_GOLDEN, ids=[g for _, g in CURVE_GOLDEN])
def test_curve_stdout_is_pinned(runner, argv, golden):
    r = runner.invoke(main, argv)
    assert r.exit_code == 0, r.stderr
    assert r.stdout == (DATA / golden).read_text(encoding="utf-8")


# one table per command the curve goldens leave out, recorded before the
# commands shared one CSV writer; the inputs are under tests/data as well
TABLE_GOLDEN = [
    (["divergence", "--divergence", "kl", "--p", "pair_p.tsv", "--q", "pair_q.tsv"], "divergence_kl.csv"),
    (["sandwich", "--f", "dual_kl", "--p", "pair_p.tsv", "--q", "pair_q.tsv"], "sandwich_dual_kl.csv"),
    # Shannon lengths: every delta >= 0, the Jeffreys cell filled
    (["sourcecode", "--dist", "source.tsv", "--base", "2"], "sourcecode_base2.csv"),
    # c one bit short of its Shannon length: the Jeffreys cell empty
    (
        ["sourcecode", "--dist", "source.tsv", "--base", "2", "--lengths", "source_short.len"],
        "sourcecode_base2_short_lengths.csv",
    ),
]


@pytest.mark.parametrize("argv,golden", TABLE_GOLDEN, ids=[g for _, g in TABLE_GOLDEN])
def test_table_stdout_and_output_are_pinned(runner, tmp_path, argv, golden):
    argv = _in_data(argv)
    expected = (DATA / golden).read_text(encoding="utf-8")
    r = runner.invoke(main, argv)
    assert r.exit_code == 0, r.stderr
    assert r.stdout == expected
    out = tmp_path / "out.csv"
    r = runner.invoke(main, [*argv, "--output", str(out)])
    assert r.exit_code == 0 and r.stdout == ""
    assert out.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize(
    "value,cell",
    [
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(math.inf), "inf"),
        (None, ""),
        (True, "true"),
        (False, "false"),
        (np.True_, "true"),
        (np.False_, "false"),
        (0, "0"),
        # an int is written whole, where 12 digits would round it
        (1234567890123456, "1234567890123456"),
        ("bhattacharyya_lower", "bhattacharyya_lower"),
        (np.float64(0.1), "0.1"),
        (np.float64(2.0), "2"),
        (np.float64(1.0) / 3.0, "0.333333333333"),
        (1e-300, "1e-300"),
    ],
)
def test_cell_rule(monkeypatch, value, cell):
    # only a value that is none of str, int, bool and None goes through fmt_g12
    calls = []
    monkeypatch.setattr(cli, "fmt_g12", lambda v: calls.append(v) or fmt_g12(v))
    assert cli._cell(value) == cell
    numeric = not isinstance(value, (str, int, bool, np.bool_, type(None)))
    assert len(calls) == numeric


OUTPUT_COMMANDS = [
    ["divergence", "--divergence", "kl", "--p", "pair_p.tsv", "--q", "pair_q.tsv"],
    ["bounds", "--measure", "tv", "--grid", "0.1:0.1:0.2"],
    ["sandwich", "--f", "dual_kl", "--p", "pair_p.tsv", "--q", "pair_q.tsv"],
    ["sourcecode", "--dist", "source.tsv", "--base", "2"],
    ["sourcecode-sweep", "--grid", "1e-6:1:3"],
    ["verify", "--measure", "tv", "--grid", "0.5:0.1:0.5", "--samples", "10"],
]


@pytest.mark.parametrize("argv", OUTPUT_COMMANDS, ids=[a[0] for a in OUTPUT_COMMANDS])
def test_unwritable_output_is_usage_error(runner, tmp_path, argv):
    # the writer's open failed with a FileNotFoundError traceback and exit 1
    argv = _in_data(argv)
    out = tmp_path / "no_such_dir" / "x.csv"
    r = runner.invoke(main, [*argv, "--output", str(out)])
    assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
    assert r.stdout == ""
    assert f"Error: cannot write --output {str(out)!r}: No such file or directory\n" in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.parent.exists()


def test_verify_checks_its_output_before_sampling(runner, tmp_path, monkeypatch):
    # verify learnt that its --output could not be written only when it
    # wrote the table, after the whole scan
    def no_sampling(*args):
        raise AssertionError("sampled before --output was checked")

    monkeypatch.setattr(oracle, "_sample_batch", no_sampling)
    monkeypatch.setattr(oracle, "fine_grid_pairs", no_sampling)
    (tmp_path / "a_file").write_text("kept\n", encoding="utf-8")
    for out in (tmp_path / "no_such_dir" / "x.csv", tmp_path / "a_file" / "x.csv"):
        r = runner.invoke(main, ["verify", "--measure", "all", "--grid", "0.1:0.1:0.9", "--output", str(out)])
        assert r.exit_code == 2 and isinstance(r.exception, SystemExit)
        assert r.stdout == ""
        # the text the writer gives for the same path
        with pytest.raises(click.UsageError) as written:
            cli._emit("h", [], str(out))
        assert f"Error: {written.value.message}\n" in r.stderr
    # a writable output, old or new, passes the check untouched
    old, new = tmp_path / "a_file", tmp_path / "new.csv"
    for out in (old, new):
        cli._check_output(str(out))
    assert old.read_text(encoding="utf-8") == "kept\n" and not new.exists()


# the stdout of verify for the six measures in turn, recorded when the fine
# grid became the one support-3 family
VERIFY_GOLDEN = DATA / "verify_grid_0.1_0.4_0.9_samples2000_seed7.csv"


class TestVerify:
    def test_stdout_is_pinned(self, runner):
        out = []
        for m in ("tv", "hellinger2", "jeffreys", "capacitory", "chernoff", "bhattacharyya"):
            r = runner.invoke(
                main,
                ["verify", "--measure", m, "--grid", "0.1:0.4:0.9", "--samples", "2000", "--seed", "7"],
            )
            assert r.exit_code == 0, r.stderr
            out.append(r.stdout)
        assert "".join(out) == VERIFY_GOLDEN.read_text(encoding="utf-8")

    def test_pass_run(self, runner):
        r = runner.invoke(
            main,
            ["verify", "--measure", "capacitory", "--grid", "0.2:0.3:0.8", "--samples", "300", "--seed", "7"],
        )
        assert r.exit_code == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0].startswith("measure,eps,closed_form")
        assert len(lines) == 4
        assert "PASS" in r.stderr
        assert "PCG64" in r.stderr

    def test_bhattacharyya_runs_both_sides(self, runner):
        r = runner.invoke(
            main,
            ["verify", "--measure", "bhattacharyya", "--grid", "0.5:0.1:0.5", "--samples", "200", "--seed", "1"],
        )
        assert r.exit_code == 0
        rows = r.stdout.strip().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {
            "bhattacharyya_lower",
            "bhattacharyya_upper",
        }
        # one scan per direction or one shared scan: the same rows
        both = runner.invoke(
            main,
            [
                "verify", "--measure", "bhattacharyya_lower", "--measure", "bhattacharyya_upper",
                "--grid", "0.5:0.1:0.5", "--samples", "200", "--seed", "1",
            ],
        )
        assert both.exit_code == 0 and both.stdout == r.stdout

    def test_failure_exits_one(self, runner):
        r = runner.invoke(
            main,
            [
                "verify", "--measure", "jeffreys", "--grid", "0.5:0.1:0.5",
                "--samples", "50", "--seed", "7", "--gap-threshold", "-1.0",
            ],
        )
        assert r.exit_code == 1
        assert "FAIL" in r.stderr

    def test_witness_lines_are_plain_float_lists(self, runner, monkeypatch):
        # an impossibly high closed form is crossed, so every report fails with a witness
        om = oracle.ORACLE_MEASURES["jeffreys"]
        monkeypatch.setitem(
            oracle.ORACLE_MEASURES, "jeffreys", dataclasses.replace(om, closed_form=lambda eps: 10.0)
        )
        r = runner.invoke(
            main, ["verify", "--measure", "jeffreys", "--grid", "0.5:0.1:0.5", "--samples", "20"]
        )
        assert r.exit_code == 1
        [report] = grid_verify("jeffreys", [0.5], 20, seed=0)
        lines = [ln.strip() for ln in r.stderr.splitlines() if ln.startswith("    witness")]
        assert [ln.split(" = ")[0] for ln in lines] == ["witness P", "witness Q"]
        for line, dist in zip(lines, report.witness):
            masses = ast.literal_eval(line.split(" = ", 1)[1])
            assert all(type(m) is float for m in masses)
            assert masses == dist.mass.tolist()

    def test_nan_gap_threshold_is_usage_error(self, runner):
        # NaN would pass every gap
        r = runner.invoke(
            main,
            ["verify", "--measure", "tv", "--grid", "0.5:0.1:0.5", "--gap-threshold", "nan"],
        )
        assert r.exit_code == 2
        assert r.stdout == ""
        assert "Invalid value for '--gap-threshold'" in r.stderr

    def test_tv_tolerance_is_not_settable(self, runner):
        r = runner.invoke(main, ["verify", "--help"])
        assert "--tol" not in r.stdout

    def test_grid_outside_domain(self, runner):
        r = runner.invoke(
            main, ["verify", "--measure", "jeffreys", "--grid", "0.5:0.5:1.0", "--samples", "10"]
        )
        assert r.exit_code == 2

    def test_env_seed_fallback(self, runner):
        env = dict(os.environ, DIVBOUND_SEED="42")
        r = runner.invoke(
            main,
            ["verify", "--measure", "tv", "--grid", "0.3:0.1:0.3", "--samples", "50"],
            env=env,
        )
        assert r.exit_code == 0
        assert "seed 42" in r.stderr

    def test_negative_samples_is_usage_error(self, runner):
        r = runner.invoke(
            main, ["verify", "--measure", "tv", "--grid", "0.5:0.1:0.5", "--samples", "-5"]
        )
        assert r.exit_code == 2
        assert "-5 is not in the range x>=0" in r.stderr

    def test_samples_past_numpy_is_usage_error(self, runner):
        # the message names the argument, where numpy's named none
        n = 10**20
        r = runner.invoke(main, ["verify", "--measure", "tv", "--grid", "0.5:0.1:0.5", "--samples", str(n)])
        assert r.exit_code == 2 and r.stdout == ""
        assert f"Error: n_samples={n} exceeds " in r.stderr

    def test_negative_seed_is_usage_error(self, runner):
        args = ["verify", "--measure", "tv", "--grid", "0.5:0.1:0.5", "--samples", "10"]
        for extra, env in ((["--seed", "-1"], None), ([], dict(os.environ, DIVBOUND_SEED="-1"))):
            r = runner.invoke(main, args + extra, env=env)
            assert r.exit_code == 2
            assert r.stdout == ""
            assert "Invalid value for '--seed'" in r.stderr and "-1 is not in the range x>=0" in r.stderr

    def test_several_measures_match_their_single_runs(self, runner, monkeypatch):
        # jeffreys fails with witness lines; the other two pass
        om = oracle.ORACLE_MEASURES["jeffreys"]
        monkeypatch.setitem(
            oracle.ORACLE_MEASURES, "jeffreys", dataclasses.replace(om, closed_form=lambda eps: 10.0)
        )
        args = ["--grid", "0.2:0.3:0.8", "--samples", "200", "--seed", "3"]
        measures = ["tv", "jeffreys", "bhattacharyya"]
        both = runner.invoke(main, ["verify", *(a for m in measures for a in ("--measure", m)), *args])
        singles = [runner.invoke(main, ["verify", "--measure", m, *args]) for m in measures]
        assert both.exit_code == 1 and [r.exit_code for r in singles] == [0, 1, 0]
        header = both.stdout.splitlines()[0]
        assert both.stdout.splitlines() == [header] + [
            row for r in singles for row in r.stdout.splitlines()[1:]
        ]
        first, *rest = both.stderr.splitlines()
        assert first == (
            "verify tv,jeffreys,bhattacharyya: 12 check(s), 200 samples/support, "
            "seed 3, rng numpy PCG64: FAIL"
        )
        assert any(line.startswith("    witness P = ") for line in rest)
        assert rest == [line for r in singles for line in r.stderr.splitlines()[1:]]

    def test_all_names_every_measure_once(self, runner):
        args = ["--grid", "0.9:0.1:0.9", "--samples", "20"]
        r = runner.invoke(main, ["verify", "--measure", "all", *args])
        assert r.exit_code == 0, r.stderr
        assert [row.split(",")[0] for row in r.stdout.splitlines()[1:]] == sorted(oracle.ORACLE_MEASURES)
        r = runner.invoke(main, ["verify", "--measure", "tv", "--measure", "bhattacharyya", "--measure", "all", *args])
        assert [row.split(",")[0] for row in r.stdout.splitlines()[1:]] == [
            "tv", "bhattacharyya_lower", "bhattacharyya_upper", "capacitory", "chernoff", "hellinger2", "jeffreys",
        ]

    def test_bad_env_seed_is_usage_error(self, runner):
        env = dict(os.environ, DIVBOUND_SEED="abc")
        r = runner.invoke(
            main,
            ["verify", "--measure", "tv", "--grid", "0.3:0.1:0.3", "--samples", "50"],
            env=env,
        )
        assert r.exit_code == 2
        assert "DIVBOUND_SEED" in r.stderr and "'abc' is not a valid integer" in r.stderr


def test_import_leaves_out_the_thread_pool():
    # verify imports concurrent.futures and the oracle when it runs, the coding
    # commands the coding module, so start-up pays for none of them.
    # numpy.random is judged against a bare numpy import: numpy < 2 loads it
    # itself.
    env = dict(os.environ, PYTHONPATH=str(Path(divbound.__file__).resolve().parents[1]))
    code = (
        "import sys, numpy, click\n"
        "late = {'concurrent.futures', 'divbound.oracle', 'divbound.coding', 'numpy.random'}\n"
        "late -= set(sys.modules)\n"
        "for module in ('divbound', 'divbound.cli'):\n"
        "    __import__(module)\n"
        "    print(module, sorted(late & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "divbound []\ndivbound.cli []\n"


def test_help_lists_subcommands(runner):
    r = runner.invoke(main, ["--help"])
    assert r.exit_code == 0
    for name in ("divergence", "bounds", "sandwich", "sourcecode", "sourcecode-sweep", "verify"):
        assert name in r.stdout


@pytest.mark.parametrize(
    "command,choices",
    [
        (
            "bounds",
            "bhattacharyya_lower|bhattacharyya_upper|capacitory|chernoff|exact_kl|"
            "hellinger2|jeffreys|tv",
        ),
        (
            "verify",
            "bhattacharyya_lower|bhattacharyya_upper|capacitory|chernoff|hellinger2|"
            "jeffreys|tv|bhattacharyya|all",
        ),
    ],
)
def test_measure_choices(runner, command, choices):
    r = runner.invoke(main, [command, "--help"])
    assert r.exit_code == 0
    assert f"  --measure [{choices}]\n" in r.stdout


def test_in_process_invocations_release_their_streams(runner):
    # CliRunner swaps in fresh stream wrappers per invocation; none of them
    # may outlive it, or a long-lived process grows with every command
    def live_streams():
        gc.collect()
        return sum(
            1
            for o in gc.get_objects()
            if isinstance(o, io.IOBase) and type(o).__module__ == "click.testing"
        )

    args = ["bounds", "--measure", "tv", "--grid", "0.1:0.1:0.5"]
    r = runner.invoke(main, args)
    before = live_streams()
    for _ in range(50):
        r = runner.invoke(main, args)
        assert r.exit_code == 0
    assert live_streams() == before
