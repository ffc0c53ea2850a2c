"""Command-line front end; every subcommand emits CSV.

One writer renders every table, each cell by one rule: a number at 12
significant digits with infinities as ``inf`` and ``-inf``, so that emitted
files parse and re-emit byte-identically; a flag as ``true`` or ``false``;
a bound that does not apply as an empty cell; names and counts as they are.
Exit status: 0 on success, 1 when a mathematical check fails (bound or
identity violation, failed verification, Kraft violation), 2 on usage
errors: malformed input files, grids of more than a million points or whose
points do not strictly increase once rounded, a negative ``--seed``, a NaN
``--gap-threshold``, a NaN or negative ``--tol-normalization``, an
``--output`` that cannot be written.  The sampler's TV check and the
mass-sum check are fixed; only the input normalization tolerance is settable.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import math
import os
import sys
from typing import Optional

import click
import numpy as np

# oracle and coding are imported by the commands that run them, so that the
# others start without them
from .bounds import MEASURES, bound_curve, checked_measures
from .dist import NORMALIZATION_TOL
from .errors import (
    BoundViolationError,
    DistributionError,
    GeneratorError,
    KraftViolationError,
)
from .fdiv import f_divergence
from .generators import REGISTRY, get_generator
from .jensen import PARTNERS, sandwich as eval_sandwich
from .textio import fmt_g12, read_dist_file, read_dist_pair, read_lengths_file


def _write(stream, text: str):
    # Not click.echo: its per-stream cache keeps every in-process
    # (CliRunner) invocation's output streams alive.
    stream.write(text)
    stream.flush()


def _cell(value) -> str:
    """One CSV cell: a str or int as it is, a bool as true/false, None empty, else fmt_g12."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (str, int)):
        return str(value)
    return "" if value is None else fmt_g12(value)


def _unwritable(output: str, exc: OSError) -> click.UsageError:
    return click.UsageError(f"cannot write --output {output!r}: {exc.strerror or exc}")


def _emit(header: str, rows, output: Optional[str]):
    """Write the header line and the rows, each cell by _cell, to output or
    stdout; an output that cannot be written is a usage error."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in [[header], *rows])
    if not output:
        _write(sys.stdout, text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(output, exc) from exc


def _check_output(output: Optional[str]):
    """Raise now the usage error _emit would raise for an output it cannot
    open, opening, creating and truncating nothing: an existing output must
    be writable, and a new one needs a writable directory."""
    if not output:
        return
    exists = os.path.exists(output)
    target = output if exists else os.path.dirname(output) or "."
    try:
        if not exists:
            os.scandir(target).close()  # a missing directory, or not one
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _unwritable(output, exc) from exc


# the most points one grid may have; more is a usage error, not an allocation
_MAX_GRID_POINTS = 10**6


def _grid_fields(spec: str, form: str) -> list[float]:
    """The three colon-separated numbers of a grid spec; a usage error unless all finite."""
    try:
        fields = [float(x) for x in spec.split(":")]
    except ValueError:
        fields = []
    if len(fields) != 3 or not all(math.isfinite(x) for x in fields):
        raise click.BadParameter(f"expected {form} as three finite numbers, got {spec!r}")
    return fields


def _check_size(spec: str, npoints: float):
    """A usage error unless the grid has a finite count of at most _MAX_GRID_POINTS."""
    if npoints > _MAX_GRID_POINTS:  # inf too
        raise click.BadParameter(f"grid {spec!r} has more than {_MAX_GRID_POINTS} points")


def _linear_grid(spec: str) -> list[float]:
    """Parse 'start:step:stop' into an inclusive, strictly increasing grid."""
    start, step, stop = _grid_fields(spec, "start:step:stop")
    if step <= 0.0 or stop < start:
        raise click.BadParameter(f"grid {spec!r} is empty or decreasing")
    n = np.floor((stop - start) / step + 1e-9) + 1.0
    _check_size(spec, n)
    grid = [start + i * step for i in range(int(n))]
    if not (np.diff(grid) > 0.0).all():  # a step below the spacing of the floats
        raise click.BadParameter(f"grid {spec!r} does not increase strictly once rounded")
    return grid


def _log_grid(spec: str) -> list[float]:
    """Parse 'start:stop:npoints' into a log-spaced grid."""
    start, stop, npoints = _grid_fields(spec, "start:stop:npoints")
    if start <= 0.0 or stop < start or npoints < 1 or not npoints.is_integer():
        raise click.BadParameter(f"log grid {spec!r} is invalid")
    _check_size(spec, npoints)
    return [float(x) for x in np.geomspace(start, stop, int(npoints))]


def _not_nan(ctx, param, value):
    """A usage error for NaN, which would switch the option's check off."""
    if value is not None and math.isnan(value):
        raise click.BadParameter("nan is not a number")
    return value


def _mapped_errors(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except DistributionError as exc:  # malformed files (DistFileError) too
            raise click.UsageError(str(exc)) from exc
        except (KraftViolationError, BoundViolationError, GeneratorError) as exc:
            _write(sys.stderr, f"error: {exc}\n")
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Divergences, tight bounds, and redundancy bound comparisons as CSV."""


@main.command()
@click.option(
    "--divergence",
    "name",
    required=True,
    type=click.Choice(sorted(REGISTRY)),
    help="Which f-divergence to evaluate.",
)
@click.option("--p", "p_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--q", "q_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), help="Write CSV here instead of stdout.")
@click.option(
    "--tol-normalization",
    type=click.FloatRange(min=0.0),
    default=NORMALIZATION_TOL,
    callback=_not_nan,
    show_default=True,
    help="Allowed |sum - 1| in input files before renormalizing.",
)
@_mapped_errors
def divergence(name, p_path, q_path, output, tol_normalization):
    """Evaluate one f-divergence between two distribution files."""
    p, q = read_dist_pair(p_path, q_path, normalization=tol_normalization)
    _emit("measure,value", [(name, f_divergence(get_generator(name), p, q))], output)


@main.command()
@click.option(
    "--measure",
    required=True,
    type=click.Choice(sorted(MEASURES)),
    help="Which closed-form bound family to tabulate.",
)
@click.option("--grid", required=True, help="Grid as start:step:stop, e.g. 0.05:0.05:0.95.")
@click.option("--output", type=click.Path(dir_okay=False))
@_mapped_errors
def bounds(measure, grid, output):
    """Tabulate a closed-form bound over a grid of total variation values."""
    eps_grid = _linear_grid(grid)
    try:
        values = bound_curve(measure, eps_grid)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit("eps,value", zip(eps_grid, values.tolist()), output)


@main.command()
@click.option(
    "--f",
    "name",
    required=True,
    type=click.Choice(sorted(PARTNERS)),
    help="Generator f whose g(t) = -t f(t) is convex "
    f"(certified: {', '.join(sorted(PARTNERS))}).",
)
@click.option("--p", "p_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--q", "q_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False))
@_mapped_errors
def sandwich(name, p_path, q_path, output):
    """Evaluate the three-term sandwich inequality on one pair."""
    p, q = read_dist_pair(p_path, q_path)
    r = eval_sandwich(get_generator(name), p, q)
    row = (r.r_min, r.r_max, r.left, r.middle, r.right, r.chi2)
    _emit("r_min,r_max,left,middle,right,chi2", [row], output)


# labels a mismatch message lists of each kind; it counts the rest
_MAX_LISTED_LABELS = 5


def _some(kind: str, labels: list[str]) -> str:
    """'kind N: [first labels]', the list cut at _MAX_LISTED_LABELS."""
    shown = repr(labels[:_MAX_LISTED_LABELS])
    if len(labels) > _MAX_LISTED_LABELS:
        shown = shown[:-1] + ", ...]"
    return f"{kind} {len(labels)}: {shown}"


@main.command()
@click.option("--dist", "dist_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--base", "base_d", required=True, type=int, help="Code alphabet size d >= 2.")
@click.option(
    "--lengths",
    "lengths_path",
    type=click.Path(exists=True, dir_okay=False),
    help="Optional codeword lengths file; defaults to the Shannon lengths for --dist.",
)
@click.option("--output", type=click.Path(dir_okay=False))
@_mapped_errors
def sourcecode(dist_path, base_d, lengths_path, output):
    """Redundancy, divergence identities, and L1 bounds for one source/code pair."""
    from .coding import CodeSpec, l1_bounds, shannon_code

    p = read_dist_file(dist_path)
    if lengths_path is None:
        code = shannon_code(p, base_d)
    else:
        table = read_lengths_file(lengths_path)
        known = set(p.labels)
        if table.keys() != known:
            missing = [x for x in p.labels if x not in table]
            extra = [x for x in table if x not in known]
            raise DistributionError(
                "lengths file does not match the source alphabet "
                f"({_some('missing', missing)}, {_some('extra', extra)})"
            )
        code = CodeSpec(p.labels, tuple(map(table.__getitem__, p.labels)), base_d)
    rep = l1_bounds(p, code)
    names = [f.name for f in dataclasses.fields(rep)]
    _emit(",".join(names), [[getattr(rep, name) for name in names]], output)


@main.command(name="sourcecode-sweep")
@click.option(
    "--grid",
    required=True,
    help="Log-spaced grid of redundancy values (nats) as start:stop:npoints.",
)
@click.option("--output", type=click.Path(dir_okay=False))
@_mapped_errors
def sourcecode_sweep(grid, output):
    """Compare the three L1 bounds across redundancy values x = Delta log d."""
    from .coding import redundancy_sweep

    xs = _log_grid(grid)
    cs, ti, je = redundancy_sweep(xs)
    _emit("delta_log_d,bound_csiszar,bound_tightened,bound_jeffreys", zip(xs, cs, ti, je), output)


# the names --measure of verify takes for several oracle entries at once
_MEASURE_GROUPS = {
    "bhattacharyya": ("bhattacharyya_lower", "bhattacharyya_upper"),
    "all": tuple(sorted(checked_measures())),
}


@main.command()
@click.option(
    "--measure",
    required=True,
    multiple=True,
    type=click.Choice([*_MEASURE_GROUPS["all"], *_MEASURE_GROUPS]),
    help="Measure to verify; repeat the option for several, which share one scan. "
    "'bhattacharyya' runs both directions, one scan each, 'all' every measure.",
)
@click.option("--grid", required=True, help="Grid as start:step:stop.")
@click.option(
    "--samples",
    default=1000,
    show_default=True,
    type=click.IntRange(min=0),
    help="Pairs per support size; 0 checks the fine grid only.",
)
@click.option(
    "--seed",
    type=click.IntRange(min=0),
    default=0,
    envvar="DIVBOUND_SEED",
    show_envvar=True,
    show_default=True,
    help="RNG seed.",
)
@click.option(
    "--gap-threshold",
    type=float,
    default=None,
    callback=_not_nan,
    help="Fail if the empirical gap exceeds this (NaN is rejected).",
)
@click.option("--output", type=click.Path(dir_okay=False))
@_mapped_errors
def verify(measure, grid, samples, seed, gap_threshold, output):
    """Brute-force check of tight bounds over a grid; exit 1 on any failure.

    Every sampled pair must sit within 1e-9 of its total variation target; that
    check and the bound's 1e-9 slack are fixed.  The rows come measure by
    measure in the order given, each named once.
    """
    from .oracle import grid_verify

    eps_grid = _linear_grid(grid)
    _check_output(output)  # before the scan, which can take minutes
    names = list(dict.fromkeys(n for m in measure for n in _MEASURE_GROUPS.get(m, (m,))))
    # the bhattacharyya shorthand keeps one scan per direction, the draw
    # count the benchmark harness pins for it; every other name (all
    # included) shares one scan
    shared = {n for m in measure if m != "bhattacharyya" for n in _MEASURE_GROUPS.get(m, (m,))}
    scans = [[n for n in names if n in shared]] + [[n] for n in names if n not in shared]
    by_name = {}
    try:
        for scan in filter(None, scans):
            for r in grid_verify(scan, eps_grid, samples, seed=seed, gap_threshold=gap_threshold):
                by_name.setdefault(r.measure, []).append(r)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    all_reports = [r for n in names for r in by_name[n]]

    _emit(
        "measure,eps,closed_form,empirical_extreme,extremal_value,gap,violations,attained,passed",
        [(r.measure, r.eps, r.closed_form, r.sample_extreme, r.extremal_value, r.gap, r.violations,
          r.attained, r.passed) for r in all_reports],
        output,
    )

    ok = all(r.passed for r in all_reports)
    rng_name = all_reports[0].rng_name if all_reports else "-"
    _write(
        sys.stderr,
        f"verify {','.join(measure)}: {len(all_reports)} check(s), {samples} samples/support, "
        f"seed {seed}, rng {rng_name}: {'PASS' if ok else 'FAIL'}\n",
    )
    if not ok:
        for r in all_reports:
            if not r.passed:
                _write(sys.stderr, f"  {r.measure} at eps={_cell(r.eps)}: {r.failure}\n")
                if r.witness is not None:
                    wp, wq = r.witness
                    _write(sys.stderr, f"    witness P = {wp.mass.tolist()!r}\n")
                    _write(sys.stderr, f"    witness Q = {wq.mass.tolist()!r}\n")
        sys.exit(1)


if __name__ == "__main__":
    main()
