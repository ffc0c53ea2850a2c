"""Output checks: every CSV the program prints, against independent references.

A check returns a list of problems; an empty list means the output is
correct.  Each tolerance is the sum of named parts:

    rendering   the CSV prints 12 significant digits (reference.RENDER_REL)
    search      the residual the program documents for its curve inversions:
                1e-9 in sourcecode-sweep (tightened_bound's default), the
                --tol-search default 1e-10 in sourcecode, 1e-12 for the
                Jeffreys inversion, each converted to a location error
                through the curve's slope where the check compares eps
    summation   (n + 8) ulp of the sum of magnitudes for an n-term sum
                (reference.summation_tol), propagated through differences
    evaluation  FLOAT_ABS for two float64 routes to one closed-form value
    slack       the program's own documented slack where a check restates
                one of its inequalities: 1e-9 for oracle violations and
                attainment and for the L1 ordering, 1e-10 for identities
                and the sandwich ordering
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from workloads import Command, Plan

FLOAT_ABS = 1e-14  # about 45 ulp at 1
ORACLE_SLACK = 1e-9
L1_SLACK = 1e-9
IDENTITY_TOL = 1e-10
SANDWICH_SLACK = 1e-10
SWEEP_SEARCH_TOL = 1e-9
SOURCECODE_SEARCH_TOL = 1e-10
JEFFREYS_SEARCH_TOL = 1e-12

VERIFY_HEADER = "measure,eps,closed_form,empirical_extreme,extremal_value,gap,violations,attained,passed"
SOURCECODE_HEADER = (
    "avg_length,entropy_d,redundancy,kraft_sum,kl_pq,kl_qp,jeffreys_val,"
    "actual_l1,bound_csiszar,bound_tightened,bound_jeffreys,delta_nonneg"
)


class CheckFailed(Exception):
    pass


def _table(stdout: str, header: str, nrows: int) -> list[dict]:
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[0] if lines else ''!r}, expected {header!r}")
    cols = header.split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != nrows or any(len(r) != len(cols) for r in rows):
        raise CheckFailed(f"{len(rows)} rows of widths {sorted({len(r) for r in rows})}, expected {nrows} of {len(cols)}")
    return [dict(zip(cols, r)) for r in rows]


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckFailed(f"{text!r} is not a number") from None


class Checker:
    """Checks the outputs of one plan's commands."""

    def __init__(self, plan: Plan):
        self.plan = plan

    def check(self, cmd: Command, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        self.problems: list[str] = []
        try:
            getattr(self, "_" + cmd.kind)(cmd.check, stdout)
        except CheckFailed as exc:
            self.problems.append(str(exc))
        return self.problems

    def _near(self, what: str, got: float, want: float, tol: float):
        if math.isinf(want) and got == want:
            return
        if not abs(got - want) <= tol:
            self.problems.append(f"{what}: got {got!r}, reference {want!r}, tolerance {tol:.3g}")

    def _true(self, what: str, cond: bool):
        if not cond:
            self.problems.append(what)

    # -- curves and the oracle ------------------------------------------

    def _verify(self, spec: dict, stdout: str):
        eps_grid = spec["eps"]
        rows = _table(stdout, VERIFY_HEADER, len(spec["names"]) * len(eps_grid))
        for i, row in enumerate(rows):
            name = spec["names"][i // len(eps_grid)]
            eps = eps_grid[i % len(eps_grid)]
            where = f"{name} at eps={eps:.12g}"
            self._true(f"{where}: measure column {row['measure']!r}", row["measure"] == name)
            self._near(f"{where}: eps", _num(row["eps"]), eps, ref.render_tol(eps))
            cf = ref.CLOSED_FORMS[name](eps)
            self._near(f"{where}: closed_form", _num(row["closed_form"]), cf, ref.render_tol(cf) + FLOAT_ABS)
            emp, ext, gap = (_num(row[k]) for k in ("empirical_extreme", "extremal_value", "gap"))
            sign = -1.0 if name == "bhattacharyya_upper" else 1.0
            self._true(
                f"{where}: empirical extreme {emp!r} crosses the closed form {cf!r}",
                sign * (emp - cf) >= -(ORACLE_SLACK + ref.render_tol(emp, cf)),
            )
            self._near(f"{where}: extremal_value", ext, cf, ORACLE_SLACK + ref.render_tol(ext, cf))
            self._near(f"{where}: gap", gap, abs(emp - cf), ref.render_tol(emp, cf, gap) + FLOAT_ABS)
            for col, want in (("violations", "0"), ("attained", "true"), ("passed", "true")):
                self._true(f"{where}: {col} is {row[col]!r}, expected {want!r}", row[col] == want)

    def _bounds(self, spec: dict, stdout: str):
        rows = _table(stdout, "eps,value", len(spec["eps"]))
        curve = ref.exact_kl if spec["measure"] == "exact_kl" else ref.CLOSED_FORMS[spec["measure"]]
        for eps, row in zip(spec["eps"], rows):
            where = f"{spec['measure']} at eps={eps:.12g}"
            self._near(f"{where}: eps", _num(row["eps"]), eps, ref.render_tol(eps))
            want = curve(eps)
            self._near(f"{where}: value", _num(row["value"]), want, ref.render_tol(want) + FLOAT_ABS)

    def _tightened(self, what: str, bound: float, x: float, search_tol: float, x_err: float):
        """2 L^{-1}(x): the forward residual L(bound/2) - x within the search tolerance."""
        eps = 0.5 * bound
        if not 0.0 <= eps < 1.0:
            self.problems.append(f"{what}: {bound!r} outside [0, 2)")
            return
        slack = ref.exact_kl_slope(eps) * ref.render_tol(eps)
        self._near(f"{what} residual", ref.exact_kl(eps), x, search_tol + slack + x_err + FLOAT_ABS)

    def _jeffreys(self, what: str, bound: float, x: float, x_err: float):
        """2 eps(x/2), against an independent inversion of the Jeffreys curve."""
        eps = ref.inverse_jeffreys(0.5 * x)
        slope = ref.jeffreys_slope(eps) if eps > 0.0 else math.inf
        tol = (JEFFREYS_SEARCH_TOL + 0.5 * x_err) / slope + ref.render_tol(eps) + FLOAT_ABS
        self._near(what, 0.5 * bound, eps, tol)

    def _sweep(self, spec: dict, stdout: str):
        header = "delta_log_d,bound_csiszar,bound_tightened,bound_jeffreys"
        rows = _table(stdout, header, len(spec["x"]))
        for x, row in zip(spec["x"], rows):
            where = f"sweep at x={x:.12g}"
            self._near(f"{where}: x", _num(row["delta_log_d"]), x, ref.render_tol(x))
            cs = min(math.sqrt(2.0 * x), 2.0)
            self._near(f"{where}: csiszar", _num(row["bound_csiszar"]), cs, ref.render_tol(cs) + FLOAT_ABS)
            self._tightened(f"{where}: tightened", _num(row["bound_tightened"]), x, SWEEP_SEARCH_TOL, 0.0)
            self._jeffreys(f"{where}: jeffreys", _num(row["bound_jeffreys"]), x, 0.0)

    # -- labelled files -------------------------------------------------

    def _pair(self, spec: dict):
        """(p, q) normalized and aligned on p's label order."""
        p_labels, p_mass = self.plan.dists[spec["p"]]
        q_labels, q_mass = self.plan.dists[spec["q"]]
        if q_labels != p_labels:
            pos = {x: i for i, x in enumerate(q_labels)}
            q_mass = q_mass[[pos[x] for x in p_labels]]
        return ref.normalized(p_mass), ref.normalized(q_mass)

    def _divergence(self, spec: dict, stdout: str):
        rows = _table(stdout, "measure,value", 1)
        p, q = self._pair(spec)
        name = spec["measure"]
        terms = {
            "kl": lambda: p * np.log(p / q),
            "hellinger2": lambda: (np.sqrt(p) - np.sqrt(q)) ** 2,
            "jeffreys": lambda: 0.5 * (p - q) * np.log(p / q),
        }[name]()
        want = math.fsum(terms)
        self._true(f"measure column {rows[0]['measure']!r}", rows[0]["measure"] == name)
        tol = ref.render_tol(want) + ref.summation_tol(p.size, math.fsum(np.abs(terms)))
        self._near(f"divergence {name}", _num(rows[0]["value"]), want, tol)

    def _sandwich(self, spec: dict, stdout: str):
        row = _table(stdout, "r_min,r_max,left,middle,right,chi2", 1)[0]
        got = {k: _num(v) for k, v in row.items()}
        p, q = self._pair(spec)
        n = p.size
        r = p / q
        r_min, r_max = float(r.min()), float(r.max())
        d_f = math.fsum(q * np.log(q / p))  # dual_kl: D(Q||P)
        d_f_tol = ref.summation_tol(n, math.fsum(np.abs(q * np.log(q / p))))
        d_g = math.fsum(p * np.log(p / q))  # its certified partner kl: D(P||Q)
        d_g_tol = ref.summation_tol(n, math.fsum(np.abs(p * np.log(p / q))))
        s = math.fsum(p * p / q)
        chi2 = s - 1.0
        chi2_tol = ref.summation_tol(n, s)
        middle = math.log1p(chi2) - d_g
        for key, want, tol in (
            ("r_min", r_min, 4 * ref.ULP * r_min),
            ("r_max", r_max, 4 * ref.ULP * r_max),
            ("chi2", chi2, chi2_tol),
            ("left", r_min * d_f, r_min * d_f_tol + 4 * ref.ULP * r_min * d_f),
            ("right", r_max * d_f, r_max * d_f_tol + 4 * ref.ULP * r_max * d_f),
            ("middle", middle, chi2_tol / (1.0 + chi2) + d_g_tol + FLOAT_ABS),
        ):
            self._near(f"sandwich {key}", got[key], want, tol + ref.render_tol(want))
        slack = SANDWICH_SLACK + ref.render_tol(got["left"], got["middle"], got["right"])
        self._true("sandwich: left > middle", got["left"] <= got["middle"] + slack)
        self._true("sandwich: middle > right", got["middle"] <= got["right"] + slack)

    def _sourcecode(self, spec: dict, stdout: str):
        row = _table(stdout, SOURCECODE_HEADER, 1)[0]
        labels, mass = self.plan.dists[spec["dist"]]
        p = ref.normalized(mass)
        d = spec["base"]
        logd = math.log(d)
        if spec["lengths"] is None:
            lengths = ref.shannon_lengths(p, d)
        else:
            table = self.plan.lengths[spec["lengths"]]
            lengths = np.array([table[x] for x in labels], dtype=float)
        n = p.size
        avg = math.fsum(p * lengths)
        avg_tol = ref.summation_tol(n, avg)
        h = -math.fsum(p * np.log(p)) / logd
        h_tol = ref.summation_tol(n, h)
        red = avg - h
        red_tol = avg_tol + h_tol + 2 * ref.ULP * avg
        w = np.power(float(d), -lengths)
        kraft = math.fsum(w)
        qc = w / kraft
        kl_pq_terms = p * np.log(p / qc)
        kl_qp_terms = qc * np.log(qc / p)
        kl_pq, kl_qp = math.fsum(kl_pq_terms), math.fsum(kl_qp_terms)
        kl_pq_tol = ref.summation_tol(n, math.fsum(np.abs(kl_pq_terms)))
        kl_qp_tol = ref.summation_tol(n, math.fsum(np.abs(kl_qp_terms)))
        l1 = math.fsum(np.abs(p - qc))
        x = red * logd
        x_err = red_tol * logd

        num = {k: _num(v) for k, v in row.items() if k not in ("bound_jeffreys", "delta_nonneg")}
        for key, want, tol in (
            ("avg_length", avg, avg_tol),
            ("entropy_d", h, h_tol),
            ("redundancy", red, red_tol),
            ("kraft_sum", kraft, ref.summation_tol(n, kraft)),
            ("kl_pq", kl_pq, kl_pq_tol),
            ("kl_qp", kl_qp, kl_qp_tol),
            ("jeffreys_val", 0.5 * (kl_pq + kl_qp), 0.5 * (kl_pq_tol + kl_qp_tol)),
            ("actual_l1", l1, ref.summation_tol(n, 2.0)),
        ):
            self._near(f"sourcecode {key}", num[key], want, tol + ref.render_tol(want) + FLOAT_ABS)

        # D(P||Q) = Delta log d + log c, on the printed values alone
        identity = num["redundancy"] * logd + math.log(num["kraft_sum"])
        # (rendering kraft_sum moves its log by at most RENDER_REL)
        tol = IDENTITY_TOL + ref.render_tol(num["kl_pq"], num["redundancy"] * logd) + ref.RENDER_REL
        self._near("sourcecode identity kl_pq = redundancy log d + log kraft_sum", num["kl_pq"], identity, tol)

        cs = min(math.sqrt(2.0 * x), 2.0)
        cs_tol = x_err / math.sqrt(2.0 * x) if x > 0.0 else math.sqrt(2.0 * x_err)
        self._near("sourcecode bound_csiszar", num["bound_csiszar"], cs, cs_tol + ref.render_tol(cs) + FLOAT_ABS)
        self._tightened(
            "sourcecode bound_tightened", num["bound_tightened"], x, SOURCECODE_SEARCH_TOL, x_err
        )
        nonneg = bool(np.all(ref.code_delta(p, lengths, d) >= -ref.DELTA_SLACK))
        self._true(
            f"sourcecode delta_nonneg is {row['delta_nonneg']!r}, reference {nonneg}",
            row["delta_nonneg"] == ("true" if nonneg else "false"),
        )
        bounds = [num["bound_csiszar"], num["bound_tightened"]]
        if nonneg:
            jb = _num(row["bound_jeffreys"])
            self._jeffreys("sourcecode bound_jeffreys", jb, x, x_err)
            bounds.append(jb)
        else:
            self._true(
                f"sourcecode bound_jeffreys {row['bound_jeffreys']!r} printed although delta < 0",
                row["bound_jeffreys"] == "",
            )
        for b in bounds:
            self._true(
                f"sourcecode actual_l1 {num['actual_l1']!r} exceeds the bound {b!r}",
                num["actual_l1"] <= b + L1_SLACK + ref.render_tol(b, num["actual_l1"]),
            )
