"""Span recorder for the traced pass, attached from outside the program.

Spans are opened by wrappers that the benchmark binds in place of divbound's
public entry points, in its own process only; nothing under src/ changes.
Each span keeps its name, start, end, parent span and command id in memory,
and the spans are written out once when the run ends.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.  Counters sit at the same boundaries, so ratios are
measured where the work happens.

Some entry points are captured when divbound is imported and cannot be
reached by rebinding a module attribute; UNREACHABLE lists each one and
what the benchmark does about it.
"""

from __future__ import annotations

import dataclasses
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# Layers that get spans.  search is measured by counts only, so its time
# (mostly the callers' objectives) stays in the self time of its caller.
LAYERS = ("cli", "textio", "dist", "fdiv", "bounds", "coding", "jensen", "oracle")

UNREACHABLE = {
    "oracle.ORACLE_MEASURES[tv].evaluate": "batch_total_variation captured in the dict; entry replaced by the benchmark",
    "oracle.ORACLE_MEASURES[bhattacharyya_*].evaluate": "batch_bhattacharyya captured in the dict; entries replaced by the benchmark",
    "oracle.ORACLE_MEASURES[*].closed_form": "closed forms captured in the dict; unmeasured, inside oracle.grid_verify and oracle.verify_min",
    "bounds.CURVE_MEASURES[*]": "closed-form lambdas and chernoff_min captured in the dict; unmeasured, inside bounds.bound_curve",
    "generators.FGenerator.fn": "generator functions held by registry entries; unmeasured, inside fdiv.batch_f_divergence",
    "jensen._CERTIFIED_G": "partner generators captured at import; unmeasured, inside jensen.sandwich",
    "bounds._kl_at_offset": "scalar objective called ~1e5 times per sweep; counted through search, timed inside bounds.exact_kl_min",
    "fdiv.batch_chernoff objective g": "closure local to batch_chernoff; counted through search, timed inside fdiv.batch_chernoff",
}


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children's intervals.

    spans: sequence of (name, start, end, parent_index, command_id), parents
    listed before their children.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Recorder:
    """Spans and counters of the traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[int] = []
        self._undo: list = []
        self.chernoff_k = 0

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result) may update counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.command])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, on_call):
        """fn with on_call(args, kwargs, result) run after each call; no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def command_span(self, fn, command: int):
        """One CLI invocation: the root span every layer span of it hangs from."""
        self.command = command
        return self.span("cli.command", fn)

    # -- binding ---------------------------------------------------------

    def _set(self, owner, attr, value):
        old = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def rebind(self, modules, original, wrapper):
        """Bind wrapper wherever a divbound module holds original by name."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def install(self):
        """Attach spans and counters to the divbound package's entry points."""
        import divbound
        import divbound.bounds as bounds
        import divbound.cli as cli
        import divbound.coding as coding
        import divbound.dist as dist
        import divbound.fdiv as fdiv
        import divbound.jensen as jensen
        import divbound.oracle as oracle
        import divbound.search as search
        import divbound.textio as textio

        mods = [divbound, bounds, cli, coding, dist, fdiv, jensen, oracle, search, textio]
        c = self.counts

        def add(key, value=1.0):
            c[key] += value

        def file_bytes(args, kwargs, result):
            add("textio.bytes", os.path.getsize(args[0]))

        def on_align(args, kwargs, result):
            add("dist.align.calls")
            add("dist.align.union_labels", len(result[0]))
            if result[1] is args[0].mass:  # the shared-order path returns p's own array
                add("dist.align.fast_path")

        def on_chernoff(args, kwargs, result):
            add("fdiv.batch_chernoff.rows", len(result))

        def on_sample(args, kwargs, result):
            add("oracle.sample_batch.pairs", result[0].shape[0])

        def on_sign_sets(args, kwargs, result):
            add("oracle.sign_sets.rounds")
            add("oracle.sign_sets.drawn", result[1].size)
            add("oracle.sign_sets.accepted", int(result[1].sum()))

        def golden(for_chernoff: bool):
            def wrapped(fn, *args, **kwargs):
                add("search.golden_section_min.calls")

                def objective(x):
                    add("search.golden.objective_evals")
                    if for_chernoff:  # one (rows, k) exp/log pass per evaluation
                        add("fdiv.chernoff.objective_evals")
                        add("fdiv.chernoff.elem_passes", np.size(x) * self.chernoff_k)
                    return fn(x)

                return search.golden_section_min(objective, *args, **kwargs)

            return wrapped

        def bisect(fn, *args, **kwargs):
            add("search.bisect_increasing.calls")

            def counted_fn(x):
                add("search.bisect.fn_evals")
                return fn(x)

            return search.bisect_increasing(counted_fn, *args, **kwargs)

        chernoff = fdiv.batch_chernoff

        def batch_chernoff(p, q, *args, **kwargs):
            self.chernoff_k = np.shape(p)[-1]
            return chernoff(p, q, *args, **kwargs)

        spans = [
            ("textio.read_dist_file", textio.read_dist_file, file_bytes),
            ("textio.read_lengths_file", textio.read_lengths_file, file_bytes),
            ("dist.make_dist", dist.make_dist, None),
            ("dist.align", dist.align, on_align),
            ("fdiv.f_divergence", fdiv.f_divergence, None),
            ("fdiv.batch_f_divergence", fdiv.batch_f_divergence,
             lambda a, k, r: add("fdiv.batch_f_divergence.elems", np.size(a[1]))),
            ("fdiv.batch_bhattacharyya", fdiv.batch_bhattacharyya, None),
            ("fdiv.batch_total_variation", fdiv.batch_total_variation, None),
            ("bounds.exact_kl_min", bounds.exact_kl_min, lambda a, k, r: add("bounds.exact_kl_min.calls")),
            ("bounds.inverse_exact_kl", bounds.inverse_exact_kl, None),
            ("bounds.inverse_jeffreys", bounds.inverse_jeffreys, None),
            ("bounds.bound_curve", bounds.bound_curve, None),
            ("bounds.extremal_pair", bounds.extremal_pair, None),
            ("coding.redundancy_sweep", coding.redundancy_sweep, None),
            ("coding.l1_bounds", coding.l1_bounds, None),
            ("coding.shannon_code", coding.shannon_code, None),
            ("jensen.sandwich", jensen.sandwich, None),
            ("oracle.grid_verify", oracle.grid_verify, None),
            ("oracle.verify_min", oracle.verify_min, None),
            ("oracle.sample_batch", oracle._sample_batch, on_sample),
            ("oracle.fine_grid", oracle.fine_grid_pairs,
             lambda a, k, r: add("oracle.fine_grid.pairs", r[0].shape[0])),
        ]
        wrapped = {}
        for name, fn, after in spans:
            wrapped[fn] = self.span(name, fn, after)
            self.rebind(mods, fn, wrapped[fn])
        wrapped[chernoff] = self.span("fdiv.batch_chernoff", batch_chernoff, on_chernoff)
        self.rebind(mods, chernoff, wrapped[chernoff])

        self._set(fdiv, "golden_section_min", golden(True))
        self._set(bounds, "golden_section_min", golden(False))
        self._set(bounds, "bisect_increasing", bisect)
        self.rebind(mods, oracle._draw_sign_sets, self.counted(oracle._draw_sign_sets, on_sign_sets))
        self.rebind(mods, coding.tightened_bound, self.counted(
            coding.tightened_bound, lambda a, k, r: add("coding.tightened_bound.calls")))
        self.rebind(mods, textio.fmt_g12, self.counted(
            textio.fmt_g12, lambda a, k, r: add("textio.fmt_g12.calls")))
        self._set(coding.CodeSpec, "__post_init__", self.span("coding.codespec", coding.CodeSpec.__post_init__))

        # evaluators captured inside ORACLE_MEASURES: replace the dict entries
        for key, om in list(oracle.ORACLE_MEASURES.items()):
            if om.evaluate in wrapped:
                self._set_item(oracle.ORACLE_MEASURES, key,
                               dataclasses.replace(om, evaluate=wrapped[om.evaluate]))

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer figures of one traced round, from its spans and counters."""
    by_name: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        by_name[s[0]] += st
    out = {name + ".self_s": total for name, total in by_name.items()}
    for layer in LAYERS:
        out[layer + ".self_s"] = sum(v for k, v in by_name.items() if k.split(".")[0] == layer)
    out.update(counts)
    return out
