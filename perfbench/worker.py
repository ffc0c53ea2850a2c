"""The workload's own process: drives the divbound CLI in-process and times it.

Started by run.py in a fresh interpreter as `python3 worker.py PLAN.json`.
It runs one untimed warm-up round, then timed rounds until the plan's
seconds have passed, all through click.testing.CliRunner from this single
thread.  Every round runs one pass of the calibration kernel before every
command and after the last one (calibrate.py), outside the command's
latency.  With tracing on it alternates plain rounds with traced rounds
instead, so that the tracing overhead can be measured pair by pair.  It
writes every output, every latency, every kernel time and, when traced,
every span to the plan's result file.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from click.testing import CliRunner

    from calibrate import kernel

    from divbound.cli import main as cli_main

    runner = CliRunner()
    commands = plan["commands"]

    def one_round(invoke=None):
        latencies, outputs, kernel_times = [], [], []
        for i, argv in enumerate(commands):
            call = runner.invoke if invoke is None else invoke(i)
            kernel_times.append(kernel())
            t0 = perf_counter()
            res = call(cli_main, argv)
            latencies.append(perf_counter() - t0)
            err = "" if res.exception is None or isinstance(res.exception, SystemExit) else repr(res.exception)
            outputs.append([res.exit_code, res.stdout, err[:500]])
        kernel_times.append(kernel())
        return {"wall": sum(latencies), "cmd": latencies, "kernel": kernel_times, "out": outputs}

    result = {"warmup": one_round(), "rounds": [], "traced": []}
    deadline = perf_counter() + plan["seconds"]
    if not plan["trace"]:
        while not result["rounds"] or perf_counter() < deadline:
            result["rounds"].append(one_round())
    else:
        from spans import Recorder, layer_metrics

        while not result["traced"] or perf_counter() < deadline:
            result["rounds"].append(one_round())
            rec = Recorder()
            rec.install()
            try:
                traced = one_round(lambda i: rec.command_span(runner.invoke, i))
            finally:
                rec.restore()
            traced["layers"] = layer_metrics(rec.spans, rec.counts)
            traced["spans"] = rec.spans
            result["traced"].append(traced)
    # untimed commands whose outputs are reported as findings, not failures
    result["probes"] = []
    for argv in plan["probes"]:
        res = runner.invoke(cli_main, argv)
        result["probes"].append([res.exit_code, res.stdout])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
