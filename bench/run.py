#!/usr/bin/env python3
"""Layered benchmark of the allocsim CLI.

Run from the root of a source checkout (``src/allocsim`` must exist)::

    python3 bench/run.py --workload tables --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each pass runs in a fresh Python process that imports ``allocsim.cli`` from
``src`` and drives it in-process as a closed loop (one client; the next
command is issued when the previous one returns).  Passes repeat until
``--seconds`` have elapsed.  The answers are checked after the timed passes.
Each command is timed in CPU time (pass process plus waited-for pool workers)
and in wall time; the bounded end-to-end metrics use CPU time, which the
host's drifting wall-clock speed moves much less.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes on the same inputs and prints the per-layer
metrics, the budget read-out and the tracing overhead.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Exit status: 0 when every answer is right, 1 on a wrong answer,
2 on a usage or checkout error, 3 when a pass process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_REL = os.path.join(".bench_build", "allocsim-bench")
WORK = os.path.join(ROOT, WORK_REL)
SETUP_PROBES = 9  # extra fresh processes per run that only import the CLI
# CPU time of pass_main.calibration_kernel on the baseline machine at its full
# speed (README.md, "Baseline").  A process's CPU times are scaled by this over
# the mean of its own calibration samples, so they read as if the host had run
# at that speed throughout.
CALIBRATION_REF_MS = 0.75
MIN_OWN_SAMPLES = 20  # a command of about 0.6 s or more is scaled by its own samples
PASS_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from checks import Checker  # noqa: E402
from metrics import layer_metrics, pass_counts, tail_percentile  # noqa: E402
from workloads import WORKLOADS, check_jobs_cap, pass_commands, reference_key  # noqa: E402


class PassFailed(RuntimeError):
    pass


def _spawn(commands: list[list[str]], tag: str, trace: bool = False, pass_id: int = 0) -> dict:
    """Run one pass process to completion and return its result."""
    spec_path = os.path.join(WORK, f"{tag}.spec.json")
    result_path = os.path.join(WORK, f"{tag}.result.json")
    trace_path = os.path.join(WORK, f"{tag}.trace.json")
    with open(spec_path, "w") as fh:
        json.dump({"commands": commands, "trace": trace, "pass_id": pass_id, "trace_out": trace_path}, fh)
    env = dict(os.environ)
    env.pop("ALLOC_BUDGET_SECS", None)  # every workload runs at the default budget
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(os.path.join(WORK, f"{tag}.stderr"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "pass_main.py"), spec_path, result_path, repr(t0)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=PASS_TIMEOUT_S)
        except BaseException as exc:  # timeout, interrupt or SIGTERM
            os.killpg(proc.pid, signal.SIGKILL)  # the pass and any pool workers it started
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise PassFailed(f"pass {tag} exceeded {PASS_TIMEOUT_S} s") from None
            raise
    if code != 0:
        with open(os.path.join(WORK, f"{tag}.stderr")) as fh:
            raise PassFailed(f"pass {tag} exited with {code}: {fh.read()[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    if trace:
        with open(trace_path) as fh:
            result["trace"] = json.load(fh)
    return result


def _scale(calibration_ms: list[float]) -> float:
    """Factor that turns a process's CPU times into CPU times at the baseline
    machine's full speed."""
    return CALIBRATION_REF_MS / statistics.fmean(calibration_ms)


def _scale_ops(result: dict) -> None:
    """Set each command's ``scaled_cpu_ms``: its CPU time scaled by the
    calibration samples taken while it ran, or by those of the whole pass
    when it ran too briefly for MIN_OWN_SAMPLES of its own."""
    samples = result["calibration_ms"]
    whole = _scale(samples or result["setup_calibration_ms"])
    for op in result["ops"]:
        own = samples[op["calibration"][0]:op["calibration"][1]]
        op["scaled_cpu_ms"] = op["cpu_ms"] * (_scale(own) if len(own) >= MIN_OWN_SAMPLES else whole)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return its counts, metrics and check results."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    probes = [_spawn([], f"setup{i}") for i in range(SETUP_PROBES)]
    inputs: dict[str, str] = {}
    passes = []  # (commands, traced, result)
    deadline = time.monotonic() + seconds
    index = 0
    while index == 0 or time.monotonic() < deadline:
        commands, files = pass_commands(workload, seed, index)
        check_jobs_cap(commands, os.cpu_count())
        for name, text in files.items():
            inputs["{work}/" + name] = text
            with open(os.path.join(WORK, name), "w") as fh:
                fh.write(text)
        resolved = [[a.replace("{work}", WORK_REL) for a in args] for args in commands]
        for traced in (False, True) if trace else (False,):
            tag = f"pass{index}{'t' if traced else ''}"
            passes.append((commands, traced, _spawn(resolved, tag, traced, index)))
        index += 1
    probes += [result for _, _, result in passes]
    setups = [result["setup_cpu_s"] * _scale(result["setup_calibration_ms"])
              for result in probes if result["setup_calibration_ms"]]
    setup_walls = [result["setup_s"] for result in probes]

    # Everything below runs after the timed passes.
    sys.path.insert(0, SRC)
    checker = Checker(ROOT, reference, inputs.__getitem__)

    def reference_cells(args):
        return len(reference[reference_key(args)].splitlines()) - 1

    attempted = failed = 0
    per_pass = []
    for commands, traced, result in passes:
        for args, op in zip(commands, result["ops"]):
            checker.check(args, op["code"], op["out"])
        tried, answered, timeouts = pass_counts(commands, result["ops"], reference_cells)
        attempted += tried
        failed += tried - answered
        per_pass.append((answered, timeouts))

    untraced = [(result, counts) for (_, traced, result), counts in zip(passes, per_pass) if not traced]
    wall = [op["ms"] for result, _ in untraced for op in result["ops"]]
    for result, _ in untraced:
        _scale_ops(result)
    cpu = [op["scaled_cpu_ms"] for result, _ in untraced for op in result["ops"]]
    wall_tail, _, _, _ = tail_percentile(wall)
    cpu_tail, percentile, samples, beyond = tail_percentile(cpu)
    report = {
        "workload": workload,
        "passes": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "checker": checker,
        "tail": (percentile, samples, beyond),
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "answers_per_cpu_s": (statistics.median(
                c[0] / sum(op["scaled_cpu_ms"] / 1e3 for op in r["ops"]) for r, c in untraced), "1/s"),
            "cpu_p50_ms": (statistics.median(cpu), "ms"),
            "cpu_tail_ms": (cpu_tail, "ms"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r, _ in untraced), "MB"),
        },
        "raw": {
            "host.calibration_ms": (
                statistics.fmean(ms for r, _ in untraced for ms in r["calibration_ms"] or r["setup_calibration_ms"]),
                "ms"),
            "wall.setup_s": (statistics.median(setup_walls), "s"),
            "wall.answers_per_s": (statistics.median(c[0] / r["wall_s"] for r, c in untraced), "1/s"),
            "wall.latency_p50_ms": (statistics.median(wall), "ms"),
            "wall.latency_tail_ms": (wall_tail, "ms"),
        },
        "timeout_cells": statistics.median(c[1] for _, c in untraced),
    }
    if trace:
        traced_passes = [result for _, traced, result in passes if traced]
        layers, timeouts = layer_metrics(
            [r["trace"] for r in traced_passes], [r["ops"] for r in traced_passes])
        overhead = sum(r["cpu_s"] for r in traced_passes) / sum(r["cpu_s"] for r, _ in untraced)
        layers.update(report["raw"])
        layers["timeout_cells"] = (report["timeout_cells"], "count")
        layers["trace.overhead"] = (overhead, "ratio")
        report["layers"] = layers
        report["timeouts"] = timeouts
    return report


def _print_report(report: dict, trace: bool) -> None:
    checker = report["checker"]
    print(f"workload {report['workload']}: {report['passes']} untraced pass(es), "
          f"{report['attempted']} operations attempted, {report['failed']} failed "
          f"(timeout or non-zero exit)")
    for name, (value, unit) in (report["metrics"] | report["raw"]).items():
        note = ""
        if name in ("cpu_tail_ms", "wall.latency_tail_ms"):
            percentile, samples, beyond = report["tail"]
            note = f"  (p{percentile} of {samples} samples, {beyond} beyond)"
        print(f"  {name:<20} {value:>14.6g} {unit}{note}")
    print(f"  {'timeout_cells':<20} {report['timeout_cells']:>14g} count")
    for cell in sorted(checker.newly_answered):
        print(f"  answered: {cell} was a timeout in the reference; checked against the raised-budget row")
    for cell in sorted(checker.unverified):
        print(f"  unverified: {cell} was a timeout in the reference; value_A is not checked")
    for problem in checker.problems:
        print(f"  WRONG ANSWER: {problem}")
    if trace:
        from allocsim.welfare import UNITS_PER_SECOND

        print(f"  per-layer metrics (traced passes; tracing overhead "
              f"{report['layers']['trace.overhead'][0]:.3f}x):")
        for name, (value, unit) in report["layers"].items():
            print(f"    {name:<30} {value:>14.6g} {unit}")
        print(f"  budget read-out: UNITS_PER_SECOND = {UNITS_PER_SECOND}; measured "
              + ", ".join(f"{path} {report['layers']['welfare.units_per_s.' + path][0]:.0f}"
                          for path in ("fast", "structure", "quotient")) + " units/s")
        for t in report["timeouts"]:
            print(f"    timeout table {t['table']} ({t['m']},{t['n']}): estimated {t['estimated']} units, "
                  f"budget {t['budget']} ({t['estimated'] / t['budget']:.2f}x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # lets _spawn clean up
    if not os.path.isfile(os.path.join(SRC, "allocsim", "cli.py")):
        print(f"error: {SRC}/allocsim not found; run from an allocsim source checkout", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True, stdout=subprocess.DEVNULL)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for workload in workloads:
            reports.append(run_workload(workload, args.seed, args.seconds, bool(args.trace)))
            _print_report(reports[-1], bool(args.trace))
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # e.g. a command's --jobs above the CPU count
        print(f"error: {exc}", file=sys.stderr)
        return 2
    key = "layers" if args.trace else "metrics"
    metrics = {}
    for report in reports:
        prefix = "" if len(reports) == 1 else report["workload"] + "."
        for name, (value, unit) in report[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    correct = not any(report["checker"].problems for report in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
