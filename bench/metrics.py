"""Pure metric helpers: table parsing, answered operations, the tail
percentile rule, and the per-layer metrics of traced passes."""

from __future__ import annotations

import math
from fractions import Fraction

PERCENTILES = ("50", "90", "99", "99.9", "99.99")
MIN_BEYOND = 10
KERNELS = ("parallel.fast_all", "parallel.fast_seq", "parallel.structure", "parallel.recursion")
CLI_COMMANDS = ("simulate", "eval", "manipulate", "tables")


def tail_percentile(samples: list[float]) -> tuple[float, str, int, int]:
    """The highest percentile that still has at least ten samples beyond it.

    Percentiles use the nearest-rank definition over a fixed ladder.  Returns
    ``(value, percentile, samples, samples beyond)``; with fewer than twenty
    samples no percentile qualifies and the maximum is returned as "100".
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = (ordered[-1], "100", n, 0)
    for p in PERCENTILES:
        rank = math.ceil(Fraction(p) * n / 100)
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (ordered[rank - 1], p, n, n - rank)
    return best


def table_rows(csv_text: str) -> list[list[str]]:
    """Data rows of a ``tables`` CSV, each ``[table_id, m, n, pi_star,
    value_star, value_A]``."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != "table_id,m,n,pi_star,value_star,value_A":
        raise ValueError("not a tables CSV")
    return [line.split(",") for line in lines[1:]]


def op_counts(args: list[str], code: int, out: str, reference_cells: int) -> tuple[int, int, int]:
    """``(attempted, answered, timeouts)`` of one command.

    A ``tables`` command is one operation per cell; a cell printed as
    ``timeout`` is attempted but not answered.  A command that exits non-zero
    answers nothing (a ``tables`` command then fails all its
    ``reference_cells``).  Every other command is one operation.
    """
    if args[0] == "tables":
        if code != 0:
            return reference_cells, 0, 0
        rows = table_rows(out)
        timeouts = sum(row[4] == "timeout" for row in rows)
        return len(rows), len(rows) - timeouts, timeouts
    return 1, int(code == 0), 0


def pass_counts(commands: list[list[str]], ops: list[dict], reference_cells) -> tuple[int, int, int]:
    """``(attempted, answered, timeouts)`` of one pass; ``reference_cells``
    maps a command to its number of table cells."""
    totals = [0, 0, 0]
    for args, op in zip(commands, ops):
        cells = reference_cells(args) if args[0] == "tables" else 1
        for i, v in enumerate(op_counts(args, op["code"], op["out"], cells)):
            totals[i] += v
    return tuple(totals)


# ---------------------------------------------------------------------------
# Per-layer metrics of traced passes


def _dur_s(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list[dict], pass_ops: list[list[dict]]) -> tuple[dict, list[dict]]:
    """Per-layer metrics averaged over traced passes, and the timeout cells.

    Counts and seconds are per pass; ``*_us`` metrics are per call.  Returns
    ``({name: (value, unit)}, [timeout cell read-outs])``.
    """
    k = len(traces)
    counters: dict[str, list[int]] = {}
    for trace in traces:
        for name, triple in trace["counters"].items():
            acc = counters.setdefault(name, [0, 0, 0])
            for i in range(3):
                acc[i] += triple[i]

    def calls(name):
        return counters.get(name, (0, 0, 0))[0]

    def ns(name):
        return counters.get(name, (0, 0, 0))[1]

    def items(name):
        return counters.get(name, (0, 0, 0))[2]

    spans = [s for trace in traces for s in trace["spans"]]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    passes = [s for s in named("welfare.pass") if "error" not in s]
    reused = 0
    self_s = 0.0
    units: dict[str, list[float]] = {"fast": [0, 0.0], "structure": [0, 0.0], "quotient": [0, 0.0]}
    for s in passes:
        delta = s["counters"]
        evaluated = sum(delta.get(name, (0, 0, 0))[0] for name in KERNELS[:3])
        if "welfare.pool" in delta:
            continue  # its evaluators ran in workers, out of the tracer's sight
        inner_ns = sum(delta.get(name, (0, 0, 0))[1] for name in KERNELS + ("model.stream",))
        self_s += _dur_s(s) - inner_ns / 1e9
        if not evaluated:
            reused += 1
        elif s["attrs"]["estimated"] is not None:
            acc = units[s["attrs"]["path"]]
            acc[0] += s["attrs"]["estimated"]
            acc[1] += _dur_s(s)

    timeouts = []
    index = {(s["pass"], s["id"]): s for s in spans}
    for s in spans:
        if "error" not in s or s["error"]["estimated"] is None:
            continue
        parent = s["parent"]
        while parent is not None and index[(s["pass"], parent)]["name"] != "welfare.cell":
            parent = index[(s["pass"], parent)]["parent"]
        if parent is not None:
            cell = index[(s["pass"], parent)]["attrs"]
            timeouts.append({**cell, "estimated": s["error"]["estimated"], "budget": s["error"]["budget"]})
    unique_timeouts = {(t["table"], t["m"], t["n"]): t for t in timeouts}

    def mean_us(name):
        group = named(name)
        return _ratio(sum(_dur_s(s) for s in group) * 1e6, len(group))

    searches = named("sequential.search")
    manipulate_s = sum(_dur_s(s) for s in named("cli.manipulate"))
    ops = [op for ops in pass_ops for op in ops]
    metrics = {
        "model.stream_items": (items("model.stream") / k, "count"),
        "model.stream_us_per_item": (_ratio(ns("model.stream") / 1e3, items("model.stream")), "us"),
        "model.parse_us": (_ratio(ns("model.parse") / 1e3, calls("model.parse")), "us"),
        "parallel.fast_all_calls": (calls("parallel.fast_all") / k, "count"),
        "parallel.fast_all_us": (_ratio(ns("parallel.fast_all") / 1e3, calls("parallel.fast_all")), "us"),
        "parallel.fast_seq_calls": (calls("parallel.fast_seq") / k, "count"),
        "parallel.fast_seq_us": (_ratio(ns("parallel.fast_seq") / 1e3, calls("parallel.fast_seq")), "us"),
        "parallel.structure_calls": (calls("parallel.structure") / k, "count"),
        "parallel.structure_nodes": (items("parallel.structure") / k, "count"),
        "parallel.structure_us": (_ratio(ns("parallel.structure") / 1e3, calls("parallel.structure")), "us"),
        "parallel.recursion_us": (_ratio(ns("parallel.recursion") / 1e3, calls("parallel.recursion")), "us"),
        "welfare.passes": (len(passes) / k, "count"),
        "welfare.pass_reuse": (_ratio(reused, len(passes)), "ratio"),
        "welfare.pass_self_s": (self_s / k, "s"),
        "welfare.units_per_s.fast": (_ratio(*units["fast"]), "1/s"),
        "welfare.units_per_s.structure": (_ratio(*units["structure"]), "1/s"),
        "welfare.units_per_s.quotient": (_ratio(*units["quotient"]), "1/s"),
        "welfare.timeout_units": (
            max((t["estimated"] / t["budget"] for t in unique_timeouts.values()), default=0.0), "ratio"),
        "welfare.emin_candidates": (items("welfare.emin_candidates") / k, "count"),
        "welfare.emin_s": (sum(_dur_s(s) for s in named("welfare.emin_search")) / k, "s"),
        "welfare.pools": (calls("welfare.pool") / k, "count"),
        "welfare.pool_tasks": (items("welfare.pool") / k, "count"),
        "welfare.pool_wall_s": (ns("welfare.pool") / 1e9 / k, "s"),
        "welfare.pool_worker_cpu_s": (sum(t["pool_cpu_s"] for t in traces) / k, "s"),
        "welfare.pool_util": (
            _ratio(sum(t["pool_cpu_s"] for t in traces), sum(t["pool_capacity_s"] for t in traces)), "ratio"),
        "sequential.searches": (len(searches) / k, "count"),
        "sequential.candidates": (items("sequential.candidates") / k, "count"),
        "sequential.us_per_candidate": (
            _ratio(sum(_dur_s(s) for s in searches) * 1e6, items("sequential.candidates")), "us"),
        "manipulation.feasibility_us": (mean_us("manipulation.feasibility"), "us"),
        "manipulation.construct_calls": (len(named("manipulation.construct")) / k, "count"),
        "manipulation.greedy_us": (mean_us("manipulation.greedy"), "us"),
        "manipulation.oracle_us": (mean_us("manipulation.oracle"), "us"),
        "manipulation.oracle_share": (
            _ratio(sum(_dur_s(s) for s in named("manipulation.oracle")), manipulate_s), "ratio"),
    }
    for command in CLI_COMMANDS:
        group = named("cli." + command)
        self_us = sum(_dur_s(s) * 1e6 - s["attrs"]["library_ns"] / 1e3 for s in group)
        metrics["cli.self_us." + command] = (_ratio(self_us, len(group)), "us")
    metrics["cli.stdout_bytes"] = (_ratio(sum(op["bytes"] for op in ops), len(ops)), "B")
    return metrics, sorted(unique_timeouts.values(), key=lambda t: (t["table"], t["n"], t["m"]))

