"""Instrumentation of a traced benchmark pass.

The tracer wraps public functions of the program from outside, under the name
its caller resolves (``allocsim.welfare.all_reporting_values_scaled`` is the
name ``profile_aggregates`` calls, ``allocsim.cli.reproduce_table`` the one the
``tables`` command calls).  Nothing inside ``src/`` changes.

* Spans cover commands, table cells, profile passes, turn-sequence searches
  and manipulation calls.  Each records its name, start, end, parent span,
  pass id and the change of every counter while it was open.  Spans stay in
  memory and are written out by :meth:`Tracer.dump` when the pass ends.
* Per-profile kernels run millions of times, so they only keep counters:
  calls, total nanoseconds and an item count (structure nodes, stream items,
  candidate sequences).
* Forked pool workers inherit the wrappers but their counters are lost, so
  pool work is measured as worker CPU time (``RUSAGE_CHILDREN``).
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import time

now_ns = time.perf_counter_ns


class Counter:
    __slots__ = ("calls", "ns", "items")

    def __init__(self):
        self.calls = self.ns = self.items = 0


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counters: dict[str, Counter] = {}
        self.pool_cpu_s = 0.0  # worker CPU seconds, summed over pools
        self.pool_capacity_s = 0.0  # workers x pool wall seconds, summed over pools
        self.library_ns = 0  # time inside outermost wrapped library calls
        self._stack: list[int] = []
        self._depth = 0

    # -- recording ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def _snapshot(self) -> dict[str, tuple[int, int, int]]:
        return {name: (c.calls, c.ns, c.items) for name, c in self.counters.items()}

    def _open(self, name: str, attrs: dict) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "pass": self.pass_id,
            "parent": self._stack[-1] if self._stack else None,
            "attrs": attrs,
            "before": self._snapshot(),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = now_ns()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = now_ns()
        self._stack.pop()
        before = rec.pop("before")
        delta = {}
        for name, c in self.counters.items():
            calls, ns, items = before.get(name, (0, 0, 0))
            if c.calls != calls or c.items != items:
                delta[name] = (c.calls - calls, c.ns - ns, c.items - items)
        rec["counters"] = delta

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so that every call records a span."""
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name, attrs(*args, **kwargs) if attrs else {})
            outer = tracer._depth == 0
            tracer._depth += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec["error"] = {
                    "type": type(exc).__name__,
                    "estimated": getattr(exc, "estimated", None),
                    "budget": getattr(exc, "budget", None),
                }
                raise
            finally:
                tracer._close(rec)
                tracer._depth -= 1
                if outer:
                    tracer.library_ns += rec["end"] - rec["start"]

        return wrapper

    def count(self, name: str, fn, items=None):
        """Wrap a per-profile kernel: count calls and nanoseconds only."""
        tracer = self
        c = self.counter(name)

        def wrapper(*args, **kwargs):
            outer = tracer._depth == 0
            tracer._depth += 1
            start = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now_ns() - start
                tracer._depth -= 1
                c.calls += 1
                c.ns += elapsed
                if outer:
                    tracer.library_ns += elapsed
            if items is not None:
                c.items += items(result)
            return result

        return wrapper

    def count_items(self, name: str, fn):
        """Wrap a generator: count the items it yields and the time spent
        producing them."""
        c = self.counter(name)

        def wrapper(*args, **kwargs):
            c.calls += 1
            it = iter(fn(*args, **kwargs))
            while True:
                start = now_ns()
                try:
                    item = next(it)
                except StopIteration:
                    c.ns += now_ns() - start
                    return
                c.ns += now_ns() - start
                c.items += 1
                yield item

        return wrapper

    def pool_class(self, base):
        """A ``ProcessPoolExecutor`` that records pools, tasks, wall time and
        the CPU time of its (waited-for) workers."""
        tracer = self
        c = self.counter("welfare.pool")

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench_workers = max_workers or os.cpu_count() or 1
                self._bench_start = now_ns()
                self._bench_cpu = _children_cpu_s()
                c.calls += 1

            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                c.items += min((len(it) for it in iterables), default=0)
                return super().map(fn, *iterables, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                super().shutdown(wait, **kwargs)
                if self._bench_start is not None:
                    wall = now_ns() - self._bench_start
                    self._bench_start = None
                    c.ns += wall
                    tracer.pool_cpu_s += _children_cpu_s() - self._bench_cpu
                    tracer.pool_capacity_s += self._bench_workers * wall / 1e9

        return TracedPool

    def command_wrapper(self, invoke):
        """Wrap the harness's command runner in a ``cli.<command>`` span that
        also records how much of it was spent in wrapped library calls."""

        def wrapper(cli, click, args):
            rec = self._open("cli." + args[0], {})
            library_before = self.library_ns
            try:
                return invoke(cli, click, args)
            finally:
                self._close(rec)
                rec["attrs"]["library_ns"] = self.library_ns - library_before

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import allocsim.cli as cli
        import allocsim.manipulation as manipulation
        import allocsim.model as model
        import allocsim.parallel as parallel
        import allocsim.sequential as sequential
        import allocsim.welfare as welfare

        def fast_or_structure(policy):
            fast = isinstance(policy, (parallel.AllReporting, parallel.FromSequential))
            return "fast" if fast else "structure"

        welfare.profile_aggregates = self.span(
            "welfare.pass", welfare.profile_aggregates,
            _pass_attrs(welfare.profile_aggregates, fast_or_structure))
        welfare.symmetric_aggregates = self.span(
            "welfare.pass", welfare.symmetric_aggregates,
            _pass_attrs(welfare.symmetric_aggregates, lambda policy: "quotient"))
        for module in (cli, welfare):
            module.optimal_sequential = self.span("sequential.search", module.optimal_sequential)
            module.optimal_sequential_expected_min = self.span(
                "welfare.emin_search", module.optimal_sequential_expected_min)
        cli.reproduce_table = self.span(
            "welfare.reproduce_table", self._per_cell(cli.reproduce_table, welfare.TABLE_SPECS))
        cli.has_successful_strategy = self.span("manipulation.feasibility", cli.has_successful_strategy)
        for module in (cli, manipulation):
            module.find_successful_strategy = self.span(
                "manipulation.construct", module.find_successful_strategy)
        cli.optimal_pessimistic_strategy = self.span("manipulation.greedy", cli.optimal_pessimistic_strategy)
        cli.brute_force_manipulation = self.span("manipulation.oracle", cli.brute_force_manipulation)

        welfare.all_reporting_values_scaled = self.count(
            "parallel.fast_all", welfare.all_reporting_values_scaled)
        welfare.sequential_values_scaled = self.count("parallel.fast_seq", welfare.sequential_values_scaled)
        for module in (cli, welfare):
            module.build_structure = self.count(
                "parallel.structure", module.build_structure, items=lambda s: len(s.nodes))
            module.lottery_expected_utilities = self.count(
                "parallel.recursion", module.lottery_expected_utilities)
            module.guaranteed_utilities = self.count("parallel.recursion", module.guaranteed_utilities)
        cli.parse_profile_text = self.count("model.parse", cli.parse_profile_text)
        model.ProfileStream.iter_order_rows = self.count_items(
            "model.stream", model.ProfileStream.iter_order_rows)
        sequential.canonical_turn_sequences = self.count_items(
            "sequential.candidates", sequential.canonical_turn_sequences)
        welfare.canonical_turn_sequences = self.count_items(
            "welfare.emin_candidates", welfare.canonical_turn_sequences)
        welfare.ProcessPoolExecutor = self.pool_class(welfare.ProcessPoolExecutor)

    def _per_cell(self, reproduce_table, table_specs):
        """``reproduce_table`` run one cell at a time, each cell in its own
        span.  Rows are identical: the program computes cells independently."""
        cell = self.span(
            "welfare.cell", reproduce_table,
            lambda table_id, cells, **_: {"table": table_id, "m": cells[0][0], "n": cells[0][1]})

        def by_cell(table_id, max_m=None, max_n=None, cells=None, jobs=1, budget_units=None):
            if cells is None:
                cells = [
                    (m, n) for m, n in table_specs[table_id].cells
                    if (max_m is None or m <= max_m) and (max_n is None or n <= max_n)
                ]
            rows = []
            for one in cells:
                rows.extend(cell(table_id, cells=[one], jobs=jobs, budget_units=budget_units))
            return rows

        return by_cell

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": self.spans,
                "counters": {name: (c.calls, c.ns, c.items) for name, c in self.counters.items()},
                "pool_cpu_s": self.pool_cpu_s,
                "pool_capacity_s": self.pool_capacity_s,
            }, fh)


def _pass_attrs(fn, path_of):
    """Span attributes of a profile pass: its code path, size, and the work
    units the program estimates for it.  The estimate is read from the
    program's own ``BudgetExceededError`` by calling it with a zero budget,
    which refuses before any enumeration or cache lookup."""
    from allocsim.errors import BudgetExceededError

    signature = inspect.signature(fn)

    def attrs(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        estimated = None
        try:
            fn(**{**arguments, "budget_units": 0})
        except BudgetExceededError as exc:
            estimated = exc.estimated
        return {
            "path": path_of(arguments["policy"]),
            "m": arguments["m"],
            "n": arguments["n"],
            "estimated": estimated,
        }

    return attrs
