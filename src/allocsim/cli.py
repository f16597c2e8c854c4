"""Command-line front end.

Commands: ``simulate`` (trace one profile under one policy), ``eval`` (one
criterion for one policy), ``optimal-seq`` (exhaustive turn-sequence search),
``tables`` (recompute the built-in comparison suites) and ``manipulate``
(strategic analysis for agent 1).  Outputs are deterministic: repeated runs,
any ``--jobs`` value and any seed-free configuration produce identical bytes.

Exit codes: 0 success, 2 usage error, 3 input parse error, 4 budget exceeded,
5 policy violation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import click

from . import __version__
from .errors import BudgetExceededError, PolicyViolationError, ProfileParseError, StrategyError
from .model import Profile, ScoringSpec, identity_ranking, parse_profile_text, parse_scoring_text
from .parallel import (
    STOP,
    FromSequential,
    build_structure,
    guaranteed_utilities,  # unused here; bench/tracer.py wraps it in this module
    lottery_expected_utilities,  # unused here; bench/tracer.py wraps it in this module
    parse_policy,
)
from .sequential import Aggregator, optimal_sequential, simulate_sequential
from .manipulation import (
    ManipulationProblem,
    brute_force_manipulation,
    bundle_score,
    find_successful_strategy,
    has_successful_strategy,  # unused here; bench/tracer.py wraps it in this module
    optimal_pessimistic_strategy,
)
from .welfare import (
    evaluate_criterion,
    optimal_sequential_expected_min,
    parse_criterion,
    profile_utilities,
    reproduce_table,
    resolve_budget_units,
)

EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_POLICY = 5


class _CodedError(click.ClickException):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


def _guard(fn):
    """Map library exceptions onto the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ProfileParseError as exc:
            raise _CodedError(str(exc), EXIT_PARSE)
        except StrategyError as exc:
            raise _CodedError(str(exc), EXIT_PARSE)
        except BudgetExceededError as exc:
            raise _CodedError(str(exc), EXIT_BUDGET)
        except PolicyViolationError as exc:
            raise _CodedError(str(exc), EXIT_POLICY)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# Formatting: exact rationals in, half-up decimal strings out.


def round_half_up(value: Fraction, places: int) -> Fraction:
    quantum = Fraction(1, 10**places)
    scaled = value / quantum
    rounded = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    return rounded * quantum


def fmt_fixed(value: Fraction, places: int) -> str:
    rounded = round_half_up(value, places)
    scaled = rounded * 10**places
    digits = f"{int(scaled):0{places + 1}d}"
    if places == 0:
        return digits
    return f"{digits[:-places]}.{digits[-places:]}"


def fmt_auto(value: Fraction, places: int = 4) -> str:
    """Fixed-point at ``places`` decimals with trailing zeros trimmed."""
    text = fmt_fixed(value, places)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text


def fmt_table(value: Fraction) -> str:
    """Table precision: more decimals for smaller magnitudes, five
    significant digits overall."""
    if value < 100:
        return fmt_fixed(value, 3)
    if value < 1000:
        return fmt_fixed(value, 2)
    return fmt_fixed(value, 1)


def _emit(text: str, output: str | None):
    """Write a command's result to stdout, or to ``output`` once it is
    complete; an output file that cannot be written is a usage error."""
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write output file {output!r}: {exc.strerror}")
    else:
        click.echo(text, nl=False)


def _read_text(path: str, kind: str) -> str:
    """The text of an input file, read as UTF-8; a file that cannot be read
    is an input error (exit 3), like one that cannot be parsed."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at offset {exc.start})"
    raise _CodedError(f"cannot read {kind} file {path!r}: {reason}", EXIT_PARSE)


def _load_profile(path: str) -> Profile:
    return parse_profile_text(_read_text(path, "profile"))


def _load_scoring(literal: str) -> ScoringSpec:
    if literal == "borda":
        return ScoringSpec.borda()
    if literal == "lex":
        return ScoringSpec.lexicographic()
    if literal.startswith("custom:"):
        return parse_scoring_text(_read_text(literal.split(":", 1)[1], "scoring"))
    raise click.UsageError(f"unknown scoring literal {literal!r}")


def _warn_small_m(m: int, n: int):
    if m < n:
        click.echo(f"warning: m={m} < n={n}; floor guarantees assume m >= n", err=True)


@click.group()
@click.version_option(__version__, prog_name="allocsim")
def cli():
    """Allocation protocols for indivisible goods: simulation, exact welfare
    criteria, optimal turn sequences and strategic analysis."""


# ---------------------------------------------------------------------------
# simulate


def _stage_records(structure):
    """Depth-grouped node summaries for the trace output."""
    depth = {id(structure.root): 1}
    order = []
    queue = [structure.root]
    seen = {id(structure.root)}
    while queue:
        node = queue.pop(0)
        order.append(node)
        for _, target in node.edges:
            if target is STOP or id(target) in seen:
                continue
            seen.add(id(target))
            depth[id(target)] = depth[id(node)] + 1
            queue.append(target)
    records = []
    for node in order:
        contested = {
            o: len(agents) for o, agents in node.contenders().items() if len(agents) > 1
        }
        records.append(
            {
                "stage": depth[id(node)],
                "remaining": sorted(node.remaining),
                "demands": {a: node.demands[a] for a in sorted(node.reporters)},
                "contested": contested,
            }
        )
    return records


@cli.command()
@click.option("--policy", "policy_literal", required=True, help="all | loser | seq:<turns>")
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True))
@click.option("--scoring", "scoring_literal", default="borda", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--output", type=click.Path(), default=None)
@_guard
def simulate(policy_literal, profile_path, scoring_literal, fmt, output):
    """Trace one profile under one policy and report per-agent utilities."""
    profile = _load_profile(profile_path)
    policy = parse_policy(policy_literal)
    g = _load_scoring(scoring_literal)
    _warn_small_m(profile.m, profile.n)
    expected, guaranteed = profile_utilities(policy, profile, g)
    if fmt == "csv":
        lines = ["agent,expected,guaranteed"]
        for i in range(profile.n):
            lines.append(f"{i + 1},{fmt_auto(expected[i])},{fmt_auto(guaranteed[i])}")
        _emit("\n".join(lines) + "\n", output)
        return
    records = _stage_records(build_structure(policy, profile))
    if fmt == "json":
        payload = {
            "policy": policy.describe(),
            "scoring": g.describe(),
            "stages": records,
            "expected": [fmt_auto(v) for v in expected],
            "guaranteed": [fmt_auto(v) for v in guaranteed],
        }
        if isinstance(policy, FromSequential):
            history = simulate_sequential(policy.policy, profile)
            payload["history"] = [[a, o] for a, o in history.picks]
        _emit(json.dumps(payload, indent=2) + "\n", output)
        return
    lines = [f"policy {policy.describe()}, scoring {g.describe()}, m={profile.m}, n={profile.n}"]
    if isinstance(policy, FromSequential):
        history = simulate_sequential(policy.policy, profile)
        picks = " ".join(f"<{a},o{o}>" for a, o in history.picks)
        lines.append(f"history: {picks}")
    for rec in records:
        remaining = ",".join(str(o) for o in rec["remaining"])
        demands = " ".join(f"{a}->o{o}" for a, o in rec["demands"].items())
        lines.append(f"stage {rec['stage']}: remaining {{{remaining}}}  demands {demands}")
        if rec["contested"]:
            parts = " ".join(f"o{o}x{c}" for o, c in sorted(rec["contested"].items()))
            lines.append(f"          contested: {parts}")
    lines.append("expected:   " + " ".join(fmt_auto(v) for v in expected))
    lines.append("guaranteed: " + " ".join(fmt_auto(v) for v in guaranteed))
    _emit("\n".join(lines) + "\n", output)


# ---------------------------------------------------------------------------
# eval


@cli.command("eval")
@click.option("-m", "m", type=int, default=None)
@click.option("-n", "n", type=int, default=None)
@click.option("--policy", "policy_literal", required=True)
@click.option("--scoring", "scoring_literal", default="borda", show_default=True)
@click.option("--criterion", "criterion_literal", default="uuu", show_default=True)
@click.option("--profile", "profile_path", type=click.Path(exists=True), default=None,
              help="Evaluate at one profile instead of over the whole space.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--budget", type=float, default=None, help="Per-run budget in seconds.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--output", type=click.Path(), default=None)
@_guard
def eval_cmd(m, n, policy_literal, scoring_literal, criterion_literal, profile_path, jobs, budget, fmt, output):
    """Evaluate one welfare criterion for one policy."""
    policy = parse_policy(policy_literal)
    g = _load_scoring(scoring_literal)
    criterion = parse_criterion(criterion_literal)
    budget_units = resolve_budget_units(budget) if budget is not None else None
    if profile_path is not None:
        profile = _load_profile(profile_path)
        _warn_small_m(profile.m, profile.n)
        expected, guaranteed = profile_utilities(policy, profile, g)
        x = criterion.x if criterion.mode == "comp" else "e"
        value = Aggregator(x).apply(expected if criterion.z == "u" else guaranteed)
        scope = "profile"
    else:
        if m is None or n is None:
            raise click.UsageError("either --profile or both -m and -n are required")
        _warn_small_m(m, n)
        value = evaluate_criterion(criterion, policy, g, m, n, jobs=jobs, budget_units=budget_units)
        scope = "space"
    if fmt == "json":
        _emit(json.dumps({
            "criterion": criterion.literal(),
            "policy": policy.describe(),
            "scoring": g.describe(),
            "scope": scope,
            "value": fmt_auto(value),
            "exact": str(value),
        }, indent=2) + "\n", output)
    elif fmt == "csv":
        _emit("criterion,policy,scoring,scope,value\n"
              f"{criterion.literal()},{policy.describe()},{g.describe()},{scope},{fmt_auto(value)}\n",
              output)
    else:
        _emit(f"{fmt_auto(value)}\n", output)


# ---------------------------------------------------------------------------
# optimal-seq


@cli.command("optimal-seq")
@click.option("-m", "m", type=int, required=True)
@click.option("-n", "n", type=int, required=True)
@click.option("--scoring", "scoring_literal", default="borda", show_default=True)
@click.option("--criterion", "criterion_literal", default="uuu", show_default=True,
              help="uuu (sum of expectations), euu (min of expectations) or em-u (expected minimum).")
@click.option("--budget", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--output", type=click.Path(), default=None)
@_guard
def optimal_seq(m, n, scoring_literal, criterion_literal, budget, fmt, output):
    """Exhaustive search for the best turn sequence under a criterion."""
    g = _load_scoring(scoring_literal)
    criterion = parse_criterion(criterion_literal)
    _warn_small_m(m, n)
    budget_units = resolve_budget_units(budget) if budget is not None else None
    if criterion.mode == "emin":
        policy, value = optimal_sequential_expected_min(m, n, g, budget_units=budget_units)
    elif criterion.literal() in ("uuu", "euu"):
        policy, value = optimal_sequential(m, n, g, Aggregator(criterion.x))
    else:
        raise click.UsageError("optimal-seq supports the criteria uuu, euu and em-u")
    if fmt == "json":
        _emit(json.dumps({
            "sequence": policy.literal(),
            "value": fmt_auto(value),
            "exact": str(value),
            "criterion": criterion.literal(),
        }, indent=2) + "\n", output)
    else:
        _emit(f"{policy.literal()} {fmt_auto(value)}\n", output)


# ---------------------------------------------------------------------------
# tables


@cli.command()
@click.option("--id", "table_id", type=click.IntRange(1, 5), required=True)
@click.option("--max-m", type=int, default=None)
@click.option("--max-n", type=int, default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--budget", type=float, default=None, help="Per-cell budget in seconds.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--output", type=click.Path(), default=None)
@_guard
def tables(table_id, max_m, max_n, jobs, budget, fmt, output):
    """Recompute one comparison table (optimal sequence vs all-reporting)."""
    budget_units = resolve_budget_units(budget) if budget is not None else None
    rows = reproduce_table(table_id, max_m=max_m, max_n=max_n, jobs=jobs, budget_units=budget_units)
    if fmt == "json":
        lines = []
        for row in rows:
            lines.append(json.dumps({
                "table_id": row.table_id,
                "m": row.m,
                "n": row.n,
                "pi_star": row.policy_star.literal() if row.policy_star else None,
                "value_star": fmt_table(row.value_star) if row.value_star is not None else None,
                "value_A": fmt_table(row.value_all_reporting) if row.value_all_reporting is not None else None,
                "status": row.status,
            }))
        _emit("\n".join(lines) + "\n", output)
        return
    lines = ["table_id,m,n,pi_star,value_star,value_A"]
    for row in rows:
        if row.status != "ok":
            lines.append(f"{row.table_id},{row.m},{row.n},,{row.status},{row.status}")
        else:
            lines.append(
                f"{row.table_id},{row.m},{row.n},{row.policy_star.literal()},"
                f"{fmt_table(row.value_star)},{fmt_table(row.value_all_reporting)}"
            )
    _emit("\n".join(lines) + "\n", output)


# ---------------------------------------------------------------------------
# manipulate


@cli.command()
@click.option("--others", "others_path", type=click.Path(exists=True), default=None,
              help="Rankings of agents 2..n, one line each.")
@click.option("--target", "target_literal", default=None, help="Comma-separated object indices.")
@click.option("--optimal", is_flag=True, help="Greedy best guaranteed bundle for agent 1.")
@click.option("--profile", "profile_path", type=click.Path(exists=True), default=None,
              help="Full profile (agent 1 first); required with --optimal.")
@click.option("--scoring", "scoring_literal", default="lex", show_default=True)
@click.option("--seed", type=int, default=None, help="Randomize the filler pick.")
@click.option("--oracle", is_flag=True, help="Cross-check against the brute-force search.")
@click.option("--output", type=click.Path(), default=None)
@_guard
def manipulate(others_path, target_literal, optimal, profile_path, scoring_literal, seed, oracle, output):
    """Feasibility and construction of manipulation strategies for agent 1.

    With --target, agent 1's own ranking is taken to be the identity order
    for scoring purposes.
    """
    g = _load_scoring(scoring_literal)
    rng = random.Random(seed) if seed is not None else None
    result: dict = {}
    if optimal:
        if profile_path is None:
            raise click.UsageError("--optimal requires --profile")
        profile = _load_profile(profile_path)
        strategy, achieved, value = optimal_pessimistic_strategy(profile, g, rng)
        result = {
            "feasible": True,
            "strategy": list(strategy.reports),
            "achieved": sorted(achieved),
            "guaranteed_value": fmt_auto(value),
        }
        if g.kind != "lex":
            result["note"] = "greedy bundle is only proven optimal for lexicographic scoring"
        if oracle:
            others = profile.rankings[1:]
            if others:
                _, best_value, _ = brute_force_manipulation(
                    ManipulationProblem(others, frozenset()), g, ranking=profile.rankings[0]
                )
                result["oracle_agrees"] = best_value == value
    else:
        if others_path is None or target_literal is None:
            raise click.UsageError("provide --others and --target, or --optimal with --profile")
        others = _load_profile(others_path).rankings
        target = frozenset(int(tok) for tok in target_literal.split(",") if tok.strip())
        problem = ManipulationProblem(others, target)
        strategy = find_successful_strategy(problem, rng)
        feasible = strategy is not None
        ranking = identity_ranking(others[0].m)
        value = bundle_score(g.score_row(ranking.m), ranking, target if feasible else ())
        result = {
            "feasible": feasible,
            "strategy": list(strategy.reports) if strategy else None,
            "achieved": sorted(target) if feasible else [],
            "guaranteed_value": fmt_auto(value),
        }
        if oracle:
            exists, _, _ = brute_force_manipulation(problem, g, ranking=ranking)
            result["oracle_agrees"] = exists == feasible
    _emit(json.dumps(result, indent=2) + "\n", output)


def main():
    cli(prog_name="allocsim")


if __name__ == "__main__":
    main()
