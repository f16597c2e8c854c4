"""The commands of one benchmark pass for each workload.

A command is an argument list for ``allocsim`` in which ``{work}`` stands for
the run's work directory; input files named by a command are returned beside
it as ``{relative name: text}``.  ``tables``, ``space`` and ``pool`` are fixed
by the paper's cells and ignore the seed; ``profiles`` draws its profiles from
``(seed, pass index)`` only, so the same seed gives byte-identical inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables", "space", "profiles", "pool")

# Rational score table of the sequential-kernel command in ``space``.
CUSTOM_SCORES = "6 3 3/2 1/2 1/4 1/8\n"

FIXED_COMMANDS = {
    "tables": [
        ["tables", "--id", "1", "--jobs", "1"],
        ["tables", "--id", "5", "--jobs", "1"],
    ],
    "space": [
        ["eval", "--policy", "loser", "-m", "5", "-n", "3", "--criterion", "uuu", "--jobs", "1"],
        ["eval", "--policy", "all", "-m", "6", "-n", "3", "--criterion", "eeu", "--jobs", "1"],
        ["eval", "--policy", "seq:123123", "-m", "6", "-n", "3",
         "--scoring", "custom:{work}/scores.txt", "--criterion", "em-u", "--jobs", "1"],
    ],
    "pool": [
        ["tables", "--id", "5", "--jobs", "2"],
        ["eval", "--policy", "all", "-m", "6", "-n", "3", "--criterion", "uee", "--jobs", "2"],
    ],
}

# One round of the ``profiles`` mix; a pass is ROUNDS rounds, each with fresh
# profiles.  The sizes are fixed so that seeds change only the rankings and
# not how many heavy (large m, n, ``loser``) queries a pass holds.  The mix is
# chosen, not measured: one ``simulate`` per (policy, size) pair covers the
# size range, and four of each other command kind a round give each kind
# enough samples for its share of the median and tail (see README.md).
SIMULATE_SIZES = ((6, 3), (8, 4), (10, 5), (12, 6), (14, 7), (16, 8), (16, 3), (9, 8))
SIMULATE_POLICIES = ("all", "loser", "seq")
EVAL_CASES = (("all", "uuu", 8, 4), ("loser", "eee", 12, 6), ("all", "euu", 10, 5), ("loser", "ueu", 16, 8))
OPTIMAL_SIZES = ((4, 2), (5, 3), (6, 3), (6, 4))
TARGET_SIZES = ((5, 2), (6, 3), (6, 4), (4, 3))
ROUNDS = 10


def _ranking(rng: random.Random, m: int) -> str:
    return " ".join(str(o) for o in rng.sample(range(1, m + 1), m))


def _profile_text(rng: random.Random, m: int, n: int) -> str:
    return "".join(_ranking(rng, m) + "\n" for _ in range(n))


def profiles_pass(seed: int, pass_index: int) -> tuple[list[list[str]], dict[str, str]]:
    """Commands and input files of one ``profiles`` pass."""
    rng = random.Random(f"allocsim-bench/{seed}/{pass_index}")
    commands: list[list[str]] = []
    files: dict[str, str] = {}

    def add_file(text: str) -> str:
        name = f"p{pass_index}-{len(files)}.txt"
        files[name] = text
        return "{work}/" + name

    for _ in range(ROUNDS):
        for m, n in SIMULATE_SIZES:
            for policy in SIMULATE_POLICIES:
                if policy == "seq":
                    policy = "seq:" + "".join(str(rng.randint(1, n)) for _ in range(m))
                path = add_file(_profile_text(rng, m, n))
                commands.append(["simulate", "--policy", policy, "--profile", path, "--format", "json"])
        for policy, criterion, m, n in EVAL_CASES:
            path = add_file(_profile_text(rng, m, n))
            commands.append(["eval", "--profile", path, "--policy", policy, "--criterion", criterion])
        for m, n in OPTIMAL_SIZES:
            path = add_file(_profile_text(rng, m, n))
            commands.append(["manipulate", "--optimal", "--profile", path, "--scoring", "lex", "--oracle"])
        for m, n in TARGET_SIZES:
            path = add_file(_profile_text(rng, m, n - 1))
            target = sorted(rng.sample(range(1, m + 1), rng.randint(1, 3)))
            commands.append(["manipulate", "--others", path, "--target",
                             ",".join(str(o) for o in target), "--oracle"])
    return commands, files


def pass_commands(workload: str, seed: int, pass_index: int) -> tuple[list[list[str]], dict[str, str]]:
    """Commands and input files of pass ``pass_index`` of a workload."""
    if workload == "profiles":
        return profiles_pass(seed, pass_index)
    files = {"scores.txt": CUSTOM_SCORES} if workload == "space" else {}
    return [list(args) for args in FIXED_COMMANDS[workload]], files


def command_jobs(args: list[str]) -> int:
    """The ``--jobs`` value a command asks for (1 when it names none)."""
    if "--jobs" in args:
        return int(args[args.index("--jobs") + 1])
    return 1


def check_jobs_cap(commands: list[list[str]], cpu_count: int | None) -> None:
    """Refuse any command whose ``--jobs`` exceeds the CPU count.

    The program starts all of a pool's workers at once and does not bound
    ``--jobs`` itself, so the harness keeps every pass within the machine.
    """
    cap = cpu_count or 1
    for args in commands:
        jobs = command_jobs(args)
        if not 1 <= jobs <= cap:
            raise ValueError(f"--jobs {jobs} in {' '.join(args)!r} is outside 1..{cap} (os.cpu_count())")


def reference_key(args: list[str]) -> str:
    """Key of a fixed command's committed ``--jobs 1`` reference output."""
    args = list(args)
    if "--jobs" in args:
        args[args.index("--jobs") + 1] = "1"
    return " ".join(args)
