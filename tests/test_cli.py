import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import allocsim.manipulation as manipulation
from allocsim.cli import cli, fmt_auto, fmt_fixed, fmt_table, round_half_up

EXAMPLE_PROFILE = "1 2 3 4 5\n4 2 5 1 3\n1 3 5 4 2\n"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, expect_code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "allocsim.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect_code, proc.stderr or proc.stdout
    return proc.stdout


@pytest.fixture
def profile_file(tmp_path):
    path = tmp_path / "profile.txt"
    path.write_text(EXAMPLE_PROFILE)
    return str(path)


class TestFormatting:
    def test_round_half_up(self):
        assert round_half_up(Fraction(93125, 10000), 3) == Fraction(9313, 1000)
        assert round_half_up(Fraction(12292, 1000), 3) == Fraction(12292, 1000)

    def test_fmt_fixed(self):
        assert fmt_fixed(Fraction(3, 2), 3) == "1.500"
        assert fmt_fixed(Fraction(29, 6), 4) == "4.8333"

    def test_fmt_auto_trims(self):
        assert fmt_auto(Fraction(8)) == "8"
        assert fmt_auto(Fraction(15, 2)) == "7.5"
        assert fmt_auto(Fraction(29, 6)) == "4.8333"

    def test_fmt_table_precision_by_magnitude(self):
        assert fmt_table(Fraction(197, 10)) == "19.700"
        assert fmt_table(Fraction(93125, 10000)) == "9.313"
        assert fmt_table(Fraction(11463, 100) + Fraction(1, 300)) == "114.63"
        assert fmt_table(Fraction(17310, 10)) == "1731.0"


class TestSimulate:
    def test_sequential_trace(self, profile_file):
        out = run_cli("simulate", "--policy", "seq:12332", "--profile", profile_file, "--scoring", "borda")
        assert "history: <1,o1> <2,o4> <3,o3> <3,o5> <2,o2>" in out
        assert "expected:   5 9 7" in out
        assert "guaranteed: 5 9 7" in out

    def test_sequential_json_bytes(self, profile_file):
        # Every stage of a turn sequence holds one demand; the history lists
        # them in stage order.
        stages = [
            ([1, 2, 3, 4, 5], {"1": 1}),
            ([2, 3, 4, 5], {"2": 4}),
            ([2, 3, 5], {"3": 3}),
            ([2, 5], {"3": 5}),
            ([2], {"2": 2}),
        ]
        payload = {
            "policy": "seq:12332",
            "scoring": "borda",
            "stages": [
                {"stage": k, "remaining": remaining, "demands": demands, "contested": {}}
                for k, (remaining, demands) in enumerate(stages, start=1)
            ],
            "expected": ["5", "9", "7"],
            "guaranteed": ["5", "9", "7"],
            "history": [[1, 1], [2, 4], [3, 3], [3, 5], [2, 2]],
        }
        out = run_cli("simulate", "--policy", "seq:12332", "--profile", profile_file, "--format", "json")
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_all_reporting_trace(self, profile_file):
        out = run_cli("simulate", "--policy", "all", "--profile", profile_file, "--scoring", "borda")
        assert "expected:   4.8333 8 7.5" in out
        assert "contested: o1x2" in out

    def test_loser_reporting_guarantees(self, profile_file):
        out = run_cli("simulate", "--policy", "loser", "--profile", profile_file, "--scoring", "lex")
        assert "guaranteed: 8 16 12" in out

    def test_loser_trace_bytes(self, tmp_path):
        # Runs of three and of four stages both reach remaining {5}; a merged
        # node is labelled with the first stage that reaches it.
        path = tmp_path / "profile.txt"
        path.write_text("1 2 3 4 5\n1 4 2 5 3\n")
        out = run_cli("simulate", "--policy", "loser", "--scoring", "borda", "--profile", str(path))
        assert out == (
            "policy loser, scoring borda, m=5, n=2\n"
            "stage 1: remaining {1,2,3,4,5}  demands 1->o1 2->o1\n"
            "          contested: o1x2\n"
            "stage 2: remaining {2,3,4,5}  demands 2->o4\n"
            "stage 2: remaining {2,3,4,5}  demands 1->o2\n"
            "stage 3: remaining {2,3,5}  demands 1->o2 2->o2\n"
            "          contested: o2x2\n"
            "stage 3: remaining {3,4,5}  demands 1->o3 2->o4\n"
            "stage 4: remaining {3,5}  demands 2->o5\n"
            "stage 4: remaining {3,5}  demands 1->o3\n"
            "stage 4: remaining {5}  demands 1->o5 2->o5\n"
            "          contested: o5x2\n"
            "stage 5: remaining {3}  demands 1->o3 2->o3\n"
            "          contested: o3x2\n"
            "expected:   8.5 8.625\n"
            "guaranteed: 7 6\n"
        )

    def test_json_format(self, profile_file):
        out = run_cli("simulate", "--policy", "all", "--profile", profile_file, "--format", "json")
        payload = json.loads(out)
        assert payload["expected"] == ["4.8333", "8", "7.5"]
        assert payload["stages"][0]["remaining"] == [1, 2, 3, 4, 5]

    def test_csv_format(self, profile_file):
        out = run_cli("simulate", "--policy", "loser", "--profile", profile_file, "--scoring", "lex", "--format", "csv")
        assert out.splitlines() == [
            "agent,expected,guaranteed",
            "1,15,8",
            "2,20,16",
            "3,16,12",
        ]


def _bad_inputs():
    """Inputs that must end in a documented exit code.  ``{two}`` is a
    3-object, 2-agent profile: ``seq:123`` names an agent it lacks, and
    ``seq:1212`` and ``seq:12`` have the wrong number of turns.  ``{dir}`` is
    a directory and ``{latin}`` a profile that is not UTF-8 text."""
    cases = []
    for policy in ("seq:123", "seq:1212", "seq:12"):
        for fmt in ("text", "json", "csv"):
            cases.append(pytest.param(
                ["simulate", "--policy", policy, "--profile", "{two}", "--format", fmt], 5,
                id=f"simulate-{policy}-{fmt}",
            ))
        cases.append(pytest.param(
            ["eval", "--profile", "{two}", "--policy", policy], 5, id=f"eval-profile-{policy}"))
        cases.append(pytest.param(
            ["eval", "-m", "3", "-n", "2", "--policy", policy], 5, id=f"eval-space-{policy}"))
    cases += [
        pytest.param(["simulate", "--policy", "all", "--profile", "{bad}"], 3, id="malformed-profile"),
        pytest.param(["eval", "-m", "3", "-n", "2", "--policy", "all", "--scoring", "custom:{missing}"], 3,
                     id="missing-custom-file"),
        pytest.param(["eval", "-m", "2", "-n", "2", "--policy", "all", "--jobs", "0"], 2, id="jobs-0"),
        pytest.param(["eval", "-m", "4", "-n", "3", "--policy", "seq:123", "--criterion", "uuu"], 5,
                     id="eval-space-seq:123-m4"),
    ]
    # A misfit sequence is refused before any budget, whichever route the
    # criterion takes: the law of one agent's run (uuu, ueu) or the joint
    # law of a run (em-u).
    for criterion in ("uuu", "ueu", "em-u"):
        cases.append(pytest.param(
            ["eval", "--policy", "seq:123456789", "-m", "9", "-n", "3", "--criterion", criterion], 5,
            id=f"eval-space-seq:123456789-m9-{criterion}"))
    # An input file that exists but cannot be read as text is an input error.
    cases += [
        pytest.param(["simulate", "--policy", "all", "--profile", "{dir}"], 3, id="simulate-profile-dir"),
        pytest.param(["eval", "--policy", "all", "--profile", "{dir}"], 3, id="eval-profile-dir"),
        pytest.param(["manipulate", "--others", "{dir}", "--target", "1"], 3, id="manipulate-others-dir"),
        pytest.param(["manipulate", "--optimal", "--profile", "{dir}"], 3, id="manipulate-optimal-profile-dir"),
        pytest.param(["simulate", "--policy", "all", "--profile", "{latin}"], 3, id="simulate-profile-not-utf8"),
        pytest.param(["eval", "--policy", "all", "--profile", "{latin}"], 3, id="eval-profile-not-utf8"),
        pytest.param(["manipulate", "--others", "{latin}", "--target", "1"], 3, id="manipulate-others-not-utf8"),
    ]
    # Usage errors: an output file that cannot be written, a budget that is
    # not a finite number of seconds >= 0, and a search over no agents.
    cases += [
        pytest.param(["eval", "-m", "2", "-n", "2", "--policy", "all", "--output", "{dir}/missing/out.txt"], 2,
                     id="output-in-missing-dir"),
        pytest.param(["tables", "--id", "1", "--max-m", "4", "--max-n", "2", "--output", "{dir}"], 2,
                     id="output-onto-dir"),
    ]
    for budget in ("inf", "nan", "-1"):
        cases.append(pytest.param(
            ["eval", "-m", "2", "-n", "2", "--policy", "all", "--budget", budget], 2, id=f"budget-{budget}"))
    cases.append(pytest.param(["optimal-seq", "-m", "3", "-n", "0", "--criterion", "em-u"], 2,
                              id="optimal-seq-n0-em-u"))
    # A target that is not a list of indices, or names an unknown object.
    for target in ("a", "9"):
        cases.append(pytest.param(["manipulate", "--others", "{two}", "--target", target], 2,
                                  id=f"manipulate-target-{target}"))
    return cases


class TestExitCodes:
    @pytest.mark.parametrize("args, code", _bad_inputs())
    def test_bad_input_exits_without_traceback(self, args, code, tmp_path):
        paths = {
            "two": tmp_path / "two.txt",
            "bad": tmp_path / "bad.txt",
            "missing": tmp_path / "missing.txt",
            "dir": tmp_path / "dir",
            "latin": tmp_path / "latin.txt",
        }
        paths["two"].write_text("1 2 3\n3 2 1\n")
        paths["bad"].write_text("1 2 3\n1 oops 3\n")
        paths["dir"].mkdir()
        paths["latin"].write_bytes("# préférences\n1 2 3\n3 2 1\n".encode("latin-1"))
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", *(a.format(**paths) for a in args)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (2, 3, 4, 5), proc.stderr
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("Error:") == 1, proc.stderr

    @pytest.mark.parametrize("secs", ["inf", "-5"])
    def test_budget_env_var_outside_range_is_2(self, secs, monkeypatch):
        monkeypatch.setenv("ALLOC_BUDGET_SECS", secs)
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "tables", "--id", "1", "--max-m", "4", "--max-n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"got {float(secs)}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_failed_command_writes_no_output_file(self, tmp_path):
        target = tmp_path / "out.txt"
        run_cli("eval", "-m", "2", "-n", "2", "--policy", "seq:123", "--output", str(target), expect_code=5)
        assert not target.exists()

    def test_usage_error_is_2(self, profile_file):
        run_cli("eval", "--policy", "nonsense", "-m", "2", "-n", "2", expect_code=2)

    def test_parse_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n1 oops 3\n")
        run_cli("simulate", "--policy", "all", "--profile", str(bad), expect_code=3)

    def test_budget_error_is_4(self):
        # ``loser``'s law serves only y = z, so a mixed criterion still enumerates.
        run_cli("eval", "-m", "9", "-n", "3", "--policy", "loser", "--criterion", "ueu", expect_code=4)

    def test_policy_violation_is_5(self, profile_file):
        run_cli("simulate", "--policy", "seq:12", "--profile", profile_file, expect_code=5)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_2(self, jobs):
        run_cli("tables", "--id", "5", "--max-m", "2", "--jobs", jobs, expect_code=2)
        run_cli("eval", "-m", "2", "-n", "2", "--policy", "all", "--jobs", jobs, expect_code=2)

    def test_missing_scoring_file_is_3(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "eval", "-m", "3", "-n", "2", "--policy", "all",
             "--scoring", f"custom:{tmp_path / 'missing.txt'}"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "cannot read scoring file" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEval:
    def test_space_value(self):
        out = run_cli("eval", "-m", "2", "-n", "2", "--policy", "all", "--criterion", "em-u")
        assert out.strip() == "1.75"

    def test_profile_value(self, profile_file):
        out = run_cli("eval", "--policy", "loser", "--profile", profile_file, "--criterion", "eee", "--scoring", "lex")
        assert out.strip() == "8"

    def test_json_has_exact_value(self):
        out = run_cli("eval", "-m", "2", "-n", "2", "--policy", "all", "--criterion", "uuu", "--format", "json")
        payload = json.loads(out)
        assert payload["exact"] == "7/2"

    def test_closed_form_value_matches_table_one(self):
        # The enumeration would need 177.8M work units at (7, 3); the agent
        # law answers, with the value table 1 prints for that cell.
        out = run_cli("eval", "--policy", "all", "-m", "7", "-n", "3", "--criterion", "uuu")
        assert out.strip() == "38.8638"
        table = run_cli("tables", "--id", "1", "--max-m", "7", "--max-n", "3")
        (row,) = [line for line in table.splitlines() if line.startswith("1,7,3,")]
        assert row.split(",")[-1] == "38.864"

    def test_joint_law_answers_past_the_old_estimate(self):
        # A profile pass would need 88.9M work units for ``all`` and 177.8M
        # for a turn sequence at (7, 3), over the default budget; the agent
        # law answers the first, the joint law of a run the second.
        assert run_cli("eval", "--policy", "all", "-m", "7", "-n", "3", "--criterion", "eeu").strip() == "7.8333"
        out = run_cli("eval", "--policy", "seq:1231231", "-m", "7", "-n", "3", "--criterion", "em-u")
        assert out.strip() == "10.7595"

    @pytest.mark.parametrize(
        "policy, m, n, criterion, printed",
        [
            ("all", "20", "4", "uuu", "322.8003"),
            ("all", "9", "4", "eeu", "8.25"),
            ("all", "8", "5", "uee", "0"),
            # Agent 4 picks at steps 4, 8 and 12, at worst its 4th, 8th and
            # 12th choices: 11 + 7 + 3 Borda points.
            ("seq:12341234123412", "14", "4", "eeu", "21"),
        ],
    )
    def test_agent_law_answers_at_the_default_budget(self, policy, m, n, criterion, printed):
        # Each of these exceeded the default budget on the estimate of the
        # closed form over remaining ranks (uuu) or of the joint law of a
        # run (y = e); the law of one agent's run answers each at once.
        out = run_cli("eval", "--policy", policy, "-m", m, "-n", n, "--criterion", criterion)
        assert out.strip() == printed

    @pytest.mark.parametrize(
        "m, criterion, exact",
        [("5", "uuu", "8109/400"), ("6", "uuu", "222869/7776"), ("6", "eee", "5"), ("7", "uuu", "9717557/254016")],
    )
    def test_loser_values_pinned(self, m, criterion, exact):
        # Borda with 3 agents.  The values at m = 5 and 6 are the profile
        # pass's, which takes seconds at (6, 3) and exceeds the default
        # budget at (7, 3); the law of one agent's run answers each at once.
        out = run_cli("eval", "--policy", "loser", "-m", m, "-n", "3", "--criterion", criterion, "--format", "json")
        assert json.loads(out)["exact"] == exact

    def test_short_options_match_without_suggestions(self):
        # Click imports difflib to suggest long names when an option misses as
        # a long one; a separate -m or -n matches at once.  Every spelling of
        # a short option still parses.
        code = (
            "import sys; from allocsim.cli import cli\n"
            "cli.main(['eval', '--policy', 'all', '-m', '2', '-n', '2'], standalone_mode=False)\n"
            "print('difflib' in sys.modules)\n"
            "for m in ('-m2',), ('-m=2',):\n"
            "    cli.main(['eval', '--policy', 'all', *m, '-n', '2'], standalone_mode=False)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "3.5\nFalse\n3.5\n3.5\n"), proc.stderr

    def test_requires_sizes_or_profile(self):
        run_cli("eval", "--policy", "all", expect_code=2)


class TestOptimalSeq:
    def test_utilitarian(self):
        out = run_cli("optimal-seq", "-m", "5", "-n", "3", "--criterion", "uuu")
        assert out.split() == ["12312", "20.0333"]

    def test_expected_min(self):
        out = run_cli("optimal-seq", "-m", "3", "-n", "2", "--criterion", "em-u")
        assert out.split() == ["122", "3"]

    def test_expected_min_at_table_five_largest_cell(self):
        out = run_cli("optimal-seq", "-m", "8", "-n", "2", "--criterion", "em-u")
        assert out.split() == ["12122121", "21.7382"]

    def test_refusal_names_the_estimate_and_the_budget(self):
        # The uuu/euu search counts its table's 1,040,521 transitions at
        # (15, 3), and then its 2,391,485 candidates too.  --budget 1 is
        # 200,000 units, --budget 10 is 2,000,000.
        for budget, message in [
            ("1", "the pi* search needs at least 1040521 work units, budget is 200000"),
            ("10", "the pi* search needs 3432006 work units, budget is 2000000"),
        ]:
            proc = subprocess.run(
                [sys.executable, "-m", "allocsim.cli", "optimal-seq", "-m", "15", "-n", "3", "--criterion", "uuu",
                 "--budget", budget],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 4, proc.stderr
            assert proc.stderr == f"Error: {message}\n"

    def test_budget_bounds_the_search(self):
        # 0.001 s is 200 units, where the (16, 2) search counts 2,392,218; the
        # (8, 3) search counts 3,444, within the 20,000 of 0.1 s.
        run_cli("optimal-seq", "-m", "16", "-n", "2", "--budget", "0.001", expect_code=4)
        out = run_cli("optimal-seq", "-m", "8", "-n", "3", "--criterion", "euu", "--budget", "0.1")
        assert out.split() == ["11223323", "15"]

    def test_has_no_jobs_option(self):
        # The em-u search runs its candidates in-process; no pool to size.
        assert "--jobs" not in run_cli("optimal-seq", "--help")
        run_cli("optimal-seq", "-m", "3", "-n", "2", "--criterion", "em-u", "--jobs", "2", expect_code=2)


class TestTables:
    def test_table_five_csv(self):
        out = run_cli("tables", "--id", "5", "--max-m", "4")
        assert out.splitlines() == [
            "table_id,m,n,pi_star,value_star,value_A",
            "5,2,2,12,1.500,1.750",
            "5,3,2,122,3.000,3.500",
            "5,4,2,1221,5.667,5.958",
        ]

    def test_table_one_contains_named_row(self):
        out = run_cli("tables", "--id", "1", "--max-m", "5", "--max-n", "3")
        assert "1,5,3,12312,20.033,20.382" in out.splitlines()

    def test_table_three_row(self):
        out = run_cli("tables", "--id", "3", "--max-m", "4", "--max-n", "2")
        assert "3,4,2,1221,6.000,6.146" in out.splitlines()

    def test_json_rows(self):
        out = run_cli("tables", "--id", "5", "--max-m", "3", "--format", "json")
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0]["pi_star"] == "12"
        assert rows[0]["value_A"] == "1.750"

    def test_timeout_marker(self, monkeypatch):
        # The budget goes through the environment, not --budget: this is the
        # suite's test of the documented ALLOC_BUDGET_SECS override.
        monkeypatch.setenv("ALLOC_BUDGET_SECS", "0.000001")
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "tables", "--id", "1", "--max-m", "8", "--max-n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        header, *rows = proc.stdout.splitlines()
        assert header == "table_id,m,n,pi_star,value_star,value_A"
        cells = [tuple(int(field) for field in row.split(",")[:3]) for row in rows]
        assert cells == [(1, m, n) for n in (2, 3) for m in range(4, 9)]
        assert all(row.endswith(",timeout,timeout") for row in rows)


class TestManipulate:
    def test_target_mode_with_oracle(self, tmp_path):
        others = tmp_path / "others.txt"
        others.write_text("4 2 5 1 3\n1 3 5 4 2\n")
        out = run_cli("manipulate", "--others", str(others), "--target", "2", "--oracle")
        payload = json.loads(out)
        assert payload["feasible"] is True
        assert payload["strategy"] == [2, 3]
        assert payload["achieved"] == [2]
        assert payload["guaranteed_value"] == "8"
        assert payload["oracle_agrees"] is True

    def test_target_mode_infeasible(self, tmp_path):
        others = tmp_path / "others.txt"
        others.write_text("4 2 5 1 3\n1 3 5 4 2\n")
        out = run_cli("manipulate", "--others", str(others), "--target", "2,3")
        payload = json.loads(out)
        assert payload["feasible"] is False
        assert payload["strategy"] is None
        assert payload["achieved"] == []

    def test_optimal_mode(self, profile_file):
        out = run_cli("manipulate", "--optimal", "--profile", profile_file, "--scoring", "lex", "--oracle")
        payload = json.loads(out)
        assert payload["achieved"] == [2]
        assert payload["guaranteed_value"] == "8"
        assert payload["strategy"] in ([2, 3], [2, 5])
        assert payload["oracle_agrees"] is True

    def test_seeded_run_is_reproducible(self, tmp_path):
        others = tmp_path / "others.txt"
        others.write_text("4 2 5 1 3\n1 3 5 4 2\n")
        first = run_cli("manipulate", "--others", str(others), "--target", "2", "--seed", "7")
        second = run_cli("manipulate", "--others", str(others), "--target", "2", "--seed", "7")
        assert first == second

    def test_requires_mode(self):
        run_cli("manipulate", expect_code=2)

    def test_unparsable_target_names_the_option(self, tmp_path):
        others = tmp_path / "others.txt"
        others.write_text("4 2 5 1 3\n1 3 5 4 2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "manipulate", "--others", str(others), "--target", "a"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Error: --target must list object indices separated by commas, got 'a'" in proc.stderr

    def test_target_builds_claim_schedule_once(self, tmp_path, monkeypatch):
        others = tmp_path / "others.txt"
        others.write_text("4 2 5 1 3\n1 3 5 4 2\n")
        calls = []
        build = manipulation.claim_schedule

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(manipulation, "claim_schedule", counted)
        for target, feasible in (("2", True), ("2,3", False)):
            calls.clear()
            result = CliRunner().invoke(cli, ["manipulate", "--others", str(others), "--target", target])
            assert result.exit_code == 0, result.output
            assert json.loads(result.stdout)["feasible"] is feasible
            assert len(calls) == 1


class TestInputsAndOutputs:
    def test_custom_scoring_file(self, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("3 3/2 1/2\n")
        out = run_cli(
            "eval", "-m", "3", "-n", "2", "--policy", "all",
            "--criterion", "uuu", "--scoring", f"custom:{scores}",
        )
        assert out.strip()  # exact custom-table evaluation succeeds

    def test_custom_scoring_rejects_bad_table(self, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("1 2 3\n")
        run_cli(
            "eval", "-m", "3", "-n", "2", "--policy", "all",
            "--scoring", f"custom:{scores}", expect_code=3,
        )

    def test_warns_when_fewer_objects_than_agents(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("1 2\n2 1\n1 2\n")
        proc = subprocess.run(
            [sys.executable, "-m", "allocsim.cli", "simulate", "--policy", "all", "--profile", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "warning" in proc.stderr

    def test_output_flag_writes_file(self, profile_file, tmp_path):
        target = tmp_path / "out.csv"
        run_cli(
            "simulate", "--policy", "all", "--profile", profile_file,
            "--format", "csv", "--output", str(target),
        )
        assert target.read_text().startswith("agent,expected,guaranteed")

    def test_optimal_seq_egalitarian(self):
        out = run_cli("optimal-seq", "-m", "4", "-n", "2", "--criterion", "euu")
        assert out.split() == ["1221", "6"]


class TestDeterminism:
    def test_tables_bytes_stable_across_runs_and_jobs(self):
        base = run_cli("tables", "--id", "1", "--max-m", "4", "--max-n", "3", "--jobs", "1")
        again = run_cli("tables", "--id", "1", "--max-m", "4", "--max-n", "3", "--jobs", "1")
        parallel = run_cli("tables", "--id", "1", "--max-m", "4", "--max-n", "3", "--jobs", "2")
        assert base == again == parallel

    def test_simulate_bytes_stable(self, profile_file):
        runs = {
            run_cli("simulate", "--policy", "all", "--profile", profile_file, "--format", "csv")
            for _ in range(3)
        }
        assert len(runs) == 1


class TestBenchmarkTracer:
    def test_tracer_finds_every_name_it_wraps(self):
        # The benchmark's tracer wraps program functions under the names its
        # callers resolve; renaming or dropping one of them breaks a traced run.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
        proc = subprocess.run(
            [sys.executable, "-B", "-c", "import tracer; tracer.Tracer(0).install()"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
