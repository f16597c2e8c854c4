import json
import subprocess
import sys
from fractions import Fraction

import pytest

from allocsim.cli import fmt_auto, fmt_fixed, fmt_table, round_half_up

EXAMPLE_PROFILE = "1 2 3 4 5\n4 2 5 1 3\n1 3 5 4 2\n"


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

    def test_all_reporting_trace(self, profile_file):
        out = run_cli("simulate", "--policy", "all", "--profile", profile_file, "--scoring", "borda")
        assert "expected:   4.8333 8 7.5" in out
        assert "contested: o1x2" in out

    def test_loser_reporting_guarantees(self, profile_file):
        out = run_cli("simulate", "--policy", "loser", "--profile", profile_file, "--scoring", "lex")
        assert "guaranteed: 8 16 12" in out

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


class TestExitCodes:
    def test_usage_error_is_2(self, profile_file):
        run_cli("eval", "--policy", "nonsense", "-m", "2", "-n", "2", expect_code=2)

    def test_parse_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n1 oops 3\n")
        run_cli("simulate", "--policy", "all", "--profile", str(bad), expect_code=3)

    def test_budget_error_is_4(self):
        run_cli("eval", "-m", "9", "-n", "3", "--policy", "all", "--criterion", "uuu", expect_code=4)

    def test_policy_violation_is_5(self, profile_file):
        run_cli("simulate", "--policy", "seq:12", "--profile", profile_file, expect_code=5)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_2(self, jobs):
        run_cli("tables", "--id", "5", "--max-m", "2", "--jobs", jobs, expect_code=2)
        run_cli("eval", "-m", "2", "-n", "2", "--policy", "all", "--jobs", jobs, expect_code=2)
        run_cli("optimal-seq", "-m", "2", "-n", "2", "--jobs", jobs, expect_code=2)

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

    def test_requires_sizes_or_profile(self):
        run_cli("eval", "--policy", "all", expect_code=2)


class TestOptimalSeq:
    def test_utilitarian(self):
        out = run_cli("optimal-seq", "-m", "5", "-n", "3", "--criterion", "uuu")
        assert out.split() == ["12312", "20.0333"]

    def test_expected_min(self):
        out = run_cli("optimal-seq", "-m", "3", "-n", "2", "--criterion", "em-u")
        assert out.split() == ["122", "3"]


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
