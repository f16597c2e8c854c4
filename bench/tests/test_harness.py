"""Tests of the benchmark harness itself (no pass process or pool is started).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import RAISED_KEY, Checker  # noqa: E402
from run import CALIBRATION_REF_MS, MIN_OWN_SAMPLES, _scale_ops  # noqa: E402
from metrics import op_counts, pass_counts, tail_percentile  # noqa: E402
from workloads import check_jobs_cap, pass_commands, profiles_pass  # noqa: E402

TABLE_CSV = (
    "table_id,m,n,pi_star,value_star,value_A\n"
    "5,6,2,121221,12.397,12.736\n"
    "5,7,2,1212122,16.560,17.082\n"
    "5,8,2,,timeout,timeout\n"
)


class TestTailPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(1, 1001)))[1:] == ("99", 1000, 10)
        assert tail_percentile(list(range(1, 1000)))[1:] == ("90", 999, 99)

    def test_value_is_the_nearest_rank(self):
        value, percentile, _, beyond = tail_percentile(list(range(1, 1001)))
        assert (value, beyond) == (990, 10)
        assert sum(1 for x in range(1, 1001) if x > value) == beyond

    def test_highest_rung_wins(self):
        assert tail_percentile([1.0] * 10000)[1:] == ("99.9", 10000, 10)
        assert tail_percentile(list(range(200)))[1] == "90"
        assert tail_percentile(list(range(20)))[1:] == ("50", 20, 10)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, "100", 3, 0)
        assert tail_percentile(list(range(19)))[0] == 18


class TestAnswers:
    def test_timeouts_are_attempted_but_not_answered(self):
        assert op_counts(["tables", "--id", "5"], 0, TABLE_CSV, 3) == (3, 2, 1)

    def test_non_zero_exit_fails_every_reference_cell(self):
        assert op_counts(["tables", "--id", "5"], 4, "", 7) == (7, 0, 0)
        assert op_counts(["eval", "--profile", "p.txt"], 3, "", 1) == (1, 0, 0)
        assert op_counts(["eval", "--profile", "p.txt"], 0, "12\n", 1) == (1, 1, 0)

    def test_answers_per_s_excludes_timeouts(self):
        # answers_per_s is a pass's answered count over its wall time.
        commands = [["tables", "--id", "5"], ["eval", "-m", "6", "-n", "3"], ["eval", "--profile", "p"]]
        ops = [{"code": 0, "out": TABLE_CSV}, {"code": 0, "out": "0\n"}, {"code": 4, "out": ""}]
        assert pass_counts(commands, ops, lambda args: 3) == (5, 3, 1)

    def test_timeout_cells_from_csv(self):
        answered = TABLE_CSV.replace("5,8,2,,timeout,timeout", "5,8,2,12121221,21.738,22.000")
        assert op_counts(["tables", "--id", "5"], 0, answered, 3) == (3, 3, 0)
        with pytest.raises(ValueError):
            op_counts(["tables", "--id", "5"], 0, "m,n\n1,2\n", 1)

    def test_reference_counts_at_this_commit(self):
        reference = load_reference()
        assert op_counts(["tables"], 0, reference["tables --id 1 --jobs 1"], 0) == (15, 11, 4)
        assert op_counts(["tables"], 0, reference["tables --id 5 --jobs 1"], 0) == (7, 6, 1)


def load_reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


T5 = "tables --id 5 --jobs 1"
T5_ROW = "5,4,2,1221,5.667,5.958"  # also in TABLE5 of the acceptance tests
T1 = "tables --id 1 --jobs 1"
T1_ROW = "1,4,2,1212,12.292,12.292"


def checked(reference, args, out, code=0, read_input=None):
    checker = Checker(ROOT, reference, read_input or (lambda path: None))
    checker.check(args, code, out)
    return checker


def as_timeout(reference, key, row):
    """The reference with one answered row replaced by a timeout row."""
    cell = ",".join(row.split(",")[:3])
    assert row in reference[key]
    return {**reference, key: reference[key].replace(row, cell + ",,timeout,timeout")}


class TestChecker:
    """The checks that decide ``correct``, fed right and wrong answers directly."""

    def test_reference_outputs_pass(self):
        reference = load_reference()
        for key in (T1, T5, "eval --policy all -m 6 -n 3 --criterion eeu --jobs 1"):
            checker = checked(reference, key.split(), reference[key])
            assert checker.problems == [] and not checker.unverified and not checker.newly_answered

    def test_changed_value_star_is_wrong(self):
        reference = load_reference()
        out = reference[T5].replace(T5_ROW, "5,4,2,1221,5.668,5.958")
        assert len(checked(reference, T5.split(), out).problems) == 1

    def test_changed_fixed_eval_is_wrong(self):
        reference = load_reference()
        key = "eval --policy loser -m 5 -n 3 --criterion uuu --jobs 1"
        assert checked(reference, key.split(), "20.2726\n").problems

    def test_timeout_and_non_zero_exit_are_not_wrong(self):
        reference = load_reference()
        out = reference[T5].replace(T5_ROW, "5,4,2,,timeout,timeout")
        assert checked(reference, T5.split(), out).problems == []
        assert checked(reference, T5.split(), "", code=4).problems == []

    @pytest.mark.parametrize("key,row", [(T1, T1_ROW), (T5, T5_ROW)])
    def test_new_cell_is_unverified_and_recomputed(self, key, row):
        # A cell that timed out in the reference and is answered now: pi* and
        # value_star are recomputed (optimal_sequential for table 1, the em-u
        # value of pi* for table 5).
        reference = as_timeout(load_reference(), key, row)
        checker = checked(reference, key.split(), load_reference()[key])
        assert checker.problems == []
        assert checker.unverified == {f"table {row[0]} (4,2)"}

    @pytest.mark.parametrize("key,row,wrong", [
        (T1, T1_ROW, "1,4,2,1212,12.300,12.292"),  # value_star
        (T1, T1_ROW, "1,4,2,1221,12.292,12.292"),  # pi*
        (T5, T5_ROW, "5,4,2,1221,5.700,5.958"),  # value_star
    ])
    def test_new_cell_with_wrong_star_is_wrong(self, key, row, wrong):
        reference = as_timeout(load_reference(), key, row)
        out = load_reference()[key].replace(row, wrong)
        checker = checked(reference, key.split(), out)
        assert checker.unverified == {f"table {row[0]} (4,2)"}
        # The recomputation catches it; the cell's TABLE1/TABLE5 entry does too.
        assert [p for p in checker.problems if "recomputed" in p]

    def test_new_cell_with_raised_budget_row_is_compared_in_full(self):
        reference = as_timeout(load_reference(), T5, T5_ROW)
        reference[RAISED_KEY] = "table_id,m,n,pi_star,value_star,value_A\n" + T5_ROW + "\n"
        right = load_reference()[T5]
        checker = checked(reference, T5.split(), right)
        assert checker.problems == [] and checker.newly_answered == {"table 5 (4,2)"}
        assert not checker.unverified
        # value_A off by one unit in the last place: within the acceptance
        # tolerance, so only the raised-budget row catches it.
        wrong = right.replace(T5_ROW, "5,4,2,1221,5.667,5.959")
        assert len(checked(reference, T5.split(), wrong).problems) == 1

    def test_committed_raised_budget_rows_replace_reference_timeouts(self):
        reference = load_reference()
        raised = reference[RAISED_KEY].splitlines()[1:]
        assert raised
        for row in raised:
            cell = ",".join(row.split(",")[:3])
            table = row.split(",")[0]
            assert cell + ",,timeout,timeout" in reference[f"tables --id {table} --jobs 1"]
            assert "timeout" not in row

    @staticmethod
    def simulate_json(tmp_path, policy="all"):
        from click.testing import CliRunner

        from allocsim.cli import cli

        path = tmp_path / "p.txt"
        path.write_text("1 2 3 4 5 6\n2 1 3 4 6 5\n3 2 1 6 5 4\n")
        args = ["simulate", "--policy", policy, "--profile", str(path), "--format", "json"]
        result = CliRunner().invoke(cli, args)
        assert result.exit_code == 0
        return args, result.output

    @pytest.mark.parametrize("policy", ["all", "loser", "seq:123123"])
    def test_simulate_recomputed_from_outcomes(self, tmp_path, policy):
        args, out = self.simulate_json(tmp_path, policy)
        assert checked({}, args, out, read_input=lambda p: open(p).read()).problems == []

    @pytest.mark.parametrize("field", ["expected", "guaranteed"])
    def test_simulate_off_by_a_thousandth_is_wrong(self, tmp_path, field):
        args, out = self.simulate_json(tmp_path)
        payload = json.loads(out)
        payload[field][0] = str(Fraction(payload[field][0]) + Fraction(1, 1000))
        checker = checked({}, args, json.dumps(payload), read_input=lambda p: open(p).read())
        assert len(checker.problems) == 1

    def test_eval_profile_recomputed_from_outcomes(self, tmp_path):
        args, _ = self.simulate_json(tmp_path)
        args = ["eval", "--profile", args[4], "--policy", "loser", "--criterion", "uuu"]
        read = lambda p: open(p).read()  # noqa: E731
        assert checked({}, args, "25.5\n", read_input=read).problems == []
        assert checked({}, args, "25.501\n", read_input=read).problems

    def test_manipulate_needs_oracle_agreement(self):
        args = ["manipulate", "--optimal", "--profile", "p.txt", "--scoring", "lex", "--oracle"]
        assert checked({}, args, '{"oracle_agrees": true}').problems == []
        assert checked({}, args, '{"oracle_agrees": false}').problems
        assert checked({}, args, '{"strategy": "1 2"}').problems

    def test_malformed_output_is_wrong(self):
        args = ["manipulate", "--others", "p.txt", "--target", "1", "--oracle"]
        assert checked({}, args, "not json").problems


class TestCalibration:
    def test_long_command_is_scaled_by_its_own_samples(self):
        slow, fast = 2 * CALIBRATION_REF_MS, CALIBRATION_REF_MS
        samples = [slow] * MIN_OWN_SAMPLES + [fast] * 4
        result = {
            "calibration_ms": samples,
            "setup_calibration_ms": [fast],
            "ops": [
                {"cpu_ms": 1000.0, "calibration": [0, MIN_OWN_SAMPLES]},  # ran at half speed
                {"cpu_ms": 1.0, "calibration": [MIN_OWN_SAMPLES, MIN_OWN_SAMPLES + 1]},
            ],
        }
        _scale_ops(result)
        assert result["ops"][0]["scaled_cpu_ms"] == pytest.approx(500.0)
        # Too few samples of its own: the pass's mean speed is used.
        mean = (MIN_OWN_SAMPLES * slow + 4 * fast) / len(samples)
        assert result["ops"][1]["scaled_cpu_ms"] == pytest.approx(CALIBRATION_REF_MS / mean)

    def test_pass_without_samples_uses_its_setup_samples(self):
        result = {"calibration_ms": [], "setup_calibration_ms": [CALIBRATION_REF_MS / 2],
                  "ops": [{"cpu_ms": 3.0, "calibration": [0, 0]}]}
        _scale_ops(result)
        assert result["ops"][0]["scaled_cpu_ms"] == pytest.approx(6.0)


class TestProfilesInputs:
    @staticmethod
    def serialized(seed, pass_index=0):
        commands, files = profiles_pass(seed, pass_index)
        return json.dumps([commands, files], sort_keys=True).encode()

    def test_same_seed_gives_identical_bytes(self):
        assert self.serialized(7) == self.serialized(7)
        assert self.serialized(7, 3) == self.serialized(7, 3)

    def test_other_seed_or_pass_gives_other_inputs(self):
        assert self.serialized(7) != self.serialized(8)
        assert self.serialized(7, 0) != self.serialized(7, 1)

    def test_every_command_names_its_own_input(self):
        commands, files = profiles_pass(1, 0)
        named = {a.split("/", 1)[1] for args in commands for a in args if a.startswith("{work}/")}
        assert named == set(files)

    def test_fixed_workloads_ignore_the_seed(self):
        for workload in ("tables", "space", "pool"):
            assert pass_commands(workload, 1, 0) == pass_commands(workload, 99, 5)


class TestJobsCap:
    def test_within_cap(self):
        check_jobs_cap([["tables", "--id", "5", "--jobs", "2"], ["eval", "--profile", "p"]], 2)

    def test_above_cpu_count_is_refused(self):
        with pytest.raises(ValueError, match="outside 1..2"):
            check_jobs_cap([["tables", "--id", "5", "--jobs", "3"]], 2)
        with pytest.raises(ValueError):
            check_jobs_cap([["eval", "--jobs", "2"]], 1)

    def test_unknown_cpu_count_means_one(self):
        with pytest.raises(ValueError):
            check_jobs_cap([["eval", "--jobs", "2"]], None)

    def test_non_positive_is_refused(self):
        with pytest.raises(ValueError):
            check_jobs_cap([["eval", "--jobs", "0"]], 2)

    def test_every_workload_fits_two_cpus(self):
        for workload in ("tables", "space", "profiles", "pool"):
            check_jobs_cap(pass_commands(workload, 1, 0)[0], 2)
