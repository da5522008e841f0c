"""Declarative performance budgets: parsing, lookup, advisory checks."""

import json

import pytest

from repro.obs.registry import BenchResult
from repro.perfwatch import (
    Budget,
    check_budgets,
    load_budgets,
    render_budget_violations,
)


def _write(tmp_path, payload):
    path = tmp_path / "budgets.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _result(experiment_id="E-LINE", wall_s=1.0, rss_peak_kb=None):
    return BenchResult(
        experiment_id=experiment_id, wall_s=wall_s, rss_peak_kb=rss_peak_kb,
    )


class TestLoadBudgets:
    def test_missing_file_means_no_budgets(self, tmp_path):
        assert load_budgets(str(tmp_path / "absent.json")) == {}

    def test_parses_wall_and_rss(self, tmp_path):
        path = _write(tmp_path, {"version": 1, "budgets": {
            "E-LINE": {"wall_s": 5.0, "rss_peak_kb": 1024},
        }})
        budgets = load_budgets(path)
        assert budgets["E-LINE"].wall_s == 5.0
        assert budgets["E-LINE"].rss_peak_kb == 1024.0

    def test_unknown_field_rejected(self, tmp_path):
        path = _write(tmp_path, {"budgets": {
            "E-LINE": {"walls": 5.0},
        }})
        with pytest.raises(ValueError, match="unknown"):
            load_budgets(path)

    def test_non_numeric_limit_rejected(self, tmp_path):
        path = _write(tmp_path, {"budgets": {
            "E-LINE": {"wall_s": "fast"},
        }})
        with pytest.raises(ValueError, match="must be a number"):
            load_budgets(path)

    def test_non_positive_limit_rejected(self, tmp_path):
        path = _write(tmp_path, {"budgets": {
            "E-LINE": {"wall_s": 0},
        }})
        with pytest.raises(ValueError, match="must be positive"):
            load_budgets(path)

    def test_repo_budgets_file_parses(self):
        """The committed benchmarks/budgets.json must stay loadable."""
        budgets = load_budgets("benchmarks/budgets.json")
        assert "*" in budgets


class TestCheckBudgets:
    def _budgets(self):
        return {
            "E-LINE": Budget("E-LINE", wall_s=2.0),
            "*": Budget("*", wall_s=10.0, rss_peak_kb=1000.0),
        }

    def test_most_specific_rule_wins(self):
        budgets = self._budgets()
        # 3.0s: over the experiment's 2.0s, under the catch-all 10.0s.
        (v,) = check_budgets([_result(wall_s=3.0)], budgets)
        assert v.budget_key == "E-LINE"
        assert check_budgets([_result(wall_s=1.0)], budgets) == []

    def test_catch_all_applies_to_unlisted_experiments(self):
        budgets = self._budgets()
        (v,) = check_budgets([_result("E-RAM", wall_s=11.0)], budgets)
        assert v.budget_key == "*"
        assert v.metric == "wall_s"

    def test_rss_checked_when_present(self):
        budgets = self._budgets()
        (v,) = check_budgets(
            [_result("E-RAM", wall_s=0.1, rss_peak_kb=2000.0)], budgets
        )
        assert v.metric == "rss_peak_kb"
        assert v.ratio == pytest.approx(2.0)

    def test_missing_observation_never_violates(self):
        budgets = {"*": Budget("*", rss_peak_kb=1.0)}
        assert check_budgets([_result(rss_peak_kb=None)], budgets) == []

    def test_no_matching_rule_no_violation(self):
        budgets = {"E-RAM": Budget("E-RAM", wall_s=0.001)}
        assert check_budgets([_result("E-LINE", wall_s=99.0)], budgets) == []

    def test_render_marks_advisory(self):
        budgets = self._budgets()
        violations = check_budgets(
            [_result("E-RAM", wall_s=11.0, rss_peak_kb=2000.0)], budgets
        )
        lines = render_budget_violations(violations)
        assert len(lines) == 2
        assert all("[advisory]" in line for line in lines)
        assert any("wall_s" in line for line in lines)
        assert any("rss_peak_kb" in line for line in lines)

    def test_violation_serializes(self):
        (v,) = check_budgets(
            [_result(wall_s=3.0)], {"E-LINE": Budget("E-LINE", wall_s=2.0)}
        )
        json.dumps(v.to_dict())
