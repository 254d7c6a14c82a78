"""The CI perf gate: baseline-vs-fresh artifact comparison."""

import json

from repro.tools.perf_gate import compare, main


class TestCompare:
    def test_within_tolerance_passes(self):
        failures = compare(
            {"events_per_request_10k": 100.0}, {"events_per_request_10k": 105.0}
        )
        assert failures == []

    def test_regression_fails(self):
        failures = compare(
            {"events_per_request_10k": 100.0}, {"events_per_request_10k": 115.0}
        )
        assert len(failures) == 1
        assert "events_per_request_10k" in failures[0]

    def test_improvement_passes(self):
        failures = compare(
            {"events_per_request_10k": 100.0}, {"events_per_request_10k": 60.0}
        )
        assert failures == []

    def test_metric_new_in_fresh_passes(self):
        assert compare({}, {"events_per_request_10k": 100.0}) == []

    def test_metric_dropped_from_fresh_fails(self):
        failures = compare({"events_per_request_10k": 100.0}, {})
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_custom_metrics_and_tolerance(self):
        baseline = {"a": 10.0, "b": 10.0}
        fresh = {"a": 10.4, "b": 12.0}
        failures = compare(baseline, fresh, metrics=("a", "b"), tolerance=0.05)
        assert len(failures) == 1
        assert failures[0].startswith("b:")

    def test_higher_is_better_fails_on_a_fall_not_on_a_rise(self):
        baseline = {"max_goodput_rate": 600.0}
        knee = ("max_goodput_rate",)
        assert compare(baseline, {"max_goodput_rate": 700.0}, higher_is_better=knee) == []
        assert compare(baseline, {"max_goodput_rate": 560.0}, higher_is_better=knee) == []
        [failure] = compare(baseline, {"max_goodput_rate": 500.0}, higher_is_better=knee)
        assert failure == "max_goodput_rate: 600.000 -> 500.000 (-16.7%, allowed -10%)"
        # The same fall is an improvement for a lower-is-better metric.
        assert compare(baseline, {"max_goodput_rate": 500.0}, metrics=knee) == []

    def test_higher_is_better_dropped_from_fresh_fails(self):
        [failure] = compare(
            {"max_goodput_rate": 600.0}, {}, metrics=(), higher_is_better=("max_goodput_rate",)
        )
        assert "missing" in failure


class TestCli:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(json.dumps({"events_per_request_10k": 100.0}))
        fresh.write_text(json.dumps({"events_per_request_10k": 101.0}))
        assert main([str(baseline), str(fresh)]) == 0
        fresh.write_text(json.dumps({"events_per_request_10k": 150.0}))
        assert main([str(baseline), str(fresh)]) == 1

    def test_higher_is_better_flag(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        baseline.write_text(
            json.dumps({"events_per_request_10k": 100.0, "max_goodput_rate": 600.0})
        )
        fresh.write_text(
            json.dumps({"events_per_request_10k": 100.0, "max_goodput_rate": 650.0})
        )
        flags = ["--higher-is-better", "max_goodput_rate"]
        assert main([str(baseline), str(fresh), *flags]) == 0
        assert "max_goodput_rate: 600.0 -> 650.0" in capsys.readouterr().out
        fresh.write_text(
            json.dumps({"events_per_request_10k": 100.0, "max_goodput_rate": 500.0})
        )
        assert main([str(baseline), str(fresh), *flags]) == 1
        assert "FAIL max_goodput_rate" in capsys.readouterr().out

    def test_missing_baseline_accepts_fresh(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        fresh.write_text(json.dumps({"events_per_request_10k": 100.0}))
        assert main([str(tmp_path / "absent.json"), str(fresh)]) == 0

    def test_multiple_pairs_pass(self, tmp_path):
        paths = []
        for name, value in (
            ("a_base", 100.0),
            ("a_fresh", 101.0),
            ("b_base", 50.0),
            ("b_fresh", 49.0),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"events_per_request_10k": value}))
            paths.append(str(path))
        assert main(paths) == 0

    def test_multiple_pairs_report_all_regressions(self, tmp_path, capsys):
        paths = []
        for name, value in (
            ("a_base", 100.0),
            ("a_fresh", 150.0),  # regression 1
            ("b_base", 50.0),
            ("b_fresh", 49.0),  # fine
            ("c_base", 10.0),
            ("c_fresh", 20.0),  # regression 2
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"events_per_request_10k": value}))
            paths.append(str(path))
        assert main(paths) == 1
        out = capsys.readouterr().out
        # Both regressions reported, each prefixed with its fresh artifact.
        assert out.count("FAIL") == 2
        assert "a_fresh.json:" in out
        assert "c_fresh.json:" in out

    def test_multiple_pairs_missing_baseline_is_per_pair(self, tmp_path):
        fresh_a = tmp_path / "a_fresh.json"
        fresh_a.write_text(json.dumps({"events_per_request_10k": 100.0}))
        base_b = tmp_path / "b_base.json"
        fresh_b = tmp_path / "b_fresh.json"
        base_b.write_text(json.dumps({"events_per_request_10k": 10.0}))
        fresh_b.write_text(json.dumps({"events_per_request_10k": 20.0}))
        # Pair A has no baseline (accepted); pair B still regresses.
        assert (
            main(
                [
                    str(tmp_path / "absent.json"),
                    str(fresh_a),
                    str(base_b),
                    str(fresh_b),
                ]
            )
            == 1
        )

    def test_odd_artifact_count_is_an_error(self, tmp_path):
        fresh = tmp_path / "fresh.json"
        fresh.write_text("{}")
        try:
            main([str(fresh), str(fresh), str(fresh)])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError("expected SystemExit from argparse error")
