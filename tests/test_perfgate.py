"""The perf gate must fail on real regressions and nothing else:
ratio drops beyond tolerance, identity flips, and (only when asked)
absolute wall-time growth."""

import json

import pytest

from repro.errors import ReproError
from repro.perfgate import (
    compare_bench,
    format_gate_table,
    load_results,
    run_gate,
)


def _sweep_results(**overrides):
    results = {
        "schema": "repro-bench-sweep/1",
        "handoff": {"handoff_speedup": 100.0, "attach_s": 0.001},
        "dispatch": {
            "serial": {"wall_s": 1.0},
            "fork": {"wall_s": 0.5},
            "spawn": {"wall_s": 2.0},
        },
        "fork_equals_serial": True,
        "spawn_equals_serial": True,
        "all_modes_identical": True,
    }
    results.update(overrides)
    return results


def _failed(findings):
    return [f.metric for f in findings if not f.passed]


class TestCompareBench:
    def test_identical_results_pass(self):
        findings = compare_bench(_sweep_results(), _sweep_results())
        assert not _failed(findings)

    def test_small_ratio_drop_within_tolerance_passes(self):
        candidate = _sweep_results(
            handoff={"handoff_speedup": 85.0, "attach_s": 0.001}
        )
        assert not _failed(compare_bench(_sweep_results(), candidate))

    def test_large_ratio_drop_fails(self):
        baseline = _sweep_results(
            handoff={"handoff_speedup": 15.0, "attach_s": 0.001}
        )
        candidate = _sweep_results(
            handoff={"handoff_speedup": 10.0, "attach_s": 0.0015}
        )
        assert _failed(compare_bench(baseline, candidate)) == [
            "handoff.handoff_speedup"
        ]

    def test_ratio_improvement_passes(self):
        candidate = _sweep_results(
            handoff={"handoff_speedup": 500.0, "attach_s": 0.001}
        )
        assert not _failed(compare_bench(_sweep_results(), candidate))

    def test_identity_flip_fails(self):
        candidate = _sweep_results(
            spawn_equals_serial=False, all_modes_identical=False
        )
        assert _failed(compare_bench(_sweep_results(), candidate)) == [
            "spawn_equals_serial",
            "all_modes_identical",
        ]

    def test_wall_growth_ignored_by_default(self):
        candidate = _sweep_results(
            dispatch={
                "serial": {"wall_s": 50.0},
                "fork": {"wall_s": 50.0},
                "spawn": {"wall_s": 50.0},
            }
        )
        assert not _failed(compare_bench(_sweep_results(), candidate))

    def test_wall_growth_gated_with_absolute(self):
        candidate = _sweep_results(
            dispatch={
                "serial": {"wall_s": 50.0},
                "fork": {"wall_s": 0.5},
                "spawn": {"wall_s": 2.0},
            }
        )
        findings = compare_bench(
            _sweep_results(), candidate, absolute=True
        )
        assert _failed(findings) == ["dispatch.serial.wall_s"]

    def test_missing_metric_is_informational(self):
        candidate = _sweep_results()
        del candidate["handoff"]["handoff_speedup"]
        findings = compare_bench(_sweep_results(), candidate)
        assert not _failed(findings)
        finding = next(
            f for f in findings if f.metric == "handoff.handoff_speedup"
        )
        assert not finding.gated

    def test_saturated_ratio_ignores_noise_above_the_cap(self):
        # 1184x -> 826x is a -30% swing, but both are far above the
        # 20x saturation cap, so nothing meaningful regressed.
        baseline = _sweep_results(
            handoff={"handoff_speedup": 1184.0, "attach_s": 0.0002}
        )
        candidate = _sweep_results(
            handoff={"handoff_speedup": 826.0, "attach_s": 0.0003}
        )
        assert not _failed(compare_bench(baseline, candidate))

    def test_saturated_ratio_still_fails_on_collapse(self):
        candidate = _sweep_results(
            handoff={"handoff_speedup": 2.0, "attach_s": 0.5}
        )
        assert _failed(compare_bench(_sweep_results(), candidate)) == [
            "handoff.handoff_speedup"
        ]

    def test_info_ratio_never_gates(self):
        # csv_write barely beats the reference (near-1x IO ratio), so
        # its swings are reported but never fail the gate.
        def _locations(csv_write_speedup):
            return {
                "schema": "repro-bench-locations/1",
                "explode": {"speedup": 10.0, "fast_s": 1.0},
                "bin": {"speedup": 5.0, "fast_s": 0.1},
                "csv_write": {"speedup": csv_write_speedup},
                "csv_read": {"speedup": 2.0},
                "headline_speedup": 8.0,
                "all_identical": True,
            }

        findings = compare_bench(_locations(1.5), _locations(0.9))
        assert not _failed(findings)
        finding = next(
            f for f in findings if f.metric == "csv_write.speedup"
        )
        assert not finding.gated
        assert finding.delta_text == "-40.0%"

    def test_custom_tolerance(self):
        baseline = _sweep_results(
            handoff={"handoff_speedup": 10.0, "attach_s": 0.001}
        )
        candidate = _sweep_results(
            handoff={"handoff_speedup": 9.5, "attach_s": 0.00105}
        )
        assert _failed(
            compare_bench(baseline, candidate, tolerance=0.01)
        ) == ["handoff.handoff_speedup"]

    def test_schema_mismatch_raises(self):
        with pytest.raises(ReproError):
            compare_bench(
                _sweep_results(), {"schema": "repro-bench-locations/1"}
            )

    def test_unknown_schema_raises(self):
        with pytest.raises(ReproError):
            compare_bench({"schema": "nope/9"}, {"schema": "nope/9"})


def _simulation_results(**overrides):
    results = {
        "schema": "repro-bench-simulation/1",
        "visibility": {
            "speedup": 30.0,
            "fast_s": 0.02,
        },
        "assignment": {
            "greedy": {"speedup": 12.0},
            "fair": {"speedup": 2.4},
        },
        "end_to_end": {
            "greedy": {"speedup": 10.0},
            "fair": {"speedup": 3.0},
        },
        "phases": {
            "greedy": {
                "visibility": {"speedup": 1.4, "fast_s": 0.01},
                "assignment": {"speedup": 12.0, "fast_s": 0.002},
            },
            "fair": {
                "visibility": {"speedup": 1.4, "fast_s": 0.01},
                "assignment": {"speedup": 3.0, "fast_s": 0.004},
            },
        },
        "timeline": {"flat_identical": True},
        "headline_speedup": 10.0,
        "all_reports_identical": True,
    }
    results.update(overrides)
    return results


class TestSimulationSchemaGate:
    """Per-phase ratios and the flat-timeline identity flag."""

    def test_identical_results_pass(self):
        findings = compare_bench(
            _simulation_results(), _simulation_results()
        )
        assert not _failed(findings)

    def test_phase_regression_fails_even_when_end_to_end_holds(self):
        # Fair assignment collapsing toward the reference must fail on
        # its own, without the end-to-end ratio moving.
        candidate = _simulation_results()
        candidate["phases"]["fair"]["assignment"]["speedup"] = 0.7
        assert _failed(compare_bench(_simulation_results(), candidate)) == [
            "phases.fair.assignment.speedup"
        ]

    def test_phase_ratio_saturates_above_the_cap(self):
        # 30x -> 12x is noise when both clamp to the 8x cap.
        baseline = _simulation_results()
        baseline["phases"]["greedy"]["assignment"]["speedup"] = 30.0
        candidate = _simulation_results()
        candidate["phases"]["greedy"]["assignment"]["speedup"] = 12.0
        assert not _failed(compare_bench(baseline, candidate))

    def test_flat_identity_flip_fails(self):
        candidate = _simulation_results()
        candidate["timeline"]["flat_identical"] = False
        assert _failed(compare_bench(_simulation_results(), candidate)) == [
            "timeline.flat_identical"
        ]

    def test_pre_phase_baseline_info_passes(self):
        # A baseline pinned before the per-phase breakdown existed has
        # no "phases" section: the new metrics must info-pass, not fail.
        baseline = _simulation_results()
        del baseline["phases"]
        findings = compare_bench(baseline, _simulation_results())
        assert not _failed(findings)
        assert not any(
            f.gated for f in findings if f.metric.startswith("phases.")
        )


class TestGateIO:
    def test_load_results_missing_file(self, tmp_path):
        with pytest.raises(ReproError):
            load_results(tmp_path / "absent.json")

    def test_load_results_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(ReproError):
            load_results(path)

    def test_run_gate_round_trip(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(_sweep_results()))
        report, passed = run_gate([(str(path), str(path))])
        assert passed
        assert "handoff.handoff_speedup" in report

    def test_run_gate_reports_failure(self, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        base.write_text(json.dumps(_sweep_results()))
        cand.write_text(
            json.dumps(
                _sweep_results(
                    handoff={"handoff_speedup": 1.0, "attach_s": 0.001}
                )
            )
        )
        report, passed = run_gate([(str(base), str(cand))])
        assert not passed
        assert "FAILED" in report

    def test_table_renders_every_finding(self):
        findings = compare_bench(_sweep_results(), _sweep_results())
        table = format_gate_table("sweep.json", findings)
        for finding in findings:
            assert finding.metric in table
