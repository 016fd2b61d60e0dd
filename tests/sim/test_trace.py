"""Tests for simulation trace recording and round trips."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.orbits.shells import GEN1_SHELLS
from repro.sim.assignment import GreedyDemandFirst
from repro.sim.engine import SimulationClock
from repro.sim.simulation import ConstellationSimulation
from repro.sim.trace import (
    SimulationTrace,
    read_trace_csv,
    record_trace,
    write_trace_csv,
)

from tests.conftest import build_toy_dataset


@pytest.fixture(scope="module")
def recorded():
    dataset = build_toy_dataset([100, 500, 900], latitudes=[36.5, 37.0, 37.5])
    simulation = ConstellationSimulation(GEN1_SHELLS[:1], dataset)
    trace = record_trace(simulation, SimulationClock(300.0, 60.0))
    return trace


class TestRecording:
    def test_shape(self, recorded):
        assert recorded.steps == 5
        assert recorded.cells == 3

    def test_coverage_timeline(self, recorded):
        timeline = recorded.coverage_timeline()
        assert timeline.shape == (5,)
        assert np.all((0.0 <= timeline) & (timeline <= 1.0))

    def test_worst_cell_valid(self, recorded):
        assert 0 <= recorded.worst_cell() < 3

    def test_handover_counts_nonnegative(self, recorded):
        handovers = recorded.handovers_per_cell()
        assert handovers.shape == (3,)
        assert np.all(handovers >= 0)

    def test_allocation_only_when_covered(self, recorded):
        uncovered = ~recorded.covered
        assert np.all(recorded.allocated_mbps[uncovered] == 0.0)


class OverAssigningBoth(GreedyDemandFirst):
    """One beam more than satellite 0 has, on the list and CSR paths."""

    def assign(self, visible, demands_mbps, n_satellites, plan):
        outcome = super().assign(visible, demands_mbps, n_satellites, plan)
        outcome.beams_used[0] = plan.beams_per_satellite + 1
        return outcome

    def assign_csr(self, visible, demands_mbps, plan):
        outcome = super().assign_csr(visible, demands_mbps, plan)
        outcome.beams_used[0] = plan.beams_per_satellite + 1
        return outcome


class TestStepsThroughSimulation:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_oversubscribed_beams_raise(self, engine):
        # The trace must step like run(): the beam check applies.
        dataset = build_toy_dataset([100, 500, 900], latitudes=[36.5, 37.0, 37.5])
        simulation = ConstellationSimulation(
            GEN1_SHELLS[:1], dataset, strategy=OverAssigningBoth(), engine=engine
        )
        with pytest.raises(SimulationError, match="oversubscribed"):
            record_trace(simulation, SimulationClock(300.0, 60.0))


class TestValidation:
    def test_misshapen_arrays_rejected(self):
        with pytest.raises(SimulationError):
            SimulationTrace(
                times_s=np.zeros(2),
                covered=np.zeros((2, 3), dtype=bool),
                allocated_mbps=np.zeros((2, 4)),
                serving_satellite=np.zeros((2, 3), dtype=int),
            )

    def test_step_count_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            SimulationTrace(
                times_s=np.zeros(3),
                covered=np.zeros((2, 3), dtype=bool),
                allocated_mbps=np.zeros((2, 3)),
                serving_satellite=np.zeros((2, 3), dtype=int),
            )

    def test_single_step_handovers_zero(self):
        trace = SimulationTrace(
            times_s=np.zeros(1),
            covered=np.ones((1, 2), dtype=bool),
            allocated_mbps=np.ones((1, 2)),
            serving_satellite=np.zeros((1, 2), dtype=int),
        )
        assert trace.handovers_per_cell().tolist() == [0, 0]


class TestCsvRoundTrip:
    def test_roundtrip(self, recorded, tmp_path):
        path = write_trace_csv(recorded, tmp_path / "trace.csv")
        loaded = read_trace_csv(path)
        assert loaded.steps == recorded.steps
        assert loaded.cells == recorded.cells
        assert np.array_equal(loaded.covered, recorded.covered)
        assert np.array_equal(
            loaded.serving_satellite, recorded.serving_satellite
        )
        assert np.allclose(
            loaded.allocated_mbps, recorded.allocated_mbps, atol=0.1
        )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SimulationError):
            read_trace_csv(tmp_path / "nope.csv")

    def test_bad_headers_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(SimulationError):
            read_trace_csv(bad)


class TestJsonlRoundTrip:
    def test_jsonl_round_trip_is_exact(self, recorded, tmp_path):
        from repro.sim.trace import read_trace_jsonl, write_trace_jsonl

        path = write_trace_jsonl(recorded, tmp_path / "trace.jsonl")
        loaded = read_trace_jsonl(path)
        assert np.array_equal(loaded.times_s, recorded.times_s)
        assert np.array_equal(loaded.covered, recorded.covered)
        assert np.array_equal(loaded.allocated_mbps, recorded.allocated_mbps)
        assert np.array_equal(
            loaded.serving_satellite, recorded.serving_satellite
        )

    def test_jsonl_and_csv_agree_on_coverage_timeline(
        self, recorded, tmp_path
    ):
        """Satellite criterion: both persisted forms reproduce the same
        derived statistics."""
        from repro.sim.trace import read_trace_jsonl, write_trace_jsonl

        csv_loaded = read_trace_csv(
            write_trace_csv(recorded, tmp_path / "trace.csv")
        )
        jsonl_loaded = read_trace_jsonl(
            write_trace_jsonl(recorded, tmp_path / "trace.jsonl")
        )
        assert np.array_equal(
            jsonl_loaded.coverage_timeline(), csv_loaded.coverage_timeline()
        )
        assert np.array_equal(
            jsonl_loaded.handovers_per_cell(), csv_loaded.handovers_per_cell()
        )
        assert jsonl_loaded.worst_cell() == csv_loaded.worst_cell()

    def test_jsonl_trace_can_share_a_telemetry_stream(
        self, recorded, tmp_path
    ):
        from repro.obs import TelemetryWriter, read_events
        from repro.sim.trace import read_trace_jsonl, write_trace_jsonl

        path = tmp_path / "combined.jsonl"
        with TelemetryWriter(path) as writer:
            writer.emit({"type": "log", "level": "INFO", "message": "start"})
            write_trace_jsonl(recorded, path, writer=writer)
            writer.emit({"type": "metrics", "metrics": {}})
        loaded = read_trace_jsonl(path)
        assert loaded.steps == recorded.steps
        types = [event["type"] for event in read_events(path)]
        assert types[0] == "log" and types[-1] == "metrics"

    def test_jsonl_without_trace_events_rejected(self, tmp_path):
        from repro.obs import TelemetryWriter
        from repro.sim.trace import read_trace_jsonl

        path = tmp_path / "empty.jsonl"
        with TelemetryWriter(path) as writer:
            writer.emit({"type": "log", "level": "INFO", "message": "only"})
        with pytest.raises(SimulationError):
            read_trace_jsonl(path)
