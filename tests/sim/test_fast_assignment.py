"""Differential tests: vectorized kernels vs the slow reference loops.

The fast CSR kernels in :mod:`repro.sim.assignment` must be
outcome-identical — every field, including tie-breaks — to the retained
:mod:`repro.sim.slow_reference` implementations on arbitrary visibility
relations, and each strategy's ``assign`` / ``assign_csr`` entry points
must agree with each other.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.assignment import (
    AssignmentOutcome,
    GreedyDemandFirst,
    ProportionalFair,
    StickyGreedy,
)
from repro.sim.slow_reference import (
    ReferenceGreedyDemandFirst,
    ReferenceProportionalFair,
)
from repro.sim.visibility_index import CSRVisibility
from repro.spectrum.beams import BeamPlan

PLAN = BeamPlan(
    beams_per_satellite=6,
    max_beams_per_cell=3,
    ut_spectrum_mhz=3000.0,
    spectral_efficiency_bps_hz=4.0,
)

#: Starved supply: satellites drain after one or two grants, so the
#: death-tracking skip lists and the fair strategy's lazy heap (which
#: only matter once satellites run dry mid-pass) are exercised hard.
SCARCE_PLANS = [
    BeamPlan(
        beams_per_satellite=1,
        max_beams_per_cell=1,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
    BeamPlan(
        beams_per_satellite=2,
        max_beams_per_cell=2,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
    BeamPlan(
        beams_per_satellite=3,
        max_beams_per_cell=3,
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    ),
]

PAIRS = [
    (GreedyDemandFirst, ReferenceGreedyDemandFirst),
    (ProportionalFair, ReferenceProportionalFair),
]


@st.composite
def scenario(draw):
    """A random (visibility, demands, satellite_count) instance."""
    n_cells = draw(st.integers(min_value=1, max_value=14))
    n_sats = draw(st.integers(min_value=1, max_value=9))
    visible = []
    for _ in range(n_cells):
        count = draw(st.integers(min_value=0, max_value=n_sats))
        sats = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_sats - 1),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        visible.append(np.array(sorted(sats), dtype=int))
    demands = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=4.0 * PLAN.beam_capacity_mbps),
                min_size=n_cells,
                max_size=n_cells,
            )
        )
    )
    return visible, demands, n_sats


#: Column positions on byte and 64-bit word edges of a packed row.
EDGE_IDS = (0, 7, 8, 63, 64, 127, 128, 191, 192, 199)


@st.composite
def wide_scenario(draw):
    """A relation whose rows span several bytes and words, and a plan.

    Up to 200 satellites, ids drawn with extra weight on byte and word
    edges; budgets up to 24 beams so every free-beam level is reached;
    empty rows and zero-satellite relations included.
    """
    n_sats = draw(st.integers(min_value=0, max_value=200))
    n_cells = draw(st.integers(min_value=1, max_value=30))
    visible = []
    for _ in range(n_cells):
        if not n_sats:
            visible.append(np.array([], dtype=int))
            continue
        edges = [i for i in EDGE_IDS if i < n_sats]
        ids = st.one_of(
            st.sampled_from(edges),
            st.integers(min_value=0, max_value=n_sats - 1),
        )
        sats = draw(st.lists(ids, max_size=40, unique=True))
        visible.append(np.array(sorted(sats), dtype=int))
    budget = draw(st.integers(min_value=1, max_value=24))
    plan = BeamPlan(
        beams_per_satellite=budget,
        max_beams_per_cell=draw(st.integers(min_value=1, max_value=budget)),
        ut_spectrum_mhz=3000.0,
        spectral_efficiency_bps_hz=4.0,
    )
    demands = np.array(
        draw(
            st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1.5 * plan.cell_capacity_mbps,
                ),
                min_size=n_cells,
                max_size=n_cells,
            )
        )
    )
    return visible, demands, n_sats, plan


def assert_outcomes_identical(actual: AssignmentOutcome, expected: AssignmentOutcome):
    np.testing.assert_array_equal(actual.covered, expected.covered)
    np.testing.assert_array_equal(actual.beams_used, expected.beams_used)
    np.testing.assert_array_equal(
        actual.serving_satellite, expected.serving_satellite
    )
    np.testing.assert_array_equal(actual.allocated_mbps, expected.allocated_mbps)
    np.testing.assert_array_equal(
        actual.capacity_pointed_mbps, expected.capacity_pointed_mbps
    )


@pytest.mark.parametrize("fast_cls,reference_cls", PAIRS)
class TestFastMatchesReference:
    @given(scenario())
    @settings(max_examples=150, deadline=None)
    def test_identical_outcomes(self, fast_cls, reference_cls, instance):
        visible, demands, n_sats = instance
        fast = fast_cls().assign(visible, demands, n_sats, PLAN)
        reference = reference_cls().assign(visible, demands, n_sats, PLAN)
        assert_outcomes_identical(fast, reference)

    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_assign_csr_matches_assign(self, fast_cls, reference_cls, instance):
        visible, demands, n_sats = instance
        csr = CSRVisibility.from_lists(visible, n_satellites=n_sats)
        via_csr = fast_cls().assign_csr(csr, demands, PLAN)
        via_lists = fast_cls().assign(visible, demands, n_sats, PLAN)
        assert_outcomes_identical(via_csr, via_lists)

    @pytest.mark.parametrize("plan_index", range(len(SCARCE_PLANS)))
    @given(scenario())
    @settings(max_examples=80, deadline=None)
    def test_identical_outcomes_under_beam_scarcity(
        self, fast_cls, reference_cls, plan_index, instance
    ):
        visible, demands, n_sats = instance
        plan = SCARCE_PLANS[plan_index]
        fast = fast_cls().assign(visible, demands, n_sats, plan)
        reference = reference_cls().assign(visible, demands, n_sats, plan)
        assert_outcomes_identical(fast, reference)

    @given(wide_scenario())
    @example(
        (
            [np.array([], dtype=int)] * 3,
            np.array([1.0, 0.0, 5e4]),
            0,
            SCARCE_PLANS[0],
        )
    )
    @example(
        (
            [np.array(EDGE_IDS)] * 40 + [np.array([], dtype=int)],
            np.linspace(0.0, 2e5, 41),
            200,
            BeamPlan(beams_per_satellite=24, max_beams_per_cell=8),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_identical_outcomes_on_wide_rows(
        self, fast_cls, reference_cls, instance
    ):
        visible, demands, n_sats, plan = instance
        fast = fast_cls().assign(visible, demands, n_sats, plan)
        reference = reference_cls().assign(visible, demands, n_sats, plan)
        assert_outcomes_identical(fast, reference)

    @given(wide_scenario(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_rows_match_reference_on_sorted_rows(
        self, fast_cls, reference_cls, instance, random
    ):
        # A row is a set: its order does not change the outcome, and ties
        # go to the lowest satellite id (the first in a sorted row).
        visible, demands, n_sats, plan = instance
        shuffled = []
        for sats in visible:
            sats = sats.tolist()
            random.shuffle(sats)
            shuffled.append(np.array(sats, dtype=int))
        fast = fast_cls().assign(shuffled, demands, n_sats, plan)
        reference = reference_cls().assign(visible, demands, n_sats, plan)
        assert_outcomes_identical(fast, reference)

    def test_plan_without_beams(self, fast_cls, reference_cls):
        # BeamPlan refuses zero beams per satellite; the kernels must
        # still grant nothing when handed such a plan.
        plan = SimpleNamespace(
            beams_per_satellite=0,
            max_beams_per_cell=1,
            beam_capacity_mbps=PLAN.beam_capacity_mbps,
        )
        visible = [np.array([0, 1]), np.array([], dtype=int), np.array([1])]
        demands = np.array([5e3, 1e3, 0.0])
        fast = fast_cls().assign(visible, demands, 2, plan)
        reference = reference_cls().assign(visible, demands, 2, plan)
        assert_outcomes_identical(fast, reference)
        assert not fast.covered.any() and not fast.beams_used.any()

    @pytest.mark.parametrize(
        "row",
        [[-1], [0, 3], [1, 1]],
        ids=["negative-id", "id-past-the-end", "repeated-id"],
    )
    def test_rejects_bad_satellite_ids(self, fast_cls, reference_cls, row):
        visible = [np.array([0, 2]), np.array(row)]
        with pytest.raises(SimulationError):
            fast_cls().assign(visible, np.array([1e3, 1e3]), 3, PLAN)

    def test_every_satellite_drains(self, fast_cls, reference_cls):
        # Demand dwarfs supply on a dense relation: with one beam per
        # satellite every satellite dies mid-scan, so every later cell
        # visit must consult the drained-satellite skip machinery.
        plan = SCARCE_PLANS[0]
        n_cells, n_sats = 12, 5
        visible = [
            np.arange(n_sats, dtype=int) for _ in range(n_cells)
        ]
        demands = np.full(n_cells, 4.0 * plan.beam_capacity_mbps)
        demands[::3] *= 0.5  # break symmetry in the scarcest-first order
        fast = fast_cls().assign(visible, demands, n_sats, plan)
        reference = reference_cls().assign(visible, demands, n_sats, plan)
        assert_outcomes_identical(fast, reference)
        assert fast.beams_used.sum() == n_sats  # all supply consumed


class TestOutcomeAccounting:
    """The allocated/pointed split introduced with the fast path."""

    STRATEGIES = [
        GreedyDemandFirst,
        ProportionalFair,
        StickyGreedy,
        ReferenceGreedyDemandFirst,
        ReferenceProportionalFair,
    ]

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_total_allocated_never_exceeds_total_demand(
        self, strategy_cls, instance
    ):
        visible, demands, n_sats = instance
        outcome = strategy_cls().assign(visible, demands, n_sats, PLAN)
        assert outcome.allocated_mbps.sum() <= demands.sum() + 1e-9
        assert np.all(outcome.allocated_mbps <= demands + 1e-12)

    @pytest.mark.parametrize("strategy_cls", STRATEGIES)
    @given(scenario())
    @settings(max_examples=60, deadline=None)
    def test_allocated_is_demand_clamped_pointed_capacity(
        self, strategy_cls, instance
    ):
        visible, demands, n_sats = instance
        outcome = strategy_cls().assign(visible, demands, n_sats, PLAN)
        np.testing.assert_array_equal(
            outcome.allocated_mbps,
            np.minimum(outcome.capacity_pointed_mbps, demands),
        )
        # Pointed capacity is whole beams.
        remainder = outcome.capacity_pointed_mbps % PLAN.beam_capacity_mbps
        np.testing.assert_allclose(remainder, 0.0, atol=1e-6)

    def test_outcome_defaults(self):
        outcome = AssignmentOutcome(
            allocated_mbps=np.array([10.0, 0.0]),
            beams_used=np.zeros(3, dtype=int),
            covered=np.array([True, False]),
        )
        np.testing.assert_array_equal(outcome.serving_satellite, [-1, -1])
        np.testing.assert_array_equal(
            outcome.capacity_pointed_mbps, outcome.allocated_mbps
        )
