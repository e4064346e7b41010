"""Unit and property tests for exact feasible-region covers.

The key semantic invariant (what Theorem 4.1's tightness rests on): after
carving observed vectors ``y1..ym`` out of the trivial cover, a point ``x``
remains covered whenever ``x`` does not weakly dominate any ``y_j`` — i.e.
the cover never loses a feasible point.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.cover import CoverRegion, covers, update_cover
from repro.geometry.dominance import dominates, ones
from repro.geometry.skyline import is_skyline

unit = st.floats(0.0, 1.0, allow_nan=False)
vec2 = st.tuples(unit, unit)
vec3 = st.tuples(unit, unit, unit)


class TestUpdateCover:
    def test_no_observation_keeps_cover(self):
        assert update_cover([(1.0, 1.0)], []) == [(1.0, 1.0)]

    def test_single_observation_2d(self):
        result = update_cover([(1.0, 1.0)], [(0.5, 0.5)])
        assert set(result) == {(0.5, 1.0), (1.0, 0.5)}

    def test_observation_with_unit_coordinate(self):
        # y = (0.5, 1.0): projections are (0.5, 1.0) and (1.0, 1.0); the
        # latter is the removed point substituted at index 1 with y[1]=1.
        result = update_cover([(1.0, 1.0)], [(0.5, 1.0)])
        assert (0.5, 1.0) in result

    def test_zero_coordinate_projection_dropped(self):
        # y = (0.0, 0.5): the projection at axis 0 has coordinate 0 and is
        # clipped away; only (1.0, 0.5)-style points survive.
        result = update_cover([(1.0, 1.0)], [(0.0, 0.5)])
        assert result == [(1.0, 0.5)]

    def test_all_zero_observation_empties_cover(self):
        assert update_cover([(1.0, 1.0)], [(0.0, 0.0)]) == []

    def test_untouched_points_survive(self):
        cover = [(0.4, 1.0), (1.0, 0.4)]
        result = update_cover(cover, [(0.9, 0.2)])
        assert (0.4, 1.0) in result

    def test_1d_cover_tracks_minimum(self):
        result = update_cover([(1.0,)], [(0.7,)])
        assert result == [(0.7,)]
        result = update_cover(result, [(0.3,)])
        assert result == [(0.3,)]

    def test_dimension_mismatch_raises(self):
        import pytest

        with pytest.raises(ValueError):
            update_cover([(1.0, 1.0)], [(0.5,)])

    def test_skyline_result_mode_returns_antichain(self):
        observed = [(0.5, 0.6, 1.0), (0.4, 0.8, 1.0), (0.7, 0.3, 0.9)]
        result = update_cover([ones(3)], observed, skyline_result=True)
        assert is_skyline(result)

    @given(st.lists(vec2, min_size=1, max_size=8), vec2)
    @settings(max_examples=150, deadline=None)
    def test_cover_correctness_2d(self, observed, probe):
        """Any point not dominating an observed vector stays covered."""
        cover = update_cover([ones(2)], observed)
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert covers(cover, probe)

    @given(st.lists(vec3, min_size=1, max_size=6), vec3)
    @settings(max_examples=100, deadline=None)
    def test_cover_correctness_3d(self, observed, probe):
        cover = update_cover([ones(3)], observed)
        feasible = not any(dominates(probe, y) for y in observed)
        if feasible:
            assert covers(cover, probe)

    @given(st.lists(vec2, min_size=1, max_size=8), vec2)
    @settings(max_examples=150, deadline=None)
    def test_skyline_mode_covers_same_region(self, observed, probe):
        """Skylining the cover never changes the covered region."""
        plain = update_cover([ones(2)], observed)
        skylined = update_cover([ones(2)], observed, skyline_result=True)
        assert covers(plain, probe) == covers(skylined, probe)

    @given(st.lists(vec3, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_skyline_mode_is_antichain_3d(self, observed):
        result = update_cover([ones(3)], observed, skyline_result=True)
        assert is_skyline(result)

    @given(st.lists(vec2, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_observed_points_interior_removed(self, observed):
        """Points strongly dominating an observation must be uncovered...

        ...whenever they are genuinely infeasible: a point that strictly
        dominates some observed y (in every coordinate) can only stay
        covered if it fails to dominate y — impossible — so it must fall
        outside the covered region *unless* another part of the region
        legitimately reaches it.  We check the unambiguous case: a point
        above every observation.
        """
        cover = update_cover([ones(2)], observed)
        tip = (1.0, 1.0)
        if any(all(c < 1.0 for c in y) for y in observed):
            # (1,1) dominates that observation -> infeasible -> uncovered
            # only when every cover point lost the corner; covered(c)=(1,1)
            # requires a cover point equal to (1,1).
            assert (1.0, 1.0) not in cover or covers(cover, tip)


class TestCoverRegion:
    def test_initial_cover_is_ideal_point(self):
        region = CoverRegion(2)
        assert region.points == [(1.0, 1.0)]
        assert region.covers((1.0, 1.0))

    def test_zero_dimension(self):
        region = CoverRegion(0)
        assert region.points == [()]
        assert region.covers(())

    def test_negative_dimension_raises(self):
        import pytest

        with pytest.raises(ValueError):
            CoverRegion(-1)

    def test_update_dimension_mismatch_names_both_dimensions(self):
        import pytest

        region = CoverRegion(2)
        with pytest.raises(ValueError) as raised:
            region.update([(0.5, 0.5, 0.5)])
        assert str(raised.value) == (
            "dimension mismatch: cover is 2-d, point is 3-d"
        )
        assert region.points == [(1.0, 1.0)]

    def test_update_shrinks_region(self):
        region = CoverRegion(2)
        region.update([(0.5, 0.5)])
        assert not region.covers((0.6, 0.6))
        assert region.covers((0.4, 0.9))

    def test_len_and_iter(self):
        region = CoverRegion(2)
        region.update([(0.5, 0.5)])
        assert len(region) == 2
        assert set(region) == {(0.5, 1.0), (1.0, 0.5)}

    def test_sequential_updates_monotone_shrink(self):
        region = CoverRegion(2, skyline_mode=True)
        probes = [(i / 10, j / 10) for i in range(11) for j in range(11)]
        covered_before = {p for p in probes if region.covers(p)}
        region.update([(0.8, 0.8)])
        covered_mid = {p for p in probes if region.covers(p)}
        region.update([(0.5, 0.9), (0.9, 0.5)])
        covered_after = {p for p in probes if region.covers(p)}
        assert covered_after <= covered_mid <= covered_before
