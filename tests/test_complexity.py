"""Complexity scores, strata, and Cochran sampling."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from jcascan.complexity import (count_d, draw_sample, ranged_key,
                                sample_size, score, stratify, Stratum)
from jcascan.ingest import FLEXIBLE, RESTRICTIVE

from conftest import (CHARAT_SRC, EMPTY_ARGS_SRC, TERNARY_SRC,
                      TRUST_EMPTY_SRC, site_of)


class TestScore:
    def test_zero_is_minus_one(self):
        assert score(0) == -1.0

    def test_one_is_zero(self):
        assert score(1) == 0.0

    @pytest.mark.parametrize("d,expected", [
        (2, 0.2923), (3, 0.4439), (4, 0.5385),
    ])
    def test_published_values(self, d, expected):
        assert abs(score(d) - expected) < 5e-5

    def test_definition(self):
        for d in (2, 7, 100, 12345):
            assert score(d) == pytest.approx(math.tanh(math.log10(d)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            score(-1)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, d):
        s = score(d)
        assert -1.0 <= s < 1.0
        if d >= 1:
            assert s <= score(d + 1)
            assert s >= 0.0 or d == 0


class TestRangedKey:
    def test_empty_bucket(self):
        assert ranged_key(-1.0) == -1

    @pytest.mark.parametrize("s,key", [
        (0.0, 0), (0.05, 0), (0.1, 1), (0.4439, 4), (0.5385, 5),
        (0.99, 9), (0.9999999, 9),
    ])
    def test_buckets(self, s, key):
        assert ranged_key(s) == key


def _row(site) -> tuple[str, str, int, float]:
    d = count_d(site)
    return (site.id, site.api.category, d, score(d))


class TestSiteScores:
    def test_empty_body_scores_minus_one(self):
        site = site_of(TRUST_EMPTY_SRC)
        d = count_d(site)
        assert d == 0 and score(d) == -1.0 and ranged_key(score(d)) == -1

    def test_empty_args_scores_minus_one(self):
        d = count_d(site_of(EMPTY_ARGS_SRC))
        assert d == 0 and score(d) == -1.0

    def test_method_call_site(self):
        d = count_d(site_of(TERNARY_SRC))
        assert d == 3
        assert abs(score(d) - 0.4439) < 5e-5

    def test_charat_site_is_complex(self):
        d = count_d(site_of(CHARAT_SRC))
        assert d > 4 and score(d) > 0.5385 - 5e-5


class TestSampleSize:
    def test_published_population(self):
        assert sample_size(79671, 0.95, 0.05) == 383

    @pytest.mark.parametrize("N", [0, 1, 16, 100, 384])
    def test_small_strata_taken_whole(self, N):
        assert sample_size(N, 0.95, 0.05) == N

    def test_just_above_threshold(self):
        n = sample_size(385, 0.95, 0.05)
        assert 0 < n < 385

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_size(10, confidence=1.5)
        with pytest.raises(ValueError):
            sample_size(10, margin=0)
        with pytest.raises(ValueError):
            sample_size(-1)

    @given(N=st.integers(min_value=0, max_value=10**7),
           conf=st.floats(min_value=0.5, max_value=0.999),
           margin=st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, N, conf, margin):
        n = sample_size(N, conf, margin)
        assert 0 <= n <= N
        if N:
            assert n >= 1


def _strata(populations: dict[int, int]) -> list[Stratum]:
    out = []
    for key, pop in sorted(populations.items()):
        out.append(Stratum(key=key, population=pop,
                           member_ids=[f"s{key}:{i}" for i in range(pop)]))
    return out


class TestDrawSample:
    def test_whole_stratum_when_small(self):
        plan = draw_sample(_strata({0: 16}), seed=1)
        assert plan.selected_ids == sorted(f"s0:{i}" for i in range(16))

    def test_sizes_follow_formula(self):
        plan = draw_sample(_strata({0: 1000, 1: 10}), seed=1)
        sizes = {s.key: s.sample_size for s in plan.strata}
        assert sizes == {0: sample_size(1000), 1: 10}

    def test_seed_reproducible(self):
        strata = _strata({0: 1000})
        a = draw_sample(strata, seed=42)
        b = draw_sample(strata, seed=42)
        c = draw_sample(strata, seed=43)
        assert a.selected_ids == b.selected_ids
        assert a.selected_ids != c.selected_ids
        assert len(a.selected_ids) == len(c.selected_ids)

    @given(pop=st.integers(min_value=1, max_value=500),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_sample_within_population(self, pop, seed):
        plan = draw_sample(_strata({3: pop}), seed=seed)
        members = set(plan.strata[0].member_ids)
        assert set(plan.selected_ids) <= members
        assert len(set(plan.selected_ids)) == len(plan.selected_ids)


class TestStratify:
    def test_exact_mode_keys_are_d(self):
        rows = [_row(site_of(TERNARY_SRC, "a.java")),
                _row(site_of(CHARAT_SRC, "b.java"))]
        strata = stratify(rows)
        assert [st_.key for st_ in strata[RESTRICTIVE]] == sorted(
            d for _, _, d, _ in rows)
        assert strata[FLEXIBLE] == []

    def test_ranged_mode_buckets(self):
        rows = [_row(site_of(TRUST_EMPTY_SRC, "a.java")),
                ("b.java:0", FLEXIBLE, 3, score(3))]
        strata = stratify(rows)
        assert [(st_.key, st_.population) for st_ in strata[FLEXIBLE]] == [
            (-1, 1), (4, 1)]
        assert strata[RESTRICTIVE] == []

    def test_members_sorted_and_other_categories_ignored(self):
        rows = [("z", RESTRICTIVE, 1, 0.0), ("a", RESTRICTIVE, 1, 0.0),
                ("m", FLEXIBLE, 1, 0.0), ("x", "custom", 1, 0.0)]
        strata = stratify(rows)
        assert set(strata) == {RESTRICTIVE, FLEXIBLE}
        assert strata[RESTRICTIVE] == [Stratum(key=1, population=2,
                                               member_ids=["a", "z"])]
        assert strata[FLEXIBLE] == [Stratum(key=0, population=1,
                                            member_ids=["m"])]
