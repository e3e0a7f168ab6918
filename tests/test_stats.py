"""Statistical kernels against independent oracles and scipy references."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from exobench.outcomes.stats import (
    EXACT_WILCOXON_MAX_N,
    bh_procedure,
    exact_wilcoxon_p,
    levene,
    paired_t,
    shapiro_wilk,
    wilcoxon_signed_rank,
)


def enumeration_wilcoxon_p(diffs) -> Fraction:
    """Two-sided exact p by enumerating all 2^n sign assignments.

    Works in doubled average ranks so every tail count is an integer
    comparison. Independent of the production implementation, which counts
    via a subset-sum table instead of materializing the assignments.
    """
    d = np.asarray([v for v in diffs if v != 0], dtype=float)
    n = len(d)
    if n == 0:
        raise ValueError("all differences are zero")
    doubled = np.rint(2.0 * scipy.stats.rankdata(np.abs(d))).astype(np.int64)
    assignments = (np.arange(2**n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    w_plus = assignments @ doubled
    observed = int(doubled[d > 0].sum())
    le = int(np.count_nonzero(w_plus <= observed))
    ge = int(np.count_nonzero(w_plus >= observed))
    return min(Fraction(1), Fraction(2 * min(le, ge), 2**n))


def brute_force_bh(ps, q: Fraction) -> set[int]:
    """Indices rejected by the step-up rule applied straight from its definition."""
    m = len(ps)
    order = sorted(range(m), key=lambda i: Fraction(ps[i]))
    k = 0
    for rank in range(1, m + 1):
        if Fraction(ps[order[rank - 1]]) <= Fraction(rank, 1) * q / m:
            k = rank
    return set(order[:k])


class TestShapiroWilk:
    def test_n3_closed_form(self):
        x = [1.0, 2.0, 4.0]
        result = shapiro_wilk(x)
        w = 0.5 * (4.0 - 1.0) ** 2 / sum((v - 7.0 / 3.0) ** 2 for v in x)
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        assert result.W == pytest.approx(w, abs=1e-12)
        assert result.p == pytest.approx(p, abs=1e-12)

    def test_matches_scipy_across_sizes(self):
        rng = np.random.default_rng(42)
        for trial in range(120):
            n = int(rng.integers(3, 51))
            if trial % 3 == 0:
                x = rng.normal(size=n)
            elif trial % 3 == 1:
                x = rng.exponential(size=n)
            else:
                x = np.round(rng.normal(size=n) * 3)
                if np.ptp(x) == 0:
                    x[0] += 1.0
            mine = shapiro_wilk(x.tolist())
            ref = scipy.stats.shapiro(x)
            assert mine.W == pytest.approx(ref.statistic, abs=1e-6)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_sample_size_limits(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(ValueError):
            shapiro_wilk(list(range(51)))

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([2.0, 2.0, 2.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, math.nan, 3.0])

    def test_normal_data_rarely_flagged(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=30)
        assert shapiro_wilk(x.tolist()).p > 0.05


class TestLevene:
    def test_matches_scipy_mean_centered(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a = rng.normal(size=int(rng.integers(3, 15)))
            b = rng.normal(1.0, 2.0, size=int(rng.integers(3, 15)))
            stat, p = levene(a.tolist(), b.tolist())
            ref_stat, ref_p = scipy.stats.levene(a, b, center="mean")
            assert stat == pytest.approx(ref_stat, abs=1e-12)
            assert p == pytest.approx(ref_p, abs=1e-12)

    def test_identical_spreads_give_unit_p(self):
        assert levene([1.0, 1.0, 1.0], [5.0, 5.0]) == (0.0, 1.0)

    def test_degenerate_between_group_spread(self):
        # Constant absolute deviations within groups but different between them.
        with pytest.raises(ValueError, match="degenerate"):
            levene([0.0, 2.0], [0.0, 4.0])


class TestPairedT:
    def test_reference_triple(self):
        result = paired_t(np.subtract([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]))
        t = 2.0 * math.sqrt(3.0)
        assert result.t == pytest.approx(t, abs=1e-12)
        assert result.df == 2
        # Exact df=2 two-sided tail: p = 1 - t / sqrt(t^2 + 2).
        assert result.p == pytest.approx(1.0 - t / math.sqrt(t * t + 2.0), abs=1e-12)
        assert result.t == pytest.approx(3.464, abs=1e-3)
        assert result.p == pytest.approx(0.0742, abs=1e-3)

    def test_matches_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            n = int(rng.integers(3, 20))
            x = rng.normal(1.0, 1.0, size=n)
            y = rng.normal(size=n)
            result = paired_t(np.subtract(x, y))
            ref = scipy.stats.ttest_rel(x, y)
            assert result.t == pytest.approx(ref.statistic, abs=1e-12)
            assert result.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_sign_convention(self):
        assert paired_t(np.subtract([1.0, 2.0, 3.0], [2.0, 4.0, 5.0])).t < 0.0

    def test_degenerate_pairs(self):
        with pytest.raises(ValueError, match="degenerate"):
            paired_t(np.subtract([1.0, 2.0], [0.0, 1.0]))

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            paired_t([[1.0, 2.0], [3.0, 4.0]])


class TestWilcoxon:
    def test_reference_triple(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.exact is True
        assert result.n_used == 3
        assert result.p == 0.25
        assert exact_wilcoxon_p([1.0, 2.0, 3.0]) == Fraction(1, 4)

    def test_zeros_are_dropped(self):
        with_zeros = wilcoxon_signed_rank([0.0, 1.0, 2.0, 3.0, 0.0])
        plain = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert with_zeros.n_used == 3
        assert with_zeros.p == plain.p

    def test_all_zeros_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            wilcoxon_signed_rank([0.0, 0.0, 0.0])

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            wilcoxon_signed_rank([[1.0, 2.0], [3.0, 4.0]])

    def test_exact_matches_enumeration_with_ties_and_zeros(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            n = int(rng.integers(1, 11))
            d = rng.integers(-5, 6, size=n).astype(float)
            if np.all(d == 0):
                continue
            mine = exact_wilcoxon_p(d.tolist())
            assert mine == enumeration_wilcoxon_p(d.tolist())

    def test_exact_matches_scipy_without_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            n = int(rng.integers(5, 13))
            d = rng.normal(size=n) * 5.0
            if np.any(d == 0.0):
                continue
            mine = wilcoxon_signed_rank(d.tolist())
            assert mine.exact is True
            ref = scipy.stats.wilcoxon(d, mode="exact", alternative="two-sided")
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-15)

    def test_approx_matches_scipy_with_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(80):
            n = int(rng.integers(25, 40))
            d = rng.integers(-6, 7, size=n).astype(float)
            if np.count_nonzero(d) <= EXACT_WILCOXON_MAX_N:
                continue
            mine = wilcoxon_signed_rank(d.tolist())
            assert mine.exact is False
            nz = d[d != 0]
            ref = scipy.stats.wilcoxon(nz, correction=True, mode="approx", alternative="two-sided")
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_auto_switches_at_exact_limit(self):
        small = [float(v) for v in range(1, EXACT_WILCOXON_MAX_N + 1)]
        large = [float(v) for v in range(1, EXACT_WILCOXON_MAX_N + 2)]
        assert wilcoxon_signed_rank(small).exact is True
        assert wilcoxon_signed_rank(large).exact is False

    def test_p_is_a_probability(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            d = rng.integers(-3, 4, size=int(rng.integers(1, 15))).astype(float)
            if np.all(d == 0):
                continue
            result = wilcoxon_signed_rank(d.tolist())
            assert 0.0 < result.p <= 1.0


small_fractions = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1), max_denominator=40
)


class TestBenjaminiHochberg:
    def test_thresholds_are_rank_scaled(self):
        tests = [("a", 0.01), ("b", 0.02), ("c", 0.5)]
        decisions = bh_procedure(tests, q=Fraction(1, 20))
        for decision in decisions:
            assert decision.threshold == Fraction(decision.rank, 1) * Fraction(1, 20) / 3

    def test_decisions_keep_input_order(self):
        tests = [("z", 0.9), ("a", 0.001), ("m", 0.5)]
        decisions = bh_procedure(tests, q=0.05)
        assert [d.label for d in decisions] == ["z", "a", "m"]

    def test_tie_ranks_follow_input_order(self):
        tests = [("first", 0.02), ("second", 0.02)]
        decisions = bh_procedure(tests, q=0.05)
        ranks = {d.label: d.rank for d in decisions}
        assert ranks == {"first": 1, "second": 2}

    def test_q_forms_agree(self):
        tests = [("a", 0.004), ("b", 0.03), ("c", 0.2)]
        base = bh_procedure(tests, q=Fraction(1, 20))
        assert bh_procedure(tests, q=0.05) == base
        assert bh_procedure(tests, q="0.05") == base

    def test_fraction_ps_compare_exactly(self):
        # p equal to its own threshold is rejected (<=, not <).
        tests = [("edge", Fraction(1, 60)), ("big", Fraction(9, 10)), ("mid", Fraction(1, 2))]
        decisions = {d.label: d for d in bh_procedure(tests, q=Fraction(1, 20))}
        assert decisions["edge"].threshold == Fraction(1, 60)
        assert decisions["edge"].significant is True

    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError):
            bh_procedure([("bad", 1.5)], q=0.05)
        with pytest.raises(ValueError):
            bh_procedure([("bad", -0.1)], q=0.05)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            bh_procedure([], q=0.05)

    @given(st.lists(small_fractions, min_size=1, max_size=12))
    def test_matches_brute_force(self, ps):
        labels = [f"t{i}" for i in range(len(ps))]
        decisions = bh_procedure(list(zip(labels, ps)), q=Fraction(1, 20))
        expected = brute_force_bh(ps, Fraction(1, 20))
        got = {i for i, d in enumerate(decisions) if d.significant}
        assert got == expected

    @given(st.lists(small_fractions, min_size=1, max_size=12))
    def test_rejections_form_a_rank_prefix(self, ps):
        labels = [f"t{i}" for i in range(len(ps))]
        decisions = bh_procedure(list(zip(labels, ps)), q=Fraction(1, 20))
        ranks = sorted(d.rank for d in decisions if d.significant)
        assert ranks == list(range(1, len(ranks) + 1))

    @given(st.lists(small_fractions, min_size=1, max_size=12))
    def test_bonferroni_is_a_subset(self, ps):
        m = len(ps)
        labels = [f"t{i}" for i in range(m)]
        decisions = bh_procedure(list(zip(labels, ps)), q=Fraction(1, 20))
        bh_rejects = {d.label for d in decisions if d.significant}
        bonferroni = {lab for lab, p in zip(labels, ps) if p <= Fraction(1, 20) / m}
        assert bonferroni <= bh_rejects
