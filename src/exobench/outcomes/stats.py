"""Statistical primitives for the outcome analysis.

All tests are two-sided by default. The Wilcoxon signed-rank test is exact
for small samples: zero differences are dropped, tied absolute differences
get average ranks, and the p-value comes from the full sign-flip null
distribution (counted exactly, equivalent to enumerating all 2^n sign
patterns). Above the exact cutoff a normal approximation with tie
correction and continuity correction takes over. Benjamini-Hochberg keeps
rational arithmetic end to end so threshold comparisons never hinge on
float rounding.

Distribution functions (normal, Student t, F) come from scipy.special;
the test statistics and decision logic are implemented here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import fdtrc, ndtr, ndtri, stdtr

from exobench.config import SETTINGS
from exobench.outcomes.model import exact

EXACT_WILCOXON_MAX_N = 20


@dataclass(frozen=True)
class ShapiroResult:
    W: float
    p: float


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float  # min of positive/negative rank sums
    p: float
    n_used: int       # pairs remaining after dropping zeros
    exact: bool


@dataclass(frozen=True)
class BhDecision:
    label: str
    p: float
    rank: int
    threshold: Fraction
    significant: bool


# ---------------------------------------------------------------------------
# Shapiro-Wilk (small-sample approximation of the W test, n in [3, 50])

_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)


def _poly(coeffs: Sequence[float], x: float) -> float:
    return sum(c * x**i for i, c in enumerate(coeffs))


def _sw_weights(n: int) -> np.ndarray:
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    mm = float(m @ m)
    c = m / math.sqrt(mm)
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
        return a
    rsn = 1.0 / math.sqrt(n)
    a_n = c[-1] + _poly(_SW_C1, rsn)
    a = np.empty(n)
    if n <= 5:
        phi = (mm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
        a[1:-1] = m[1:-1] / math.sqrt(phi)
        a[-1] = a_n
        a[0] = -a_n
    else:
        a_n1 = c[-2] + _poly(_SW_C2, rsn)
        phi = (mm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2)
        a[2:-2] = m[2:-2] / math.sqrt(phi)
        a[-1], a[-2] = a_n, a_n1
        a[0], a[1] = -a_n, -a_n1
    return a


def shapiro_wilk(x: Sequence[float]) -> ShapiroResult:
    """W statistic and upper-tail p for normality, 3 <= n <= 50.

    Uses the normal-scores weight approximation and the standard
    small-sample transformations of W to a normal deviate (an exact arcsine
    form at n = 3, a -ln(gamma - ln(1-W)) transform through n = 11, and a
    ln(1-W) transform beyond).
    """
    data = np.asarray(x, dtype=float)
    n = data.size
    if n < 3:
        raise ValueError("Shapiro-Wilk requires at least 3 observations")
    if n > 50:
        raise ValueError("Shapiro-Wilk supported for n <= 50")
    if not np.all(np.isfinite(data)):
        raise ValueError("observations must be finite")
    y = np.sort(data)
    ss = float(((y - y.mean()) ** 2).sum())
    if ss <= 0.0:
        raise ValueError("zero variance: all observations identical")
    a = _sw_weights(n)
    W = float((a @ y) ** 2 / ss)
    W = min(W, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(W)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return ShapiroResult(W=W, p=p)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        w = -math.log(gamma - math.log1p(-W))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        u = math.log(n)
        w = math.log1p(-W)
        mu = -1.5861 - 0.31082 * u - 0.083751 * u**2 + 0.0038915 * u**3
        sigma = math.exp(-0.4803 - 0.082676 * u + 0.0030302 * u**2)
    z = (w - mu) / sigma
    p = float(ndtr(-z))
    return ShapiroResult(W=W, p=min(max(p, 0.0), 1.0))


# ---------------------------------------------------------------------------
# Levene (classic mean-centered form)


def levene(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Homogeneity-of-variance F statistic and p for two groups."""
    arrays = [np.asarray(a, dtype=float), np.asarray(b, dtype=float)]
    if any(g.size < 2 for g in arrays):
        raise ValueError("each group needs at least two observations")
    n_total = sum(g.size for g in arrays)
    z = [np.abs(g - g.mean()) for g in arrays]
    z_means = [zi.mean() for zi in z]
    grand = sum(zi.sum() for zi in z) / n_total
    between = sum(zi.size * (zm - grand) ** 2 for zi, zm in zip(z, z_means))
    within = sum(((zi - zm) ** 2).sum() for zi, zm in zip(z, z_means))
    if within == 0.0:
        if between == 0.0:
            return 0.0, 1.0
        raise ValueError("degenerate spread: zero within-group deviation")
    stat = (n_total - 2) * between / within
    p = float(fdtrc(1, n_total - 2, stat))
    return float(stat), p


# ---------------------------------------------------------------------------
# Paired t


def paired_t(d: Sequence[float]) -> TTestResult:
    """Two-sided paired t test on the paired differences ``d``."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError("paired differences must be 1-d")
    n = d.size
    if n < 2:
        raise ValueError("paired t requires at least two pairs")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("degenerate pairs: all differences identical")
    t = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    p = 2.0 * float(stdtr(df, -abs(t)))
    return TTestResult(t=t, df=df, p=min(p, 1.0))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank


def _average_ranks(values: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0  # positions are 1-based
        for idx in order[i : j + 1]:
            ranks[idx] = avg
        i = j + 1
    return ranks


def _exact_signed_rank_p(ranks: Sequence[float], d: Sequence[float]) -> Fraction:
    """Two-sided exact p from the sign-flip null distribution of the average
    ``ranks`` of the nonzero differences ``|d|``.

    The ranks are doubled to integers. Counts, over all 2^n equally likely
    sign assignments, how many give a positive-rank sum at or beyond the
    observed one on each side; the two-sided p doubles the smaller tail
    (capped at 1). Counting by dynamic programming over achievable rank sums
    is exact and agrees with direct enumeration of the 2^n patterns.
    """
    doubled_ranks = [int(round(2 * r)) for r in ranks]
    w_plus_doubled = sum(r2 for r2, di in zip(doubled_ranks, d) if di > 0)
    total_doubled = sum(doubled_ranks)
    counts = [0] * (total_doubled + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total_doubled, r - 1, -1):
            counts[s] += counts[s - r]
    n = len(doubled_ranks)
    le = sum(counts[: w_plus_doubled + 1])
    ge = sum(counts[w_plus_doubled:])
    p = Fraction(2 * min(le, ge), 2**n)
    return min(p, Fraction(1))


def wilcoxon_signed_rank(d: Sequence[float]) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on the paired differences ``d``.

    Zero differences are dropped; if all are zero the test is undefined.
    The exact distribution is used up to n = ``EXACT_WILCOXON_MAX_N`` and
    the tie-corrected normal approximation (with continuity correction)
    beyond.
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError("paired differences must be 1-d")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValueError("degenerate differences: all pairs are ties")

    ranks = _average_ranks(list(np.abs(d)))
    w_plus = sum(r for r, di in zip(ranks, d) if di > 0)
    w_minus = sum(ranks) - w_plus
    statistic = min(w_plus, w_minus)

    if n <= EXACT_WILCOXON_MAX_N:
        p = float(_exact_signed_rank_p(ranks, d))
        return WilcoxonResult(statistic=statistic, p=p, n_used=n, exact=True)

    mu = n * (n + 1) / 4.0
    tie_term = 0.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    for t in tie_counts:
        tie_term += t**3 - t
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0.0:
        raise ValueError("degenerate differences: zero variance under the null")
    dev = w_plus - mu
    cc = 0.5 * (1 if dev > 0 else -1 if dev < 0 else 0)
    z = (dev - cc) / math.sqrt(var)
    p = 2.0 * float(ndtr(-abs(z)))
    return WilcoxonResult(statistic=statistic, p=min(p, 1.0), n_used=n, exact=False)


# ---------------------------------------------------------------------------
# Benjamini-Hochberg step-up


def fdr_level(q: float | str | Fraction) -> Fraction:
    """``q`` as the exact level the ``q`` setting allows, else its error; a float nan or inf as it is."""
    return SETTINGS["q"].check(q if isinstance(q, float) and not math.isfinite(q) else exact(q))


def bh_procedure(
    tests: Sequence[tuple[str, float | Fraction]],
    q: float | str | Fraction = Fraction(1, 20),
) -> list[BhDecision]:
    """Step-up false-discovery-rate control at level q over m tests.

    P-values are sorted ascending (stable, so ties keep input order); rank i
    gets threshold i*q/m; the rejected set is the ranks up to the largest i
    whose p-value sits at or below its threshold. Decisions are returned in
    the original input order. Comparisons are exact: thresholds are rational
    and float p-values convert exactly.
    """
    if not tests:
        raise ValueError("bh_procedure needs at least one test")
    q = fdr_level(q)
    m = len(tests)
    for label, p in tests:
        if not 0 <= Fraction(p) <= 1:
            raise ValueError(f"p-value out of range for {label!r}")

    order = sorted(range(m), key=lambda i: Fraction(tests[i][1]))
    k = 0
    for pos, idx in enumerate(order, start=1):
        if Fraction(tests[idx][1]) <= Fraction(pos, 1) * q / m:
            k = pos
    decisions: dict[int, BhDecision] = {}
    for pos, idx in enumerate(order, start=1):
        label, p = tests[idx]
        decisions[idx] = BhDecision(
            label=label,
            p=float(p),
            rank=pos,
            threshold=Fraction(pos, 1) * q / m,
            significant=pos <= k,
        )
    return [decisions[i] for i in range(m)]
