"""Cohort analysis: gain tables, test selection, FDR correction, rendering.

The primary analysis runs 18 tests: three motor-score rows (distal,
proximal, total; unassisted gain only) and fifteen arm-test rows (five
categories times gains A, B, C). Each row is gated per cohort: a paired t
test when Shapiro-Wilk on the gain residuals keeps normality at 0.05,
otherwise the exact Wilcoxon signed-rank test. All primary p-values enter
one Benjamini-Hochberg pass. Secondary tables (by control group, and
box-and-block by baseline functionality) report mean gains only. Display
rounding is fixed (gains two decimals, p-values and thresholds three) and
applies only at render time; comparisons use unrounded values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from exobench.outcomes.model import (
    ARAT_SUBSCALES,
    ARAT_TOTAL,
    BBT,
    FM_DISTAL,
    FM_PROXIMAL,
    FM_TOTAL,
    MCID,
    Comparison,
    GainResult,
    Group,
    Measure,
    SubjectOutcomes,
    compute_gains,
    display_round,
)
from exobench.outcomes.stats import (
    bh_procedure,
    levene,
    paired_t,
    shapiro_wilk,
    wilcoxon_signed_rank,
)

REPORT_SCHEMA = "exobench/report-v1"

NORMALITY_ALPHA = 0.05

#: Primary test grid in table order.
PRIMARY_FM_ROWS = (FM_DISTAL, FM_PROXIMAL, FM_TOTAL)
PRIMARY_ARAT_ROWS = ARAT_SUBSCALES + (ARAT_TOTAL,)


def row_label(measure: Measure, comparison: Comparison) -> str:
    if measure.family == "FM":
        return f"FM-{measure.subscale}"
    return f"{measure.family}-{measure.subscale} ({comparison.name})"


@dataclass(frozen=True)
class TestResult:
    label: str
    n: int
    mean_gain: Fraction | None
    kind: str | None = None     # "PAIRED_T" | "WILCOXON"
    statistic: float | None = None
    shapiro_p: float | None = None
    p: float | None = None
    rank: int | None = None
    threshold: Fraction | None = None
    significant: bool | None = None
    homogeneity_p: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class GroupMeans:
    n: int
    means: Mapping[str, Fraction]  # row key -> exact mean gain


@dataclass(frozen=True)
class CohortReport:
    n_subjects: int
    group_sizes: Mapping[str, int]
    q: Fraction
    m: int
    primary: tuple[TestResult, ...]
    fm_by_group: Mapping[str, GroupMeans]
    arat_by_group: Mapping[str, GroupMeans]
    bbt_by_functionality: Mapping[str, GroupMeans]
    warnings: tuple[str, ...] = ()


def _group_homogeneity(
    cohort: Sequence[SubjectOutcomes],
    gains: GainResult,
) -> float | None:
    by_group: dict[Group, list[int]] = {Group.EMG: [], Group.SH: []}
    group_of = {s.subject_id: s.group for s in cohort}
    for sid, gain in gains.gains.items():
        by_group[group_of[sid]].append(gain)
    try:
        _stat, p = levene(by_group[Group.EMG], by_group[Group.SH])
    except ValueError:
        return None
    return p


def _primary_row(cohort: Sequence[SubjectOutcomes], label: str, gains: GainResult) -> TestResult:
    """One primary test before the BH pass: normality gate, then paired t or Wilcoxon."""
    row = TestResult(
        label=label,
        n=gains.n,
        mean_gain=gains.mean if gains.n else None,
        homogeneity_p=_group_homogeneity(cohort, gains),
    )
    values = gains.values()
    if gains.n < 3:
        return replace(row, error="too few subjects with both phases")
    try:
        residuals = [v - sum(values) / len(values) for v in values]
        sw = shapiro_wilk(residuals)
    except ValueError as exc:
        return replace(row, error=f"normality gate failed: {exc}")
    row = replace(row, shapiro_p=sw.p)
    try:
        if sw.p >= NORMALITY_ALPHA:
            res = paired_t(values)
            return replace(row, kind="PAIRED_T", statistic=res.t, p=res.p)
        res = wilcoxon_signed_rank(values)
        return replace(row, kind="WILCOXON", statistic=res.statistic, p=res.p)
    except ValueError as exc:
        return replace(row, error=str(exc))


def _mean_table(
    partition: Mapping[str, Sequence[SubjectOutcomes]],
    rows: Sequence[tuple[str, Measure, Comparison]],
) -> dict[str, GroupMeans]:
    """Exact mean gains per labelled row for each member list of a partition."""
    table = {}
    for key, members in partition.items():
        means = {}
        for label, measure, comparison in rows:
            gains = compute_gains(members, measure, comparison)
            if gains.n:
                means[label] = gains.mean
        table[key] = GroupMeans(n=len(members), means=means)
    return table


def analyze_cohort(
    cohort: Sequence[SubjectOutcomes],
    q: float | str | Fraction = Fraction(1, 20),
) -> CohortReport:
    """Run the full primary and secondary analysis over a cohort."""
    if not cohort:
        raise ValueError("cohort is empty")
    q = Fraction(str(q)) if isinstance(q, (str, float)) else Fraction(q)

    fm_rows = [(row_label(m, Comparison.A), m, Comparison.A) for m in PRIMARY_FM_ROWS]
    arat_rows = [(row_label(m, c), m, c) for m in PRIMARY_ARAT_ROWS for c in Comparison]

    warnings: list[str] = []
    primary: list[TestResult] = []
    for label, measure, comparison in fm_rows + arat_rows:
        gains = compute_gains(cohort, measure, comparison)
        if gains.excluded:
            warnings.append(f"{label}: excluded {len(gains.excluded)} subject(s): {', '.join(gains.excluded)}")
        primary.append(_primary_row(cohort, label, gains))

    testable = [(r.label, r.p) for r in primary if r.p is not None]
    decisions = {d.label: d for d in bh_procedure(testable, q)} if testable else {}
    primary = [
        replace(r, rank=d.rank, threshold=d.threshold, significant=d.significant)
        if (d := decisions.get(r.label)) else r
        for r in primary
    ]

    by_group: dict[str, list[SubjectOutcomes]] = {g.value: [] for g in Group}
    functional: dict[str, list[SubjectOutcomes]] = {"functional": [], "non_functional": []}
    for s in cohort:
        by_group[s.group.value].append(s)
        flag = s.functional_at_baseline
        if flag is None:
            warnings.append(f"{s.subject_id}: no baseline box-and-block count; omitted from functionality split")
        else:
            functional["functional" if flag else "non_functional"].append(s)

    return CohortReport(
        n_subjects=len(cohort),
        group_sizes={g: len(v) for g, v in by_group.items()},
        q=q,
        m=len(testable),
        primary=tuple(primary),
        fm_by_group=_mean_table(by_group, fm_rows),
        arat_by_group=_mean_table(by_group, arat_rows),
        bbt_by_functionality=_mean_table(functional, [(f"BBT ({c.name})", BBT, c) for c in Comparison]),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Rendering


def _fmt_gain(value: Fraction | None) -> str:
    return "-" if value is None else f"{display_round(value, 2):.2f}"


def _fmt_p(value: float | Fraction | None) -> str:
    return "-" if value is None else f"{display_round(value, 3):.3f}"


def render_text(report: CohortReport) -> str:
    lines: list[str] = []
    groups = ", ".join(f"{g} n={n}" for g, n in report.group_sizes.items())
    lines.append(f"Cohort analysis: {report.n_subjects} subjects ({groups})")
    lines.append(f"FDR control: Benjamini-Hochberg, q = {float(report.q):g}, m = {report.m}")
    lines.append("")
    header = f"{'test':<18} {'n':>2} {'mean':>6} {'method':<9} {'p':>6} {'rank':>4} {'thresh':>6}  sig"
    lines.append("Primary outcome tests")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.primary:
        if r.error:
            lines.append(f"{r.label:<18} {r.n:>2} {_fmt_gain(r.mean_gain):>6} {'error':<9} {r.error}")
            continue
        kind = "paired-t" if r.kind == "PAIRED_T" else "wilcoxon"
        sig = "yes" if r.significant else "no"
        lines.append(
            f"{r.label:<18} {r.n:>2} {_fmt_gain(r.mean_gain):>6} {kind:<9} "
            f"{_fmt_p(r.p):>6} {r.rank:>4} {_fmt_p(r.threshold):>6}  {sig}"
        )
    lines.append("")

    def emit_group_table(title: str, table: Mapping[str, GroupMeans]) -> None:
        lines.append(title)
        for gname, gm in table.items():
            lines.append(f"  {gname} (n={gm.n})")
            for key, mean in gm.means.items():
                lines.append(f"    {key:<18} {_fmt_gain(mean):>6}")
        lines.append("")

    emit_group_table("Motor-score gains by control group (mean only)", report.fm_by_group)
    emit_group_table("Arm-test gains by control group (mean only)", report.arat_by_group)
    emit_group_table("Box-and-block gains by baseline functionality (mean only)", report.bbt_by_functionality)

    fm_lo, fm_hi = MCID["FM"]
    lines.append(f"Reference MCID: motor score {fm_lo}-{fm_hi} points, arm test {MCID['ARAT'][0]} points.")
    if report.warnings:
        lines.append("")
        lines.append("Warnings:")
        for w in report.warnings:
            lines.append(f"  {w}")
    return "\n".join(lines) + "\n"


def render_json(report: CohortReport) -> str:
    def result_doc(r: TestResult) -> dict:
        return {
            "label": r.label,
            "n": r.n,
            "mean_gain": None if r.mean_gain is None else float(r.mean_gain),
            "mean_gain_display": None if r.mean_gain is None else display_round(r.mean_gain, 2),
            "kind": r.kind,
            "statistic": r.statistic,
            "shapiro_p": r.shapiro_p,
            "p": r.p,
            "p_display": None if r.p is None else display_round(r.p, 3),
            "rank": r.rank,
            "threshold": None if r.threshold is None else float(r.threshold),
            "threshold_display": None if r.threshold is None else display_round(r.threshold, 3),
            "significant": r.significant,
            "homogeneity_p": r.homogeneity_p,
            "error": r.error,
        }

    def group_doc(table: Mapping[str, GroupMeans]) -> dict:
        return {
            g: {"n": gm.n, "mean_gains": {k: float(v) for k, v in gm.means.items()}}
            for g, gm in table.items()
        }

    doc = {
        "schema": REPORT_SCHEMA,
        "n_subjects": report.n_subjects,
        "group_sizes": dict(report.group_sizes),
        "q": float(report.q),
        "m": report.m,
        "primary": [result_doc(r) for r in report.primary],
        "fm_by_group": group_doc(report.fm_by_group),
        "arat_by_group": group_doc(report.arat_by_group),
        "bbt_by_functionality": group_doc(report.bbt_by_functionality),
        "mcid": {"FM": list(MCID["FM"]), "ARAT": list(MCID["ARAT"])},
        "warnings": list(report.warnings),
    }
    return json.dumps(doc, indent=2) + "\n"
