"""Cohort analysis: gain tables, test selection, FDR correction, rendering.

The primary analysis runs 18 tests, one per primary measure and comparison
whose two phases the measure's family is scored in (``model.PHASES``):
three motor-score rows (distal, proximal, total; unassisted gain only) and
fifteen arm-test rows (five categories times gains A, B, C). Each row is
gated per cohort: a paired t test when Shapiro-Wilk on the gain residuals
keeps normality at 0.05, otherwise the exact Wilcoxon signed-rank test. All
primary p-values enter one Benjamini-Hochberg pass. Secondary tables (by
control group, and box-and-block by baseline functionality) report mean
gains only. Display rounding is fixed by ``DISPLAY_DIGITS`` (gains two
decimals, p-values and thresholds three) and applies only at render time;
comparisons use unrounded values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Mapping, Sequence

from exobench.outcomes.model import (
    BBT,
    COMPONENTS,
    FAMILY_NAMES,
    MCID,
    PHASES,
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
    fdr_level,
    levene,
    paired_t,
    shapiro_wilk,
    wilcoxon_signed_rank,
)

REPORT_SCHEMA = "exobench/report-v1"

NORMALITY_ALPHA = 0.05

#: Primary measures in table order: each total's parts, then the total.
PRIMARY_MEASURES = tuple(m for total, parts in COMPONENTS.items() for m in (*parts, total))

#: Decimals each rounded field of a primary row is shown at.
DISPLAY_DIGITS = {"mean_gain": 2, "p": 3, "threshold": 3}


def comparisons(measure: Measure) -> list[Comparison]:
    """The comparisons whose two phases ``measure``'s family is scored in."""
    return [c for c in Comparison if set(c.value) <= set(PHASES[measure.family])]


def row_label(measure: Measure, comparison: Comparison) -> str:
    """The measure, and the comparison's name when the measure has more than one."""
    return str(measure) if len(comparisons(measure)) == 1 else f"{measure} ({comparison.name})"


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
    q = fdr_level(q)
    rows = [(row_label(m, c), m, c) for m in PRIMARY_MEASURES for c in comparisons(m)]

    warnings: list[str] = []
    primary: list[TestResult] = []
    for label, measure, comparison in rows:
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
        fm_by_group=_mean_table(by_group, [r for r in rows if r[1].family == "FM"]),
        arat_by_group=_mean_table(by_group, [r for r in rows if r[1].family == "ARAT"]),
        bbt_by_functionality=_mean_table(
            functional, [(f"BBT ({c.name})", BBT, c) for c in comparisons(BBT)]),
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Rendering


def _fmt(value: float | Fraction | None, field: str = "mean_gain") -> str:
    """``value`` shown at the precision of ``field``, a mean gain by default."""
    digits = DISPLAY_DIGITS[field]
    return "-" if value is None else f"{display_round(value, digits):.{digits}f}"


def render_text(report: CohortReport) -> str:
    lines: list[str] = []
    groups = ", ".join(f"{g} n={n}" for g, n in report.group_sizes.items())
    lines.append(f"Cohort analysis: {report.n_subjects} subjects ({groups})")
    lines.append(f"FDR control: Benjamini-Hochberg, q = {float(report.q):g}, m = {report.m}")
    lines.append("")
    header = f"{'test':<18} {'n':>2} {'mean':>6} {'levene':>6} {'method':<9} {'p':>6} {'rank':>4} {'thresh':>6}  sig"
    lines.append("Primary outcome tests")
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.primary:
        # Each row's gains, then Levene's p for equal gain variance in the two groups.
        row = f"{r.label:<18} {r.n:>2} {_fmt(r.mean_gain):>6} {_fmt(r.homogeneity_p, 'p'):>6}"
        if r.error:
            lines.append(f"{row} {'error':<9} {r.error}")
            continue
        kind = "paired-t" if r.kind == "PAIRED_T" else "wilcoxon"
        sig = "yes" if r.significant else "no"
        lines.append(f"{row} {kind:<9} {_fmt(r.p, 'p'):>6} {r.rank:>4} {_fmt(r.threshold, 'threshold'):>6}  {sig}")
    lines.append("")

    def emit_group_table(title: str, table: Mapping[str, GroupMeans]) -> None:
        lines.append(title)
        for gname, gm in table.items():
            lines.append(f"  {gname} (n={gm.n})")
            for key, mean in gm.means.items():
                lines.append(f"    {key:<18} {_fmt(mean):>6}")
        lines.append("")

    emit_group_table("Motor-score gains by control group (mean only)", report.fm_by_group)
    emit_group_table("Arm-test gains by control group (mean only)", report.arat_by_group)
    emit_group_table("Box-and-block gains by baseline functionality (mean only)", report.bbt_by_functionality)

    mcid = ", ".join(f"{FAMILY_NAMES[f]} {'-'.join(map(str, v))} points" for f, v in MCID.items())
    lines.append(f"Reference MCID: {mcid}.")
    if report.warnings:
        lines.append("")
        lines.append("Warnings:")
        for w in report.warnings:
            lines.append(f"  {w}")
    return "\n".join(lines) + "\n"


def render_json(report: CohortReport) -> str:
    def result_doc(r: TestResult) -> dict:
        """Each field in declaration order, Fractions as floats, and after each
        field of ``DISPLAY_DIGITS`` its rounded ``_display`` value."""
        doc = {}
        for name in (f.name for f in fields(TestResult)):
            value = getattr(r, name)
            doc[name] = float(value) if isinstance(value, Fraction) else value
            if name in DISPLAY_DIGITS:
                doc[f"{name}_display"] = None if value is None else display_round(value, DISPLAY_DIGITS[name])
        return doc

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
        "mcid": {family: list(values) for family, values in MCID.items()},
        "warnings": list(report.warnings),
    }
    return json.dumps(doc, indent=2) + "\n"
