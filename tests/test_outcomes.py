"""Outcome model, CSV ingestion, golden cohort, and the full analysis report."""

import dataclasses
import hashlib
import io
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exobench.outcomes import golden, model, report
from exobench.outcomes.model import (
    ARAT_GRASP,
    ARAT_TOTAL,
    BBT,
    CohortFormatError,
    Comparison,
    FM_DISTAL,
    FM_PROXIMAL,
    FM_TOTAL,
    Group,
    Phase,
    SubjectOutcomes,
    compute_gains,
    display_round,
    load_cohort_csv,
    write_cohort_csv,
)


class TestDisplayRound:
    def test_reference_cohort_means(self):
        assert display_round(Fraction(25, 11), 2) == 2.27
        assert display_round(Fraction(4, 11), 2) == 0.36
        assert display_round(Fraction(29, 11), 2) == 2.64

    def test_half_rounds_away_from_zero(self):
        assert display_round(Fraction(1, 8), 2) == 0.13
        assert display_round(Fraction(-1, 8), 2) == -0.13
        assert display_round(Fraction(5, 2), 0) == 3.0
        assert display_round(Fraction(-5, 2), 0) == -3.0

    def test_float_input_uses_decimal_repr(self):
        # 2.675 is binary 2.67499...; decimal semantics still round up.
        assert display_round(2.675, 2) == 2.68
        assert display_round(-2.675, 2) == -2.68
        assert display_round(0.045, 2) == 0.05

    def test_threshold_column_rounding(self):
        assert display_round(Fraction(1, 360), 3) == 0.003
        assert display_round(Fraction(7, 360), 3) == 0.019
        assert display_round(Fraction(1, 20), 3) == 0.05

    @given(st.fractions(min_value=-100, max_value=100, max_denominator=999), st.integers(0, 4))
    def test_error_is_at_most_half_ulp(self, value, digits):
        rounded = display_round(value, digits)
        assert abs(Fraction(str(rounded)) - value) <= Fraction(1, 2 * 10**digits)


class TestSubjectOutcomes:
    def _scores(self):
        return {
            (FM_DISTAL, Phase.BASELINE): 20,
            (FM_DISTAL, Phase.POST_UNASSISTED): 23,
            (ARAT_GRASP, Phase.BASELINE): 10,
            (BBT, Phase.BASELINE): 4,
        }

    def test_basic_construction(self):
        subject = SubjectOutcomes("P01", Group.EMG, self._scores())
        assert subject.score(FM_DISTAL, Phase.BASELINE) == 20
        assert subject.functional_at_baseline is True

    def test_motor_score_has_no_assisted_phase(self):
        scores = {(FM_DISTAL, Phase.POST_ASSISTED): 20}
        with pytest.raises(ValueError, match="no assisted phase"):
            SubjectOutcomes("P01", Group.EMG, scores)

    def test_score_ranges_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            SubjectOutcomes("P01", Group.EMG, {(ARAT_GRASP, Phase.BASELINE): 99})

    def test_integer_scores_only(self):
        with pytest.raises(ValueError):
            SubjectOutcomes("P01", Group.EMG, {(ARAT_GRASP, Phase.BASELINE): 3.5})

    def test_arm_test_subscale_maxima_reach_the_ceiling(self):
        scores = {
            (model.ARAT_GRASP, Phase.BASELINE): 18,
            (model.ARAT_GRIP, Phase.BASELINE): 12,
            (model.ARAT_PINCH, Phase.BASELINE): 18,
            (model.ARAT_GROSS, Phase.BASELINE): 9,
        }
        subject = SubjectOutcomes("P01", Group.EMG, scores)
        assert subject.score(ARAT_TOTAL, Phase.BASELINE) == 57

    def test_arm_test_caps_sum_to_the_published_total(self):
        # No per-subject total check exists: the subscale caps bound the total.
        assert sum(model.SCORE_RANGES[m][1] for m in model.ARAT_SUBSCALES) == 57

    @pytest.mark.parametrize("measure, phase, value, reason", [
        (model.Measure("FM", "nope"), Phase.BASELINE, 20, "unknown measure FM-nope"),
        (FM_DISTAL, Phase.POST_ASSISTED, 20, "motor score has no assisted phase"),
        (ARAT_GRASP, Phase.BASELINE, 99, "ARAT-grasp baseline score 99 outside [0, 18]"),
        (BBT, Phase.POST_UNASSISTED, -1, "BBT-count post_unassisted score -1 outside [0, 1000000]"),
        (FM_PROXIMAL, Phase.BASELINE, "0_5", "score '0_5' is not an integer"),
    ], ids=["unknown-measure", "assisted-motor", "over-cap", "negative", "not-an-int"])
    def test_record_and_csv_give_one_reason(self, measure, phase, value, reason):
        with pytest.raises(ValueError, match=f"^P01: {re.escape(reason)}$"):
            SubjectOutcomes("P01", Group.EMG, {(measure, phase): value})
        text = ("subject_id,group,measure,subscale,phase,score\n"
                f"P01,EMG,{measure.family},{measure.subscale},{phase.value},{value}\n")
        with pytest.raises(CohortFormatError, match=f"^line 2: {re.escape(reason)}$"):
            load_cohort_csv(io.StringIO(text))

    @pytest.mark.parametrize("digits", [64, 65, 4301])
    def test_a_long_score_is_shown_by_its_digit_count(self, digits):
        value = 10 ** (digits - 1)
        shown = str(value) if digits <= 64 else f"of {digits} digits"
        with pytest.raises(ValueError, match=f"^P01: BBT-count baseline score {shown} outside \\[0, 1000000\\]$"):
            SubjectOutcomes("P01", Group.EMG, {(BBT, Phase.BASELINE): value})

    def test_each_stored_measure_rejects_the_phases_its_family_lacks(self):
        rejected = []
        for measure in model.SCORE_RANGES:
            for phase in Phase:
                problem = model.score_problem(measure, phase, 0)
                if phase in model.PHASES[measure.family]:
                    assert problem is None
                else:
                    rejected.append((measure, phase, problem))
        assert rejected == [(m, Phase.POST_ASSISTED, "motor score has no assisted phase")
                            for m in (FM_DISTAL, FM_PROXIMAL)]

    def test_a_score_str_cannot_print_is_named_by_its_size(self):
        # str() refuses an int of over 4,300 digits, with an error that names no subject.
        with pytest.raises(ValueError, match=re.escape(
                "P01: BBT-count baseline score of 5001 digits outside [0, 1000000]")):
            SubjectOutcomes("P01", Group.EMG, {(BBT, Phase.BASELINE): 10**5000})

    def test_totals_are_derived(self):
        scores = {
            (FM_DISTAL, Phase.BASELINE): 20,
            (FM_PROXIMAL, Phase.BASELINE): 10,
        }
        subject = SubjectOutcomes("P02", Group.SH, scores)
        assert subject.score(FM_TOTAL, Phase.BASELINE) == 30
        assert subject.score(FM_TOTAL, Phase.POST_UNASSISTED) is None

    def test_non_functional_baseline(self):
        subject = SubjectOutcomes("P03", Group.SH, {(BBT, Phase.BASELINE): 0})
        assert subject.functional_at_baseline is False

    def test_measure_labels(self):
        assert str(FM_DISTAL) == "FM-distal"
        assert report.row_label(ARAT_TOTAL, Comparison.B) == "ARAT-total (B)"
        assert report.row_label(FM_DISTAL, Comparison.A) == "FM-distal"


class TestGains:
    def test_missing_phase_is_excluded_and_reported(self):
        complete = SubjectOutcomes("P01", Group.EMG, {
            (ARAT_GRASP, Phase.BASELINE): 5,
            (ARAT_GRASP, Phase.POST_UNASSISTED): 8,
        })
        partial = SubjectOutcomes("P02", Group.EMG, {
            (ARAT_GRASP, Phase.BASELINE): 5,
        })
        result = compute_gains([complete, partial], ARAT_GRASP, Comparison.A)
        assert result.gains == {"P01": 3}
        assert result.excluded == ("P02",)
        assert result.n == 1
        assert result.mean == Fraction(3)

    def test_comparison_orientation(self):
        subject = SubjectOutcomes("P01", Group.EMG, {
            (ARAT_GRASP, Phase.BASELINE): 5,
            (ARAT_GRASP, Phase.POST_UNASSISTED): 8,
            (ARAT_GRASP, Phase.POST_ASSISTED): 4,
        })
        a = compute_gains([subject], ARAT_GRASP, Comparison.A)
        b = compute_gains([subject], ARAT_GRASP, Comparison.B)
        c = compute_gains([subject], ARAT_GRASP, Comparison.C)
        assert a.gains["P01"] == 3    # unassisted - baseline
        assert b.gains["P01"] == -1   # assisted - baseline
        assert c.gains["P01"] == -4   # assisted - unassisted

    @given(
        st.lists(
            st.tuples(st.integers(0, 18), st.integers(0, 18), st.integers(0, 18)),
            min_size=3,
            max_size=8,
        )
    )
    def test_followup_contrast_is_difference_of_gains(self, triples):
        cohort = [
            SubjectOutcomes(f"S{i}", Group.EMG, {
                (ARAT_GRASP, Phase.BASELINE): base,
                (ARAT_GRASP, Phase.POST_UNASSISTED): un,
                (ARAT_GRASP, Phase.POST_ASSISTED): assisted,
            })
            for i, (base, un, assisted) in enumerate(triples)
        ]
        mean_a = compute_gains(cohort, ARAT_GRASP, Comparison.A).mean
        mean_b = compute_gains(cohort, ARAT_GRASP, Comparison.B).mean
        mean_c = compute_gains(cohort, ARAT_GRASP, Comparison.C).mean
        assert mean_c == mean_b - mean_a


class TestCsv:
    def test_golden_round_trip_is_canonical(self):
        text = golden.golden_cohort_csv()
        cohort = load_cohort_csv(io.StringIO(text))
        assert write_cohort_csv(cohort) == text

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(golden.golden_cohort_csv())
        cohort = load_cohort_csv(path)
        assert len(cohort) == 11

    def test_problems_are_aggregated_with_line_numbers(self):
        text = (
            "subject_id,group,measure,subscale,phase,score\n"
            "P01,EMG,FM,distal,baseline,20\n"
            "P01,XX,FM,distal,post_unassisted,21\n"
            "P01,EMG,FM,distal,baseline,not_a_number\n"
            "P01,EMG,FM,nope,baseline,20\n"
        )
        with pytest.raises(CohortFormatError) as excinfo:
            load_cohort_csv(io.StringIO(text))
        message = str(excinfo.value)
        assert "line 3" in message and "unknown group" in message
        assert "line 4" in message and "not an integer" in message
        assert "line 5" in message and "unknown measure" in message

    @pytest.mark.parametrize("score", ["0_5", "\u0663", "\uff15"])
    def test_score_must_be_ascii_digits(self, score):
        # int() alone reads 0_5 as 5 and the Arabic-Indic and fullwidth digits as 3 and 5.
        text = f"subject_id,group,measure,subscale,phase,score\nP01,EMG,FM,distal,baseline,{score}\n"
        with pytest.raises(CohortFormatError, match=f"^line 2: score {re.escape(repr(score))} is not an integer$"):
            load_cohort_csv(io.StringIO(text))

    def test_a_score_past_the_digit_limit_is_its_line_s_problem(self):
        # int() used to raise out of the loader, naming no line and dropping
        # the problems of the other rows.
        text = ("subject_id,group,measure,subscale,phase,score\n"
                f"P01,EMG,FM,distal,baseline,{'1' + '0' * 5000}\n"
                "P01,EMG,FM,nope,baseline,20\n")
        with pytest.raises(CohortFormatError, match=re.escape(
                "line 2: score of 5001 characters is past the integer digit limit; "
                "line 3: unknown measure FM-nope")):
            load_cohort_csv(io.StringIO(text))

    def test_a_byte_that_is_not_utf_8_names_the_file(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_bytes(golden.golden_cohort_csv().encode() + b"\xff\n")
        with pytest.raises(CohortFormatError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xff"):
            load_cohort_csv(path)

    @pytest.mark.parametrize("score, value", [("+5", 5), ("05", 5), ("-0", 0), (" 7 ", 7)])
    def test_signed_and_padded_scores_are_read(self, score, value):
        text = f"subject_id,group,measure,subscale,phase,score\nP01,EMG,FM,distal,baseline,{score}\n"
        (subject,) = load_cohort_csv(io.StringIO(text))
        assert list(subject.scores.values()) == [value]

    @pytest.mark.parametrize("sid", ["", "   "])
    def test_blank_subject_id_rejected(self, sid):
        text = f"subject_id,group,measure,subscale,phase,score\n{sid},EMG,FM,distal,baseline,20\n"
        with pytest.raises(CohortFormatError, match="^line 2: blank subject_id$"):
            load_cohort_csv(io.StringIO(text))

    def test_duplicate_rows_rejected(self):
        text = (
            "subject_id,group,measure,subscale,phase,score\n"
            "P01,EMG,FM,distal,baseline,20\n"
            "P01,EMG,FM,distal,baseline,22\n"
        )
        with pytest.raises(CohortFormatError, match="^line 3: duplicate entry for P01 FM-distal baseline$"):
            load_cohort_csv(io.StringIO(text))

    def test_subject_cannot_switch_groups(self):
        text = (
            "subject_id,group,measure,subscale,phase,score\n"
            "P01,EMG,FM,distal,baseline,20\n"
            "P01,SH,FM,proximal,baseline,10\n"
        )
        with pytest.raises(CohortFormatError, match="^line 3: subject P01 listed under both groups$"):
            load_cohort_csv(io.StringIO(text))

    def test_empty_file_rejected(self):
        with pytest.raises(CohortFormatError, match="empty"):
            load_cohort_csv(io.StringIO(""))

    def test_wrong_header_rejected(self):
        with pytest.raises(CohortFormatError, match="header"):
            load_cohort_csv(io.StringIO("id,grp\nP01,EMG\n"))

    def test_blank_lines_ignored(self):
        text = golden.golden_cohort_csv() + "\n\n"
        assert len(load_cohort_csv(io.StringIO(text))) == 11


class TestGoldenCohort:
    def test_cohort_composition(self, golden_cohort):
        assert len(golden_cohort) == 11
        groups = [s.group for s in golden_cohort]
        assert groups.count(Group.EMG) == 6
        assert groups.count(Group.SH) == 5

    def test_motor_gain_sums(self, golden_cohort):
        for measure, total in ((FM_DISTAL, 25), (FM_PROXIMAL, 4), (FM_TOTAL, 29)):
            result = compute_gains(golden_cohort, measure, Comparison.A)
            assert result.n == 11
            assert sum(result.values()) == total

    def test_scores_are_the_phase_map_in_score_range_order(self, golden_cohort):
        pairs = [(m, p) for m in model.SCORE_RANGES for p in model.PHASES[m.family]]
        assert len(pairs) == 2 * 2 + 5 * 3
        for subject in golden_cohort:
            assert list(subject.scores) == pairs

    def test_every_subject_is_complete_for_arm_test(self, golden_cohort):
        for comparison in Comparison:
            result = compute_gains(golden_cohort, ARAT_TOTAL, comparison)
            assert result.excluded == ()
            assert result.n == 11


@pytest.fixture(scope="module")
def golden_report(golden_cohort):
    return report.analyze_cohort(golden_cohort)


class TestAnalysis:
    def test_grid_shape(self, golden_report):
        assert len(golden_report.primary) == 18
        assert golden_report.m == 18
        assert golden_report.group_sizes == {"EMG": 6, "SH": 5}

    def test_motor_row_means(self, golden_report):
        means = {r.label: r.mean_gain for r in golden_report.primary}
        assert means["FM-distal"] == Fraction(25, 11)
        assert means["FM-proximal"] == Fraction(4, 11)
        assert means["FM-total"] == Fraction(29, 11)
        assert means["ARAT-total (A)"] == Fraction(15, 11)
        assert means["ARAT-total (B)"] == Fraction(-4, 11)

    def test_followup_means_are_exact_differences(self, golden_report):
        means = {r.label: r.mean_gain for r in golden_report.primary}
        for family in ("grasp", "grip", "pinch", "gross", "total"):
            a = means[f"ARAT-{family} (A)"]
            b = means[f"ARAT-{family} (B)"]
            c = means[f"ARAT-{family} (C)"]
            assert c == b - a

    def test_normality_gate_routes_methods(self, golden_report):
        kinds = {r.label: r.kind for r in golden_report.primary}
        assert kinds["FM-distal"] == "PAIRED_T"
        assert kinds["FM-total"] == "WILCOXON"
        assert set(kinds.values()) == {"PAIRED_T", "WILCOXON"}

    def test_significance_snapshot(self, golden_report):
        significant = sorted(r.label for r in golden_report.primary if r.significant)
        assert significant == [
            "ARAT-grasp (B)",
            "ARAT-grasp (C)",
            "ARAT-grip (A)",
            "ARAT-grip (C)",
            "ARAT-gross (C)",
            "ARAT-pinch (C)",
            "ARAT-total (A)",
            "FM-distal",
            "FM-total",
        ]

    def test_rejections_form_rank_prefix(self, golden_report):
        ranks = sorted(r.rank for r in golden_report.primary if r.significant)
        assert ranks == list(range(1, len(ranks) + 1))

    def test_group_means_match_subgroup_tables(self, golden_report):
        emg = golden_report.fm_by_group["EMG"]
        sh = golden_report.fm_by_group["SH"]
        assert emg.n == 6 and sh.n == 5
        assert emg.means["FM-distal"] == Fraction(3)
        assert emg.means["FM-proximal"] == Fraction(-1, 3)
        assert emg.means["FM-total"] == Fraction(8, 3)
        assert sh.means["FM-distal"] == Fraction(7, 5)
        assert sh.means["FM-proximal"] == Fraction(6, 5)
        assert sh.means["FM-total"] == Fraction(13, 5)

    def test_pooled_mean_recombines_from_groups(self, golden_report):
        for label in ("FM-distal", "FM-proximal", "FM-total"):
            pooled = next(r.mean_gain for r in golden_report.primary if r.label == label)
            emg = golden_report.fm_by_group["EMG"].means[label]
            sh = golden_report.fm_by_group["SH"].means[label]
            assert pooled == (6 * emg + 5 * sh) / 11

    def test_box_and_block_functionality_split(self, golden_report):
        functional = golden_report.bbt_by_functionality["functional"]
        non_functional = golden_report.bbt_by_functionality["non_functional"]
        assert functional.n == 4
        assert non_functional.n == 7
        assert functional.means["BBT (A)"] == Fraction(-7, 2)
        assert functional.means["BBT (B)"] == Fraction(-37, 4)
        assert functional.means["BBT (C)"] == Fraction(-23, 4)
        assert non_functional.means["BBT (A)"] == Fraction(2, 7)
        assert non_functional.means["BBT (B)"] == Fraction(2)
        assert non_functional.means["BBT (C)"] == Fraction(12, 7)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            report.analyze_cohort([])

    @pytest.mark.parametrize("q, shown", [(5, "5"), (0, "0"), ("1", "1"), (Fraction(3, 2), "3/2")])
    def test_q_is_checked_with_no_testable_row(self, q, shown):
        # No row has two phases, so no test runs for the FDR procedure to check.
        cohort = [SubjectOutcomes("S1", Group.EMG, {(BBT, Phase.BASELINE): 1})]
        assert all(row.p is None for row in report.analyze_cohort(cohort).primary)
        with pytest.raises(ValueError, match=re.escape(
                f"q must be a rational number strictly between 0 and 1, got {shown}") + "$"):
            report.analyze_cohort(cohort, q=q)

    def test_q_forms_agree(self, golden_cohort):
        a = report.analyze_cohort(golden_cohort, q=0.05)
        b = report.analyze_cohort(golden_cohort, q="0.05")
        c = report.analyze_cohort(golden_cohort, q=Fraction(1, 20))
        assert a.q == b.q == c.q == Fraction(1, 20)
        assert [r.significant for r in a.primary] == [r.significant for r in c.primary]

    def test_text_rendering(self, golden_report):
        text = report.render_text(golden_report)
        assert "Benjamini-Hochberg, q = 0.05, m = 18" in text
        assert "FM-distal" in text and "2.27" in text
        assert "0.36" in text and "2.64" in text
        assert "paired-t" in text and "wilcoxon" in text
        assert "Reference MCID: motor score 4.25-7.25 points, arm test 5.7 points." in text

    def test_json_rendering(self, golden_report):
        doc = json.loads(report.render_json(golden_report))
        assert doc["schema"] == "exobench/report-v1"
        assert doc["m"] == 18
        rows = {r["label"]: r for r in doc["primary"]}
        assert len(rows) == 18
        assert rows["FM-distal"]["mean_gain_display"] == 2.27
        assert rows["FM-total"]["mean_gain_display"] == 2.64
        assert rows["FM-distal"]["significant"] is True
        for row in rows.values():
            if row["p"] is not None:
                assert row["p_display"] == display_round(row["p"], 3)

    def test_json_row_keys_follow_the_result_fields(self, golden_report):
        doc = json.loads(report.render_json(golden_report))
        keys = ["label", "n", "mean_gain", "mean_gain_display", "kind", "statistic", "shapiro_p",
                "p", "p_display", "rank", "threshold", "threshold_display", "significant",
                "homogeneity_p", "error"]
        assert [name for name in keys if not name.endswith("_display")] == [
            f.name for f in dataclasses.fields(report.TestResult)]
        assert all(list(row) == keys for row in doc["primary"])

    def test_incomplete_rows_error_not_crash(self):
        cohort = [
            SubjectOutcomes(f"S{i}", Group.EMG, {
                (FM_DISTAL, Phase.BASELINE): 10,
                (FM_DISTAL, Phase.POST_UNASSISTED): 10 + i,
            })
            for i in range(4)
        ]
        result = report.analyze_cohort(cohort)
        by_label = {r.label: r for r in result.primary}
        assert by_label["FM-distal"].p is not None
        assert by_label["ARAT-grasp (A)"].error is not None
        assert result.m == 1

    def test_irregular_cohort_report_is_pinned(self, irregular_cohort):
        result = report.analyze_cohort(irregular_cohort, q=Fraction(1, 10))
        text = report.render_text(result)
        routes = {r.label: r.kind or r.error for r in result.primary}
        assert routes["FM-distal"] == routes["ARAT-grip (A)"] == "PAIRED_T"
        assert routes["ARAT-grasp (B)"] == routes["ARAT-gross (A)"] == "WILCOXON"
        assert routes["FM-proximal"].startswith("normality gate failed: zero variance")
        assert routes["ARAT-gross (B)"] == "too few subjects with both phases"
        assert "FM-distal: excluded 1 subject(s): R4" in result.warnings
        assert len(result.warnings) == 7
        for warning in result.warnings:
            assert text.count(warning) == 1
        # sha256 of both renderings, recorded before the gain path was refactored.
        json_text = report.render_json(result)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5f60d1f0de7083f2029e93724789166ec5e31e48e6538d269a35b91970eaf7f7"
        )
        assert hashlib.sha256(json_text.encode()).hexdigest() == (
            "b51f62ae07c948eab30f3a6d7ebed89d2959b7303dba141d26651103a879638c"
        )
