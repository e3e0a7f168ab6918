"""Intent inferral: classifier, vote smoothing, harness detector, screening."""

import dataclasses
import math
import re
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import reference
from exobench import intent, signals
from exobench.intent import (
    CLASS_ORDER,
    EmgClassifier,
    ShConfig,
    attempt_passes,
    calibrate_sh,
    classify_trace,
    detect_trace,
    labeled_windows,
    max_hold_runs,
    screen_emg_eligibility,
    screening_script,
    smooth_intents,
    trace_accuracy,
    train_classifier,
)
from exobench.signals import IntentLabel, ShoulderPosture, SignalTrace
from exobench.subject import preset_subject
from reference import classify, events, extract_features, label_at, scores, stream

OPEN, RELAX, CLOSE = IntentLabel.OPEN, IntentLabel.RELAX, IntentLabel.CLOSE

labels_st = st.sampled_from([OPEN, RELAX, CLOSE])


def _codes(labels):
    return np.array([CLASS_ORDER.index(label) for label in labels], dtype=np.int64)


K = intent.DEFAULT_VOTE_K


def _smoothed(labels):
    """``smooth_intents`` over a label list, as labels."""
    return [CLASS_ORDER[c] for c in smooth_intents(_codes(labels)).tolist()]


def _tensions(values, rate_hz=50.0):
    """A stand-in load trace: the ``t`` and ``samples`` columns ``detect_trace`` reads.

    Unlike a ``SignalTrace`` it can carry NaN tensions.
    """
    values = np.asarray(values, dtype=float)
    return SimpleNamespace(t=np.arange(len(values)) / rate_hz, samples=values)


def _detected(config, values):
    """``detect_trace`` over a tension list, as labels."""
    return [CLASS_ORDER[c] for c in detect_trace(config, _tensions(values))[1].tolist()]


def _window(values, n=5):
    return np.tile(np.asarray(values, dtype=float), (n, 1))


def _identical_centroids(counts=(4, 4, 4)):
    """Training data whose three classes share one feature vector, with
    ``counts`` rows per class in CLASS_ORDER."""
    return np.full((sum(counts), 8), 0.5), np.repeat(np.arange(3), counts)


_CENTROID_ENTRY = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def _centroids(draw):
    """Three class centroids, each the first again, the first 1e-9 apart (a
    NaN or inf stays one), or a row of its own; entries may be NaN or inf."""
    row = st.lists(_CENTROID_ENTRY, min_size=8, max_size=8).map(np.array)
    first = draw(row)
    rows = [first]
    for _ in range(2):
        kind = draw(st.sampled_from(["same", "near", "own"]))
        rows.append(first if kind == "same" else first + 1e-9 if kind == "near" else draw(row))
    return np.array(rows)


class TestFeatures:
    def test_mav_of_constant_window_is_exact(self):
        values = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        feats = extract_features(_window(values))
        assert np.array_equal(feats, np.asarray(values))

    def test_mav_averages_over_frames(self):
        window = np.array([[0.0] * 8, [1.0] * 8])
        assert np.allclose(extract_features(window), 0.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            extract_features(np.empty((0, 8)))


class TestClassifier:
    def test_separable_accuracy(self, separable_classifier):
        subject = preset_subject("separable", seed=0)
        script = [(OPEN, 2.0), (RELAX, 2.0), (CLOSE, 2.0)]
        trace = signals.gen_emg_trace(subject.emg_profile("eval"), script)
        assert trace_accuracy(separable_classifier, trace) >= 0.9

    def test_insufficient_training_data_names_classes(self):
        with pytest.raises(ValueError, match="no samples for relax, close"):
            train_classifier((np.full((1, 8), 0.5), np.array([CLASS_ORDER.index(OPEN)])))

    @pytest.mark.parametrize("features, codes", [
        (np.zeros((3, 7)), np.arange(3)),
        (np.zeros(8), np.arange(1)),
        (np.zeros((3, 8)), np.arange(2)),
    ])
    def test_training_data_shapes_checked(self, features, codes):
        with pytest.raises(ValueError, match=r"training data must be \(M, 8\) features"):
            train_classifier((features, codes))

    def test_class_rows_follow_class_order(self, separable_classifier):
        subject = preset_subject("separable", seed=0)
        script = [(label, 4.0) for label in CLASS_ORDER]
        features, codes = labeled_windows(
            signals.gen_emg_trace(subject.emg_profile("screen:train"), script))
        for row, label in enumerate(CLASS_ORDER):
            rows = features[codes == row]
            assert np.array_equal(separable_classifier.means[row], rows.mean(axis=0))
            assert separable_classifier.priors[row] == len(rows) / len(codes)
        # OPEN loads the extensor channels 0-3, CLOSE the flexor channels 4-7.
        open_row, close_row = (separable_classifier.means[CLASS_ORDER.index(label)]
                               for label in (OPEN, CLOSE))
        assert open_row[:4].sum() > open_row[4:].sum()
        assert close_row[4:].sum() > close_row[:4].sum()

    def test_identical_centroids_marked_inseparable(self):
        clf = train_classifier(_identical_centroids())
        assert clf.separable is False
        assert classify(clf, np.full(8, 0.7)) is RELAX

    def test_inseparable_classifier_decides_relax_whatever_the_priors(self):
        # OPEN holds 6 of 10 rows, so ranking by the priors alone picks OPEN.
        clf = train_classifier(_identical_centroids(counts=(6, 2, 2)))
        assert clf.separable is False
        assert classify(clf, np.full(8, 0.5)) is RELAX
        trace = SignalTrace(kind="emg", rate_hz=50.0,
                            samples=_window(np.full(8, 0.5), 12), annotations=())
        assert classify_trace(clf, trace)[1].tolist() == [CLASS_ORDER.index(RELAX)] * 12

    def test_separable_is_derived_from_the_means(self, separable_classifier):
        assert separable_classifier.separable is True
        with pytest.raises(TypeError, match="separable"):
            EmgClassifier(means=separable_classifier.means, covariance=np.eye(8),
                          priors=np.full(3, 1 / 3), separable=True)
        # Built by hand, not trained: identical means with OPEN the likeliest class.
        clf = EmgClassifier(means=np.full((3, 8), 0.5), covariance=np.eye(8),
                            priors=np.array([0.6, 0.2, 0.2]))
        assert clf.separable is False
        assert classify(clf, np.full(8, 0.5)) is RELAX
        # Means within np.allclose of each other count as identical; one that
        # differs by more makes the classifier separable again.
        near = np.full((3, 8), 0.5) + np.array([[0.0], [1e-9], [2e-9]])
        assert dataclasses.replace(clf, means=near).separable is False
        apart = near.copy()
        apart[2, 7] = 0.6
        assert dataclasses.replace(clf, means=apart).separable is True

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite centroids make non-finite biases
    @example(means=np.full((3, 8), math.nan))
    @example(means=np.full((3, 8), math.inf))
    @example(means=np.array([[math.inf] * 8, [-math.inf] * 8, [math.inf] * 8]))
    @example(means=np.full((3, 8), 0.5))
    @example(means=np.full((3, 8), 0.5) + np.array([[0.0], [1e-9], [2e-9]]))
    @given(means=_centroids())
    def test_separable_is_the_pairwise_definition(self, means):
        clf = EmgClassifier(means=means, covariance=np.eye(8), priors=np.full(3, 1 / 3))
        assert clf.separable is reference.separable(means)

    @pytest.mark.parametrize("field, shape", [("means", (3, 7)), ("means", (8,)),
                                              ("covariance", (8, 7)), ("priors", (2,))])
    def test_classifier_shapes_checked(self, separable_classifier, field, shape):
        with pytest.raises(ValueError, match=f"{field} must have shape"):
            dataclasses.replace(separable_classifier, **{field: np.ones(shape)})

    def test_classifier_arrays_are_read_only(self, separable_classifier):
        for arr in (separable_classifier.means, separable_classifier.covariance,
                    separable_classifier.priors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_exact_three_way_tie_resolves_to_relax(self):
        clf = EmgClassifier(
            means=np.full((3, 8), 0.5),
            covariance=np.eye(8),
            priors=np.full(3, 1 / 3),
        )
        assert classify(clf, np.full(8, 0.25)) is RELAX

    def test_two_way_tie_without_relax_takes_class_order(self):
        e1, e2 = np.zeros(8), np.zeros(8)
        e1[0] = 1.0
        e2[1] = 1.0
        clf = EmgClassifier(
            means=np.array([e1, np.full(8, -10.0), e2]),  # OPEN, RELAX, CLOSE
            covariance=np.eye(8),
            priors=np.full(3, 1 / 3),
        )
        midpoint = (e1 + e2) / 2.0
        by_label = scores(clf, midpoint)
        assert by_label[OPEN] == by_label[CLOSE] > by_label[RELAX]
        assert classify(clf, midpoint) is OPEN
        # The same tie, decided for every frame of a trace at once.
        trace = SignalTrace(kind="emg", rate_hz=50.0,
                            samples=_window(midpoint, 12), annotations=())
        assert classify_trace(clf, trace)[1].tolist() == [CLASS_ORDER.index(OPEN)] * 12

    def test_argmax_invariant_to_feature_scale_direction(self, separable_classifier):
        # Doubling activation toward a class centroid must not flip away from it.
        mu_open = separable_classifier.means[CLASS_ORDER.index(OPEN)]
        assert classify(separable_classifier, mu_open) is OPEN

    def test_classifier_has_no_hop(self, separable_classifier):
        assert not hasattr(separable_classifier, "hop_s")
        with pytest.raises(TypeError, match="hop_s"):
            dataclasses.replace(separable_classifier, hop_s=0.02)

    def test_train_classifier_takes_no_hop(self):
        feats = (np.arange(1, 4)[:, None] * np.full((3, 8), 0.1), np.arange(3))
        with pytest.raises(TypeError, match="hop_s"):
            train_classifier(feats, hop_s=0.02)

    def test_rejects_non_finite_features(self, separable_classifier):
        # The reference scores check their input; the array path never sees
        # a non-finite feature, because traces hold activations in [0, 1].
        bad = np.full(8, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            scores(separable_classifier, bad)


class TestSmoothing:
    def test_majority_vote_with_tie_hold(self):
        assert K == 5
        seq = [OPEN, CLOSE, OPEN, CLOSE, RELAX, CLOSE, OPEN, OPEN]
        # A tie holds the previous output: OPEN at the 2nd, 4th and 5th
        # input, CLOSE at the 7th and 8th.
        assert _smoothed(seq) == [OPEN, OPEN, OPEN, OPEN, OPEN, CLOSE, CLOSE, CLOSE]

    def test_initial_tie_prefers_relax_when_tied(self):
        assert _smoothed([RELAX, CLOSE]) == [RELAX, RELAX]

    @given(st.lists(labels_st, min_size=1, max_size=40))
    def test_never_invents_labels(self, seq):
        out = _smoothed(seq)
        assert len(out) == len(seq)
        prev = None
        for i, decided in enumerate(out):
            window = set(seq[max(0, i - K + 1) : i + 1])
            allowed = window if prev is None else window | {prev}
            assert decided in allowed
            prev = decided

    @given(st.lists(labels_st, max_size=60))
    def test_matches_stateful_detector(self, seq):
        # The per-label vote of tests/reference.py, empty streams included.
        assert _smoothed(seq) == reference.smooth_intents(seq, K)

    @given(labels_st, st.integers(1, 20))
    def test_constant_input_is_constant_output(self, label, n):
        assert _smoothed([label] * n) == [label] * n


def _postures(rest, shrug, depress):
    return {name: np.array(values, dtype=float)
            for name, values in (("rest", rest), ("shrug", shrug), ("depress", depress))}


class TestHarnessCalibration:
    def test_reference_midpoints(self):
        config = calibrate_sh(**_postures([20.0], [40.0], [8.0]))
        assert config.t_open == 14.0
        assert config.t_close == 30.0

    def test_uses_medians_not_means(self):
        config = calibrate_sh(**_postures([19.0, 20.0, 90.0], [40.0, 40.0, 41.0], [7.0, 8.0, 9.0]))
        assert config.t_open == 14.0
        assert config.t_close == 30.0

    @given(*[st.lists(st.floats(0.0, 1e6), min_size=1, max_size=9) for _ in range(3)])
    def test_midpoints_match_statistics_median(self, rest, shrug, depress):
        med_rest, med_shrug, med_depress = map(statistics.median, (rest, shrug, depress))
        try:
            config = calibrate_sh(**_postures(rest, shrug, depress))
        except ValueError as exc:
            assert "not ordered" in str(exc)
            assert not med_depress < med_rest < med_shrug
            return
        assert (config.t_open, config.t_close) == (
            (med_depress + med_rest) / 2.0, (med_rest + med_shrug) / 2.0)
        assert type(config.t_open) is float and type(config.t_close) is float

    def test_unordered_medians_fail(self):
        with pytest.raises(ValueError, match="uncalibratable"):
            calibrate_sh(**_postures([20.0], [10.0], [8.0]))

    def test_empty_recording_fails(self):
        with pytest.raises(ValueError, match="uncalibratable"):
            calibrate_sh(**_postures([], [40.0], [8.0]))

    def test_config_requires_ordered_thresholds(self):
        with pytest.raises(ValueError, match="strictly below"):
            ShConfig(t_open=30.0, t_close=14.0)


class TestHysteresis:
    CONFIG = ShConfig(t_open=14.0, t_close=30.0)

    def test_threshold_boundaries_command(self):
        # Exactly on a threshold commands; just inside the band holds.
        tensions = [30.0, 14.0, 29.999, 30.0, 14.001]
        assert _detected(self.CONFIG, tensions) == [CLOSE, OPEN, OPEN, CLOSE, CLOSE]

    @given(st.lists(st.floats(min_value=14.01, max_value=29.99), min_size=1, max_size=200))
    def test_in_band_trace_is_constant(self, tensions):
        assert set(_detected(self.CONFIG, tensions)) == {RELAX}

    @given(
        st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=2, max_size=200),
    )
    def test_output_changes_only_in_command_zones(self, tensions):
        prev = RELAX
        for tension, decided in zip(tensions, _detected(self.CONFIG, tensions)):
            if decided is not prev:
                assert tension >= self.CONFIG.t_close or tension <= self.CONFIG.t_open
            prev = decided

    def test_detect_trace_maps_postures_to_commands(self):
        script = [
            (ShoulderPosture.REST, 1.0),
            (ShoulderPosture.ELEVATED, 1.0),
            (ShoulderPosture.REST, 1.0),
            (ShoulderPosture.DEPRESSED, 1.0),
        ]
        trace = signals.gen_load_trace(script, seed=0)
        by_label = {}
        for t, decided in events(detect_trace(self.CONFIG, trace)):
            by_label.setdefault(label_at(trace, t), []).append(decided)
        assert by_label[ShoulderPosture.ELEVATED][-1] is CLOSE
        assert by_label[ShoulderPosture.DEPRESSED][-1] is OPEN


_THRESHOLDS = st.tuples(st.floats(0.0, 40.0), st.floats(0.5, 30.0)).map(
    lambda pair: ShConfig(t_open=pair[0], t_close=pair[0] + pair[1]))


class TestStreamsMatchReference:
    """The array detector and hold-run scan against the per-sample loops of
    tests/reference.py, bit for bit."""

    @given(_THRESHOLDS, st.lists(
        st.sampled_from(["open", "close", math.nan, 0.0]) | st.floats(0.0, 80.0), max_size=60))
    def test_detect_trace(self, config, draws):
        # "open" and "close" stand for a tension exactly on that threshold.
        values = [config.t_open if v == "open" else config.t_close if v == "close" else v
                  for v in draws]
        trace = _tensions(values)
        t, codes = detect_trace(config, trace)
        assert t is trace.t
        assert events((t, codes)) == reference.detect_trace(config, trace)

    @given(
        st.lists(labels_st, max_size=80),
        st.lists(st.tuples(st.integers(-5, 85), st.integers(0, 40)), max_size=4),
        labels_st,
        st.sampled_from([20.0, 37.0, 50.0]),
        st.booleans(),
    )
    def test_max_hold_runs(self, labels, windows, intent_label, rate, shuffle):
        times = np.arange(len(labels)) / rate
        if shuffle:  # frames out of time order: an attempt keeps the stream order
            times = np.random.default_rng(len(labels)).permutation(times)
        decisions = (times, _codes(labels))
        # Attempt windows start and end anywhere, so they cut runs.
        attempts = [(start / rate, (start + length) / rate) for start, length in windows]
        assert max_hold_runs(decisions, rate, attempts, intent_label) == reference.max_hold_runs(
            events(decisions), rate, attempts, intent_label)


class TestScreening:
    def test_hold_run_measurement(self):
        rate = 50.0
        decisions = stream((i / rate, OPEN if i < 100 else RELAX) for i in range(150))
        holds = max_hold_runs(decisions, rate, [(0.0, 3.0)], OPEN)
        assert holds == [2.0]

    def test_interruption_resets_run(self):
        rate = 50.0
        labels = [OPEN] * 60 + [RELAX] + [OPEN] * 70
        decisions = stream((i / rate, lab) for i, lab in enumerate(labels))
        holds = max_hold_runs(decisions, rate, [(0.0, 10.0)], OPEN)
        assert holds == [1.4]

    def test_strict_two_second_boundary(self):
        assert attempt_passes(2.0)
        assert not attempt_passes(1.9)
        assert not attempt_passes(1.99)

    def test_screening_script_shapes(self):
        relax_script = screening_script(RELAX)
        assert len(relax_script) == 3
        assert all(label is RELAX for label, _ in relax_script)
        open_script = screening_script(OPEN)
        holds = [seg for seg in open_script if seg[0] is OPEN]
        assert len(holds) == 3
        assert all(dur == 3.0 for _, dur in holds)

    def test_missing_conditions_are_named(self, separable_classifier):
        with pytest.raises(ValueError, match="open_on_table"):
            screen_emg_eligibility({}, separable_classifier)

    def test_separable_subject_passes_everywhere(self, separable_classifier):
        subject = preset_subject("separable", seed=0)
        traces = {}
        for condition in intent.SCREENING_CONDITIONS:
            label = IntentLabel(condition.split("_", 1)[0])
            off_table = condition.endswith(intent.OFF_TABLE)
            profile = subject.emg_profile(f"screen:{condition}", off_table=off_table)
            traces[condition] = signals.gen_emg_trace(profile, screening_script(label))
        report = screen_emg_eligibility(traces, separable_classifier)
        assert report.verdict == "EMG"
        assert all(c.passed for c in report.conditions)
        assert len(report.conditions) == 6

    def test_condition_order_is_protocol_order(self):
        assert intent.SCREENING_CONDITIONS == (
            "open_on_table",
            "relax_on_table",
            "close_on_table",
            "open_off_table",
            "relax_off_table",
            "close_off_table",
        )


class TestWindowing:
    def test_labeled_windows_skip_boundary_straddles(self):
        subject = preset_subject("separable", seed=2)
        trace = signals.gen_emg_trace(subject.emg_profile("w"), [(OPEN, 1.0), (CLOSE, 1.0)])
        features, codes = labeled_windows(trace)
        # 100 frames, 8-frame window: 93 full windows minus 7 straddling the switch.
        assert features.shape == (86, 8)
        assert codes.shape == (86,)
        assert {CLASS_ORDER[c] for c in codes.tolist()} == {OPEN, CLOSE}

    def test_classify_trace_covers_every_frame(self, separable_classifier):
        subject = preset_subject("separable", seed=3)
        trace = signals.gen_emg_trace(subject.emg_profile("c"), [(RELAX, 1.0)])
        t, decisions = classify_trace(separable_classifier, trace)
        assert len(decisions) == len(trace.samples)
        assert t[0] == trace.t[0]

    def test_adjacent_same_label_segments_form_one_window(self):
        subject = preset_subject("separable", seed=2)
        trace = signals.gen_emg_trace(subject.emg_profile("w"), [(RELAX, 1.0), (RELAX, 1.0)])
        # 100 frames, 8-frame window: labels compare by value across the seam.
        assert len(labeled_windows(trace)[1]) == 93

    @pytest.mark.parametrize("rate_hz", [6_834.0, 6_666_674.0, 1e12, 1e308])
    def test_window_over_max_samples_is_rejected_before_allocating(self, monkeypatch, rate_hz,
                                                                   separable_classifier):
        # 0.15 s at 6,834 Hz is 1,025 samples, one over the bound; at
        # 6,666,674 Hz it is 1,000,001, one over MAX_SAMPLES.
        trace = SignalTrace(kind="emg", rate_hz=rate_hz, samples=np.full((4, 8), 0.1),
                            annotations=())

        def never(*_args, **_kwargs):
            raise AssertionError("allocated before validating")

        monkeypatch.setattr(np, "zeros", never)
        for run in (labeled_windows, lambda tr: classify_trace(separable_classifier, tr)):
            with pytest.raises(ValueError, match=re.escape(
                    f"a 0.15 s window at {rate_hz!r} Hz would exceed "
                    f"MAX_WINDOW_SAMPLES = 1024 samples")):
                run(trace)

    def test_window_at_the_bound_is_accepted(self):
        # 0.15 s at 6,826 Hz rounds to 1,024 samples, the longest window.
        trace = SignalTrace(kind="emg", rate_hz=6_826.0, samples=np.full((1030, 8), 0.1),
                            annotations=((0.0, 1.0, RELAX),))
        features, codes = labeled_windows(trace)
        assert codes.tolist() == [CLASS_ORDER.index(RELAX)] * 7
        assert np.allclose(features, 0.1)

    def test_label_at_matches_annotation_scan(self):
        trace = signals.gen_emg_trace(
            signals.SignalProfile(seed=0), [(OPEN, 0.5), (RELAX, 0.5), (RELAX, 0.25)]
        )
        for t in [-0.1, 0.0, 0.49, 0.5, 0.99, 1.0, 1.2499, 1.25, 9.0]:
            expected = next((lab for t0, t1, lab in trace.annotations if t0 <= t < t1), None)
            assert label_at(trace, t) is expected


# ---------------------------------------------------------------------------
# The per-frame windowing loops, kept as the references for the array
# pipeline: one slice, one feature vector and one scalar ``classify`` per frame.


def _win(trace):
    return max(1, int(round(intent.DEFAULT_WINDOW_S * trace.rate_hz)))


def _reference_labeled_windows(trace):
    frames, times, win = trace.samples, trace.t, _win(trace)
    out = []
    for i in range(win - 1, len(frames)):
        label = label_at(trace, times[i - win + 1])
        if label is not None and label is label_at(trace, times[i]):
            out.append((extract_features(frames[i - win + 1 : i + 1]), label))
    return out


def _reference_classify_trace(classifier, trace):
    frames, win = trace.samples, _win(trace)
    return [
        (float(trace.t[i]), classify(classifier, extract_features(frames[max(0, i - win + 1) : i + 1])))
        for i in range(len(frames))
    ]


def _reference_trace_accuracy(classifier, trace):
    pairs = _reference_labeled_windows(trace)
    if not pairs:
        raise ValueError("trace has no scoreable frames")
    return sum(classify(classifier, f) is label for f, label in pairs) / len(pairs)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _classifiers():
    subject = preset_subject("distorted", seed=4)
    script = [(label, 2.0) for label in CLASS_ORDER]
    trace = signals.gen_emg_trace(subject.emg_profile("screen:train"), script)
    return [train_classifier(labeled_windows(trace)), train_classifier(_identical_centroids())]


CLASSIFIERS = _classifiers()


class TestArrayPipelineMatchesReference:
    @given(
        script=st.lists(
            st.tuples(labels_st, st.sampled_from([0.05, 0.1, 0.3, 0.5]) | st.floats(0.01, 0.6)),
            min_size=1, max_size=5,
        ),
        # At 5 Hz the window is one frame, at 1000 Hz it is 150.
        rate_hz=st.sampled_from([5.0, 20.0, 37.0, 50.0, 1000.0]),
        noise=st.floats(0.0, 1.0),
        drift=st.floats(0.0, 1.0),
        crosstalk=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        which=st.sampled_from([0, 0, 0, 1]),
    )
    def test_decisions_windows_and_accuracy(self, script, rate_hz, noise, drift, crosstalk,
                                            seed, which):
        profile = signals.SignalProfile(noise_std=noise, drift_rate=drift, crosstalk=crosstalk, seed=seed)
        try:
            trace = signals.gen_emg_trace(profile, script, rate_hz=rate_hz)
        except ValueError as exc:  # the generator writes no empty trace, but a file may hold one
            assert "holds no sample" in str(exc)
            trace = SignalTrace(kind="emg", rate_hz=rate_hz, samples=[], annotations=())
        clf = CLASSIFIERS[which]

        assert events(classify_trace(clf, trace)) == _reference_classify_trace(clf, trace)
        features, codes = labeled_windows(trace)
        want = _reference_labeled_windows(trace)
        assert features.shape == (len(want), 8)
        assert [CLASS_ORDER[c] for c in codes.tolist()] == [label for _f, label in want]
        assert all(np.array_equal(f, g) for f, (g, _) in zip(features, want))
        assert _outcome(trace_accuracy, clf, trace) == _outcome(_reference_trace_accuracy, clf, trace)


class TestTrainingMatchesReference:
    @given(
        order=st.permutations(list(CLASS_ORDER)),
        extra=st.lists(st.tuples(labels_st, st.floats(0.05, 0.6)), max_size=3),
        rate_hz=st.sampled_from([20.0, 50.0, 1000.0]),
        noise=st.floats(0.0, 0.3),
        crosstalk=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_bit_for_bit(self, order, extra, rate_hz, noise, crosstalk, seed):
        script = [(label, 0.5) for label in order] + extra
        profile = signals.SignalProfile(noise_std=noise, crosstalk=crosstalk, seed=seed)
        trace = signals.gen_emg_trace(profile, script, rate_hz=rate_hz)
        clf = train_classifier(labeled_windows(trace))
        means, cov, priors, separable = reference.fit_lda(_reference_labeled_windows(trace))
        assert clf.means.tobytes() == np.array([means[label] for label in CLASS_ORDER]).tobytes()
        assert clf.covariance.tobytes() == cov.tobytes()
        assert clf.priors.tolist() == [priors[label] for label in CLASS_ORDER]
        assert clf.separable is separable


def _mirrored_classifier(rng):
    """OPEN and CLOSE means and the covariance are mirrored across channels 0
    and 1, so a feature vector with equal first channels often ties them."""
    swap = np.eye(8)[[1, 0, 2, 3, 4, 5, 6, 7]]
    a = rng.normal(size=(8, 8))
    cov = a @ a.T + 8.0 * np.eye(8)
    mean = rng.uniform(0.0, 1.0, 8)
    return EmgClassifier(
        means=np.array([mean, np.full(8, -10.0), swap @ mean]),  # OPEN, RELAX, CLOSE
        covariance=(cov + swap @ cov @ swap.T) / 2.0,
        priors=np.full(3, 1 / 3),
    )


class TestOneRowScoring:
    def test_one_row_matches_scalar_scores_and_classify(self):
        rng = np.random.default_rng(5)
        ties = 0
        for _ in range(20):
            clf = _mirrored_classifier(rng)
            for f in rng.uniform(0.0, 1.0, size=(20, 8)):
                f[1] = f[0]
                trace = SignalTrace(kind="emg", rate_hz=50.0,
                                    samples=f[None, :], annotations=())
                assert events(classify_trace(clf, trace)) == [(0.0, classify(clf, f))]
                by_label = scores(clf, f)
                want = np.array([[by_label[label] for label in CLASS_ORDER]])
                assert clf._score_rows(f[None, :]).tobytes() == want.tobytes()
                ties += by_label[OPEN] == by_label[CLOSE]
        assert ties > 100
