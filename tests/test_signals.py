"""Signal model and trace serialization tests."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from exobench import signals
from exobench.cli import EMG_PROFILES
from exobench.signals import (
    EMG_CHANNELS,
    IntentLabel,
    ShoulderPosture,
    SignalTrace,
)
from reference import label_at, trace_jsonl

_ROW = [0.1] * EMG_CHANNELS

#: (kind, rows, error) for columns that the trace must reject. Each row is one
#: sample: a list of eight activations for EMG, a tension for load.
BAD_COLUMNS = {
    "seven_channel_row": ("emg", [_ROW, [0.1] * 7], "8 channels"),
    "activation_above_one": ("emg", [_ROW, [1.5] + [0.1] * 7], "finite"),
    "nan_activation": ("emg", [[math.nan] + [0.1] * 7, _ROW], "finite"),
    "negative_tension": ("load", [20.0, -1.0], "non-negative"),
    "nan_tension": ("load", [20.0, math.nan], "finite"),
}

#: Sample times that a file at 50 Hz must not hold for three samples, and the
#: first sample whose ``t`` is not ``n / rate_hz``: sample n sits at n / 50 s.
BAD_TIMES = {
    "nan_time": ([0.0, math.nan, 0.04], 1),
    "inf_time": ([0.0, 0.02, math.inf], 2),
    "decreasing_time": ([0.0, 0.04, 0.02], 1),
    "tied_time": ([0.0, 0.02, 0.02], 2),
    "dropped_sample": ([0.0, 0.04, 0.06], 1),
    "shifted_start": ([0.02, 0.04, 0.06], 0),
    "one_ulp_late": ([0.0, 0.02, math.nextafter(0.04, 1.0)], 2),
}


def _trace(kind, rows, rate_hz=50.0):
    return SignalTrace(
        kind=kind,
        rate_hz=rate_hz,
        samples=rows,
        annotations=(),
    )


def _jsonl(kind, rows, times=None, rate_hz=50.0):
    """A trace file written by hand, one line per row, bypassing SignalTrace."""
    key = "emg" if kind == "emg" else "tension"
    times = [i / 50.0 for i in range(len(rows))] if times is None else times
    header = {"schema": signals.TRACE_SCHEMA, "kind": kind, "rate_hz": rate_hz,
              "annotations": [], "meta": {}}
    lines = [json.dumps(header)] + [json.dumps({"t": t, key: row}) for t, row in zip(times, rows)]
    return "\n".join(lines) + "\n"


class TestColumnValidation:
    @pytest.mark.parametrize("kind, rows, error", BAD_COLUMNS.values(), ids=BAD_COLUMNS.keys())
    def test_constructor_rejects(self, kind, rows, error):
        with pytest.raises(ValueError, match=error):
            _trace(kind, rows)

    @pytest.mark.parametrize("kind, rows, error", BAD_COLUMNS.values(), ids=BAD_COLUMNS.keys())
    def test_from_jsonl_rejects(self, kind, rows, error):
        with pytest.raises(ValueError, match=error):
            SignalTrace.from_jsonl(_jsonl(kind, rows))

    @pytest.mark.parametrize("kind, rows", [("emg", [_ROW] * 3), ("load", [20.0] * 3)])
    @pytest.mark.parametrize("times, first", BAD_TIMES.values(), ids=BAD_TIMES.keys())
    def test_rejects_bad_sample_times(self, kind, rows, times, first):
        with pytest.raises(ValueError, match=rf"^sample {first} has t {times[first]!r}, "
                                             rf"not {first} / rate_hz = {first / 50.0!r}$"):
            SignalTrace.from_jsonl(_jsonl(kind, rows, times))

    @pytest.mark.parametrize("rate_hz, first", [(1e-4, 1), (25.0, 1), (100.0, 1), (50.0 + 1e-9, 1)])
    def test_rejects_a_rate_its_times_do_not_follow(self, rate_hz, first):
        with pytest.raises(ValueError, match=f"^sample {first} has t 0.02, not {first} / rate_hz"):
            SignalTrace.from_jsonl(_jsonl("load", [20.0] * 3, rate_hz=rate_hz))

    # 3 / 1e-308 is past the largest float: the last sample's time would be inf.
    @pytest.mark.parametrize("rate_hz", [0.0, -0.0, -50.0, math.nan, math.inf, -math.inf, 1e-308])
    def test_rejects_bad_rates(self, rate_hz):
        message = re.escape(f"rate_hz must be positive and finite, as must 3 / rate_hz, got {rate_hz!r}")
        with pytest.raises(ValueError, match=message):
            _trace("load", [20.0] * 3, rate_hz=rate_hz)
        with pytest.raises(ValueError, match=message):
            SignalTrace.from_jsonl(_jsonl("load", [20.0] * 3, rate_hz=rate_hz))

    def test_every_row_needs_eight_channels(self):
        with pytest.raises(ValueError, match="8 channels"):
            _trace("emg", [[0.1] * 7, [0.1] * 7])

    def test_times_are_derived_from_the_rate(self):
        assert _trace("load", [20.0] * 3).t.tolist() == [0.0, 0.02, 0.04]
        assert _trace("load", [20.0] * 3, rate_hz=1e-307).t[-1] == 2 / 1e-307
        assert _trace("load", [20.0] * 4, rate_hz=3.0).t.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
        assert _trace("load", []).t.shape == (0,)

    def test_columns_are_read_only_arrays(self):
        trace = _trace("emg", [_ROW, _ROW])
        assert trace.t.tolist() == [0.0, 0.02] and trace.samples.shape == (2, EMG_CHANNELS)
        with pytest.raises(ValueError, match="read-only"):
            trace.samples[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            trace.t[0] = 1.0

    def test_empty_trace_round_trips(self):
        # The generators reject a script that holds no sample; a file may not.
        trace = _trace("emg", [])
        assert trace.samples.shape == (0, EMG_CHANNELS)
        assert SignalTrace.from_jsonl(trace.to_jsonl()).samples.shape == (0, EMG_CHANNELS)


def _row(label):
    """A label's row in ``CLASS_MEANS``: its place in the enum."""
    return list(IntentLabel).index(label)


class TestProfiles:
    def test_separable_profile_orders_channels(self):
        open_means = signals.CLASS_MEANS[_row(IntentLabel.OPEN)]
        close_means = signals.CLASS_MEANS[_row(IntentLabel.CLOSE)]
        relax_means = signals.CLASS_MEANS[_row(IntentLabel.RELAX)]
        # Extensor channels dominate on open, flexor channels on close.
        assert sum(open_means[:4]) > sum(open_means[4:])
        assert sum(close_means[4:]) > sum(close_means[:4])
        assert max(relax_means) < min(open_means[:4])

    def test_crosstalk_bounds_enforced(self):
        with pytest.raises(ValueError, match="crosstalk"):
            signals.SignalProfile(crosstalk=1.5)

    @pytest.mark.parametrize("drift_rate", [-0.01, math.nan, math.inf])
    def test_rejects_bad_drift_rate(self, drift_rate):
        # A NaN or infinite fade would be clipped to an all-zero trace.
        with pytest.raises(ValueError,
                           match=f"drift_rate must be non-negative and finite, got {drift_rate!r}"):
            signals.SignalProfile(drift_rate=drift_rate)

    @pytest.mark.parametrize("noise_std", [-1.0, -1e-9, math.nan, math.inf])
    def test_make_profile_rejects_bad_noise(self, noise_std):
        # The variance is noise_std**2, which would drop the sign.
        with pytest.raises(ValueError,
                           match=f"noise_std must be non-negative and finite, got {noise_std!r}"):
            signals.SignalProfile(noise_std=noise_std)

    def test_noise_std_whose_square_overflows(self):
        # 1e154 squares to about 1e308; 1e155 squares to inf.
        assert signals.SignalProfile(noise_std=1e154).to_meta()["variances"]["open"][0] == 1e154 * 1e154
        with pytest.raises(ValueError,
                           match="noise_std must have a finite square, the variance, got 1e"):
            signals.SignalProfile(noise_std=1e155)

    def test_class_means_are_read_only(self):
        assert signals.CLASS_MEANS.shape == (len(IntentLabel), EMG_CHANNELS)
        with pytest.raises(ValueError, match="read-only"):
            signals.CLASS_MEANS[0, 0] = 0.5

    def test_meta_maps_each_label_to_its_row(self):
        profile = signals.SignalProfile(noise_std=0.05, drift_rate=0.01, crosstalk=0.2, seed=4)
        meta = profile.to_meta()
        assert list(meta["means"]) == list(meta["variances"]) == ["open", "relax", "close"]
        for label in IntentLabel:
            assert meta["means"][label.value] == signals.CLASS_MEANS[_row(label)].tolist()
            assert meta["variances"][label.value] == [0.05 * 0.05] * EMG_CHANNELS
        assert (meta["drift_rate"], meta["crosstalk"], meta["seed"]) == (0.01, 0.2, 4)

    @pytest.mark.parametrize("rate", [0.0, -50.0, math.nan, math.inf])
    def test_generators_reject_bad_rates(self, rate):
        with pytest.raises(ValueError, match=f"rate_hz must be positive and finite, got {rate!r}"):
            signals.gen_emg_trace(signals.SignalProfile(seed=0), [(IntentLabel.OPEN, 1.0)], rate_hz=rate)
        with pytest.raises(ValueError, match=f"rate_hz must be positive and finite, got {rate!r}"):
            signals.gen_load_trace([(ShoulderPosture.REST, 1.0)], rate_hz=rate)


class TestEmgTrace:
    def test_sample_count_and_duration(self):
        profile = signals.SignalProfile(seed=1)
        trace = signals.gen_emg_trace(profile, [(IntentLabel.OPEN, 1.0), (IntentLabel.RELAX, 0.5)])
        assert len(trace.samples) == 75
        assert trace.duration_s == pytest.approx(1.5)

    def test_each_segment_keeps_its_annotation(self):
        profile = signals.SignalProfile(seed=1)
        script = [(IntentLabel.OPEN, 1.0), (IntentLabel.OPEN, 0.5), (IntentLabel.RELAX, 1.0)]
        trace = signals.gen_emg_trace(profile, script)
        assert len(trace.annotations) == 3
        assert trace.annotations[0][:2] == (0.0, 1.0)
        assert trace.annotations[1][:2] == (1.0, 1.5)
        assert trace.annotations[2][2] is IntentLabel.RELAX

    def test_label_at_half_open_intervals(self):
        profile = signals.SignalProfile(seed=1)
        trace = signals.gen_emg_trace(profile, [(IntentLabel.OPEN, 1.0), (IntentLabel.CLOSE, 1.0)])
        assert label_at(trace, 0.0) is IntentLabel.OPEN
        assert label_at(trace, 0.999) is IntentLabel.OPEN
        assert label_at(trace, 1.0) is IntentLabel.CLOSE
        assert label_at(trace, 2.0) is None

    def test_deterministic_for_seed(self):
        script = [(IntentLabel.CLOSE, 2.0)]
        a = signals.gen_emg_trace(signals.SignalProfile(seed=9), script)
        b = signals.gen_emg_trace(signals.SignalProfile(seed=9), script)
        c = signals.gen_emg_trace(signals.SignalProfile(seed=10), script)
        assert a.to_jsonl() == b.to_jsonl()
        assert a.to_jsonl() != c.to_jsonl()

    def test_rejects_empty_script(self):
        with pytest.raises(ValueError, match="at least one segment"):
            signals.gen_emg_trace(signals.SignalProfile(seed=0), [])

    def test_rejects_wrong_label_type(self):
        with pytest.raises(ValueError, match="IntentLabel"):
            signals.gen_emg_trace(signals.SignalProfile(seed=0), [(ShoulderPosture.REST, 1.0)])


class TestLoadTrace:
    def test_posture_levels(self):
        script = [
            (ShoulderPosture.REST, 2.0),
            (ShoulderPosture.ELEVATED, 2.0),
            (ShoulderPosture.DEPRESSED, 2.0),
        ]
        trace = signals.gen_load_trace(script, seed=0)
        by_posture: dict[ShoulderPosture, list[float]] = {p: [] for p in ShoulderPosture}
        for t, tension in zip(trace.t, trace.samples):
            label = label_at(trace, t)
            if label is not None:
                by_posture[label].append(tension)
        # Steady-state medians sit on the configured per-posture levels.
        assert np.median(by_posture[ShoulderPosture.REST]) == pytest.approx(20.0, abs=1.0)
        assert np.median(by_posture[ShoulderPosture.ELEVATED]) == pytest.approx(40.0, abs=1.0)
        assert np.median(by_posture[ShoulderPosture.DEPRESSED]) == pytest.approx(8.0, abs=1.0)

    def test_dither_stays_inside_amplitude(self):
        trace = signals.gen_load_trace([(ShoulderPosture.REST, 4.0)], dither_amp=2.0, seed=3)
        tensions = trace.samples
        assert min(tensions) >= 18.0 - 1e-9
        assert max(tensions) <= 22.0 + 1e-9

    @pytest.mark.parametrize("name, value, message", [
        ("noise_std", math.nan, "non-negative and finite"),
        ("noise_std", math.inf, "non-negative and finite"),
        ("noise_std", -0.5, "non-negative and finite"),
        ("dither_amp", math.nan, "finite"),
        ("dither_amp", -math.inf, "finite"),
        ("dither_hz", math.inf, "finite"),
        ("dither_hz", math.nan, "finite"),
        ("dither_hz", 25.5, "at most rate_hz / 2 = 25.0 Hz in size"),
        ("dither_hz", -1000.0, "at most rate_hz / 2 = 25.0 Hz in size"),
    ])
    def test_rejects_bad_numbers_before_generating(self, monkeypatch, name, value, message):
        # Past generation, the clip at zero would hide a NaN as an all-zero trace.
        def never(*_args):
            raise AssertionError("generated before validating")

        monkeypatch.setattr(signals, "_timeline", never)
        with pytest.raises(ValueError, match=f"{name} must be {message}, got {value!r}"):
            signals.gen_load_trace([(ShoulderPosture.REST, 1.0)], **{name: value})

    def test_dither_at_the_nyquist_rate_is_allowed(self):
        trace = signals.gen_load_trace([(ShoulderPosture.REST, 1.0)], rate_hz=20.0,
                                       dither_amp=1.0, dither_hz=-10.0)
        assert np.all(np.isfinite(trace.samples))

    def test_noise_is_seed_deterministic(self):
        script = [(ShoulderPosture.REST, 1.0)]
        a = signals.gen_load_trace(script, noise_std=0.5, seed=4)
        b = signals.gen_load_trace(script, noise_std=0.5, seed=4)
        assert a.to_jsonl() == b.to_jsonl()


class TestSerialization:
    def test_emg_round_trip_is_byte_identical(self):
        profile = signals.SignalProfile(*EMG_PROFILES["distorted"], seed=5)
        trace = signals.gen_emg_trace(profile, [(IntentLabel.OPEN, 1.0), (IntentLabel.CLOSE, 1.0)])
        text = trace.to_jsonl()
        again = SignalTrace.from_jsonl(text)
        assert again.to_jsonl() == text
        assert again.annotations == trace.annotations
        assert again.meta == trace.meta

    def test_load_round_trip_is_byte_identical(self):
        trace = signals.gen_load_trace(
            [(ShoulderPosture.REST, 1.0), (ShoulderPosture.ELEVATED, 1.0)],
            noise_std=0.3,
            dither_amp=1.0,
            seed=2,
        )
        text = trace.to_jsonl()
        assert SignalTrace.from_jsonl(text).to_jsonl() == text

    def test_save_and_load(self, tmp_path):
        trace = signals.gen_load_trace([(ShoulderPosture.DEPRESSED, 0.5)], seed=1)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        assert SignalTrace.load(path).to_jsonl() == trace.to_jsonl()

    def test_spaces_and_key_order_are_read(self):
        header = {"schema": signals.TRACE_SCHEMA, "kind": "load", "rate_hz": 50.0,
                  "annotations": [], "meta": {}}
        text = json.dumps(header) + '\n{"tension": 20.5, "t": 0.0}\n\n  {"t" : 0.02 ,"tension":21}\n'
        trace = SignalTrace.from_jsonl(text)
        assert trace.t.tolist() == [0.0, 0.02]
        assert trace.samples.tolist() == [20.5, 21.0]

    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            SignalTrace.from_jsonl('{"schema": "exobench/other-v9"}\n')

    def test_rejects_empty_text(self):
        with pytest.raises(ValueError, match="empty"):
            SignalTrace.from_jsonl("")

    @pytest.mark.parametrize("row, error", [
        ('{"t":0.0}', "sample 1 must be an object with keys 't' and 'tension'"),
        ('{"tension":20.0}', "sample 1 must be an object with keys 't' and 'tension'"),
        ("[1,2]", "sample 1 must be an object"),
        ("null", "sample 1 must be an object"),
        ('"t"', "sample 1 must be an object"),
        ('{"t":0.02,"tension":20.0},{"t":0.04,"tension":20.0}', "exactly one JSON value"),
        ('{"t":0.02,', r"sample 1 is not valid JSON \(Expecting property name .* at column 11\), "
                       r"got '\{\"t\":0.02,'"),
    ], ids=["no-value", "no-time", "list", "null", "string", "two-values", "truncated"])
    def test_rejects_malformed_sample_rows(self, row, error):
        lines = _jsonl("load", [20.0, 20.0, 20.0]).splitlines()
        lines[2] = row
        with pytest.raises(ValueError, match=error):
            SignalTrace.from_jsonl("\n".join(lines) + "\n")

    @pytest.mark.parametrize("header, error", [
        ("[]", "header must be a JSON object"),
        ("null", "header must be a JSON object"),
        ({"rate_hz": 50.0, "annotations": []}, "header lacks kind"),
        ({"kind": "load"}, "header lacks rate_hz, annotations"),
        ({"kind": "force", "rate_hz": 50.0, "annotations": []}, "unknown trace kind 'force'"),
        ({"kind": ["emg"], "rate_hz": 50.0, "annotations": []}, r"unknown trace kind \['emg'\]"),
        ({"kind": "load", "rate_hz": None, "annotations": []}, "number rate_hz"),
        ({"kind": "load", "rate_hz": 50.0, "annotations": 3}, r"\[t_start, t_end, label\]"),
        ({"kind": "load", "rate_hz": 50.0, "annotations": [], "meta": 5},
         "header meta must be a JSON object, got 5"),
        ({"kind": "load", "rate_hz": 50.0, "annotations": [], "meta": ["a"]},
         r"header meta must be a JSON object, got \['a'\]"),
    ], ids=["list", "null", "no-kind", "no-rate-or-annotations", "bad-kind", "list-kind",
            "null-rate", "number-annotations", "number-meta", "list-meta"])
    def test_rejects_malformed_headers(self, header, error):
        if isinstance(header, dict):
            header = json.dumps({"schema": signals.TRACE_SCHEMA, **header})
        text = header + "\n" + "\n".join(_jsonl("load", [20.0]).splitlines()[1:]) + "\n"
        with pytest.raises(ValueError, match=error):
            SignalTrace.from_jsonl(text)

    @pytest.mark.parametrize("t0, t1", [(0.5, 0.5), (0.6, 0.5), (0.0, math.nan), (math.nan, 1.0),
                                        (0.0, math.inf), (-math.inf, 1.0), (math.inf, math.inf)])
    def test_annotation_bounds_must_be_finite_and_ordered(self, t0, t1):
        # A NaN end used to pass the length and overlap checks, and an
        # infinite one was rejected as an overlap with the next interval.
        annotations = ((t0, t1, ShoulderPosture.REST), (2.0, 3.0, ShoulderPosture.ELEVATED))
        message = re.escape(f"annotation interval must be finite with t_start < t_end, "
                            f"got [{t0!r}, {t1!r}]")
        with pytest.raises(ValueError, match=message):
            SignalTrace(kind="load", rate_hz=50.0, samples=np.full(50, 20.0), annotations=annotations)
        with pytest.raises(ValueError, match=message):
            SignalTrace.from_jsonl(_jsonl("load", [20.0]).replace(
                '"annotations": []', f'"annotations": {json.dumps([[t0, t1, "rest"]])}'))

    def test_rejects_overlapping_annotations(self):
        with pytest.raises(ValueError, match="overlap"):
            SignalTrace(
                kind="load",
                rate_hz=50.0,
                samples=np.full(50, 20.0),
                annotations=(
                    (0.0, 0.6, ShoulderPosture.REST),
                    (0.5, 1.0, ShoulderPosture.ELEVATED),
                ),
            )


# ---------------------------------------------------------------------------
# The per-sample generator loops, kept as the references for the array
# generators: same RNG draws, same float operations, one sample at a time.


def _script_annotations(script):
    annotations = []
    t0 = 0.0
    for label, duration in script:
        annotations.append((t0, t0 + duration, label))
        t0 += duration
    return annotations, t0


def _reference_emg(profile, script, rate_hz):
    rng = np.random.default_rng(profile.seed)
    annotations, total = _script_annotations(script)
    means = {lab: signals.CLASS_MEANS[_row(lab)] for lab in IntentLabel}
    std = np.sqrt(profile.noise_std * profile.noise_std)
    seg_idx = 0
    times, rows = [], []
    for t in np.arange(int(round(total * rate_hz))) / rate_hz:
        while t >= annotations[seg_idx][1] and seg_idx < len(annotations) - 1:
            seg_idx += 1
        label = annotations[seg_idx][2]
        fade = max(0.0, 1.0 - profile.drift_rate * t)
        x = means[label] * fade + rng.standard_normal(EMG_CHANNELS) * std
        if profile.crosstalk > 0.0:
            x = (1.0 - profile.crosstalk) * x + profile.crosstalk * x.mean()
        x = np.clip(x, 0.0, 1.0)
        times.append(float(t))
        rows.append([float(v) for v in x])
    return times, rows


def _reference_load(script, rate_hz, noise_std, dither_amp, dither_hz, seed):
    levels = {ShoulderPosture.REST: 20.0, ShoulderPosture.ELEVATED: 40.0,
              ShoulderPosture.DEPRESSED: 8.0}
    rng = np.random.default_rng(seed)
    annotations, total = _script_annotations(script)
    times, tensions = [], []
    seg_idx = 0
    prev_level = levels[script[0][0]]
    seg_start = 0.0
    seg_level = prev_level
    for i in range(int(round(total * rate_hz))):
        t = i / rate_hz
        while t >= annotations[seg_idx][1] and seg_idx < len(annotations) - 1:
            prev_level = levels[annotations[seg_idx][2]]
            seg_idx += 1
            seg_start = annotations[seg_idx][0]
            seg_level = levels[annotations[seg_idx][2]]
        ramp = min(0.3, annotations[seg_idx][1] - seg_start)
        if ramp > 0 and t - seg_start < ramp:
            base = prev_level + (seg_level - prev_level) * ((t - seg_start) / ramp)
        else:
            base = seg_level
        tension = base
        if dither_amp:
            tension += dither_amp * math.sin(2.0 * math.pi * dither_hz * t)
        if noise_std:
            tension += noise_std * rng.standard_normal()
        times.append(float(t))
        tensions.append(float(max(0.0, tension)))
    return times, tensions


def _assert_matches(generate, times, values):
    """The generated columns are the reference's; a script that the
    reference gives no sample is rejected instead."""
    if not times:
        with pytest.raises(ValueError, match="holds no sample"):
            generate()
        return
    trace = generate()
    assert trace.t.tolist() == times
    assert trace.samples.tolist() == values


RATES = st.sampled_from([20.0, 37.0, 50.0, 1000.0])
DURATIONS = st.sampled_from([0.05, 0.1, 0.25, 0.3, 0.7, 1.0]) | st.floats(0.01, 0.8)
UNIT = st.floats(0.0, 1.0)


class TestArrayGeneratorsMatchReference:
    @given(
        script=st.lists(st.tuples(st.sampled_from(list(IntentLabel)), DURATIONS), min_size=1, max_size=5),
        rate_hz=RATES,
        noise=UNIT,
        drift=UNIT,
        crosstalk=UNIT | st.just(0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # The square of 1e-200 underflows to 0: once the mean fades to 0, noise
    # scaled by noise_std itself would leave tiny nonzero samples.
    @example(script=[(IntentLabel.OPEN, 1.5)], rate_hz=50.0, noise=1e-200, drift=1.0,
             crosstalk=0.0, seed=0)
    def test_emg_bit_for_bit(self, script, rate_hz, noise, drift, crosstalk, seed):
        profile = signals.SignalProfile(noise_std=noise, drift_rate=drift, crosstalk=crosstalk, seed=seed)
        _assert_matches(lambda: signals.gen_emg_trace(profile, script, rate_hz=rate_hz),
                        *_reference_emg(profile, script, rate_hz))

    @given(
        script=st.lists(st.tuples(st.sampled_from(list(ShoulderPosture)), DURATIONS), min_size=1, max_size=5),
        rate_hz=RATES,
        noise_std=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 20.0),
        dither_amp=st.sampled_from([0.0, 1.5]) | st.floats(-30.0, 30.0),
        dither_hz=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_load_bit_for_bit(self, script, rate_hz, noise_std, dither_amp, dither_hz, seed):
        _assert_matches(lambda: signals.gen_load_trace(script, rate_hz=rate_hz, noise_std=noise_std,
                                                       dither_amp=dither_amp, dither_hz=dither_hz,
                                                       seed=seed),
                        *_reference_load(script, rate_hz, noise_std, dither_amp, dither_hz, seed))


# ---------------------------------------------------------------------------
# The one-call writer and reader against the per-line encoder


#: Finite floats with the spellings that differ most: signed zero,
#: subnormals and values that print in exponent form.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-07, 1e-05, 1e+16, 1.7976931348623157e+308]
#: Rates whose sample times take such spellings: at 1e-16 Hz the second
#: sample sits at 1e+16 s, at 1e5 and 1e7 Hz at 1e-05 and 1e-07 s, and at
#: 1e308 Hz and above the times are subnormal.
_RATES = (st.floats(1e-290, 1.7976931348623157e+308)
          | st.sampled_from([1e-16, 3.0, 1e5, 1e7, 1e308, 1.7976931348623157e+308]))
_ACTIVATIONS = st.floats(0.0, 1.0) | st.sampled_from([v for v in _EDGE_FLOATS if v <= 1.0])
_TENSIONS = st.floats(0.0, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def _traces(draw, kind):
    value = st.lists(_ACTIVATIONS, min_size=EMG_CHANNELS, max_size=EMG_CHANNELS) if kind == "emg" else _TENSIONS
    samples = draw(st.lists(value, max_size=12))
    return _trace(kind, samples, rate_hz=draw(_RATES))


def _assert_round_trip(trace):
    text = trace.to_jsonl()
    assert text == trace_jsonl(trace)
    again = SignalTrace.from_jsonl(text)
    # The bytes, not the values: -0.0 == 0.0, but its sign must survive.
    assert again.t.tobytes() == trace.t.tobytes()
    assert again.samples.tobytes() == trace.samples.tobytes()
    assert again.samples.shape == trace.samples.shape


class TestJsonlMatchesPerLineEncoder:
    @given(_traces("emg"))
    @example(_trace("emg", []))
    @example(_trace("emg", [[-0.0, 5e-324, 1e-07, 1.0, 0.0, 0.1, 1e-05, 0.3], _ROW], rate_hz=1e-16))
    def test_emg(self, trace):
        _assert_round_trip(trace)

    @given(_traces("load"))
    @example(_trace("load", []))
    @example(_trace("load", [-0.0]))
    @example(_trace("load", [1e+16, 5e-324], rate_hz=1e7))
    @example(_trace("load", [1e-05, 0.0, 2.0], rate_hz=1e308))
    def test_load(self, trace):
        _assert_round_trip(trace)

    def test_generated_traces_with_annotations_and_meta(self):
        emg = signals.gen_emg_trace(signals.SignalProfile(*EMG_PROFILES["distorted"], seed=5), [(IntentLabel.OPEN, 1.0), (IntentLabel.CLOSE, 1.0)])
        load = signals.gen_load_trace([(ShoulderPosture.REST, 1.0), (ShoulderPosture.ELEVATED, 1.0)],
                                      noise_std=0.3, dither_amp=1.0, seed=2)
        for trace in (emg, load):
            _assert_round_trip(trace)
