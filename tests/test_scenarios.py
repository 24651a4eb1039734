"""Scenario-chain tests: synthetic meter panels, EV-load extraction,
event detection, KDE fitting/sampling, annual Monte Carlo scenarios,
and feeder overlays.

Extraction is checked against the generator's ground truth (round-trip
energy), detection against hand-built boundary series plus a property
audit of the threshold rules, and the KDE sampler against moment
oracles computed from its own support points.
"""

import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessplan import scenarios
from bessplan.netmodel import scale_profiles
from bessplan.scenarios import (P_PEAK_KW, P_RUN_KW, EventDistributions, Kde,
                                ScenarioError, ScenarioSet, SynthParams,
                                _draw_sessions, _write_sessions,
                                detect_events, extract_ev_load,
                                fit_event_distributions, fit_kde,
                                generate_annual, overlay_penetration,
                                read_distributions, synth_households,
                                write_distributions, write_scenarios)
from helpers_power import base_profiles, load_bundled


def sample_events(dist, n, seed=0):
    """Draw n charging sessions from fitted distributions, as the annual
    scenarios draw their charging days' sessions: (n, 3) rows of start
    hour, duration h and energy kWh."""
    durs, energies, starts = _draw_sessions(dist, n,
                                            np.random.default_rng(seed))
    return np.column_stack([starts, durs, energies])


def place(series, t0, duration, p):
    """Add one constant-power session to series: p on its full hours,
    then p times the remainder on the next hour when the remainder
    exceeds 1e-12 h."""
    full = int(duration)
    series[t0:t0 + full] += p
    if duration - full > 1e-12:
        series[t0 + full] += p * (duration - full)


@pytest.fixture(scope="module")
def panel():
    """Default synthetic panel, seed 1: (composite, truth, baseline)."""
    return synth_households(seed=1)


@pytest.fixture(scope="module")
def fitted(panel):
    """Distributions fitted from the panel's ground-truth events."""
    _, truth, _ = panel
    return fit_event_distributions(np.vstack(truth))


def point_dist(duration, energy, start=20.5, bw=1e-9):
    """Degenerate distributions that always draw one fixed event.

    start should sit mid-bin: the sampler floors it to an hour, and
    jitter around an exact integer can drop a bin. A bw far below the
    values' float spacing (1e-300) draws them exactly.
    """
    joint = Kde(np.tile([duration, energy], (12, 1)), np.full(2, bw))
    hour = Kde(np.full((12, 1), start), np.array([bw]))
    return EventDistributions(joint, hour)


def reference_annual(dist, n, daily_prob, seed, days):
    """generate_annual's series and events, placed session by session.

    Same streams and overlap fix-up; each kept session is added with
    place.
    """
    H = 24 * days
    series = np.zeros((n, H))
    events = []
    for k in range(n):
        rng = np.random.default_rng([seed, k])
        charging = np.flatnonzero(rng.random(days) < daily_prob)
        durs, energies, h0 = _draw_sessions(dist, len(charging), rng)
        rows = []
        busy_until = 0.0
        for t0, dur, energy in zip((charging * 24 + h0).tolist(),
                                   durs.tolist(), energies.tolist()):
            if t0 < busy_until:
                t0 = math.ceil(busy_until)
            if t0 >= H:
                continue
            p = energy / dur
            dur = min(dur, float(H - t0))
            place(series[k], t0, dur, p)
            if p * dur > 0:
                rows.append((float(t0), dur, p * dur))
                busy_until = t0 + dur
        events.append(np.array(rows).reshape(-1, 3))
    return series, events


def reference_households(params, seed):
    """synth_households' panels and events, placed session by session.

    Same stream: the homes' amplitude factors, the baseline noise, then
    per home and day a coin flip and, on a charging day, the session's
    energy, average power and start hour.
    """
    rng = np.random.default_rng(seed)
    H = 24 * params.days
    w = np.asarray(scenarios._START_WEIGHTS)
    w = w / w.sum()
    mu = np.log(scenarios._ENERGY_MODE_KWH) + scenarios._ENERGY_SIGMA ** 2
    factors = rng.uniform(0.8, 1.2, size=params.n_homes)
    base = factors[None, :] * np.tile(scenarios._DAILY_SHAPE,
                                      params.days)[:, None]
    base = np.clip(base + rng.normal(0.0, params.noise_kw,
                                     size=(H, params.n_homes)), 0.0, None)
    ev = np.zeros_like(base)
    events = []
    for k in range(params.n_homes):
        rows = []
        for d in range(params.days):
            if rng.random() >= params.event_rate:
                continue
            energy = rng.lognormal(mu, scenarios._ENERGY_SIGMA)
            p = rng.uniform(scenarios._P_LO_KW, scenarios._P_HI_KW)
            t0 = d * 24 + int(rng.choice(24, p=w))
            dur = min(energy / p, float(H - t0))
            place(ev[:, k], t0, dur, p)
            rows.append((float(t0), dur, p * dur))
        events.append(np.array(rows).reshape(-1, 3))
    return base + ev, events, base


class TestWriteSessions:
    def test_matches_session_by_session_placement(self):
        # session 1 overlaps session 0 and starts in its tail hour 2;
        # session 2 starts in session 1's tail hour; session 3's
        # remainder is below 1e-12 h, so it has no tail hour; session 4
        # ends exactly at the end of the row
        t0 = np.array([0, 2, 4, 6, 8])
        dur = np.array([2.5, 2.25, 0.75, 1.0 + 1e-13, 2.0])
        p = np.array([3.0, 4.1, 2.2, 5.0, 6.3])
        row = np.zeros(10)
        _write_sessions(row, t0, dur, p)
        want = np.zeros(10)
        for args in zip(t0.tolist(), dur.tolist(), p.tolist()):
            place(want, *args)
        assert row.tobytes() == want.tobytes()
        assert row[2] == 3.0 * 0.5 + 4.1
        assert row.sum() == pytest.approx(float(p @ dur), rel=1e-12)

    def test_random_overlapping_sessions_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n, H = 40, 200
            t0 = rng.integers(0, H - 30, size=n)
            dur = np.minimum(rng.uniform(0.01, 30.0, size=n), H - t0)
            p = rng.uniform(0.5, 11.0, size=n)
            panel = np.zeros((H, 3))
            _write_sessions(panel[:, 1], t0, dur, p)
            want = np.zeros(H)
            for args in zip(t0.tolist(), dur.tolist(), p.tolist()):
                place(want, *args)
            assert panel[:, 1].tobytes() == want.tobytes()
            assert not panel[:, [0, 2]].any()

    def test_no_sessions_leave_the_row(self):
        row = np.arange(5.0)
        _write_sessions(row, np.empty(0, np.intp), np.empty(0),
                        np.empty(0))
        assert row.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestSynthHouseholds:
    def test_zero_event_rate_is_identity(self):
        comp, truth, base = synth_households(
            SynthParams(event_rate=0.0), seed=5)
        assert np.array_equal(comp, base)
        assert sum(len(t) for t in truth) == 0

    def test_embedded_energy_integrates_exactly(self):
        # noise-free single home: composite minus baseline is exactly
        # the embedded sessions
        params = SynthParams(n_homes=1, days=4, event_rate=1.0, noise_kw=0.0)
        comp, truth, base = synth_households(params, seed=1)
        want = truth[0][:, 2].sum()
        assert abs((comp - base).sum() - want) < 1e-9

    def test_panel_energy_conservation(self, panel):
        comp, truth, base = panel
        want = np.vstack(truth)[:, 2].sum()
        assert abs((comp - base).sum() - want) < 1e-9

    def test_start_histogram_mode_in_evening(self, panel):
        _, truth, _ = panel
        starts = np.vstack(truth)[:, 0].astype(int) % 24
        hist = np.bincount(starts, minlength=24)
        assert 19 <= int(np.argmax(hist)) <= 23

    def test_energy_calibration(self, panel):
        _, truth, _ = panel
        energies = np.vstack(truth)[:, 2]
        assert len(energies) > 100
        # mode near 10 kWh, long tail cut well before 30
        assert 7.0 < np.median(energies) < 20.0
        assert np.mean(energies < 30.0) > 0.9

    def test_truth_p_avg_within_sampled_range(self, panel):
        # sessions draw their average power from [4.2, 7.0] kW, inside
        # the band between the run and peak thresholds
        _, truth, _ = panel
        ev = np.vstack(truth)
        p = ev[:, 2] / ev[:, 1]
        assert np.all((4.2 - 1e-9 <= p) & (p <= 7.0 + 1e-9))
        assert np.all((P_RUN_KW < p) & (p < P_PEAK_KW))

    def test_shapes_and_nonnegativity(self, panel):
        comp, truth, base = panel
        assert comp.shape == base.shape == (60 * 24, 6)
        assert base.min() >= 0.0
        assert comp.min() >= 0.0
        assert len(truth) == 6
        assert all(ev.ndim == 2 and ev.shape[1] == 3 for ev in truth)
        assert not any(ev.flags.writeable for ev in truth)

    def test_seed_determinism(self):
        a = synth_households(seed=11)
        b = synth_households(seed=11)
        assert np.array_equal(a[0], b[0])
        assert all(np.array_equal(x, y)
                   for x, y in zip(a[1], b[1], strict=True))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_session_by_session_placement(self, seed):
        params = SynthParams()
        comp, truth, base = synth_households(params, seed=seed)
        want_comp, want_truth, want_base = reference_households(params, seed)
        assert comp.tobytes() == want_comp.tobytes()
        assert base.tobytes() == want_base.tobytes()
        for got, want in zip(truth, want_truth, strict=True):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_parameter_validation(self):
        with pytest.raises(ScenarioError, match="event_rate"):
            SynthParams(event_rate=1.5)
        with pytest.raises(ScenarioError, match="home"):
            SynthParams(n_homes=0)


class TestExtractEvLoad:
    def test_self_subtraction_is_zero(self, panel):
        _, _, base = panel
        bavg = base.mean(axis=1)
        res = extract_ev_load(bavg, bavg)
        assert res.max() <= 1e-12

    def test_round_trip_energy(self):
        # ground-truth oracle: the generator records every embedded kWh
        for seed in range(5):
            comp, truth, base = synth_households(seed=seed)
            want = np.vstack(truth)[:, 2].sum()
            got = extract_ev_load(comp, base).sum()
            assert 0.9 * want < got < 1.1 * want

    @pytest.mark.parametrize("shift", [1, -1, 2])
    def test_alignment_removes_pure_shift(self, panel, shift):
        _, _, base = panel
        bavg = base.mean(axis=1)
        res = extract_ev_load(np.roll(bavg, shift), bavg)
        assert res.max() <= 1e-9

    def test_amplitude_rescaling_cancels(self, panel):
        # a clean home with 1.3x the reference amplitude carries no EV
        # load; the anchor mapping must absorb the scale exactly
        _, _, base = panel
        bavg = base.mean(axis=1)
        res = extract_ev_load(1.3 * bavg, bavg)
        assert res.max() <= 1e-9

    def test_panel_input_matches_per_column(self, panel):
        comp, _, base = panel
        whole = extract_ev_load(comp, base)
        bavg = base.mean(axis=1)
        for j in range(comp.shape[1]):
            assert np.array_equal(whole[:, j], extract_ev_load(comp[:, j], bavg))

    def test_extraction_localizes_in_time(self, panel):
        # recovered energy must sit on the embedded session hours, not
        # be smeared across the day
        comp, truth, base = panel
        ext = extract_ev_load(comp, base)
        H = comp.shape[0]
        on_event = 0.0
        for j, per in enumerate(truth):
            mask = np.zeros(H, dtype=bool)
            for start, dur, _ in per.tolist():
                a = int(start)
                mask[a:min(H, a + math.ceil(dur) + 1)] = True
            on_event += ext[mask, j].sum()
        assert on_event > 0.95 * ext.sum()

    def test_length_mismatch_raises(self):
        with pytest.raises(ScenarioError, match="mismatch"):
            extract_ev_load(np.ones(48), np.ones(47))


class TestDetectEvents:
    def test_two_hour_rule_boundary(self):
        events = detect_events([0, 5, 5, 0])
        assert events.tolist() == [[1.0, 2.0, 10.0]]

    def test_single_hour_below_peak_rule(self):
        assert detect_events([0, 5, 0]).shape == (0, 3)

    def test_sessions_are_read_only_rows(self):
        events = detect_events([0, 5, 5, 0, 9, 0])
        assert events.shape == (2, 3) and events.dtype == float
        assert not events.flags.writeable

    def test_single_hour_peak_rule(self):
        events = detect_events([0, 8, 0])
        assert events.tolist() == [[1.0, 1.0, 8.0]]

    def test_thresholds_are_strict(self):
        assert len(detect_events([0, 4.0, 4.0, 0])) == 0
        assert len(detect_events([0, 7.2, 0])) == 0
        assert len(detect_events([0, 4.001, 4.001, 0])) == 1
        assert len(detect_events([0, 7.201, 0])) == 1

    def test_run_at_series_edges(self):
        events = detect_events([5, 5, 0, 0, 6, 6])
        assert events[:, :2].tolist() == [[0.0, 2.0], [4.0, 2.0]]

    def test_energy_is_run_integral(self):
        x = np.array([0, 5.0, 6.0, 4.5, 0])
        events = detect_events(x)
        assert events.tolist() == [[1.0, 3.0, x[1:4].sum()]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=48))
    def test_rules_hold_exactly(self, series):
        x = np.asarray(series)
        events = detect_events(x)
        covered = np.zeros(len(x), dtype=bool)
        for start, dur, energy in events.tolist():
            a, b = int(start), int(start + dur)
            run = x[a:b]
            # every hour above 4 kW, rule 1 or rule 2 satisfied
            assert np.all(run > 4.0)
            assert len(run) >= 2 or run.max() > 7.2
            # maximality: neighbors at or below 4 kW
            assert a == 0 or x[a - 1] <= 4.0
            assert b == len(x) or x[b] <= 4.0
            assert energy == run.sum()
            covered[a:b] = True
        # nothing qualifying was missed: uncovered runs fail both rules
        i = 0
        while i < len(x):
            if x[i] <= 4.0 or covered[i]:
                i += 1
                continue
            j = i
            while j < len(x) and x[j] > 4.0 and not covered[j]:
                j += 1
            assert (j - i) < 2 and x[i:j].max() <= 7.2
            i = j


class TestFitKde:
    def test_needs_ten_samples(self):
        with pytest.raises(ScenarioError, match="10 samples"):
            fit_kde(np.arange(9.0))

    def test_silverman_bandwidth_1d(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 2.0, 100)
        kde = fit_kde(x)
        want = x.std(ddof=1) * (4.0 / (3.0 * 100)) ** 0.2
        assert kde.bw[0] == pytest.approx(want, rel=1e-12)

    def test_silverman_bandwidth_2d(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 2)) * [1.0, 5.0]
        kde = fit_kde(pts)
        factor = (4.0 / (4.0 * 50)) ** (1.0 / 6.0)
        want = pts.std(axis=0, ddof=1) * factor
        assert np.allclose(kde.bw, want, rtol=1e-12)

    def test_zero_variance_floor(self):
        kde = fit_kde(np.full(20, 3.5))
        assert kde.bw[0] == 1e-6
        draws = kde.sample(100, np.random.default_rng(0))
        assert np.all(np.abs(draws - 3.5) < 1e-5)

    def test_2d_sampler_moments(self, fitted):
        # sampler oracle: jitter is zero-mean, so draw means converge
        # to the support means
        rng = np.random.default_rng(7)
        draws = fitted.joint.sample(100_000, rng)
        want = fitted.joint.points.mean(axis=0)
        assert np.all(np.abs(draws.mean(axis=0) - want) <= 0.02 * np.abs(want))

    def test_kde_validation(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            Kde(np.ones((5, 2)), np.array([1.0]))
        with pytest.raises(ScenarioError, match="positive"):
            Kde(np.ones((5, 1)), np.array([0.0]))
        with pytest.raises(ScenarioError, match="finite"):
            Kde(np.array([[1.0], [np.nan]]), np.array([0.5]))
        with pytest.raises(ScenarioError, match="finite"):
            Kde(np.ones((5, 2)), np.array([0.5, np.inf]))
        with pytest.raises(ScenarioError, match=r"\(n, d\)"):
            fit_kde(np.ones((12, 2, 2)))


class TestEventDistributions:
    def test_dimension_checks(self, fitted):
        with pytest.raises(ScenarioError, match="joint"):
            EventDistributions(fitted.start, fitted.start)
        with pytest.raises(ScenarioError, match="one-dimensional"):
            EventDistributions(fitted.joint, fitted.joint)


class TestSampleEvents:
    def test_low_class_draw(self):
        # 10 h at 30 kWh averages 3 kW, below the run threshold
        events = sample_events(point_dist(10.0, 30.0), 5, seed=0)
        p = events[:, 2] / events[:, 1]
        assert np.all(p < P_RUN_KW)
        assert np.all(np.abs(p - 3.0) < 1e-6)

    def test_high_class_draw(self):
        # 1 h at 8 kWh averages 8 kW, above the peak threshold
        events = sample_events(point_dist(1.0, 8.0), 5, seed=0)
        assert np.all(events[:, 2] / events[:, 1] > P_PEAK_KW)

    def test_start_hours_integral(self, fitted):
        start = sample_events(fitted, 200, seed=3)[:, 0]
        assert np.all((start == np.floor(start)) & (0 <= start)
                      & (start <= 23))

    def test_seed_determinism(self, fitted):
        a = sample_events(fitted, 40, seed=5)
        b = sample_events(fitted, 40, seed=5)
        c = sample_events(fitted, 40, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejection_cap(self):
        bad = point_dist(-5.0, -5.0)
        with pytest.raises(ScenarioError, match="rejected"):
            sample_events(bad, 1, seed=0)

    def test_rejection_redraws_only_non_positive_pairs(self):
        # half the support is non-positive: every kept draw comes from
        # the positive half
        joint = Kde(np.array([[-1.0, -1.0]] * 6 + [[2.0, 10.0]] * 6),
                    np.full(2, 1e-9))
        dist = EventDistributions(joint, Kde(np.full((12, 1), 20.5),
                                             np.array([1e-9])))
        events = sample_events(dist, 300, seed=2)
        assert len(events) == 300
        assert np.all(np.abs(events[:, 1:] - [2.0, 10.0]) < 1e-6)

    def test_class_proportions_stable_across_seeds(self, fitted):
        # repeated-seed statistics: the shares of sessions averaging
        # below P_RUN_KW, between the thresholds and above P_PEAK_KW
        # differ by at most a few binomial standard errors
        n = 4000
        shares = []
        for seed in (1, 2):
            events = sample_events(fitted, n, seed=seed)
            p = events[:, 2] / events[:, 1]
            shares.append(np.array([
                np.mean(p < P_RUN_KW),
                np.mean((P_RUN_KW <= p) & (p <= P_PEAK_KW)),
                np.mean(p > P_PEAK_KW)]))
        p = (shares[0] + shares[1]) / 2
        se = np.sqrt(2 * p * (1 - p) / n)
        assert np.all(np.abs(shares[0] - shares[1]) <= 4 * se + 1e-12)


class TestGenerateAnnual:
    def test_zero_probability(self, fitted):
        sset = generate_annual(fitted, 3, 0.0, seed=1)
        assert sset.series.shape == (3, 8760)
        assert sset.series.sum() == 0.0
        assert all(ev.shape == (0, 3) for ev in sset.events)

    def test_energy_conservation(self, fitted):
        sset = generate_annual(fitted, 5, 0.9, seed=7)
        for k in range(sset.n):
            want = sset.events[k][:, 2].sum()
            assert abs(sset.series[k].sum() - want) < 1e-9

    def test_events_never_overlap(self, fitted):
        sset = generate_annual(fitted, 4, 1.0, seed=2)
        for evs in sset.events:
            start, dur = evs[:, 0], evs[:, 1]
            assert np.all(start[1:] >= start[:-1] + dur[:-1] - 1e-9)

    def test_seed_determinism(self, fitted):
        a = generate_annual(fitted, 6, 0.9, seed=4)
        b = generate_annual(fitted, 6, 0.9, seed=4)
        assert np.array_equal(a.series, b.series)
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.events, b.events, strict=True))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_one_day_stream_matches_day_by_day_draw(self, fitted, mixed):
        # for days == 1 the batched draw consumes each scenario's stream
        # exactly as one coin flip, then one draw at a time, would
        dist = fitted
        if mixed:
            pts = np.vstack([fitted.joint.points,
                             -np.abs(fitted.joint.points)])
            dist = EventDistributions(Kde(pts, fitted.joint.bw),
                                      fitted.start)
        sset = generate_annual(dist, 25, 0.7, seed=9, days=1)
        for k, events in enumerate(sset.events):
            rng = np.random.default_rng([9, k])
            if rng.random() >= 0.7:
                assert events.shape == (0, 3)
                continue
            while True:
                dur, energy = dist.joint.sample(1, rng)[0]
                if dur > 0 and energy > 0:
                    break
            start = int(np.floor(dist.start.sample(1, rng)[0, 0])) % 24
            ((ev_start, ev_dur, ev_energy),) = events
            assert ev_start == start
            assert ev_dur == min(dur, 24.0 - start)
            assert ev_energy / ev_dur == pytest.approx(energy / dur, rel=1e-12)

    def test_mean_charging_days(self, fitted):
        # Bernoulli oracle: 365 days at 0.9 gives 328.5 expected days,
        # per-scenario sigma 5.73, so the 40-scenario mean sits within
        # 3 standard errors
        sset = generate_annual(fitted, 40, 0.9, seed=11)
        days = [len(ev) for ev in sset.events]
        se = np.sqrt(365 * 0.9 * 0.1 / 40)
        assert abs(np.mean(days) - 328.5) <= 3 * se

    def test_spillover_carries_into_next_day(self):
        # 30 h sessions from 23:00: energy must land beyond the start
        # day, never be truncated mid-horizon
        dist = point_dist(30.0, 150.0, start=23.5)
        sset = generate_annual(dist, 1, 1.0, seed=0, days=4)
        evs = sset.events[0]
        assert evs[0, 0] == 23.0
        assert evs[0, 1] == pytest.approx(30.0, abs=1e-6)
        # day 1 carries the spillover hours
        assert sset.series[0, 24:48].sum() > 0
        want = evs[:, 2].sum()
        assert abs(sset.series[0].sum() - want) < 1e-9
        # truncation only at the horizon end
        start, dur = evs[-1, :2]
        assert start + dur <= 96 + 1e-9

    @pytest.mark.parametrize("case", [
        "fitted", "spill30", "integral", "tiny_tail", "tail_below_spacing"])
    def test_matches_session_by_session_placement(self, fitted, case):
        # 24 h + 1.5e-12 from 20:00 over 700 days: past hour 2**14 a
        # session's end rounds down to its tail hour, where the next
        # session starts
        dist, runs = {
            "fitted": (fitted, [(s, d, 0.8) for s in (0, 3, 9)
                                for d in (1, 4, 366)]),
            "spill30": (point_dist(30.0, 150.0, start=23.5),
                        [(s, d, 1.0) for s in (0, 5) for d in (1, 4, 366)]),
            "integral": (point_dist(24.0, 120.0, bw=1e-300),
                         [(s, d, 0.9) for s in (0, 5) for d in (1, 4, 366)]),
            "tiny_tail": (point_dist(2.0 + 5e-13, 11.0, bw=1e-300),
                          [(s, d, 0.9) for s in (0, 5) for d in (1, 4, 366)]),
            "tail_below_spacing": (
                point_dist(24.0 + 1.5e-12, 120.0, bw=1e-300), [(1, 700, 1.0)]),
        }[case]
        for seed, days, prob in runs:
            sset = generate_annual(dist, 3, prob, seed=seed, days=days)
            series, events = reference_annual(dist, 3, prob, seed, days)
            assert np.array_equal(sset.series, series)
            for got, want in zip(sset.events, events, strict=True):
                assert np.array_equal(got, want)

    def test_validation(self, fitted):
        with pytest.raises(ScenarioError, match="daily_prob"):
            generate_annual(fitted, 2, 1.2, seed=0)
        with pytest.raises(ScenarioError, match="scenario"):
            generate_annual(fitted, 0, 0.5, seed=0)
        with pytest.raises(ScenarioError, match="day"):
            generate_annual(fitted, 2, 0.5, seed=0, days=0)


@pytest.fixture(scope="module")
def annual(fitted):
    return generate_annual(fitted, 8, 0.9, seed=21)


@pytest.fixture(scope="module")
def net():
    return load_bundled("ieee33")


@pytest.fixture(scope="module")
def base(net):
    return base_profiles(net, "2030-06-01T00", 72)


class TestOverlayPenetration:
    def test_zero_penetration_is_scaled_base(self, net, base, annual):
        out = overlay_penetration(net, base, annual, 0.0, growth=1.2, seed=0)
        want = scale_profiles(base, 1.2)
        assert np.array_equal(out.p_kw, want.p_kw)
        assert np.array_equal(out.q_kvar, want.q_kvar)

    def test_partial_penetration_bus_count(self, net, base, annual):
        out = overlay_penetration(net, base, annual, 0.6, seed=5)
        changed = np.sum(np.any(out.p_kw != base.p_kw, axis=0))
        # round(0.6 * 32) load buses
        assert changed == 19

    def test_full_penetration(self, net, base, annual):
        out = overlay_penetration(net, base, annual, 1.0, seed=5)
        changed = np.sum(np.any(out.p_kw != base.p_kw, axis=0))
        assert changed == 32

    def test_reactive_power_untouched(self, net, base, annual):
        out = overlay_penetration(net, base, annual, 0.8, growth=1.1, seed=9)
        assert np.array_equal(out.q_kvar, base.q_kvar * 1.1)

    def test_additions_are_nonnegative(self, net, base, annual):
        out = overlay_penetration(net, base, annual, 0.5, growth=1.3, seed=4)
        want = scale_profiles(base, 1.3)
        assert np.all(out.p_kw >= want.p_kw - 1e-12)

    def test_seed_controls_subset(self, net, base, annual):
        a = overlay_penetration(net, base, annual, 0.5, seed=1)
        b = overlay_penetration(net, base, annual, 0.5, seed=1)
        c = overlay_penetration(net, base, annual, 0.5, seed=2)
        assert np.array_equal(a.p_kw, b.p_kw)
        assert not np.array_equal(a.p_kw, c.p_kw)

    def test_penetration_range(self, net, base, annual):
        with pytest.raises(ScenarioError, match="penetration"):
            overlay_penetration(net, base, annual, 1.01)

    def test_sessions_land_on_their_clock_hour(self, net):
        # one charger with a 19:00 session each day; the horizon starts
        # at 18:00, so the row stamped 19:00 is row 1
        series = np.zeros((1, 72))
        series[0, [19, 43, 67]] = 7.0
        sset = ScenarioSet(series, ((),), 0, 1.0)
        base = base_profiles(net, "2030-06-01T18", 48)
        out = overlay_penetration(net, base, sset, 1.0 / 32, seed=3)
        added = (out.p_kw - base.p_kw).sum(axis=1)
        assert np.flatnonzero(added).tolist() == [1, 25]
        assert out.horizon[1] == np.datetime64("2030-06-01T19")
        with pytest.raises(ScenarioError, match="clock hour 18"):
            overlay_penetration(net, base, ScenarioSet(
                series[:, :60], ((),), 0, 1.0), 1.0 / 32)

    def test_scenarios_must_cover_horizon(self, net, annual):
        long_base = base_profiles(net, "2030-01-01T00", 9000)
        with pytest.raises(ScenarioError, match="hours"):
            overlay_penetration(net, long_base, annual, 0.5)


class TestScenarioSetValidation:
    def test_negative_series_rejected(self):
        with pytest.raises(ScenarioError, match="non-negative"):
            ScenarioSet(np.array([[1.0, -0.1]]), ((),), 0, 0.5)

    def test_shape_and_event_count(self):
        with pytest.raises(ScenarioError, match="hours"):
            ScenarioSet(np.ones(5), ((),), 0, 0.5)
        with pytest.raises(ScenarioError, match="event list"):
            ScenarioSet(np.ones((2, 4)), ((),), 0, 0.5)

    def test_events_are_read_only_rows(self):
        sset = ScenarioSet(np.ones((2, 4)), ((), [[0.0, 1.5, 3.0]]), 0, 0.5)
        assert [ev.shape for ev in sset.events] == [(0, 3), (1, 3)]
        assert not any(ev.flags.writeable for ev in sset.events)
        with pytest.raises(ScenarioError, match=r"\(k, 3\)"):
            ScenarioSet(np.ones((1, 4)), ([0.0, 1.5],), 0, 0.5)


class TestFiles:
    def test_scenarios_csv_bytes(self, fitted, tmp_path):
        sset = generate_annual(fitted, 3, 0.8, seed=4, days=366)
        path = os.path.join(tmp_path, "scenarios.csv")
        write_scenarios(path, sset)
        buf = io.StringIO()
        out = csv.writer(buf, lineterminator="\r\n")
        out.writerow(["scenario", "day", "hour", "kw"])
        for k, row in enumerate(sset.series):
            for t, kw in enumerate(row.tolist()):
                if kw:
                    out.writerow([k, t // 24, t % 24, kw])
        want = (f"# seed=4 daily_prob=0.8 n=3 hours=8784\n{buf.getvalue()}")
        with open(path, "rb") as fh:
            assert fh.read() == want.encode()

    def test_distribution_round_trip(self, fitted, tmp_path):
        path = os.path.join(tmp_path, "dist.json")
        write_distributions(path, fitted)
        back = read_distributions(path)
        assert np.array_equal(back.joint.points, fitted.joint.points)
        assert np.array_equal(back.joint.bw, fitted.joint.bw)
        assert np.array_equal(back.start.points, fitted.start.points)
        assert np.array_equal(back.start.bw, fitted.start.bw)

    def test_snapshot_missing_field(self, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w") as fh:
            fh.write('{"joint": {"points": [[1, 2]], "bw": [0.1, 0.1]}}')
        with pytest.raises(ScenarioError, match="missing"):
            read_distributions(path)
