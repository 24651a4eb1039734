"""EV charging scenario machinery.

Covers the full chain from raw household meter signals to bus-level
load overlays: a synthetic composite-signal generator (stand-in for
real smart-meter panels), the five-stage EV-load extraction pipeline,
threshold event detection, Gaussian KDE models of (duration, energy)
and start hour, and Monte Carlo synthesis of annual per-charger
scenarios that can be overlaid on a feeder at a chosen penetration
level. A charging session is always one row of a read-only (k, 3)
float array: start hour (offset into its series), duration h, energy
kWh.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .netmodel import (LoadProfileSet, Network, _frozen, _own_frozen,
                       scale_profiles)

# Event rules on an hourly series: a session is a maximal run of hours
# above P_RUN_KW lasting at least MIN_RUN_H, or any single hour above
# P_PEAK_KW.
P_RUN_KW = 4.0
MIN_RUN_H = 2
P_PEAK_KW = 7.2

# Amplitude anchors for the extraction pipeline: the 5th percentile
# tracks the overnight floor, the 80th the evening shoulder. The upper
# anchor deliberately sits below the quantile range that charging hours
# (a few percent of the year) can pollute.
_ANCHOR_LO = 5.0
_ANCHOR_HI = 80.0

# Daily profile percentile whose minimum defines the alignment trough.
_TROUGH_PCT = 95.0

_REJECT_CAP = 1000

_KDE_MIN_SAMPLES = 10
_BW_FLOOR = 1e-6


class ScenarioError(ValueError):
    """Raised for invalid scenario inputs or a failed sampling run."""


def check_share(name, value):
    """Raise unless value, a probability or a share, lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ScenarioError(f"{name} must lie in [0, 1], got {value}")


def check_scenario_count(n_scenarios):
    """Raise unless at least one scenario is asked for."""
    if not 1 <= n_scenarios:
        raise ScenarioError(f"need at least one scenario, got {n_scenarios}")


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Kde:
    """Product-kernel Gaussian KDE with a per-dimension bandwidth.

    points : (n, d) support samples
    bw     : (d,) bandwidths
    """

    points: np.ndarray
    bw: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        bw = np.asarray(self.bw, dtype=float).reshape(-1)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ScenarioError("KDE support must be a non-empty (n, d) array")
        if bw.shape != (pts.shape[1],):
            raise ScenarioError(
                f"bandwidth shape {bw.shape} does not match dimension {pts.shape[1]}")
        if not (np.isfinite(pts).all() and np.isfinite(bw).all()):
            raise ScenarioError("KDE points and bandwidths must be finite")
        if not np.all(bw > 0):
            raise ScenarioError("bandwidths must be positive")
        pts = pts.copy()
        pts.setflags(write=False)
        bw = bw.copy()
        bw.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "bw", bw)

    @property
    def dim(self):
        return self.points.shape[1]

    def sample(self, n, rng):
        """n draws: a support point plus per-dimension Gaussian jitter."""
        idx = rng.integers(0, len(self.points), size=n)
        return self.points[idx] + rng.normal(size=(n, self.dim)) * self.bw


@dataclass(frozen=True)
class EventDistributions:
    """Fitted charging-event model: joint (duration, energy) and start hour."""

    joint: Kde
    start: Kde

    def __post_init__(self):
        if self.joint.dim != 2:
            raise ScenarioError("joint KDE must cover (duration, energy)")
        if self.start.dim != 1:
            raise ScenarioError("start-hour KDE must be one-dimensional")


def _event_array(events):
    """events as a read-only (k, 3) float array; empty reads as (0, 3)."""
    out = _own_frozen(events)
    if not out.size:
        return _frozen(np.empty((0, 3)))
    if out.ndim != 2 or out.shape[1] != 3:
        raise ScenarioError(
            f"scenario events must be (k, 3) rows, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class ScenarioSet:
    """Annual per-charger hourly kW series plus their generating events.

    series : (n, H) kW, one row per scenario
    events : per-scenario read-only (k, 3) float arrays, one row per
             session: start hour (offset into the series), duration h
             and energy kWh, in start order; any empty sequence reads
             as no session
    """

    series: np.ndarray
    events: tuple
    seed: int
    daily_prob: float

    def __post_init__(self):
        s = _own_frozen(self.series)
        if s.ndim != 2:
            raise ScenarioError("scenario series must be (n, hours)")
        if s.size and s.min() < 0:
            raise ScenarioError("scenario series must be non-negative")
        if len(self.events) != s.shape[0]:
            raise ScenarioError("event list length does not match scenario count")
        object.__setattr__(self, "series", s)
        object.__setattr__(self, "events",
                           tuple(_event_array(ev) for ev in self.events))

    @property
    def n(self):
        return self.series.shape[0]

    @property
    def n_hours(self):
        return self.series.shape[1]


# ---------------------------------------------------------------------------
# synthetic household generator


# Household daily shape, kW by hour of day: morning and evening peaks,
# a deep workday valley at 13:00. The valley must be sharp and
# session-free: the extraction pipeline aligns series on the trough of
# the 95th-percentile daily profile, and evening sessions spilling past
# midnight pollute the overnight quantiles, so the overnight floor
# cannot serve as a stable trough.
_DAILY_SHAPE = (
    0.62, 0.58, 0.55, 0.53, 0.55, 0.60, 0.75, 0.95,
    1.05, 0.95, 0.80, 0.66, 0.52, 0.40, 0.52, 0.62,
    0.75, 0.95, 1.25, 1.45, 1.50, 1.35, 1.05, 0.80,
)
# Hour-of-day session start weights: bulk in the evening, a small
# overnight and morning tail, none in the 10:00-15:00 valley (owners
# away; also keeps the alignment trough hour free of sessions).
_START_WEIGHTS = (
    0.010, 0.006, 0.004, 0.002, 0.002, 0.002,
    0.004, 0.008, 0.010, 0.006, 0.000, 0.000,
    0.000, 0.000, 0.000, 0.000, 0.008, 0.020,
    0.060, 0.150, 0.240, 0.230, 0.150, 0.088,
)
# Session energy is lognormal with this mode (kWh) and shape, so that
# energies peak near 10 kWh and rarely exceed 30 kWh; average power is
# uniform in [_P_LO_KW, _P_HI_KW].
_ENERGY_MODE_KWH = 10.0
_ENERGY_SIGMA = 0.5
_P_LO_KW = 4.2
_P_HI_KW = 7.0


@dataclass(frozen=True)
class SynthParams:
    """Knobs of the synthetic smart-meter panel; the household shape and
    the session model are the module's _DAILY_SHAPE to _P_HI_KW."""

    n_homes: int = 6
    days: int = 60
    event_rate: float = 0.5        # per-home daily session probability
    noise_kw: float = 0.03         # hourly Gaussian noise sigma

    def __post_init__(self):
        if self.n_homes < 1 or self.days < 1:
            raise ScenarioError("need at least one home and one day")
        if not 0.0 <= self.event_rate <= 1.0:
            raise ScenarioError(f"event_rate must lie in [0, 1], got {self.event_rate}")


def _write_sessions(row, t0, dur, p):
    """Add constant-power sessions to row, an hourly kW series.

    Session i starts at integer hour t0[i] and runs dur[i] h at p[i] kW,
    dur[i] already cut at the end of the row. Its full hours get p[i]
    and the hour after them p[i] times the remainder when that exceeds
    1e-12 h, so the row gains p[i] * dur[i]. One np.add.at adds
    each session's full hours, then its tail hour, session by session,
    so an hour that sessions share sums them in session order.
    """
    full = dur.astype(np.intp)
    frac = dur - full
    tail = frac > 1e-12
    n = full + tail
    end = np.cumsum(n)
    kw = np.repeat(p, n)
    kw[end[tail] - 1] = p[tail] * frac[tail]
    # session i covers hours t0[i] .. t0[i] + n[i] - 1
    np.add.at(row, np.repeat(t0 - end + n, n) + np.arange(n.sum()), kw)


def synth_households(params=None, seed=0):
    """Synthesize a paired panel of household meter signals.

    Returns (composite, events, baseline): baseline is an (H, n_homes)
    kW panel of non-EV signals, composite the same homes with embedded
    charging sessions on top (so with a zero event rate the two are
    identical arrays), and events one read-only (k, 3) array of
    ground-truth sessions per home, in start order, with start as
    absolute hour offset. Sessions of one home may overlap.
    """
    if params is None:
        params = SynthParams()
    rng = np.random.default_rng(seed)
    H = 24 * params.days
    w = np.asarray(_START_WEIGHTS, dtype=float)
    w = w / w.sum()
    mu = np.log(_ENERGY_MODE_KWH) + _ENERGY_SIGMA ** 2

    factors = rng.uniform(0.8, 1.2, size=params.n_homes)
    base = factors[None, :] * np.tile(_DAILY_SHAPE, params.days)[:, None]
    base = base + rng.normal(0.0, params.noise_kw, size=(H, params.n_homes))
    base = np.clip(base, 0.0, None)

    ev = np.zeros_like(base)
    events = []
    for k in range(params.n_homes):
        rows, p = [], []
        for d in range(params.days):
            if rng.random() >= params.event_rate:
                continue
            energy = rng.lognormal(mu, _ENERGY_SIGMA)
            p_avg = rng.uniform(_P_LO_KW, _P_HI_KW)
            t0 = d * 24 + int(rng.choice(24, p=w))
            dur = min(energy / p_avg, float(H - t0))
            rows.append((float(t0), dur, p_avg * dur))
            p.append(p_avg)
        sessions = _event_array(rows)
        _write_sessions(ev[:, k], sessions[:, 0].astype(np.intp),
                        sessions[:, 1], np.array(p))
        events.append(sessions)

    return base + ev, tuple(events), base


# ---------------------------------------------------------------------------
# extraction pipeline


def _anchors(x):
    lo = float(np.percentile(x, _ANCHOR_LO))
    hi = float(np.percentile(x, _ANCHOR_HI))
    span = hi - lo
    # flat series carries no scalable shape; unit span degrades the
    # pipeline to a plain subtraction
    return lo, span if span > 0 else 1.0


def _trough_hour(x):
    """Hour of day minimizing the series' upper-percentile daily profile."""
    days = len(x) // 24
    prof = np.percentile(x[:days * 24].reshape(days, 24), _TROUGH_PCT, axis=0)
    return int(np.argmin(prof))


def extract_ev_load(composite, baseline):
    """Estimate the EV charging component of a composite meter signal.

    baseline may be a single reference series or an (H, m) panel of
    non-EV homes, which is averaged first. Five stages run in order:
    normalize the baseline to its amplitude anchors, rescale the
    composite into the same frame, circularly shift the composite so
    the overnight troughs of the two daily 95th-percentile profiles
    coincide, subtract, then undo the scaling and the shift. Negative
    residuals are clipped to zero.
    """
    comp = np.asarray(composite, dtype=float)
    base = np.asarray(baseline, dtype=float)
    if base.ndim == 2:
        base = base.mean(axis=1)
    if comp.ndim == 2:
        cols = [extract_ev_load(comp[:, j], base) for j in range(comp.shape[1])]
        return np.column_stack(cols)
    if comp.shape != base.shape:
        raise ScenarioError(
            f"series length mismatch: composite {comp.shape} vs baseline {base.shape}")

    lo_b, span_b = _anchors(base)
    lo_c, span_c = _anchors(comp)
    bn = (base - lo_b) / span_b
    cn = (comp - lo_c) / span_c

    shift = 0
    if len(comp) >= 24:
        shift = _trough_hour(bn) - _trough_hour(cn)
        shift = (shift + 12) % 24 - 12  # minimal circular displacement
        if shift:
            cn = np.roll(cn, shift)

    resid = (cn - bn) * span_c
    if shift:
        resid = np.roll(resid, -shift)
    return np.clip(resid, 0.0, None)


def detect_events(load):
    """Find charging sessions on an hourly kW series.

    A session is a maximal run of hours strictly above 4 kW that either
    lasts at least two hours or peaks strictly above 7.2 kW. Returns the
    sessions as a read-only (k, 3) array in start order: start hour
    (offset into the series), run length h and the hourly integral over
    the run.
    """
    x = np.asarray(load, dtype=float).reshape(-1)
    edges = np.flatnonzero(np.diff(np.concatenate(
        ([False], x > P_RUN_KW, [False]))))
    return _event_array([
        (i, j - i, x[i:j].sum()) for i, j in edges.reshape(-1, 2).tolist()
        if j - i >= MIN_RUN_H or x[i:j].max() > P_PEAK_KW])


# ---------------------------------------------------------------------------
# distribution fitting and sampling


def fit_kde(samples):
    """Gaussian KDE with Silverman's bandwidth applied per dimension.

    samples: (n,) or (n, d) points, n >= 10. Dimensions with zero
    variance get a small floor bandwidth instead of a degenerate zero.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise ScenarioError("samples must be (n,) or (n, d)")
    n, d = pts.shape
    if n < _KDE_MIN_SAMPLES:
        raise ScenarioError(f"need at least {_KDE_MIN_SAMPLES} samples, got {n}")
    sigma = pts.std(axis=0, ddof=1)
    factor = (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    bw = np.maximum(sigma * factor, _BW_FLOOR)
    return Kde(pts, bw)


def fit_event_distributions(events):
    """Fit the joint (duration, energy) and start-hour KDEs from (k, 3)
    session rows (start hour, duration h, energy kWh)."""
    events = _event_array(events)
    return EventDistributions(fit_kde(events[:, 1:]),
                              fit_kde(events[:, 0] % 24.0))


def _draw_sessions(dist, n, rng):
    """n sessions as (duration, energy, start_hour) arrays.

    All n (duration, energy) pairs are drawn first, then the
    non-positive ones are redrawn until none is left; a pair still
    non-positive after _REJECT_CAP draws raises. The start hours,
    floored to integers in [0, 24), are drawn after that.
    """
    pairs = dist.joint.sample(n, rng)
    bad = np.flatnonzero(~np.all(pairs > 0, axis=1))
    for _ in range(_REJECT_CAP - 1):
        if not len(bad):
            break
        pairs[bad] = dist.joint.sample(len(bad), rng)
        bad = bad[~np.all(pairs[bad] > 0, axis=1)]
    if len(bad):
        raise ScenarioError(
            f"rejected {_REJECT_CAP} consecutive non-positive (duration, "
            "energy) draws; the fitted joint distribution is pathological")
    start = np.floor(dist.start.sample(n, rng)[:, 0]).astype(np.int64) % 24
    return pairs[:, 0], pairs[:, 1], start


# ---------------------------------------------------------------------------
# annual scenario synthesis


def _one_scenario(dist, daily_prob, seed, k, row):
    """Draw scenario k into row, a zeroed hourly series; return its events.

    Scenario k runs on its own RNG stream derived from the master seed:
    the days' charging coin flips, then the charging days' sessions (see
    _draw_sessions). Only the overlap fix-up runs session by session;
    _write_sessions then writes the kept sessions onto row.
    """
    rng = np.random.default_rng([seed, k])
    H = len(row)
    charging = np.flatnonzero(rng.random(H // 24) < daily_prob)
    durs, energies, h0 = _draw_sessions(dist, len(charging), rng)
    events, p_avg = [], []
    busy_until = 0.0
    for t0, dur, energy in zip((charging * 24 + h0).tolist(),
                               durs.tolist(), energies.tolist()):
        if t0 < busy_until:
            # previous day's session still running: delay to the next
            # free hour so sessions never overlap
            t0 = math.ceil(busy_until)
        if t0 >= H:
            continue
        p = energy / dur
        dur = min(dur, float(H - t0))
        if p * dur > 0:
            events.append((float(t0), dur, p * dur))
            p_avg.append(p)
            busy_until = t0 + dur
    events = _event_array(events)
    # past hour 2**14, t0 + dur can round down to a session's tail hour,
    # so the next session may start in that hour
    _write_sessions(row, events[:, 0].astype(np.intp), events[:, 1],
                    np.array(p_avg))
    return events


def generate_annual(dist, n_scenarios, daily_prob, seed=0, days=365):
    """Monte Carlo annual per-charger scenarios.

    A scenario series starts at midnight of its day 0, so its hour 24 is
    the next midnight (overlay_penetration aligns it with a profile
    horizon's clock). Each scenario day charges with probability
    daily_prob; a charging day gets one sampled session placed at its
    start hour, spilling into the next day when it runs past midnight (a
    session that would start while the previous one runs is delayed
    until it ends, and a session is cut at the end of the horizon).
    A session runs at constant power (see _write_sessions): its full
    hours carry the average power, the hour after them the power times
    the fractional remainder, so a series sums to its events' energies.
    Scenario k runs on its own RNG stream, seeded by (seed, k), so it
    does not depend on the other scenarios drawn. The work holds the
    interpreter lock, so the scenarios are drawn in turn. Each stream
    draws, in order: one uniform per day (the charging coin flips), the
    (duration, energy) pairs of all charging days with their positivity
    redraws, then their start hours. For days == 1 this is the same
    stream as a day-by-day draw. Scenario k is written straight into
    row k of the (n, 24 * days) series, and its events hold one (start
    hour, duration h, energy kWh) row per kept session (see ScenarioSet).
    """
    check_share("daily_prob", daily_prob)
    check_scenario_count(n_scenarios)
    if days < 1:
        raise ScenarioError(f"need at least one day, got {days}")

    series = np.zeros((n_scenarios, 24 * days))
    events = tuple(_one_scenario(dist, daily_prob, seed, k, series[k])
                   for k in range(n_scenarios))
    return ScenarioSet(_frozen(series), events, int(seed), float(daily_prob))


def overlay_penetration(net: Network, profiles: LoadProfileSet, scenarios,
                        penetration, growth=1.0, seed=0):
    """Overlay charger scenarios on a feeder's base profiles.

    The base demand is scaled by the growth factor, then a seeded
    random subset of the non-slack load buses, of size
    round(penetration * eligible), each receives one scenario's hourly
    kW added to active power. Scenario hour 0 is midnight, so each
    series is read from the first profile row's clock hour on
    (LoadProfileSet.hour_of_day): a session at 19:00 lands on the row
    stamped 19:00 wherever the horizon starts. Reactive power is
    untouched: chargers run near unity power factor. Scenario rows are
    drawn without replacement while enough are available.
    """
    check_share("penetration", penetration)
    scaled = scale_profiles(profiles, growth)
    H = scaled.n_hours
    first = int(scaled.hour_of_day[0])
    if scenarios.n_hours < first + H:
        raise ScenarioError(
            f"scenarios cover {scenarios.n_hours} hours, profiles span "
            f"{H} from clock hour {first}")

    eligible = sorted(bid for i, bid in enumerate(net.ids)
                      if i != net.slack and bid in scaled.bus_ids)
    n_pick = int(round(penetration * len(eligible)))
    if n_pick == 0:
        return scaled
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(eligible), size=n_pick, replace=False)
    rows = rng.choice(scenarios.n, size=n_pick, replace=n_pick > scenarios.n)

    col = {bid: j for j, bid in enumerate(scaled.bus_ids)}
    p = scaled.p_kw.copy()
    for bi, si in zip(chosen, rows):
        p[:, col[eligible[int(bi)]]] += \
            scenarios.series[int(si), first:first + H]
    p.flags.writeable = False
    return LoadProfileSet(scaled.horizon, scaled.bus_ids, p, scaled.q_kvar)


# ---------------------------------------------------------------------------
# files


def write_scenarios(path, sset: ScenarioSet):
    """Persist a ScenarioSet: metadata header plus nonzero (day, hour, kw) rows.

    Rows are comma-separated with CRLF ends and repr floats, the bytes a
    csv.writer would write. The ",day,hour," labels are formatted once
    per horizon hour and picked by each row's nonzero hours.
    """
    labels = [f",{t // 24},{t % 24}," for t in range(sset.n_hours)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={sset.seed} daily_prob={sset.daily_prob!r} "
                 f"n={sset.n} hours={sset.n_hours}\n")
        fh.write("scenario,day,hour,kw\r\n")
        for k, row in enumerate(sset.series):
            t = np.flatnonzero(row)
            fh.write("".join([f"{k}{labels[i]}{kw!r}\r\n" for i, kw in zip(
                t.tolist(), row[t].tolist())]))


def write_distributions(path, dist: EventDistributions):
    """Snapshot fitted distributions: support points plus bandwidths."""
    doc = {
        "joint": {"points": dist.joint.points.tolist(),
                  "bw": dist.joint.bw.tolist()},
        "start": {"points": dist.start.points.tolist(),
                  "bw": dist.start.bw.tolist()},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def read_distributions(path):
    with open(path) as fh:
        doc = json.load(fh)
    try:
        joint = Kde(np.asarray(doc["joint"]["points"], dtype=float),
                    np.asarray(doc["joint"]["bw"], dtype=float))
        start = Kde(np.asarray(doc["start"]["points"], dtype=float),
                    np.asarray(doc["start"]["bw"], dtype=float))
    except KeyError as exc:
        raise ScenarioError(f"distribution snapshot missing field {exc}") from exc
    return EventDistributions(joint, start)
