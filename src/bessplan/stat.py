"""Spatio-temporal targeting of the planning problem.

Two reductions shrink a year-long violation log to a tractable sizing
run: the temporal side aggregates violations into daily stress scores
and picks the worst W-day window (plus a ranked backtracking sequence);
the spatial side features, clusters, and diversity-filters the
violating buses into a small candidate set.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .netmodel import (LoadProfileSet, Network, electrical_distance,
                       leaf_buses)
from .vva import run_vva

METRICS = ("count", "total_sev", "max_sev", "duration")
DEFAULT_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
DEFAULT_WINDOW_DAYS = 7

# active-power probe for voltage sensitivities, p.u.
PROBE_PU = 0.01
# Lloyd iterations per k-means run
KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class DailyStress:
    """One calendar day of violation-log aggregates."""

    date: np.datetime64      # day resolution
    count: int               # violation records that day
    total_sev: float         # p.u., summed over records
    max_sev: float           # p.u.
    duration: int            # distinct violation hours
    norm: dict | None = None  # metric -> min-max normalized value
    score: float = math.nan  # weighted stress, set by scoring


@dataclass(frozen=True)
class CriticalWindow:
    start: np.datetime64     # first day, inclusive
    end: np.datetime64       # last day, inclusive
    days: int
    score: float             # cumulative stress over the window


@dataclass
class NodeFeatures:
    bus: int
    s_mean_abs: float        # mean |dV| per probe injection, p.u.
    f_viol: float            # violating share of screened hours
    e_topo: int              # 1 for a topological end node
    s_eol: float = 0.0       # alpha_eol * e_topo
    m_comb: float = math.nan
    cluster: int = -1


@dataclass(frozen=True)
class CandidateSet:
    buses: tuple             # accepted bus ids, selection order
    provenance: tuple        # one decision row per pool bus


def daily_metrics(records) -> list:
    """Aggregate a violation log into per-day unnormalized stress."""
    by_date = {}
    for r in records:
        d = np.datetime64(r.when, "D")
        slot = by_date.setdefault(d, [0, 0.0, 0.0, set()])
        slot[0] += 1
        slot[1] += r.severity
        slot[2] = max(slot[2], r.severity)
        slot[3].add(r.hour)
    return [DailyStress(d, c, total, worst, len(hours))
            for d, (c, total, worst, hours) in sorted(by_date.items())]


def checked_weights(weights=None):
    """The metric weights (DEFAULT_WEIGHTS if None) as a float array;
    raises unless they are 4 non-negative values summing to 1."""
    w = np.asarray(DEFAULT_WEIGHTS if weights is None else weights,
                   dtype=float)
    if w.shape != (len(METRICS),) or not np.all(w >= 0) or \
            not abs(w.sum() - 1.0) <= 1e-9:
        raise ValueError("weights must be 4 non-negative values "
                         "summing to 1")
    return w


def check_window_days(window_days):
    """Raise unless a window spans at least one day."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")


def check_quotas(n_max_top, n_min_bottom):
    """Raise unless 1 <= n_min_bottom <= n_max_top."""
    if not 1 <= n_min_bottom <= n_max_top:
        raise ValueError("need 1 <= n_min_bottom <= n_max_top")


def normalize_and_score(days, weights=None) -> list:
    """Min-max normalize each metric across days and combine.

    A metric that is constant across all days normalizes to 0 for
    everyone (neutral contribution instead of a 0/0).
    """
    if not days:
        raise ValueError("no days to score")
    w = checked_weights(weights)
    raw = np.array([[d.count, d.total_sev, d.max_sev, d.duration]
                    for d in days], dtype=float)
    lo = raw.min(axis=0)
    span = raw.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    normed = np.where(span > 0, (raw - lo) / safe, 0.0)
    return [replace(d, norm=dict(zip(METRICS, map(float, row))),
                    score=float(row @ w))
            for d, row in zip(days, normed)]


def select_worst_window(days, window_days=DEFAULT_WINDOW_DAYS) \
        -> CriticalWindow:
    """Maximal cumulative stress over all W-day calendar windows: the
    first window rank_windows ranks.

    Days missing from the log, or padding a calendar shorter than the
    window, contribute zero stress; ties go to the earliest start.
    """
    return rank_windows(days, window_days)[0]


def rank_windows(days, window_days=DEFAULT_WINDOW_DAYS) -> list:
    """Windows in descending stress order that together hold every
    scored day.

    The windows are the W-day calendar windows over the scored calendar
    span, padded with zero-stress days to at least one window
    (window_hours clips a window to the horizon). Two scans of all
    window positions by (score desc, start asc). The first takes each
    window that holds a scored day and overlaps no window taken before:
    a non-overlapping prefix. The second appends each window that holds
    a scored day no ranked window holds yet, even if it overlaps earlier
    ones (monitored hours are a union, so an overlap costs nothing). So
    backtracking can reach every violating day, including one min-max
    scoring puts at 0 and one at the edge of the calendar.
    """
    check_window_days(window_days)
    if not days:
        raise ValueError("no scored days")
    for d in days:
        if math.isnan(d.score):
            raise ValueError("days must be scored before window scans")
    dates = np.array([d.date for d in days], dtype="datetime64[D]")
    first = dates.min()
    k = (dates - first).astype(int)
    s = np.zeros(max(int(k.max()) + 1, window_days))
    scored = np.zeros(len(s), dtype=bool)
    s[k] = [d.score for d in days]
    scored[k] = True
    sums = np.convolve(s, np.ones(window_days), mode="valid")
    taken = np.zeros(len(scored), dtype=bool)
    order = sorted(range(len(sums)), key=lambda k: (-sums[k], k))
    out = []
    for disjoint in (True, False):
        for k in order:
            w = slice(k, k + window_days)
            if (disjoint and taken[w].any()) or \
                    not (scored[w] & ~taken[w]).any():
                continue
            taken[w] = True
            start = first + k
            out.append(CriticalWindow(start, start + (window_days - 1),
                                      window_days, float(sums[k])))
    return out


def window_hours(window: CriticalWindow, profiles: LoadProfileSet) -> list:
    """Absolute profile hour indices covered by a window's dates,
    clipped to the horizon."""
    h = profiles.horizon
    mask = (h >= window.start) & (h < window.end + 1)
    return [int(k) for k in np.nonzero(mask)[0]]


def _snapshot_profiles(net, p_kw, q_kvar):
    """A profile set whose hour k is row k of (rows, n_bus) kW arrays."""
    ids = [b for k, b in enumerate(net.ids) if k != net.slack]
    cols = [net.idx[b] for b in ids]
    horizon = np.datetime64("2000-01-01T00", "h") + np.arange(len(p_kw))
    return LoadProfileSet(horizon, ids, p_kw[:, cols], q_kvar[:, cols])


def _slack_at(net, hour):
    """The network with its slack voltage schedule fixed at one hour: a
    copy that shares the original's frozen arrays."""
    fixed = copy.copy(net)
    fixed.slack_voltage = net.slack_v(hour)
    return fixed


def sensitivities(net: Network, p_kw, q_kvar, buses, base, cfg=None,
                  hour: int = 0) -> dict:
    """Mean |voltage shift| per bus for a PROBE_PU active injection.

    p_kw/q_kvar are one snapshot hour in network bus order, and hour is
    that snapshot's absolute hour index, which picks the slack voltage
    from the network's schedule. base is the snapshot's voltages (p.u.,
    network bus order): the screening solve's at that hour. Each probed
    bus gets its own one-hour program, and one screening run solves
    them all as the hours of a snapshot profile set; the slack absorbs
    its own probe, so its sensitivity is identically 0.
    """
    net = _slack_at(net, hour)
    buses = list(buses)
    probed = [b for b in buses if net.idx[b] != net.slack]
    if not probed:
        return {b: 0.0 for b in buses}
    p = np.tile(np.asarray(p_kw, dtype=float), (len(probed), 1))
    q = np.tile(np.asarray(q_kvar, dtype=float), (len(probed), 1))
    probe_kw = PROBE_PU * 1000.0 * net.s_base_mva
    for k, b in enumerate(probed):
        p[k, net.idx[b]] -= probe_kw
    v = run_vva(net, _snapshot_profiles(net, p, q), cfg=cfg).voltage()
    shift = {b: float(np.mean(np.abs(v[:, k] - base)))
             for k, b in enumerate(probed)}
    return {b: shift.get(b, 0.0) for b in buses}


def peak_severity_hour(records) -> int:
    """Hour with the largest summed severity (sensitivity snapshot)."""
    total = {}
    for r in records:
        total[r.hour] = total.get(r.hour, 0.0) + r.severity
    if not total:
        raise ValueError("no violation records")
    return max(sorted(total), key=total.get)


def node_features(net: Network, records, n_hours: int, sens: dict) -> list:
    """Assemble per-bus features for every violating bus."""
    from .vva import node_stats
    buses = sorted({r.bus for r in records})
    leaves = leaf_buses(net)
    stats = {s.bus: s for s in node_stats(records, n_hours, buses)}
    return [NodeFeatures(b, float(sens[b]), stats[b].f_viol,
                         int(b in leaves)) for b in buses]


def combined_metric(features, alpha_eol=1.0) -> list:
    """Set s_eol and m_comb on every feature row, in place.

    Components have incompatible native scales, so each is min-max
    normalized across the violating-bus set before the sum; a constant
    component contributes 0 everywhere. alpha_eol then weighs the
    normalized leaf column: where leaves and non-leaves both violate, a
    leaf scores alpha_eol above a non-leaf with equal s and f.
    """
    if not features:
        raise ValueError("no feature rows")
    for f in features:
        f.s_eol = alpha_eol * f.e_topo
    cols = np.array([[f.s_mean_abs, f.f_viol, f.e_topo] for f in features],
                    dtype=float)
    lo = cols.min(axis=0)
    span = cols.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    normed = np.where(span > 0, (cols - lo) / safe, 0.0)
    normed[:, 2] *= alpha_eol
    for f, row in zip(features, normed):
        f.m_comb = float(row.sum())
    return features


def kmeans(X, k, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Returns (labels, centers, inertia history); the history is the
    assignment-step inertia per iteration, non-increasing for a sane
    run, over at most KMEANS_MAX_ITER iterations. An empty cluster is
    reseeded at the point farthest from its center among the clusters
    that still hold two or more points, so no reseed empties another.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j:] = centers[0]
            break
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((X - centers[j]) ** 2).sum(axis=1))

    labels = None
    history = []
    for _ in range(KMEANS_MAX_ITER):
        D = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new = D.argmin(axis=1)
        dist = D[np.arange(n), new]
        history.append(float(dist.sum()))
        size = np.bincount(new, minlength=k)
        for j in np.flatnonzero(size == 0):
            far = int(np.where(size[new] > 1, dist, -np.inf).argmax())
            size[new[far]] -= 1
            size[j] = 1
            centers[j] = X[far]
            new[far] = j
        if labels is not None and np.array_equal(new, labels):
            break
        labels = new
        for j in range(k):
            centers[j] = X[labels == j].mean(axis=0)
    return labels, centers, history


def silhouette_score(X, labels) -> float:
    """Mean silhouette over all points; singleton clusters score 0."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
    vals = np.zeros(len(X))
    for i in range(len(X)):
        mine = labels == labels[i]
        if mine.sum() <= 1:
            continue
        a = D[i, mine].sum() / (mine.sum() - 1)
        b = min(D[i, labels == c].mean() for c in uniq if c != labels[i])
        top = max(a, b)
        vals[i] = 0.0 if top == 0.0 else (b - a) / top
    return float(vals.mean())


def cluster(features, k_max=10, seed=0):
    """Label every feature row; returns (labels, K_opt).

    K_opt maximizes the silhouette over K = 2..min(k_max, n-1) on
    z-scored columns; ties go to the smaller K. An empty K range (fewer
    than 3 rows, or k_max below 2), or all rows identical, degenerates
    to a single cluster.
    """
    X = np.array([[f.s_mean_abs, f.f_viol, f.s_eol] for f in features],
                 dtype=float)
    sd = X.std(axis=0)
    Xs = (X - X.mean(axis=0)) / np.where(sd > 0, sd, 1.0)
    n = len(features)
    ks = range(2, min(k_max, n - 1) + 1)
    if not ks or np.allclose(Xs, Xs[0]):
        labels, k_opt = np.zeros(n, dtype=int), 1
    else:
        best = None
        for k in ks:
            cand, _, _ = kmeans(Xs, k, seed=seed)
            score = silhouette_score(Xs, cand)
            if best is None or score > best[0] + 1e-12:
                best = (score, k, cand)
        _, k_opt, labels = best
    for f, c in zip(features, labels):
        f.cluster = int(c)
    return np.asarray(labels), k_opt


def build_pool(features, n_max_top=5, n_min_bottom=1) -> list:
    """Per-cluster quota selection into the candidate pool.

    Clusters are ordered by mean m_comb descending; cluster j
    contributes its top round(quota_j) buses where the quota
    interpolates linearly from n_max_top down to n_min_bottom.
    """
    check_quotas(n_max_top, n_min_bottom)
    by_cluster = {}
    for f in features:
        by_cluster.setdefault(f.cluster, []).append(f)
    clusters = sorted(
        by_cluster.values(),
        key=lambda fs: (-float(np.mean([f.m_comb for f in fs])),
                        min(f.bus for f in fs)))
    K = len(clusters)
    pool = []
    for j, fs in enumerate(clusters):
        quota = n_max_top if K == 1 else \
            round(n_max_top - (n_max_top - n_min_bottom) / (K - 1) * j)
        pool.extend(sorted(fs, key=lambda f: (-f.m_comb, f.bus))[:quota])
    seen = set()
    out = []
    for f in sorted(pool, key=lambda f: (-f.m_comb, f.bus)):
        if f.bus not in seen:
            seen.add(f.bus)
            out.append(f)
    return out


def _adjacent(net):
    return {frozenset((net.ids[net.fidx[e]], net.ids[net.tidx[e]]))
            for e in range(net.n_branch)}


def diversity_filter(pool, net: Network, threshold=None, target=None) \
        -> CandidateSet:
    """Greedy spatially-diverse selection from an m_comb-ranked pool.

    A bus is accepted iff, against every already-accepted bus, it is
    either not topologically adjacent or farther than the electrical
    distance threshold. Defaults: threshold = 25th percentile of the
    pool's pairwise distances, target = 60% of the pool size.
    """
    if not pool:
        raise ValueError("empty candidate pool")
    ranked = sorted(pool, key=lambda f: (-f.m_comb, f.bus))
    if target is None:
        target = max(1, round(0.6 * len(ranked)))
    if threshold is None:
        dists = [electrical_distance(net, a.bus, b.bus)
                 for i, a in enumerate(ranked) for b in ranked[i + 1:]]
        threshold = float(np.percentile(dists, 25.0)) if dists else 0.0
    edges = _adjacent(net)

    accepted = []
    rows = []

    def note(f, ok, reason):
        rows.append({"bus": f.bus, "m_comb": f.m_comb,
                     "cluster": f.cluster, "accepted": ok,
                     "reason": reason})

    for f in ranked:
        if len(accepted) >= target:
            note(f, False, "target count reached")
            continue
        blocker = next(
            (a for a in accepted
             if frozenset((f.bus, a.bus)) in edges and
             electrical_distance(net, f.bus, a.bus) <= threshold), None)
        if blocker is None:
            accepted.append(f)
            note(f, True, "ok")
        else:
            note(f, False, f"adjacent to bus {blocker.bus} within "
                           f"threshold")
    return CandidateSet(tuple(f.bus for f in accepted), tuple(rows))

