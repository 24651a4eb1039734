"""Targeting tests: window scans vs brute force, clustering, filters.

Window selection is checked against a direct re-summation oracle over
every calendar position; the diversity filter output is audited
pairwise against the spatial criterion it claims to enforce.
"""

import math

import numpy as np
import pytest

from bessplan.netmodel import electrical_distance
from bessplan.stat import (CandidateSet, CriticalWindow, DailyStress,
                           NodeFeatures, build_pool, cluster,
                           combined_metric, daily_metrics, diversity_filter,
                           kmeans, node_features, normalize_and_score,
                           peak_severity_hour, rank_windows,
                           select_worst_window, sensitivities,
                           silhouette_score, window_hours)
from bessplan.vva import ViolationRecord
from helpers_power import feeder, feeder2, feeder4, load_bundled, \
    profiles_from_rows, sweep_power_flow

D0 = np.datetime64("2030-01-01", "D")


def rec(day, hour_of_day, severity, bus=5, kind="under"):
    """Violation record on absolute day/hour offsets from D0."""
    hour = day * 24 + hour_of_day
    when = D0.astype("datetime64[h]") + hour
    return ViolationRecord(bus, hour, when, 0.94, severity, kind)


def scored(day_scores, start=D0):
    """DailyStress rows with the given scores on consecutive dates."""
    return [DailyStress(start + k, 1, s, s, 1, {}, float(s))
            for k, s in enumerate(day_scores)]


class TestDailyMetrics:
    def test_counts_severities_and_distinct_hours(self):
        records = [rec(0, 20, 0.01), rec(0, 20, 0.02), rec(0, 21, 0.02)]
        (day,) = daily_metrics(records)
        assert day.count == 3
        assert day.total_sev == pytest.approx(0.05)
        assert day.max_sev == pytest.approx(0.02)
        assert day.duration == 2

    def test_single_record(self):
        (day,) = daily_metrics([rec(3, 7, 0.013)])
        assert (day.count, day.duration) == (1, 1)
        assert day.total_sev == day.max_sev == pytest.approx(0.013)
        assert day.date == D0 + 3

    def test_random_log_matches_bruteforce_aggregation(self):
        rng = np.random.default_rng(7)
        records = [rec(int(d), int(h), float(s), bus=int(b))
                   for d, h, s, b in zip(rng.integers(0, 30, 400),
                                         rng.integers(0, 24, 400),
                                         rng.uniform(0.001, 0.05, 400),
                                         rng.integers(2, 34, 400))]
        # independent oracle: plain dict-of-lists aggregation
        per_day = {}
        for r in records:
            per_day.setdefault(np.datetime64(r.when, "D"), []).append(r)
        days = daily_metrics(records)
        assert len(days) == len(per_day)
        for day in days:
            group = per_day[day.date]
            assert day.count == len(group)
            assert day.total_sev == pytest.approx(
                sum(g.severity for g in group))
            assert day.max_sev == pytest.approx(
                max(g.severity for g in group))
            assert day.duration == len({g.hour for g in group})


class TestNormalizeAndScore:
    def test_single_day_degenerates_to_zero(self):
        days = normalize_and_score(daily_metrics([rec(0, 20, 0.02)]))
        assert days[0].score == 0.0
        assert all(v == 0.0 for v in days[0].norm.values())

    def test_two_days_hit_unit_interval_endpoints(self):
        records = [rec(0, 20, 0.01),
                   rec(1, 20, 0.03), rec(1, 21, 0.04)]
        lo, hi = normalize_and_score(daily_metrics(records))
        assert all(v == 0.0 for v in lo.norm.values())
        assert all(v == 1.0 for v in hi.norm.values())
        assert hi.score == pytest.approx(1.0)

    def test_weights_validated(self):
        days = daily_metrics([rec(0, 20, 0.02)])
        for bad in ([0.5, 0.5], [0.5, 0.5, 0.5, -0.5], [0.3, 0.3, 0.3, 0.3]):
            with pytest.raises(ValueError, match="weights"):
                normalize_and_score(days, weights=bad)
        with pytest.raises(ValueError, match="days"):
            normalize_and_score([])

    def test_affine_rescale_leaves_scores_unchanged(self):
        rng = np.random.default_rng(11)
        base = [DailyStress(D0 + k, int(c), float(t), float(m), int(u))
                for k, (c, t, m, u) in enumerate(zip(
                    rng.integers(1, 50, 40), rng.uniform(0, 2, 40),
                    rng.uniform(0, 0.3, 40), rng.integers(1, 24, 40)))]
        ref = [d.score for d in normalize_and_score(base)]
        a, b = 37.5, -4.0  # positive affine map of one raw metric
        warped = [DailyStress(d.date, d.count, a * d.total_sev + b,
                              d.max_sev, d.duration) for d in base]
        got = [d.score for d in normalize_and_score(warped)]
        assert np.allclose(got, ref, atol=1e-12)


class TestWorstWindow:
    def test_single_day_window_is_the_worst_day(self):
        days = scored([0.2, 0.9, 0.4])
        win = select_worst_window(days, 1)
        assert win.start == win.end == D0 + 1
        assert win.score == pytest.approx(0.9)

    def test_hand_checked_pair(self):
        days = scored([0, 0, 5, 6, 0, 0, 0])
        win = select_worst_window(days, 2)
        assert (win.start, win.end) == (D0 + 2, D0 + 3)
        assert win.score == pytest.approx(11.0)
        assert win.days == 2

    def test_calendar_gaps_count_as_zero_stress(self):
        days = [DailyStress(D0, 1, 1, 1, 1, {}, 5.0),
                DailyStress(D0 + 1, 1, 1, 1, 1, {}, 1.0),
                DailyStress(D0 + 9, 1, 1, 1, 1, {}, 4.0)]
        win = select_worst_window(days, 3)
        assert (win.start, win.end) == (D0, D0 + 2)
        assert win.score == pytest.approx(6.0)

    def test_ties_break_to_earliest(self):
        win = select_worst_window(scored([3.0, 1.0, 3.0]), 1)
        assert win.start == D0

    def test_short_calendar_is_padded_to_one_window(self):
        # six violating days still give a seven-day window; window_hours
        # clips it to the horizon
        win = select_worst_window(scored([1.0] * 6), 7)
        assert (win.start, win.end, win.days) == (D0, D0 + 6, 7)
        assert win.score == pytest.approx(6.0)
        assert [w.start for w in rank_windows(scored([1.0] * 6), 7)] == [D0]
        with pytest.raises(ValueError, match="scored"):
            select_worst_window(daily_metrics([rec(0, 20, 0.02)]), 1)

    def test_matches_bruteforce_over_random_logs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(8, 60))
            dates = np.sort(rng.choice(120, size=n, replace=False))
            days = [DailyStress(D0 + int(d), 1, 1, 1, 1, {},
                                float(rng.uniform(0, 1)))
                    for d in dates]
            W = int(rng.integers(1, 8))
            got = select_worst_window(days, W)
            # oracle: re-sum every calendar start position directly
            by_date = {d.date: d.score for d in days}
            first, last = days[0].date, days[-1].date
            best = None
            start = first
            while start + (W - 1) <= last:
                score = sum(by_date.get(start + i, 0.0) for i in range(W))
                if best is None or score > best[1] + 1e-15:
                    best = (start, score)
                start += 1
            assert got.start == best[0]
            assert got.score == pytest.approx(best[1])


class TestRankWindows:
    def test_zero_score_violating_days_rank_last(self):
        # min-max scoring gives the mildest violating day 0; it is still
        # ranked, after every positive window, but a day with no
        # violation (absent from the log) is not
        wins = rank_windows(scored([0.0, 0.7, 0.0]), 1)
        assert [(w.start, w.score) for w in wins] == \
            [(D0 + 1, 0.7), (D0, 0.0), (D0 + 2, 0.0)]
        days = scored([0.0, 0.7, 0.0, 0.0])
        wins = rank_windows([days[0], days[1], days[3]], 1)
        assert [w.start for w in wins] == [D0 + 1, D0, D0 + 3]

    def test_equal_disjoint_peaks_earlier_first(self):
        wins = rank_windows(scored([2.0, 0.0, 0.0, 2.0]), 1)
        assert [w.start for w in wins[:2]] == [D0, D0 + 3]

    def test_windows_never_overlap(self):
        # the greedy prefix never overlaps; every later window overlaps an
        # earlier one and brings a day no earlier window holds, until
        # every scored day lies in a ranked window
        rng = np.random.default_rng(5)
        days = scored(list(rng.uniform(0, 1, 50)))
        wins = rank_windows(days, 7)
        used = set()
        prefix = 0
        for k, w in enumerate(wins):
            span = {w.start + i for i in range(7)}
            if not span & used:
                assert prefix == k
                prefix += 1
            assert span - used
            used |= span
        assert 0 < prefix < len(wins)
        assert {d.date for d in days} <= used

    def test_overlapping_window_reaches_an_edge_day(self):
        # the disjoint scan takes days 1-2 and no disjoint window holds
        # day 3, so an overlapping window must
        wins = rank_windows(scored([1.0, 1.0, 0.5]), 2)
        assert [(w.start, w.end, w.score) for w in wins] == \
            [(D0, D0 + 1, 2.0), (D0 + 1, D0 + 2, 1.5)]

    def test_matches_masking_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            scores = list(rng.uniform(0, 1, 30) *
                          (rng.uniform(0, 1, 30) > 0.3))
            # some zero-score days violate (scored), others are absent;
            # the first and last are logged, so the calendar spans all 30
            logged = (np.array(scores) > 0) | (rng.uniform(0, 1, 30) > 0.5)
            logged[[0, -1]] = True
            days = [d for d, keep in zip(scored(scores), logged) if keep]
            W = int(rng.integers(1, 6))
            got = rank_windows(days, W)
            # oracle: rescan after masking every chosen window, ranking
            # any window that holds a logged day
            s = np.array(scores)
            expect = []
            while True:
                sums = np.convolve(s, np.ones(W), mode="valid")
                masked = [k for k in range(len(sums))
                          if np.isnan(s[k:k + W]).any() or
                          not logged[k:k + W].any()]
                sums[masked] = -np.inf
                k = int(np.argmax(sums))
                if sums[k] == -np.inf:
                    break
                expect.append((D0 + k, float(sums[k])))
                s[k:k + W] = np.nan
            # the oracle is the disjoint prefix; the tail covers the
            # logged days the prefix leaves out, each window a new one
            assert [(w.start, pytest.approx(w.score))
                    for w in got[:len(expect)]] == expect
            covered = np.zeros(30, dtype=bool)
            for k, w in enumerate(got):
                span = np.zeros(30, dtype=bool)
                start = int((w.start - D0).astype(int))
                span[start:start + W] = True
                assert (span & logged & ~covered).any()
                assert k < len(expect) or (span & covered).any()
                covered |= span
            assert not (logged & ~covered).any()


class TestWindowHours:
    def test_maps_dates_to_hour_indices(self):
        net = feeder2()
        rows = [{2: (100.0, 40.0)} for _ in range(72)]
        profiles = profiles_from_rows(net, "2030-01-01T00", rows)
        win = CriticalWindow(D0 + 1, D0 + 1, 1, 1.0)
        assert window_hours(win, profiles) == list(range(24, 48))


def exact_volts(net, p, q):
    """Snapshot voltages by the independent sweep: the base case that
    sensitivities takes from the screening solve."""
    return np.sqrt(sweep_power_flow(net, p, q)[0])


class TestSensitivity:
    def test_two_bus_matches_sweep_oracle(self):
        net = feeder2()
        p = np.array([0.0, 600.0])
        q = np.array([0.0, 300.0])
        v0, _, _, _ = sweep_power_flow(net, p, q)
        got = sensitivities(net, p, q, [2], np.sqrt(v0))[2]
        p2 = p.copy()
        p2[1] -= 0.01 * 1000.0 * net.s_base_mva
        v1, _, _, _ = sweep_power_flow(net, p2, q)
        expect = np.abs(np.sqrt(v1) - np.sqrt(v0)).mean()
        assert got == pytest.approx(expect, abs=1e-6)

    def test_snapshot_hour_sets_slack_voltage(self):
        # the snapshot is probed at its own hour's slack voltage, not
        # at the schedule's first hour
        net = feeder(2, [(1, 2, 0.05, 0.03)], {2: (900.0, 450.0)},
                     slack_voltage_pu=[1.0, 1.0, 0.9])
        p = np.array([0.0, 900.0])
        q = np.array([0.0, 450.0])
        p2 = p.copy()
        p2[1] -= 0.01 * 1000.0 * net.s_base_mva
        expect = {}
        for hour in (0, 2):
            v0, _, _, _ = sweep_power_flow(net, p, q, hour=hour)
            v1, _, _, _ = sweep_power_flow(net, p2, q, hour=hour)
            expect[hour] = np.abs(np.sqrt(v1) - np.sqrt(v0)).mean()
            got = sensitivities(net, p, q, [2], np.sqrt(v0), hour=hour)[2]
            assert got == pytest.approx(expect[hour], abs=1e-6)
        # the two slack voltages give answers 40x the tolerance apart
        assert expect[2] - expect[0] > 4e-5

    def test_slack_probe_is_absorbed(self):
        net = feeder2()
        p = np.array([0.0, 600.0])
        q = np.array([0.0, 300.0])
        assert sensitivities(net, p, q, [1],
                             exact_volts(net, p, q)) == {1: 0.0}

    def test_deeper_line_buses_are_more_sensitive(self):
        net = feeder4()  # a pure line feeder 1-2-3-4
        p, q = net.p_base_kw, net.q_base_kvar
        sens = sensitivities(net, p, q, [2, 3, 4], exact_volts(net, p, q))
        assert sens[4] > sens[3] > sens[2] > 0.0

    def test_threaded_matches_serial(self):
        net = feeder4()
        p, q = net.p_base_kw, net.q_base_kvar
        base = exact_volts(net, p, q)
        serial = sensitivities(net, p, q, [4, 1, 2, 3], base)
        threaded = sensitivities(net, p, q, [4, 1, 2, 3], base, threads=2)
        assert list(threaded) == [4, 1, 2, 3]
        assert threaded == serial

    def test_peak_severity_hour(self):
        records = [rec(0, 3, 0.02), rec(0, 3, 0.01), rec(0, 5, 0.025)]
        assert peak_severity_hour(records) == 3
        assert peak_severity_hour([rec(0, 4, 0.01),
                                   rec(0, 2, 0.01)]) == 2  # tie: earliest
        with pytest.raises(ValueError):
            peak_severity_hour([])


class TestNodeFeatures:
    def test_assembles_violating_buses_only(self):
        net = feeder4()
        records = [rec(0, 1, 0.01, bus=3), rec(0, 2, 0.02, bus=4),
                   rec(0, 2, 0.01, bus=3)]
        feats = node_features(net, records, 24, {3: 0.001, 4: 0.002})
        assert [f.bus for f in feats] == [3, 4]
        f3, f4 = feats
        assert f3.f_viol == pytest.approx(2 / 24)
        assert f4.f_viol == pytest.approx(1 / 24)
        assert (f3.e_topo, f4.e_topo) == (0, 1)  # bus 4 is the leaf


class TestCombinedMetric:
    def test_single_bus_degenerates_to_zero(self):
        (f,) = combined_metric([NodeFeatures(2, 0.01, 0.5, 1)])
        assert f.s_eol == 1.0
        assert f.m_comb == 0.0

    def test_leaf_beats_identical_nonleaf_by_unit_share(self):
        leaf, stem = combined_metric([NodeFeatures(4, 0.01, 0.5, 1),
                                      NodeFeatures(3, 0.01, 0.5, 0)])
        assert leaf.m_comb - stem.m_comb == pytest.approx(1.0)

    def test_hand_computed_table(self):
        rows = combined_metric([NodeFeatures(2, 0.02, 0.5, 0),
                                NodeFeatures(3, 0.01, 1.0, 1),
                                NodeFeatures(4, 0.00, 0.0, 0)])
        # normalized columns: s = (1, .5, 0); f = (.5, 1, 0); eol = (0,1,0)
        assert rows[0].m_comb == pytest.approx(1.5)
        assert rows[1].m_comb == pytest.approx(2.5)
        assert rows[2].m_comb == pytest.approx(0.0)
        order = sorted(rows, key=lambda f: -f.m_comb)
        assert [f.bus for f in order] == [3, 2, 4]

    def test_alpha_scales_before_normalization(self):
        rows = combined_metric([NodeFeatures(2, 0.0, 0.0, 1),
                                NodeFeatures(3, 0.0, 0.0, 0)],
                               alpha_eol=2.5)
        assert rows[0].s_eol == 2.5
        assert rows[0].m_comb == pytest.approx(1.0)  # normalized share


def blob_features(seed=0, per_side=6):
    rng = np.random.default_rng(seed)
    feats = []
    for i in range(per_side):
        feats.append(NodeFeatures(10 + i, 0.9 + rng.normal(0, 0.01),
                                  0.8 + rng.normal(0, 0.01), 1, s_eol=1.0))
    for i in range(per_side):
        feats.append(NodeFeatures(20 + i, 0.1 + rng.normal(0, 0.01),
                                  0.05 + rng.normal(0, 0.01), 0, s_eol=0.0))
    return feats


class TestClustering:
    def test_two_blobs_find_two_clusters(self):
        feats = blob_features()
        labels, k_opt = cluster(feats, seed=3)
        assert k_opt == 2
        first, second = set(labels[:6]), set(labels[6:])
        assert len(first) == len(second) == 1
        assert first != second
        X = np.array([[f.s_mean_abs, f.f_viol, f.s_eol] for f in feats])
        assert silhouette_score(X, labels) > 0.8

    def test_identical_points_degenerate(self):
        feats = [NodeFeatures(b, 0.5, 0.5, 1, s_eol=1.0) for b in range(5)]
        labels, k_opt = cluster(feats)
        assert k_opt == 1
        assert set(labels) == {0}

    def test_tiny_sets_skip_silhouette(self):
        feats = blob_features(per_side=1)
        labels, k_opt = cluster(feats)
        assert k_opt == 1 and len(labels) == 2

    def test_k_max_one_is_one_cluster(self):
        # K = 2..min(k_max, n-1) is empty, as for fewer than 3 rows
        labels, k_opt = cluster(blob_features(), k_max=1)
        assert k_opt == 1 and set(labels) == {0}

    def test_reseed_never_empties_a_cluster(self):
        # k-means++ puts two of the three centers on the repeated point,
        # so one cluster starts empty; its reseed must come from the
        # four-point cluster, not take the lone outlier from its own
        X = np.array([[1.0, 0.0]] + [[0.0, 0.0]] * 4)
        for seed in range(20):
            labels, centers, _ = kmeans(X, 3, seed=seed)
            assert sorted(np.bincount(labels, minlength=3)) == [1, 1, 3]
            assert np.isfinite(centers).all()

    def test_seed_determinism(self):
        a, _ = cluster(blob_features(), seed=42)
        b, _ = cluster(blob_features(), seed=42)
        assert np.array_equal(a, b)

    def test_lloyd_inertia_never_increases(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(40, 3))
            _, _, history = kmeans(X, 4, seed=seed)
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_silhouette_bounds_on_random_labelings(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.normal(size=(15, 3))
            labels = rng.integers(0, 3, size=15)
            if len(set(labels)) < 2:
                continue
            assert -1.0 <= silhouette_score(X, labels) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            silhouette_score(np.zeros((4, 2)), np.zeros(4))
        with pytest.raises(ValueError, match="k must"):
            kmeans(np.zeros((3, 2)), 5)


def pool_features(sizes, base=3.0):
    """Clusters of descending m_comb; bus ids encode (cluster, rank)."""
    feats = []
    for c, size in enumerate(sizes):
        for i in range(size):
            f = NodeFeatures(100 * (c + 1) + i, 0.0, 0.0, 0)
            f.m_comb = base - c - i * 0.01
            f.cluster = c
            feats.append(f)
    return feats


class TestBuildPool:
    def test_three_cluster_quotas(self):
        feats = pool_features([6, 6, 6])
        pool = build_pool(feats, n_max_top=5, n_min_bottom=1)
        per = {c: sum(1 for f in pool if f.cluster == c) for c in range(3)}
        assert per == {0: 5, 1: 3, 2: 1}

    def test_two_cluster_quotas(self):
        feats = pool_features([5, 5])
        pool = build_pool(feats, n_max_top=4, n_min_bottom=2)
        per = {c: sum(1 for f in pool if f.cluster == c) for c in range(2)}
        assert per == {0: 4, 1: 2}

    def test_small_cluster_contributes_everything(self):
        feats = pool_features([2, 6, 6])
        pool = build_pool(feats, n_max_top=5, n_min_bottom=1)
        assert sum(1 for f in pool if f.cluster == 0) == 2

    def test_single_cluster_takes_top_overall(self):
        feats = pool_features([8])
        pool = build_pool(feats, n_max_top=5, n_min_bottom=1)
        assert len(pool) == 5
        assert [f.bus for f in pool] == [100, 101, 102, 103, 104]

    def test_quota_takes_highest_metric_members(self):
        feats = pool_features([6, 6, 6])
        pool = build_pool(feats)
        c1 = sorted((f for f in pool if f.cluster == 1),
                    key=lambda f: -f.m_comb)
        assert [f.bus for f in c1] == [200, 201, 202]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_min"):
            build_pool(pool_features([3]), n_max_top=2, n_min_bottom=3)


class TestDiversityFilter:
    def test_non_adjacent_pool_all_accepted(self):
        net = load_bundled("ieee33")
        feats = pool_features([1])[:0]
        for rank, bus in enumerate((5, 12, 20, 28)):  # pairwise distant
            f = NodeFeatures(bus, 0.0, 0.0, 0)
            f.m_comb = 4.0 - rank
            feats.append(f)
        cset = diversity_filter(feats, net, threshold=1e9, target=4)
        assert cset.buses == (5, 12, 20, 28)

    def test_close_adjacent_pair_keeps_higher_rank(self):
        net = feeder4()
        a = NodeFeatures(3, 0.0, 0.0, 0)
        a.m_comb = 2.0
        b = NodeFeatures(4, 0.0, 0.0, 0)
        b.m_comb = 1.0
        cset = diversity_filter([a, b], net, threshold=1e9, target=2)
        assert cset.buses == (3,)
        reasons = {r["bus"]: r for r in cset.provenance}
        assert reasons[3]["accepted"] and not reasons[4]["accepted"]
        assert "adjacent" in reasons[4]["reason"]

    def test_distance_threshold_unblocks_adjacent(self):
        net = feeder4()
        a = NodeFeatures(3, 0.0, 0.0, 0)
        a.m_comb = 2.0
        b = NodeFeatures(4, 0.0, 0.0, 0)
        b.m_comb = 1.0
        d34 = electrical_distance(net, 3, 4)
        cset = diversity_filter([a, b], net, threshold=d34 / 2, target=2)
        assert cset.buses == (3, 4)

    def test_target_count_caps_acceptance(self):
        net = load_bundled("ieee33")
        feats = []
        for rank, bus in enumerate((5, 12, 20, 28, 31)):
            f = NodeFeatures(bus, 0.0, 0.0, 0)
            f.m_comb = 9.0 - rank
            feats.append(f)
        cset = diversity_filter(feats, net, threshold=1e9, target=2)
        assert len(cset.buses) == 2
        tail = [r for r in cset.provenance if not r["accepted"]]
        assert all(r["reason"] == "target count reached" for r in tail)

    def test_pairwise_criterion_audited_exhaustively(self):
        net = load_bundled("ieee33")
        rng = np.random.default_rng(17)
        feats = []
        for bus in range(2, 34):
            f = NodeFeatures(int(bus), 0.0, 0.0, 0)
            f.m_comb = float(rng.uniform(0, 3))
            feats.append(f)
        threshold = 0.05
        cset = diversity_filter(feats, net, threshold=threshold, target=10)
        edges = {frozenset((net.ids[net.fidx[e]], net.ids[net.tidx[e]]))
                 for e in range(net.n_branch)}
        for i, a in enumerate(cset.buses):
            for b in cset.buses[i + 1:]:
                adjacent = frozenset((a, b)) in edges
                assert (not adjacent) or \
                    electrical_distance(net, a, b) > threshold

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            diversity_filter([], feeder4())

