"""Network model: loading, topology queries, profiles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bessplan.netmodel import (
    LoadProfileSet,
    NetworkError,
    electrical_distance,
    leaf_buses,
    load_bundled,
    load_network,
    scale_profiles,
)


def make_doc(buses, branches, **extra):
    doc = {
        "bases": {"s_mva": 10.0, "v_kv": 12.66},
        "limits": {"v_lower_pu": 0.95, "v_upper_pu": 1.05},
        "buses": buses,
        "branches": branches,
    }
    doc.update(extra)
    return doc


def two_bus_doc(r_pu=0.3, x_pu=0.4):
    return make_doc(
        [{"id": 1, "kind": "slack", "p_base_kw": 0, "q_base_kvar": 0},
         {"id": 2, "kind": "pq", "p_base_kw": 100, "q_base_kvar": 50}],
        [{"from": 1, "to": 2, "r_pu": r_pu, "x_pu": x_pu}],
    )


class TestLoadNetwork:
    def test_33_bus_fixture_counts(self):
        net = load_bundled("ieee33")
        assert net.n_bus == 33
        assert net.n_branch == 32
        assert net.buses[net.slack].id == 1
        assert net.p_base_kw.sum() == pytest.approx(3715.0)
        assert net.q_base_kvar.sum() == pytest.approx(2300.0)

    def test_69_bus_fixture_counts(self):
        net = load_bundled("ieee69")
        assert net.n_bus == 69
        assert net.n_branch == 68
        assert net.buses[net.slack].id == 1

    def test_two_bus_document(self):
        net = load_network(two_bus_doc())
        assert net.n_bus == 2
        # the branch leaving the slack feeds bus 2, whose parent is the slack
        (k,) = net.down[net.idx[1]]
        assert net.ids[net.tidx[k]] == 2
        assert len(net.down[net.idx[2]]) == 0
        assert net.parent[net.idx[2]] == net.idx[1]
        assert net.parent[net.idx[1]] == -1

    def test_loop_branch_rejected(self):
        ref = load_bundled("ieee33")
        doc = make_doc(
            [{"id": b.id, "kind": b.kind, "p_base_kw": b.p_base_kw,
              "q_base_kvar": b.q_base_kvar} for b in ref.buses],
            [{"from": br.from_bus, "to": br.to_bus, "r_pu": br.r_pu,
              "x_pu": br.x_pu} for br in ref.branches]
            + [{"from": 18, "to": 33, "r_pu": 0.5, "x_pu": 0.5}],
        )
        with pytest.raises(NetworkError, match="non-radial"):
            load_network(doc)

    def test_disconnected_rejected(self):
        # 4 buses, 3 branches, but bus 4 pairs off with bus 3 leaving a cycle 1-2
        doc = make_doc(
            [{"id": i, "kind": "slack" if i == 1 else "pq",
              "p_base_kw": 0, "q_base_kvar": 0} for i in (1, 2, 3, 4)],
            [{"from": 1, "to": 2, "r_pu": 0.1, "x_pu": 0.1},
             {"from": 2, "to": 1, "r_pu": 0.1, "x_pu": 0.1},
             {"from": 3, "to": 4, "r_pu": 0.1, "x_pu": 0.1}],
        )
        with pytest.raises(NetworkError, match="non-radial|disconnected"):
            load_network(doc)
        doc["branches"][1] = {"from": 3, "to": 4, "r_pu": 0.2, "x_pu": 0.2}
        with pytest.raises(NetworkError, match="parallel|disconnected"):
            load_network(doc)

    def test_duplicate_ids_rejected(self):
        doc = two_bus_doc()
        doc["buses"].append({"id": 2, "kind": "pq", "p_base_kw": 1,
                             "q_base_kvar": 1})
        with pytest.raises(NetworkError, match="duplicate ids"):
            load_network(doc)

    def test_missing_slack_rejected(self):
        doc = two_bus_doc()
        doc["buses"][0]["kind"] = "pq"
        with pytest.raises(NetworkError, match="missing slack"):
            load_network(doc)

    def test_json_string_and_path(self, tmp_path):
        doc = two_bus_doc()
        p = tmp_path / "net.json"
        p.write_text(json.dumps(doc))
        net_a = load_network(p)
        net_b = load_network(str(p))
        assert net_a.n_bus == net_b.n_bus == 2

    def test_ohm_conversion(self):
        # z_base = 12.66^2 / 10 ohm; giving r_ohm must land on the same p.u.
        z_base = 12.66 ** 2 / 10.0
        doc = two_bus_doc()
        doc["branches"][0] = {"from": 1, "to": 2,
                              "r_ohm": 0.3 * z_base, "x_ohm": 0.4 * z_base}
        net = load_network(doc)
        assert net.r[0] == pytest.approx(0.3)
        assert net.x[0] == pytest.approx(0.4)

    def test_both_impedance_forms_rejected(self):
        doc = two_bus_doc()
        doc["branches"][0]["r_ohm"] = 1.0
        with pytest.raises(NetworkError, match="exactly one"):
            load_network(doc)

    def test_unknown_keys_rejected(self):
        doc = two_bus_doc()
        doc["frequency_hz"] = 50
        with pytest.raises(NetworkError, match="unknown keys"):
            load_network(doc)

    def test_branch_orientation(self):
        # branch written child -> parent must be flipped while loading
        doc = two_bus_doc()
        doc["branches"][0] = {"from": 2, "to": 1, "r_pu": 0.3, "x_pu": 0.4}
        net = load_network(doc)
        assert net.branches[0].from_bus == 1
        assert net.branches[0].to_bus == 2


class TestElectricalDistance:
    def test_same_bus_zero(self):
        net = load_bundled("ieee33")
        assert electrical_distance(net, 18, 18) == 0.0

    def test_two_bus(self):
        net = load_network(two_bus_doc(r_pu=0.3, x_pu=0.4))
        assert electrical_distance(net, 1, 2) == pytest.approx(0.5)

    def test_33_bus_against_bfs_oracle(self):
        net = load_bundled("ieee33")
        # independent oracle: BFS over raw adjacency, per-branch |r+jx| summed
        adj = {}
        for br in net.branches:
            z = abs(br.r_pu + 1j * br.x_pu)
            adj.setdefault(br.from_bus, []).append((br.to_bus, z))
            adj.setdefault(br.to_bus, []).append((br.from_bus, z))

        def oracle(a, b):
            frontier, seen = [(a, 0.0)], {a}
            while frontier:
                nxt = []
                for node, z in frontier:
                    if node == b:
                        return z
                    for nb, zb in adj[node]:
                        if nb not in seen:
                            seen.add(nb)
                            nxt.append((nb, z + zb))
                frontier = nxt
            raise AssertionError("unreached")

        for a, b in [(18, 33), (1, 18), (22, 25), (6, 29), (2, 2)]:
            assert electrical_distance(net, a, b) == pytest.approx(
                oracle(a, b), abs=1e-12)

    def test_triangle_equality_on_path(self):
        net = load_bundled("ieee33")
        # bus 6 lies on the 1..18 chain
        d = electrical_distance
        assert d(net, 1, 18) == pytest.approx(d(net, 1, 6) + d(net, 6, 18))
        assert d(net, 3, 33) == pytest.approx(d(net, 3, 30) + d(net, 30, 33))

    def test_unknown_bus(self):
        net = load_network(two_bus_doc())
        with pytest.raises(NetworkError, match="unknown bus"):
            electrical_distance(net, 1, 99)


class TestLeafBuses:
    def test_two_bus(self):
        net = load_network(two_bus_doc())
        assert leaf_buses(net) == {2}

    def test_33_bus(self):
        net = load_bundled("ieee33")
        assert leaf_buses(net) == {18, 22, 25, 33}

    def test_69_bus_count(self):
        net = load_bundled("ieee69")
        assert leaf_buses(net) == {27, 35, 46, 50, 52, 65, 67, 69}

    def test_star(self):
        doc = make_doc(
            [{"id": 0, "kind": "slack", "p_base_kw": 0, "q_base_kvar": 0}]
            + [{"id": i, "kind": "pq", "p_base_kw": 10, "q_base_kvar": 5}
               for i in (1, 2, 3, 4)],
            [{"from": 0, "to": i, "r_pu": 0.1, "x_pu": 0.1}
             for i in (1, 2, 3, 4)],
        )
        assert leaf_buses(load_network(doc)) == {1, 2, 3, 4}


@st.composite
def random_tree_doc(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    # attach bus i to a uniformly random earlier bus: always a tree
    parents = [draw(st.integers(min_value=0, max_value=i - 1))
               for i in range(1, n)]
    buses = [{"id": i, "kind": "slack" if i == 0 else "pq",
              "p_base_kw": 10.0, "q_base_kvar": 5.0} for i in range(n)]
    branches = [{"from": p, "to": i + 1,
                 "r_pu": draw(st.floats(0.01, 1.0)),
                 "x_pu": draw(st.floats(0.01, 1.0))}
                for i, p in enumerate(parents)]
    return make_doc(buses, branches)


class TestRadialityProperty:
    @given(random_tree_doc())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_load_and_root(self, doc):
        net = load_network(doc)
        # rooting gives every non-slack bus exactly one parent
        for i in range(net.n_bus):
            if i == net.slack:
                assert net.parent[i] == -1
            else:
                assert net.parent[i] >= 0
                assert i in net.tidx[net.down[net.parent[i]]]

    @given(random_tree_doc(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_loop_injection_rejected(self, doc, data):
        n = len(doc["buses"])
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        doc["branches"].append({"from": a, "to": b, "r_pu": 0.1, "x_pu": 0.1})
        with pytest.raises(NetworkError):
            load_network(doc)

    @given(random_tree_doc(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_distance_symmetry(self, doc, data):
        net = load_network(doc)
        a = data.draw(st.sampled_from(net.ids))
        b = data.draw(st.sampled_from(net.ids))
        assert electrical_distance(net, a, b) == pytest.approx(
            electrical_distance(net, b, a), abs=1e-14)


class TestProfiles:
    def test_constant_and_aligned(self):
        net = load_bundled("ieee33")
        prof = LoadProfileSet.constant(net, "2025-01-01T00", 24)
        P, Q = prof.aligned(net)
        assert P.shape == (24, 33)
        np.testing.assert_allclose(P[0], net.p_base_kw)
        np.testing.assert_allclose(Q[5], net.q_base_kvar)

    def test_scale_identity(self):
        net = load_bundled("ieee33")
        prof = LoadProfileSet.constant(net, "2025-01-01T00", 4)
        same = scale_profiles(prof, 1.0)
        np.testing.assert_array_equal(same.p_kw, prof.p_kw)

    def test_scale_table_growth_value(self):
        # 1.3 growth on a 6.68 kW hour lands within rounding of 8.68 kW
        prof = LoadProfileSet(
            np.array(["2025-01-01T00"], dtype="datetime64[h]"),
            (7,), [[6.68]], [[2.0]])
        grown = scale_profiles(prof, 1.3)
        assert grown.p_kw[0, 0] == pytest.approx(8.684)
        assert abs(grown.p_kw[0, 0] - 8.69) < 0.01

    def test_scale_linearity_exact(self):
        rng = np.random.default_rng(3)
        prof = LoadProfileSet(
            np.datetime64("2025-01-01T00") + np.arange(6),
            (1, 2), rng.uniform(0, 9, (6, 2)), rng.uniform(0, 4, (6, 2)))
        a, b = 1.25, 0.5
        lhs = scale_profiles(scale_profiles(prof, a), b)
        rhs = scale_profiles(prof, a * b)
        np.testing.assert_array_equal(lhs.p_kw, rhs.p_kw)
        np.testing.assert_array_equal(lhs.q_kvar, rhs.q_kvar)

    def test_nonpositive_growth_rejected(self):
        net = load_bundled("ieee33")
        prof = LoadProfileSet.constant(net, "2025-01-01T00", 2)
        with pytest.raises(ValueError, match="positive"):
            scale_profiles(prof, 0.0)
        with pytest.raises(ValueError, match="positive"):
            scale_profiles(prof, -1.3)

    def test_csv_round_trip(self, tmp_path):
        net = load_bundled("ieee33")
        rng = np.random.default_rng(11)
        horizon = np.datetime64("2025-06-09T00") + np.arange(48)
        ids = [b.id for b in net.buses if b.kind != "slack"]
        prof = LoadProfileSet(horizon, ids,
                              rng.uniform(0, 200, (48, len(ids))),
                              rng.uniform(0, 90, (48, len(ids))))
        path = tmp_path / "profiles.csv"
        prof.to_csv(path)
        back = LoadProfileSet.from_csv(path)
        assert back.bus_ids == tuple(sorted(ids))
        np.testing.assert_array_equal(back.horizon, prof.horizon)
        for bid in ids:
            j0 = prof.bus_ids.index(bid)
            j1 = back.bus_ids.index(bid)
            np.testing.assert_array_equal(back.p_kw[:, j1], prof.p_kw[:, j0])
            np.testing.assert_array_equal(back.q_kvar[:, j1], prof.q_kvar[:, j0])

    def test_partial_series_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,bus_id,p_kw,q_kvar\n"
            "2025-01-01T00,2,1.0,0.5\n"
            "2025-01-01T01,2,1.0,0.5\n"
            "2025-01-01T00,3,2.0,0.5\n")
        with pytest.raises(ValueError, match="covers"):
            LoadProfileSet.from_csv(path)

    def test_duplicate_row_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "timestamp,bus_id,p_kw,q_kvar\n"
            "2025-01-01T00,2,1.0,0.5\n"
            "2025-01-01T01,2,1.0,0.5\n"
            "2025-01-01T01,2,3.0,0.5\n")
        with pytest.raises(ValueError,
                           match="bus 2 .*more than one.* 2025-01-01T01"):
            LoadProfileSet.from_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,bus_id,p_kw,q_kvar\n")
        with pytest.raises(ValueError, match="empty"):
            LoadProfileSet.from_csv(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            LoadProfileSet.from_csv(path)

    def test_shuffled_rows_give_same_arrays(self, tmp_path):
        rng = np.random.default_rng(5)
        horizon = np.datetime64("2025-03-01T00") + np.arange(30)
        prof = LoadProfileSet(horizon, (2, 3, 7),
                              rng.uniform(0, 200, (30, 3)),
                              rng.uniform(0, 90, (30, 3)))
        path = tmp_path / "profiles.csv"
        prof.to_csv(path)
        head, *rows = path.read_text().splitlines(keepends=True)
        rng.shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(head + "".join(rows))
        back = LoadProfileSet.from_csv(shuffled)
        assert back.bus_ids == prof.bus_ids
        np.testing.assert_array_equal(back.horizon, prof.horizon)
        np.testing.assert_array_equal(back.p_kw, prof.p_kw)
        np.testing.assert_array_equal(back.q_kvar, prof.q_kvar)

    def test_non_integer_bus_id_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "timestamp,bus_id,p_kw,q_kvar\n"
            "2025-01-01T00,2.5,1.0,0.5\n")
        with pytest.raises(ValueError, match="2.5"):
            LoadProfileSet.from_csv(path)

    def test_gap_in_horizon_rejected(self):
        horizon = np.array(["2025-01-01T00", "2025-01-01T02"],
                           dtype="datetime64[h]")
        with pytest.raises(ValueError, match="hourly"):
            LoadProfileSet(horizon, (1,), [[1.0], [1.0]], [[0.0], [0.0]])

    def test_arrays_others_can_write_are_copied(self):
        horizon = np.datetime64("2025-01-01T00") + np.arange(2)
        p = np.ones((2, 2))
        base = np.full((2, 2), 2.0)
        q = base[:, :]
        q.flags.writeable = False  # a frozen view of a writeable base
        prof = LoadProfileSet(horizon, (2, 3), p, q)
        p[0, 0] = 5.0
        base[0, 0] = 5.0
        assert prof.p_kw[0, 0] == 1.0 and prof.q_kvar[0, 0] == 2.0
        assert not prof.p_kw.flags.writeable
        assert not prof.q_kvar.flags.writeable

    def test_frozen_owned_arrays_are_shared(self):
        horizon = np.datetime64("2025-01-01T00") + np.arange(2)
        p = np.ones((2, 2))
        p.flags.writeable = False
        prof = LoadProfileSet(horizon, (2, 3), p, np.ones((2, 2)))
        assert np.shares_memory(prof.p_kw, p)
        again = LoadProfileSet(horizon, (2, 3), prof.p_kw, prof.q_kvar)
        assert np.shares_memory(again.q_kvar, prof.q_kvar)

    def test_days_follow_the_calendar_from_any_start(self):
        prof = LoadProfileSet(
            np.datetime64("2025-01-01T18") + np.arange(48), (2,),
            np.ones((48, 1)), np.ones((48, 1)))
        assert prof.hour_of_day[[0, 5, 6, 47]].tolist() == [18, 23, 0, 17]
        assert prof.days() == [list(range(6)), list(range(6, 30)),
                               list(range(30, 48))]
        # a gap splits a run, and hours come back sorted and unique
        assert prof.days([31, 3, 4, 4, 28, 29, 30]) == [[3, 4], [28, 29],
                                                        [30, 31]]
        with pytest.raises(ValueError, match="covered"):
            prof.days([47, 48])
        with pytest.raises(ValueError, match="empty"):
            prof.days([])

    def test_days_match_a_row_by_row_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            prof = LoadProfileSet(
                np.datetime64("2025-03-01T00") + int(rng.integers(0, 24)) +
                np.arange(n), (2,), np.ones((n, 1)), np.ones((n, 1)))
            hours = rng.integers(0, n, int(rng.integers(1, n + 1)))
            # oracle: the date is the text of the timestamp before "T"
            date = [str(t).split("T")[0] for t in prof.horizon]
            runs = []
            for t in sorted(set(hours.tolist())):
                if runs and runs[-1][-1] == t - 1 and date[t] == date[t - 1]:
                    runs[-1].append(t)
                else:
                    runs.append([t])
            assert prof.days(hours) == runs

    def test_missing_non_slack_bus_detected(self):
        net = load_bundled("ieee33")
        prof = LoadProfileSet(
            np.datetime64("2025-01-01T00") + np.arange(3),
            (2, 3), np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError, match="missing non-slack"):
            prof.aligned(net)
