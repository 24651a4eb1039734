"""Radial feeder data model, topology queries, and load-profile storage.

Everything downstream (power-flow screening, storage planning, validation)
assumes the network loaded here is a tree rooted at a single slack bus,
held as per-bus and per-branch arrays. Impedances are converted to per-unit
at ingestion; load profiles are kept in kW / kvar and converted by the model
builders that need per-unit.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np


class NetworkError(ValueError):
    """Raised for any malformed network document."""


_BUS_KEYS = {"id", "kind", "p_base_kw", "q_base_kvar"}
_BRANCH_KEYS = {"from", "to", "r_ohm", "x_ohm", "r_pu", "x_pu", "i_limit_a"}
_TOP_KEYS = {"buses", "branches", "bases", "limits", "name", "slack_voltage_pu"}


class Network:
    """Immutable rooted radial network, held as per-bus and per-branch arrays.

    load_network passes the parsed columns in file order: ends are
    (from id, to id) pairs, and i_sq_limit is nan where uncapped. Branches
    are re-oriented parent -> child during construction (declaration order
    preserved). Index arrays use positional bus indices, not ids.

    Attributes
    ----------
    ids : tuple of bus ids, file order
    idx : dict id -> position
    slack : positional index of the slack bus
    fidx, tidx : (m,) from/to positions per branch, oriented downstream
    r, x : (m,) per-unit impedances
    i_sq_limit : (m,) squared-current cap, p.u. (nan where uncapped)
    parent, parent_branch : (n,) rooted-tree arrays (-1 at slack)
    order : (n,) BFS order, parents before children
    path : (n, m) path[j, k] is 1.0 where branch k lies between the slack
        and bus j, else 0.0
    down : tuple of (k,) arrays, branch indices leaving each bus
    p_base_kw, q_base_kvar : (n,) base demand
    s_base_mva, v_lower, v_upper : power base and voltage limits, p.u.
    slack_voltage : float, or (H,) schedule of slack voltage, p.u.
    """

    def __init__(self, name, ids, kinds, p_base_kw, q_base_kvar, ends, r, x,
                 i_sq_limit, s_base_mva, v_lower, v_upper, slack_voltage=1.0):
        self.name = name
        self.s_base_mva = float(s_base_mva)
        self.v_lower = float(v_lower)
        self.v_upper = float(v_upper)
        if np.ndim(slack_voltage) == 0:
            self.slack_voltage = float(slack_voltage)
        else:
            self.slack_voltage = _frozen(np.asarray(slack_voltage, dtype=float))
        if not np.isfinite(self.slack_voltage).all():
            raise NetworkError("slack_voltage_pu must be finite")

        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate ids: buses {dup} declared more than once")
        self.ids = tuple(ids)
        self.idx = {bid: i for i, bid in enumerate(ids)}

        slacks = [i for i, kind in enumerate(kinds) if kind == "slack"]
        if len(slacks) == 0:
            raise NetworkError("missing slack: no bus has kind 'slack'")
        if len(slacks) > 1:
            raise NetworkError(
                f"duplicate ids: more than one slack bus ({[ids[i] for i in slacks]})")
        self.slack = slacks[0]

        n, m = len(ids), len(ends)
        if m != n - 1:
            raise NetworkError(
                f"non-radial topology: {m} branches for {n} buses (need {n - 1})")

        for (a, b), r_k, x_k in zip(ends, r, x):
            if a not in self.idx or b not in self.idx:
                raise NetworkError(f"unknown bus id in branch {a}-{b}")
            if a == b:
                raise NetworkError(f"non-radial topology: self-loop at bus {a}")
            if not (0 <= r_k < math.inf and 0 <= x_k < math.inf):
                raise NetworkError(
                    f"branch {a}-{b}: r and x must be finite and >= 0")
        if len({frozenset(ab) for ab in ends}) != m:
            raise NetworkError("non-radial topology: parallel branch pair")

        # Root at the slack: BFS assigns each bus its parent and feeding branch.
        fidx = np.array([self.idx[a] for a, _ in ends], dtype=np.intp)
        tidx = np.array([self.idx[b] for _, b in ends], dtype=np.intp)
        adj = [[] for _ in range(n)]
        for k, (a, b) in enumerate(zip(fidx.tolist(), tidx.tolist())):
            adj[a].append((b, k))
            adj[b].append((a, k))
        parent = np.full(n, -1, dtype=np.intp)
        parent_branch = np.full(n, -1, dtype=np.intp)
        seen = np.zeros(n, dtype=bool)
        path = np.zeros((n, m))
        order = np.empty(n, dtype=np.intp)
        seen[self.slack] = True
        order[0] = self.slack
        head, tail = 0, 1
        while head < tail:
            u = order[head]
            head += 1
            for v, k in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    parent_branch[v] = k
                    path[v] = path[u]
                    path[v, k] = 1.0
                    order[tail] = v
                    tail += 1
        if tail != n:
            missing = sorted(ids[i] for i in range(n) if not seen[i])
            raise NetworkError(f"disconnected graph: unreachable buses {missing}")

        # a branch declared child -> parent is flipped
        keep = parent[tidx] == fidx
        self.fidx = _frozen(np.where(keep, fidx, tidx))
        self.tidx = _frozen(np.where(keep, tidx, fidx))
        self.r = _frozen(np.array(r, dtype=float))
        self.x = _frozen(np.array(x, dtype=float))
        self.i_sq_limit = _frozen(np.array(i_sq_limit, dtype=float))
        self.parent = _frozen(parent)
        self.parent_branch = _frozen(parent_branch)
        self.order = _frozen(order)
        self.path = _frozen(path)
        down = [[] for _ in range(n)]
        for k in range(m):
            down[self.fidx[k]].append(k)
        self.down = tuple(_frozen(np.array(d, dtype=np.intp)) for d in down)
        self.p_base_kw = _frozen(np.array(p_base_kw, dtype=float))
        self.q_base_kvar = _frozen(np.array(q_base_kvar, dtype=float))
        bad = ~(np.isfinite(self.p_base_kw) & np.isfinite(self.q_base_kvar))
        if bad.any():
            raise NetworkError(f"bus {ids[np.argmax(bad)]}: p_base_kw and "
                               "q_base_kvar must be finite")

    @property
    def n_bus(self):
        return len(self.ids)

    @property
    def n_branch(self):
        return len(self.r)

    def slack_v(self, hour):
        """Slack voltage magnitude (p.u.) for an absolute hour index."""
        if isinstance(self.slack_voltage, float):
            return self.slack_voltage
        if hour >= len(self.slack_voltage):
            raise NetworkError(
                f"slack voltage schedule shorter than horizon ({hour})")
        return float(self.slack_voltage[hour])

    def to_pu_power(self, kw):
        """kW (or kvar) to per-unit on the network power base."""
        return np.asarray(kw, dtype=float) / (1000.0 * self.s_base_mva)

    def _pos(self, bus_id):
        try:
            return self.idx[bus_id]
        except KeyError:
            raise NetworkError(f"unknown bus id {bus_id}") from None


def _frozen(arr):
    arr.flags.writeable = False
    return arr


def _own_frozen(arr):
    """arr as a read-only float array that no caller can write to.

    A fresh conversion, or a frozen array that owns its data, is kept;
    a writeable array, or a view whose base may be written, is copied.
    """
    out = np.asarray(arr, dtype=float)
    if out is arr and (out.flags.writeable or not out.flags.owndata):
        out = out.copy()
    return _frozen(out)


def load_network(document) -> Network:
    """Build a Network from a dict or a path (str or Path) to a JSON file.

    Rejects (with distinct messages): non-radial topology, disconnected
    graphs, duplicate ids, a missing slack bus, a number that is not
    finite, a negative impedance and a current cap that is not positive.
    """
    doc = _as_dict(document)
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise NetworkError(f"unknown keys in network document: {sorted(unknown)}")
    for key in ("buses", "branches", "bases", "limits"):
        if key not in doc:
            raise NetworkError(f"network document missing '{key}'")
    bases = doc["bases"]
    if "s_mva" not in bases or "v_kv" not in bases:
        raise NetworkError("bases must give s_mva and v_kv")
    s_mva = float(bases["s_mva"])
    v_kv = float(bases["v_kv"])
    if not (0 < s_mva < math.inf and 0 < v_kv < math.inf):
        raise NetworkError("bases s_mva and v_kv must be finite and positive")
    z_base = v_kv ** 2 / s_mva  # ohm
    i_base_a = s_mva * 1e6 / (math.sqrt(3) * v_kv * 1e3)

    limits = doc["limits"]
    v_lo = float(limits.get("v_lower_pu", 0.95))
    v_hi = float(limits.get("v_upper_pu", 1.05))
    if not 0 < v_lo < v_hi:
        raise NetworkError("voltage limits must satisfy 0 < v_lower < v_upper")

    ids, kinds, p_kw, q_kvar = [], [], [], []
    for rec in doc["buses"]:
        unknown = set(rec) - _BUS_KEYS
        if unknown:
            raise NetworkError(f"unknown bus keys: {sorted(unknown)}")
        kind = rec.get("kind", "pq")
        if kind not in ("slack", "pq", "load"):
            raise NetworkError(f"bus {rec.get('id')}: unknown kind '{kind}'")
        ids.append(rec["id"])
        kinds.append(kind)
        p_kw.append(float(rec.get("p_base_kw", 0.0)))
        q_kvar.append(float(rec.get("q_base_kvar", 0.0)))

    ends, r, x, i_sq = [], [], [], []
    for rec in doc["branches"]:
        unknown = set(rec) - _BRANCH_KEYS
        if unknown:
            raise NetworkError(f"unknown branch keys: {sorted(unknown)}")
        r.append(_impedance(rec, "r", z_base))
        x.append(_impedance(rec, "x", z_base))
        lim = rec.get("i_limit_a")
        if lim is not None and not 0 < float(lim) < math.inf:
            raise NetworkError(f"branch {rec.get('from')}-{rec.get('to')}: "
                               "i_limit_a must be finite and positive")
        i_sq.append(math.nan if lim is None else (float(lim) / i_base_a) ** 2)
        ends.append((rec["from"], rec["to"]))

    return Network(doc.get("name", ""), ids, kinds, p_kw, q_kvar, ends, r, x,
                   i_sq, s_mva, v_lo, v_hi, doc.get("slack_voltage_pu", 1.0))


def _impedance(rec, which, z_base):
    ohm, pu = rec.get(which + "_ohm"), rec.get(which + "_pu")
    if (ohm is None) == (pu is None):
        raise NetworkError(
            f"branch {rec.get('from')}-{rec.get('to')}: give exactly one of "
            f"{which}_ohm / {which}_pu")
    return float(pu) if ohm is None else float(ohm) / z_base


def _as_dict(document):
    if isinstance(document, dict):
        return document
    if isinstance(document, (str, Path)):
        return json.loads(Path(document).read_text())
    raise NetworkError(f"cannot load network from {type(document).__name__}")


def electrical_distance(net: Network, a, b) -> float:
    """Sum of |r + jx| over the unique a-b tree path, p.u.: the branches
    on exactly one of the two buses' paths from the slack.

    Per-branch magnitudes are summed (not the magnitude of the complex sum)
    so the metric is exactly additive along any path, which the selection
    logic relies on.
    """
    i, j = net._pos(a), net._pos(b)
    return float(np.hypot(net.r, net.x) @ (net.path[i] != net.path[j]))


def leaf_buses(net: Network) -> set:
    """All non-slack buses that feed no branch, as bus ids."""
    return {net.ids[i] for i in range(net.n_bus)
            if i != net.slack and not len(net.down[i])}


_CSV_ROW = np.dtype([("timestamp", "M8[s]"), ("bus_id", np.int64),
                     ("p_kw", float), ("q_kvar", float)])


class LoadProfileSet:
    """Hourly demand series per bus, stored in kW / kvar.

    horizon : (H,) numpy datetime64[h], strictly increasing, hourly spacing
    bus_ids : tuple of covered bus ids (columns)
    p_kw, q_kvar : (H, len(bus_ids)) arrays

    The timestamps alone give a row's clock hour and calendar day
    (hour_of_day, days); the horizon may start at any hour.
    """

    def __init__(self, horizon, bus_ids, p_kw, q_kvar):
        horizon = np.asarray(horizon, dtype="datetime64[h]")
        p_kw = _own_frozen(p_kw)
        q_kvar = _own_frozen(q_kvar)
        if horizon.ndim != 1 or len(horizon) == 0:
            raise ValueError("horizon must be a non-empty 1-d timestamp array")
        if np.isnat(horizon).any():
            raise ValueError("profile timestamps must not be NaT")
        steps = np.diff(horizon).astype("timedelta64[h]").astype(int)
        if len(steps) and not np.all(steps == 1):
            raise ValueError("horizon must be strictly increasing with hourly spacing")
        if len(set(bus_ids)) != len(bus_ids):
            raise ValueError("duplicate bus ids in profile set")
        if p_kw.shape != (len(horizon), len(bus_ids)) or q_kvar.shape != p_kw.shape:
            raise ValueError("profile arrays must be (hours, buses)")
        if not (np.isfinite(p_kw).all() and np.isfinite(q_kvar).all()):
            raise ValueError("profile p_kw and q_kvar must be finite")
        self.horizon = _frozen(horizon)
        self.bus_ids = tuple(bus_ids)
        self.p_kw = p_kw
        self.q_kvar = q_kvar
        self._col = {bid: j for j, bid in enumerate(self.bus_ids)}

    @property
    def n_hours(self):
        return len(self.horizon)

    @property
    def hour_of_day(self):
        """(H,) clock hour, 0-23, of each row."""
        midnight = self.horizon.astype("datetime64[D]")
        return (self.horizon - midnight).astype(int)

    def days(self, hours=None):
        """The rows (all, or the given hour indices) as sorted lists of
        consecutive rows that fall on one calendar date, in order."""
        h = np.unique(np.asarray(range(self.n_hours) if hours is None
                                 else list(hours), dtype=np.intp))
        if not len(h):
            raise ValueError("empty hour set")
        if h[0] < 0 or h[-1] >= self.n_hours:
            raise ValueError("window not covered by profiles")
        date = self.horizon[h].astype("datetime64[D]")
        cut = np.flatnonzero((np.diff(h) != 1) | (date[1:] != date[:-1]))
        return [run.tolist() for run in np.split(h, cut + 1)]

    def aligned(self, net: Network):
        """(P, Q) kW arrays of shape (H, n_bus) in network bus order.

        Every non-slack network bus must be covered; the slack bus, if
        absent from the set, gets zero demand.
        """
        P = np.zeros((self.n_hours, net.n_bus))
        Q = np.zeros_like(P)
        for i, bid in enumerate(net.ids):
            j = self._col.get(bid)
            if j is None:
                if i != net.slack:
                    raise ValueError(f"profile set missing non-slack bus {bid}")
                continue
            P[:, i] = self.p_kw[:, j]
            Q[:, i] = self.q_kvar[:, j]
        return P, Q

    @classmethod
    def from_csv(cls, path):
        """Read comma-separated rows (timestamp, bus_id, p_kw, q_kvar).

        After the header `timestamp,bus_id,p_kw,q_kvar`, one np.loadtxt
        call reads timestamps to the second (`2025-01-01T00`; a date
        alone is 00:00), integer bus ids and float p/q. Fields may be
        quoted with `"`, blank lines are skipped, and there is no comment
        syntax. NaT, stamps off the hour and stamps with a UTC offset or
        `Z` are rejected.
        Rows may be in any order; every bus present must cover the same
        full set of timestamps, each exactly once.
        """
        with open(path) as fh, warnings.catch_warnings():
            header = fh.readline().rstrip("\r\n").split(",")
            if header == [""]:
                raise ValueError("empty profile file")
            if [h.strip() for h in header] != list(_CSV_ROW.names):
                raise ValueError(f"unexpected profile header {header}")
            # NumPy would convert a stamp with a UTC offset or `Z` (or a
            # trailing space) to UTC; make that a conversion error instead
            warnings.filterwarnings(
                "error", message="no explicit representation of timezones")
            warnings.filterwarnings(
                "ignore", message="loadtxt: input contained no data")
            try:
                rows = np.loadtxt(fh, delimiter=",", dtype=_CSV_ROW,
                                  comments=None, quotechar='"', ndmin=1)
            except ValueError as exc:
                raise ValueError("profile rows, counted from the first line "
                                 f"after the header: {exc}") from None
        if not len(rows):
            raise ValueError("empty profile file")
        horizon, k = np.unique(rows["timestamp"], return_inverse=True)
        if np.isnat(horizon).any():
            raise ValueError("profile timestamps must not be NaT")
        off = horizon[horizon != horizon.astype("M8[h]")]
        if len(off):
            raise ValueError(f"profile timestamp {off[0]} is not on the hour")
        horizon = horizon.astype("M8[h]")
        bus_ids, j = np.unique(rows["bus_id"], return_inverse=True)
        H, nb = len(horizon), len(bus_ids)
        seen = np.bincount(k * nb + j, minlength=H * nb).reshape(H, nb)
        twice = np.argwhere(seen > 1)
        if len(twice):
            t, b = twice[0]
            raise ValueError(f"bus {bus_ids[b]} has more than one row for "
                             f"timestamp {horizon[t]}")
        covered = seen.sum(axis=0)
        short = np.flatnonzero(covered != H)
        if len(short):
            b = short[0]
            raise ValueError(
                f"bus {bus_ids[b]} covers {covered[b]} of {H} timestamps")
        p = np.empty((H, nb))
        q = np.empty((H, nb))
        p[k, j] = rows["p_kw"]
        q[k, j] = rows["q_kvar"]
        return cls(horizon, bus_ids.tolist(), _frozen(p), _frozen(q))

    def to_csv(self, path):
        """Write the rows from_csv reads, hour by hour, floats as repr.

        The bytes equal a csv.writer dump of [timestamp, bus_id,
        repr(p), repr(q)] rows (CRLF line ends).
        """
        with open(path, "w", newline="") as fh:
            fh.write("timestamp,bus_id,p_kw,q_kvar\r\n")
            hours = zip(self.horizon.astype(str).tolist(), self.p_kw,
                        self.q_kvar)
            for ts, p_kw, q_kvar in hours:
                fh.write("".join([f"{ts},{bid},{p!r},{q!r}\r\n" for bid, p, q
                                  in zip(self.bus_ids, p_kw.tolist(),
                                         q_kvar.tolist())]))


def check_growth(growth):
    """Raise unless growth is a positive, finite demand factor."""
    if not 0.0 < growth < math.inf:
        raise ValueError(f"growth must be positive and finite, got {growth}")


def scale_profiles(profiles: LoadProfileSet, growth: float) -> LoadProfileSet:
    """Uniform demand growth: p and q multiplied by a positive factor."""
    check_growth(growth)
    return LoadProfileSet(profiles.horizon, profiles.bus_ids,
                          _frozen(profiles.p_kw * growth),
                          _frozen(profiles.q_kvar * growth))
