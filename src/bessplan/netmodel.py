"""Radial feeder data model, topology queries, and load-profile storage.

Everything downstream (power-flow screening, storage planning, validation)
assumes the network loaded here is a tree rooted at a single slack bus.
Impedances are converted to per-unit at ingestion; load profiles are kept in
kW / kvar and converted by the model builders that need per-unit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from itertools import islice
from pathlib import Path

import numpy as np


class NetworkError(ValueError):
    """Raised for any malformed network document."""


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "slack" or "pq"
    p_base_kw: float
    q_base_kvar: float


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    i_sq_limit_pu: float | None = None  # squared-current cap, p.u.


_BUS_KEYS = {"id", "kind", "p_base_kw", "q_base_kvar"}
_BRANCH_KEYS = {"from", "to", "r_ohm", "x_ohm", "r_pu", "x_pu", "i_limit_a"}
_TOP_KEYS = {"buses", "branches", "bases", "limits", "name", "slack_voltage_pu"}


class Network:
    """Immutable rooted radial network.

    Branches are re-oriented parent -> child during construction (declaration
    order preserved). Index arrays use positional bus indices, not ids.

    Attributes
    ----------
    buses, branches : tuples of Bus / Branch (branches oriented downstream)
    ids : tuple of bus ids, file order
    idx : dict id -> position
    slack : positional index of the slack bus
    fidx, tidx : (m,) from/to positions per branch
    r, x : (m,) per-unit impedances
    parent, parent_branch, depth : (n,) rooted-tree arrays (-1 at slack)
    order : (n,) BFS order, parents before children
    down : tuple of (k,) arrays, branch indices leaving each bus
    p_base_kw, q_base_kvar : (n,) base demand
    """

    def __init__(self, name, buses, branches, s_base_mva, v_base_kv,
                 v_lower, v_upper, slack_voltage=1.0):
        self.name = name
        self.buses = tuple(buses)
        self.s_base_mva = float(s_base_mva)
        self.v_base_kv = float(v_base_kv)
        self.v_lower = float(v_lower)
        self.v_upper = float(v_upper)
        if np.ndim(slack_voltage) == 0:
            self.slack_voltage = float(slack_voltage)
        else:
            self.slack_voltage = _frozen(np.asarray(slack_voltage, dtype=float))

        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate ids: buses {dup} declared more than once")
        self.ids = tuple(ids)
        self.idx = {bid: i for i, bid in enumerate(ids)}

        slacks = [i for i, b in enumerate(self.buses) if b.kind == "slack"]
        if len(slacks) == 0:
            raise NetworkError("missing slack: no bus has kind 'slack'")
        if len(slacks) > 1:
            raise NetworkError(
                f"duplicate ids: more than one slack bus ({[ids[i] for i in slacks]})")
        self.slack = slacks[0]

        n = len(self.buses)
        m = len(branches)
        if m != n - 1:
            raise NetworkError(
                f"non-radial topology: {m} branches for {n} buses (need {n - 1})")

        for br in branches:
            if br.from_bus not in self.idx or br.to_bus not in self.idx:
                raise NetworkError(
                    f"unknown bus id in branch {br.from_bus}-{br.to_bus}")
            if br.from_bus == br.to_bus:
                raise NetworkError(f"non-radial topology: self-loop at bus {br.from_bus}")
            if br.r_pu < 0 or br.x_pu < 0:
                raise NetworkError(
                    f"negative impedance on branch {br.from_bus}-{br.to_bus}")
        pairs = {frozenset((br.from_bus, br.to_bus)) for br in branches}
        if len(pairs) != m:
            raise NetworkError("non-radial topology: parallel branch pair")

        # Root at the slack: BFS assigns each bus its parent and feeding branch.
        adj = [[] for _ in range(n)]
        for k, br in enumerate(branches):
            a, b = self.idx[br.from_bus], self.idx[br.to_bus]
            adj[a].append((b, k))
            adj[b].append((a, k))
        parent = np.full(n, -1, dtype=np.intp)
        parent_branch = np.full(n, -1, dtype=np.intp)
        depth = np.full(n, -1, dtype=np.intp)
        order = np.empty(n, dtype=np.intp)
        depth[self.slack] = 0
        order[0] = self.slack
        head, tail = 0, 1
        while head < tail:
            u = order[head]
            head += 1
            for v, k in adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    parent_branch[v] = k
                    order[tail] = v
                    tail += 1
        if tail != n:
            missing = sorted(ids[i] for i in range(n) if depth[i] < 0)
            raise NetworkError(f"disconnected graph: unreachable buses {missing}")

        oriented = []
        for k, br in enumerate(branches):
            a, b = self.idx[br.from_bus], self.idx[br.to_bus]
            if parent[b] == a:
                oriented.append(br)
            else:
                oriented.append(Branch(br.to_bus, br.from_bus, br.r_pu, br.x_pu,
                                       br.i_sq_limit_pu))
        self.branches = tuple(oriented)
        self.fidx = _frozen(np.array([self.idx[br.from_bus] for br in oriented],
                                     dtype=np.intp))
        self.tidx = _frozen(np.array([self.idx[br.to_bus] for br in oriented],
                                     dtype=np.intp))
        self.r = _frozen(np.array([br.r_pu for br in oriented], dtype=float))
        self.x = _frozen(np.array([br.x_pu for br in oriented], dtype=float))
        self.i_sq_limit = _frozen(np.array(
            [np.nan if br.i_sq_limit_pu is None else br.i_sq_limit_pu
             for br in oriented], dtype=float))
        self.parent = _frozen(parent)
        self.parent_branch = _frozen(parent_branch)
        self.depth = _frozen(depth)
        self.order = _frozen(order)
        down = [[] for _ in range(n)]
        for k in range(m):
            down[self.fidx[k]].append(k)
        self.down = tuple(_frozen(np.array(d, dtype=np.intp)) for d in down)
        self.p_base_kw = _frozen(np.array([b.p_base_kw for b in self.buses]))
        self.q_base_kvar = _frozen(np.array([b.q_base_kvar for b in self.buses]))

    @property
    def n_bus(self):
        return len(self.buses)

    @property
    def n_branch(self):
        return len(self.branches)

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
    graphs, duplicate ids, and a missing slack bus.
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
    if s_mva <= 0 or v_kv <= 0:
        raise NetworkError("bases must be positive")
    z_base = v_kv ** 2 / s_mva  # ohm
    i_base_a = s_mva * 1e6 / (math.sqrt(3) * v_kv * 1e3)

    limits = doc["limits"]
    v_lo = float(limits.get("v_lower_pu", 0.95))
    v_hi = float(limits.get("v_upper_pu", 1.05))
    if not 0 < v_lo < v_hi:
        raise NetworkError("voltage limits must satisfy 0 < v_lower < v_upper")

    buses = []
    for rec in doc["buses"]:
        unknown = set(rec) - _BUS_KEYS
        if unknown:
            raise NetworkError(f"unknown bus keys: {sorted(unknown)}")
        kind = rec.get("kind", "pq")
        if kind not in ("slack", "pq", "load"):
            raise NetworkError(f"bus {rec.get('id')}: unknown kind '{kind}'")
        buses.append(Bus(id=rec["id"],
                         kind="slack" if kind == "slack" else "pq",
                         p_base_kw=float(rec.get("p_base_kw", 0.0)),
                         q_base_kvar=float(rec.get("q_base_kvar", 0.0))))

    branches = []
    for rec in doc["branches"]:
        unknown = set(rec) - _BRANCH_KEYS
        if unknown:
            raise NetworkError(f"unknown branch keys: {sorted(unknown)}")
        r = _impedance(rec, "r", z_base)
        x = _impedance(rec, "x", z_base)
        lim = rec.get("i_limit_a")
        lim_pu = None if lim is None else (float(lim) / i_base_a) ** 2
        branches.append(Branch(rec["from"], rec["to"], r, x, lim_pu))

    return Network(doc.get("name", ""), buses, branches, s_mva, v_kv,
                   v_lo, v_hi, doc.get("slack_voltage_pu", 1.0))


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


def load_bundled(name) -> Network:
    """Load a packaged fixture: 'ieee33' or 'ieee69'."""
    ref = resources.files("bessplan.data").joinpath(f"{name}.json")
    return load_network(json.loads(ref.read_text()))


def electrical_distance(net: Network, a, b) -> float:
    """Sum of |r + jx| over the unique a-b tree path, p.u.

    Per-branch magnitudes are summed (not the magnitude of the complex sum)
    so the metric is exactly additive along any path, which the selection
    logic relies on.
    """
    i, j = net._pos(a), net._pos(b)
    zm = np.hypot(net.r, net.x)
    d = 0.0
    while net.depth[i] > net.depth[j]:
        d += zm[net.parent_branch[i]]
        i = net.parent[i]
    while net.depth[j] > net.depth[i]:
        d += zm[net.parent_branch[j]]
        j = net.parent[j]
    while i != j:
        d += zm[net.parent_branch[i]] + zm[net.parent_branch[j]]
        i, j = net.parent[i], net.parent[j]
    return d


def leaf_buses(net: Network) -> set:
    """All non-slack buses of degree 1, as bus ids."""
    deg = np.zeros(net.n_bus, dtype=int)
    np.add.at(deg, net.fidx, 1)
    np.add.at(deg, net.tidx, 1)
    return {net.ids[i] for i in range(net.n_bus)
            if deg[i] == 1 and i != net.slack}


# LoadProfileSet.from_csv parses this many lines per block, so a
# year-long file is never held in memory as Python strings at once.
_CSV_BLOCK = 1 << 15
# Fixed text width of the timestamp field while parsing; longer stamps
# are rejected rather than truncated.
_STAMP_WIDTH = 40
_CSV_ROW = np.dtype([("timestamp", f"U{_STAMP_WIDTH}"), ("bus_id", np.int64),
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
        steps = np.diff(horizon).astype("timedelta64[h]").astype(int)
        if len(steps) and not np.all(steps == 1):
            raise ValueError("horizon must be strictly increasing with hourly spacing")
        if len(set(bus_ids)) != len(bus_ids):
            raise ValueError("duplicate bus ids in profile set")
        if p_kw.shape != (len(horizon), len(bus_ids)) or q_kvar.shape != p_kw.shape:
            raise ValueError("profile arrays must be (hours, buses)")
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

    @classmethod
    def constant(cls, net: Network, start, hours):
        """Replicate the network base demand over an hourly horizon."""
        horizon = np.datetime64(start, "h") + np.arange(hours)
        p = np.tile(net.p_base_kw, (hours, 1))
        q = np.tile(net.q_base_kvar, (hours, 1))
        return cls(horizon, net.ids, p, q)

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

        The first line is the header `timestamp,bus_id,p_kw,q_kvar`.
        Timestamps are anything np.datetime64 reads at hour resolution
        (e.g. `2025-01-01T00`), bus ids are integers, p/q are floats.
        Rows may be in any order; every bus present must cover the same
        full set of timestamps, each exactly once (a repeated
        (timestamp, bus_id) row is rejected). The file is parsed in
        blocks of lines, and each distinct timestamp text once.
        """
        stamps = {}       # timestamp text -> code, first-seen order
        cols = []         # per block: (code, bus, p, q) arrays
        with open(path) as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            if header == [""]:
                raise ValueError("empty profile file")
            if [h.strip() for h in header] != list(_CSV_ROW.names):
                raise ValueError(f"unexpected profile header {header}")
            line = 2
            for lines in iter(lambda: list(islice(fh, _CSV_BLOCK)), []):
                try:
                    rows = np.loadtxt(lines, delimiter=",", dtype=_CSV_ROW,
                                      comments=None, quotechar='"', ndmin=1)
                except ValueError as exc:
                    raise ValueError(
                        f"profile rows from line {line}: {exc}") from None
                line += len(lines)
                # rows sharing a timestamp come in runs: map run heads only
                ts = rows["timestamp"]
                head = np.ones(len(ts), dtype=bool)
                np.not_equal(ts[1:], ts[:-1], out=head[1:])
                codes = np.array([stamps.setdefault(t, len(stamps))
                                  for t in ts[head].tolist()], dtype=np.intp)
                cols.append((codes[np.cumsum(head) - 1], rows["bus_id"].copy(),
                             rows["p_kw"].copy(), rows["q_kvar"].copy()))
        if not stamps:
            raise ValueError("empty profile file")
        too_long = [t for t in stamps if len(t) >= _STAMP_WIDTH]
        if too_long:
            raise ValueError(f"timestamp {too_long[0]!r} is longer than "
                             f"{_STAMP_WIDTH - 1} characters")
        code, bus, p_in, q_in = [np.concatenate(c) for c in zip(*cols)]
        del cols
        horizon, hour_of = np.unique(
            np.array(list(stamps), dtype="datetime64[h]"), return_inverse=True)
        bus_ids, j = np.unique(bus, return_inverse=True)
        k = hour_of[code]
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
        p[k, j] = p_in
        q[k, j] = q_in
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


def scale_profiles(profiles: LoadProfileSet, growth: float) -> LoadProfileSet:
    """Uniform demand growth: p and q multiplied by a positive factor."""
    if not growth > 0:
        raise ValueError(f"growth must be positive, got {growth}")
    return LoadProfileSet(profiles.horizon, profiles.bus_ids,
                          _frozen(profiles.p_kw * growth),
                          _frozen(profiles.q_kvar * growth))
