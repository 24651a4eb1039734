"""Kernel tests for the interior-point solver's cone algebra and KKT solves.

Every vectorized cone operation is checked against a per-cone loop over
the textbook formulas, on a layout that interleaves cone sizes (so runs
of equal sizes alternate). An orthant entry is the size-1 case of the
same formulas. The dense KKT solve, a band LU along a reverse
Cuthill-McKee order, is checked against an explicitly formed
[H A'; A 0]: on random programs, where it also matches the sparse
solve, on a tree whose cones all share one column (an arrowhead, so the
band is wide) and on a program with orthant rows.
On a scaling whose (W'W)^{-1} is about 1e-6 the sparse solve's shifted
factor misses its refinement tolerance; the solve then factors K once
with partial pivoting, matches the explicit solve, and gives the same
bits whatever was factored before.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bessplan._ipm import Cones, _kkt_dense, _kkt_sparse

LAYOUTS = [(2, [3, 5, 3, 4, 4]), (0, [4] * 6)]


def spans(cone):
    """(start, stop) of each orthant entry, then of each cone."""
    out = [(k, k + 1) for k in range(cone.l)]
    start = cone.l
    for m in cone.q:
        out.append((start, start + m))
        start += m
    return out


def sign(m):
    return np.diag([1.0] + [-1.0] * (m - 1))


def arrow(y):
    """Arw(y): the matrix of z -> y o z."""
    a = y[0] * np.eye(len(y))
    a[0, :] = y
    a[:, 0] = y
    return a


def quad(u):
    """Quadratic representation P(u) = 2uu' - (u'Ju) J."""
    J = sign(len(u))
    return 2.0 * np.outer(u, u) - (u @ J @ u) * J


def interior(rng, cone):
    x = rng.standard_normal(cone.cdim)
    for a, b in spans(cone):
        x[a] = np.linalg.norm(x[a + 1:b]) + 0.5 + rng.random()
    return x


def w_blocks(cone, W):
    """Per orthant entry and per cone, the matrix of the scaling W."""
    out = [np.array([[d]]) for d in W["d"]]
    beta = np.concatenate(W["beta"])
    v = [row for V in W["v"] for row in V]
    for k, m in enumerate(cone.q):
        out.append(beta[k] * (2.0 * np.outer(v[k], v[k]) - sign(m)))
    return out


def w_matrix(cone, W):
    return scipy.linalg.block_diag(*w_blocks(cone, W))


@pytest.fixture(params=LAYOUTS, ids=["interleaved", "one-run"])
def cone(request):
    return Cones(*request.param)


def test_runs_cover_the_layout():
    cone = Cones(2, [3, 5, 3, 4, 4])
    assert cone.runs == [(2, 5, 3), (5, 10, 5), (10, 13, 3), (13, 21, 4)]
    assert cone.heads.tolist() == [2, 5, 10, 13, 17]
    expect = np.concatenate([[1.0, 1.0]] + [np.diag(sign(m)) for m in cone.q])
    assert np.array_equal(cone.J, expect)


def test_jordan_ops_match_per_cone_loop(cone):
    rng = np.random.default_rng(1)
    x = rng.standard_normal(cone.cdim)
    y = interior(rng, cone)
    lam = interior(rng, cone)
    prod = cone.sprod(x, y)
    inv = cone.sinv(x, y)
    up = cone.scale2(lam, x)
    down = cone.scale2(lam, x, inverse=True)
    for a, b in spans(cone):
        xs, ys = x[a:b], y[a:b]
        np.testing.assert_allclose(prod[a:b], arrow(xs) @ ys, rtol=1e-13,
                                   atol=1e-13)
        np.testing.assert_allclose(arrow(ys) @ inv[a:b], xs, rtol=1e-12,
                                   atol=1e-12)
        # H(lambda^{1/2}) = P(lambda)^{-1/2};
        # H(lambda^{-1/2}) = P(lambda)^{1/2}
        root = np.real(scipy.linalg.sqrtm(quad(lam[a:b])))
        np.testing.assert_allclose(root @ up[a:b], xs, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(down[a:b], root @ xs, rtol=1e-11,
                                   atol=1e-11)


def test_scale_w_matches_per_cone_loop(cone):
    rng = np.random.default_rng(2)
    W, _ = cone.compute_scaling(interior(rng, cone), interior(rng, cone))
    x = rng.standard_normal(cone.cdim)
    fwd = cone.scale_w(W, x)
    back = cone.scale_w(W, x, inverse=True)
    for (a, b), Wk in zip(spans(cone), w_blocks(cone, W)):
        np.testing.assert_allclose(fwd[a:b], Wk @ x[a:b], rtol=1e-13,
                                   atol=1e-13)
        np.testing.assert_allclose(Wk @ back[a:b], x[a:b], rtol=1e-12,
                                   atol=1e-12)


def test_nesterov_todd_identity(cone):
    # W z = W^{-T} s = lambda, at the initial scaling and after an update
    # to a new pair given in the old scaling
    rng = np.random.default_rng(3)
    s, z = interior(rng, cone), interior(rng, cone)
    W, lam = cone.compute_scaling(s, z)
    np.testing.assert_allclose(cone.scale_w(W, z), lam, rtol=1e-12)
    np.testing.assert_allclose(cone.scale_w(W, s, inverse=True), lam,
                               rtol=1e-12)
    s1, z1 = interior(rng, cone), interior(rng, cone)
    cone.update_scaling(W, lam, cone.scale_w(W, s1, inverse=True),
                        cone.scale_w(W, z1))
    np.testing.assert_allclose(cone.scale_w(W, z1), lam, rtol=1e-11)
    np.testing.assert_allclose(cone.scale_w(W, s1, inverse=True), lam,
                               rtol=1e-11)


def full_rank(G, A):
    """G and A as CSR matrices, checked to have rank([G; A]) = n."""
    G, A = sp.csr_matrix(G), sp.csr_matrix(A)
    assert np.linalg.matrix_rank(sp.vstack([G, A]).toarray()) == G.shape[1]
    return G, A


def kkt_system(cone, rng, n=9, p=3):
    """Sparse G whose cones touch 1-4 columns each, dense A, full rank."""
    G = np.zeros((cone.cdim, n))
    for a, b in spans(cone):
        cols = rng.choice(n, size=rng.integers(1, 5), replace=False)
        for r in range(a, b):
            G[r, rng.choice(cols, size=rng.integers(1, len(cols) + 1),
                            replace=False)] = rng.standard_normal()
    return full_rank(G, rng.standard_normal((p, n)))


def check_dense_solves(cone, G, A, rng):
    """Check the dense solve against the explicit [H A'; A 0] system at
    the identity and at a computed scaling; returns one (W, right-hand
    side, solution) per scaling."""
    n, p = G.shape[1], A.shape[0]
    Gd, Ad = G.toarray(), A.toarray()
    bx, by, bz = (rng.standard_normal(k) for k in (n, p, cone.cdim))
    scalings = [cone.identity_w(),
                cone.compute_scaling(interior(rng, cone),
                                     interior(rng, cone))[0]]
    out = []
    for W in scalings:
        Wm = w_matrix(cone, W)
        B = np.linalg.inv(Wm.T @ Wm)
        K = np.block([[Gd.T @ B @ Gd, Ad.T], [Ad, np.zeros((p, p))]])
        rhs = np.concatenate([bx + Gd.T @ B @ bz, by])
        x, y, zhat = _kkt_dense(G, A, cone, G.T.tocsr())(W)(bx, by, bz)
        sol = np.concatenate([x, y])
        assert np.linalg.norm(K @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)
        np.testing.assert_allclose(Wm @ zhat, Gd @ x - bz, rtol=1e-10,
                                   atol=1e-10 * np.linalg.norm(bz))
        out.append((W, (bx, by, bz), np.concatenate([sol, zhat])))
    return out


def test_dense_kkt_solves_explicit_system(cone):
    rng = np.random.default_rng(4)
    G, A = kkt_system(cone, rng)
    for W, rhs, both in check_dense_solves(cone, G, A, rng):
        xs, ys, zs = _kkt_sparse(G, A, cone)(W)(*rhs)
        assert np.linalg.norm(both - np.concatenate([xs, ys, zs])) \
            <= 1e-8 * np.linalg.norm(both)


def test_dense_kkt_solves_an_arrowhead_tree():
    # a feeder-like tree, one size-3 cone per branch over its own two
    # columns and its parent's first, plus column 0 in every cone, as
    # sizing's Ecap is: the reordered band is as wide as the arrowhead
    rng = np.random.default_rng(7)
    m = 24
    parent = [None] + [int(rng.integers(e)) for e in range(1, m)]
    cone = Cones(0, [3] * m)
    n = 1 + 2 * m
    G = np.zeros((cone.cdim, n))
    A = np.zeros((m, n))
    for e, up in enumerate(parent):
        cols = [0, 1 + 2 * e, 2 + 2 * e] + ([1 + 2 * up] if e else [])
        G[3 * e:3 * e + 3, cols] = rng.standard_normal((3, len(cols)))
        A[e, cols[1:]] = rng.standard_normal(len(cols) - 1)
    check_dense_solves(cone, *full_rank(G, A), rng)


def test_dense_kkt_solves_a_program_with_orthant_rows():
    # orthant rows over one, a few or every column (a budget row), each
    # a size-1 cone of H, beside two cone runs
    rng = np.random.default_rng(8)
    cone = Cones(7, [3, 3, 4])
    n, p = 12, 3
    G = np.zeros((cone.cdim, n))
    for r, width in enumerate([1, 1, 2, 3, 1, 2, n]):
        G[r, rng.choice(n, size=width, replace=False)] = \
            rng.standard_normal(width)
    for a, b in spans(cone)[cone.l:]:
        G[a:b, rng.choice(n, size=3, replace=False)] = \
            rng.standard_normal((b - a, 3))
    A = np.zeros((p, n))
    for r in range(p):
        A[r, rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
    check_dense_solves(cone, *full_rank(G, A), rng)


def test_dense_kkt_rejects_an_empty_equality_row(cone):
    rng = np.random.default_rng(5)
    G, A = kkt_system(cone, rng)
    A = sp.vstack([A, sp.csr_matrix((1, A.shape[1]))]).tocsr()
    with pytest.raises(ArithmeticError, match="singular"):
        _kkt_dense(G, A, cone, G.T.tocsr())(cone.identity_w())


def test_sparse_kkt_escalates_to_one_pivoted_lu(cone, monkeypatch):
    rng = np.random.default_rng(6)
    G, A = kkt_system(cone, rng)
    n, p = G.shape[1], A.shape[0]
    Gd, Ad = G.toarray(), A.toarray()
    bx, by, bz = (rng.standard_normal(k) for k in (n, p, cone.cdim))

    def scaled(W, f):
        return {"d": W["d"] * f, "di": W["di"] / f,
                "beta": [b * f for b in W["beta"]], "v": W["v"]}

    W, other = (scaled(cone.compute_scaling(interior(rng, cone),
                                            interior(rng, cone))[0], 1e3)
                for _ in range(2))
    real = spla.splu
    calls = []
    monkeypatch.setattr(spla, "splu",
                        lambda M, **kw: calls.append(kw) or real(M, **kw))
    solve = _kkt_sparse(G, A, cone)(W)
    x, y, zhat = solve(bx, by, bz)
    # the shifted diagonal-pivot factor, then K's own partial-pivoting LU
    assert [kw.get("diag_pivot_thresh") for kw in calls] == [0.0, None]
    assert calls[1] == {}
    solve(2.0 * bx, by, bz)  # a later solve of the same K factors nothing
    assert len(calls) == 2
    Wm = w_matrix(cone, W)
    B = np.linalg.inv(Wm.T @ Wm)
    K = np.block([[Gd.T @ B @ Gd, Ad.T], [Ad, np.zeros((p, p))]])
    ref = np.linalg.solve(K, np.concatenate([bx + Gd.T @ B @ bz, by]))
    sol = np.concatenate([x, y])
    assert np.linalg.norm(sol - ref) <= 1e-12 * np.linalg.norm(ref)
    # no LU of an earlier scaling reaches this one's solve
    factor = _kkt_sparse(G, A, cone)
    factor(other)(bx, by, bz)
    again = factor(W)(bx, by, bz)
    for a, b in zip((x, y, zhat), again):
        assert np.array_equal(a, b)
