"""Kernel tests for the interior-point solver's cone algebra and KKT solves.

Every vectorized cone operation is checked against a per-cone loop over
the textbook formulas, on a layout that interleaves cone sizes (so runs
of equal sizes alternate). An orthant entry is the size-1 case of the
same formulas. The dense KKT solve is checked against an explicitly
formed [H A'; A 0] and against the sparse solve of the same system.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

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


def kkt_system(cone, rng, n=9, p=3):
    """Sparse G whose cones touch 1-4 columns each, dense A, full rank."""
    G = np.zeros((cone.cdim, n))
    for a, b in spans(cone):
        cols = rng.choice(n, size=rng.integers(1, 5), replace=False)
        for r in range(a, b):
            G[r, rng.choice(cols, size=rng.integers(1, len(cols) + 1),
                            replace=False)] = rng.standard_normal()
    A = rng.standard_normal((p, n))
    assert np.linalg.matrix_rank(np.vstack([G, A])) == n
    return sp.csr_matrix(G), sp.csr_matrix(A)


def test_dense_kkt_solves_explicit_system(cone):
    rng = np.random.default_rng(4)
    G, A = kkt_system(cone, rng)
    n, p = G.shape[1], A.shape[0]
    Gd, Ad = G.toarray(), A.toarray()
    bx, by, bz = (rng.standard_normal(k) for k in (n, p, cone.cdim))
    scalings = [cone.identity_w(),
                cone.compute_scaling(interior(rng, cone),
                                     interior(rng, cone))[0]]
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
        xs, ys, zs = _kkt_sparse(G, A, cone)(W)(bx, by, bz)
        both = np.concatenate([sol, zhat])
        assert np.linalg.norm(both - np.concatenate([xs, ys, zs])) \
            <= 1e-8 * np.linalg.norm(both)


def test_dense_kkt_rejects_an_empty_equality_row(cone):
    rng = np.random.default_rng(5)
    G, A = kkt_system(cone, rng)
    A = sp.vstack([A, sp.csr_matrix((1, A.shape[1]))]).tocsr()
    with pytest.raises(ArithmeticError, match="singular"):
        _kkt_dense(G, A, cone, G.T.tocsr())(cone.identity_w())
