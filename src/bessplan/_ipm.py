"""Reference primal-dual interior-point solver for cone programs.

Solves
    minimize    c'x
    subject to  G x + s = h,   s in K
                A x = b
where K is a product of a nonnegative orthant of dimension l and
second-order cones of sizes q = [q_0, q_1, ...].

The method is the homogeneous self-dual embedding with Nesterov-Todd
scaling and a Mehrotra predictor-corrector step (the standard conelp
algorithm). Only 'l' and 'q' cones are supported; that is all the
planning models need. Fully deterministic: LU factorizations with
partial pivoting, banded along a fixed reverse Cuthill-McKee order for
small systems and sparse for large ones, no randomization, no
threading.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

STEP = 0.99
EXPON = 3

# Iterations without any merit improvement before the endgame is
# declared dead and the best iterate returned. Only armed once the best
# merit is already small: far from convergence a flat merit usually
# means an infeasibility certificate is still forming, not a plateau.
_PATIENCE = 8
_PATIENCE_ARM = 1e-3

# KKT systems at or below this size are solved dense.
_DENSE_LIMIT = 700

# Static quasidefinite shift applied to the sparse KKT diagonal so that
# pure diagonal pivoting never meets a zero pivot; solves refine the
# shift back out against the unshifted matrix.
_KKT_REG = 1e-8

_gbtrf, _gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"),
                                              dtype=np.float64)


class Cones:
    """Layout of K = R+^l x Q^{q_0} x ... as runs of equal-size cones.

    Each maximal run of consecutive cones of one size m is a block
    (start, stop, m): x[start:stop].reshape(-1, m) views every cone of
    the run as a row, so all Jordan-algebra operations vectorize per
    run without gathers. J is the sign vector of the Jordan algebra:
    +1 on the orthant and on every cone head, -1 elsewhere.
    """

    def __init__(self, l, q):
        self.l = int(l)
        self.q = [int(m) for m in q]
        if self.l < 0 or any(m < 2 for m in self.q):
            raise ValueError("cone dims must have l >= 0 and q blocks >= 2")
        self.cdim = self.l + sum(self.q)
        self.degree = self.l + len(self.q)
        self.runs = []
        heads = []
        start = self.l
        for m, same in itertools.groupby(self.q):
            stop = start + m * len(list(same))
            self.runs.append((start, stop, m))
            heads.extend(range(start, stop, m))
            start = stop
        self.heads = np.array(heads, dtype=np.intp)
        self.J = -np.ones(self.cdim)
        self.J[:self.l] = 1.0
        self.J[self.heads] = 1.0

    def _views(self, *vecs):
        """Per run, the (cones, m) views of each cdim-vector."""
        for a, b, m in self.runs:
            yield [v[a:b].reshape(-1, m) for v in vecs]

    # -- elementary Jordan ops ------------------------------------------

    def sprod(self, x, y):
        """x o y."""
        out = np.empty(self.cdim)
        l = self.l
        out[:l] = x[:l] * y[:l]
        for X, Y, O in self._views(x, y, out):
            O[:, 0] = np.einsum("bi,bi->b", X, Y)
            O[:, 1:] = Y[:, :1] * X[:, 1:] + X[:, :1] * Y[:, 1:]
        return out

    def sinv(self, x, y):
        """Solve y o z = x for z."""
        out = np.empty(self.cdim)
        l = self.l
        out[:l] = x[:l] / y[:l]
        for X, Y, O in self._views(x, y, out):
            aa = self._jsq(Y)
            cc = X[:, 0]
            dd = np.einsum("bi,bi->b", Y[:, 1:], X[:, 1:])
            O[:, 0] = (cc * Y[:, 0] - dd) / aa
            O[:, 1:] = (X[:, 1:] / Y[:, 0:1]
                        + ((dd / Y[:, 0] - cc) / aa)[:, None] * Y[:, 1:])
        return out

    @staticmethod
    def _jsq(X):
        """x0^2 - ||x1||^2 per row, clipped at zero."""
        return np.maximum(
            X[:, 0] ** 2 - np.einsum("bi,bi->b", X[:, 1:], X[:, 1:]), 0.0)

    def max_step(self, x):
        """min alpha such that x + alpha*e is in K, as a max of -x parts."""
        cands = []
        if self.l:
            cands.append(-x[:self.l].min())
        for (X,) in self._views(x):
            cands.append(
                (np.linalg.norm(X[:, 1:], axis=1) - X[:, 0]).max())
        return max(cands)

    def scale2(self, lmbda, x, inverse=False):
        """x := H(lambda^{1/2}) x, or H(lambda^{-1/2}) x when inverse."""
        out = x.copy()
        l = self.l
        if inverse:
            out[:l] *= lmbda[:l]
        else:
            out[:l] /= lmbda[:l]
        for L, X, O in self._views(lmbda, x, out):
            a = np.sqrt(self._jsq(L))
            if inverse:
                lx = np.einsum("bi,bi->b", L, X) / a
            else:
                lx = (L[:, 0] * X[:, 0]
                      - np.einsum("bi,bi->b", L[:, 1:], X[:, 1:])) / a
            cc = (lx + X[:, 0]) / (L[:, 0] / a + 1.0) / a
            if not inverse:
                cc = -cc
            O[:, 0] = lx
            O[:, 1:] += cc[:, None] * L[:, 1:]
            O *= (a if inverse else 1.0 / a)[:, None]
        return out

    # -- Nesterov-Todd scaling ------------------------------------------
    #
    # W holds the orthant diagonal d (and its inverse di) and, per run,
    # the cones' scale factors beta (cones,) and unit hyperbolic
    # vectors v (cones, m): W = beta (2 v v' - J) on each cone.

    def identity_w(self):
        v = []
        for a, b, m in self.runs:
            V = np.zeros(((b - a) // m, m))
            V[:, 0] = 1.0
            v.append(V)
        return {"d": np.ones(self.l), "di": np.ones(self.l),
                "beta": [np.ones(len(V)) for V in v], "v": v}

    def compute_scaling(self, s, z):
        """Initial W with W^{-T} s = W z = lambda; returns (W, lambda)."""
        lmbda = np.empty(self.cdim)
        l = self.l
        d = np.sqrt(s[:l] / z[:l])
        lmbda[:l] = np.sqrt(s[:l] * z[:l])
        W = {"d": d, "di": 1.0 / d, "beta": [], "v": []}
        for S, Z, lam in self._views(s, z, lmbda):
            aa = np.sqrt(self._jsq(S))
            bb = np.sqrt(self._jsq(Z))
            W["beta"].append(np.sqrt(aa / bb))
            Sb = S / aa[:, None]
            Zb = Z / bb[:, None]
            cc = np.sqrt((1.0 + np.einsum("bi,bi->b", Sb, Zb)) / 2.0)
            V = Sb.copy()
            V[:, 0] += Zb[:, 0]
            V[:, 1:] -= Zb[:, 1:]
            V /= (2.0 * cc)[:, None]
            dd = 2.0 * cc + Sb[:, 0] + Zb[:, 0]
            lam[:, 0] = cc
            lam[:, 1:] = ((cc + Zb[:, 0])[:, None] * Sb[:, 1:]
                          + (cc + Sb[:, 0])[:, None] * Zb[:, 1:]) / dd[:, None]
            lam *= np.sqrt(aa * bb)[:, None]
            V[:, 0] += 1.0
            V /= np.sqrt(2.0 * V[:, 0])[:, None]
            W["v"].append(V)
        return W, lmbda

    def update_scaling(self, W, lmbda, s, z):
        """Rank-two NT update of W and lambda, in place, from the new
        iterates s, z given in the current scaling."""
        l = self.l
        sl = np.sqrt(s[:l])
        zl = np.sqrt(z[:l])
        W["d"] *= sl / zl
        W["di"] = 1.0 / W["d"]
        lmbda[:l] = sl * zl
        for (S, Z, lam), V, beta in zip(self._views(s, z, lmbda), W["v"],
                                        W["beta"]):
            aa = np.sqrt(self._jsq(S))
            S = S / aa[:, None]
            bb = np.sqrt(self._jsq(Z))
            Z = Z / bb[:, None]
            cc = np.sqrt((1.0 + np.einsum("bi,bi->b", S, Z)) / 2.0)
            vs = np.einsum("bi,bi->b", V, S)
            vz = V[:, 0] * Z[:, 0] - np.einsum("bi,bi->b", V[:, 1:], Z[:, 1:])
            vq = (vs + vz) / (2.0 * cc)
            vu = vs - vz
            wk0 = 2.0 * V[:, 0] * vq - (S[:, 0] + Z[:, 0]) / (2.0 * cc)
            dd = (V[:, 0] * vu - S[:, 0] / 2.0 + Z[:, 0] / 2.0) / (wk0 + 1.0)
            lam[:, 0] = cc
            lam[:, 1:] = (2.0 * (-dd * vq + 0.5 * vu)[:, None] * V[:, 1:]
                          + (0.5 * (1.0 - dd / cc))[:, None] * S[:, 1:]
                          + (0.5 * (1.0 + dd / cc))[:, None] * Z[:, 1:])
            lam *= np.sqrt(aa * bb)[:, None]
            V *= (2.0 * vq)[:, None]
            V[:, 0] -= S[:, 0] / (2.0 * cc)
            V[:, 1:] += (0.5 / cc)[:, None] * S[:, 1:]
            V -= (0.5 / cc)[:, None] * Z
            V[:, 0] += 1.0
            V /= np.sqrt(2.0 * V[:, 0])[:, None]
            beta *= np.sqrt(aa / bb)

    def scale_w(self, W, x, inverse=False):
        """W x (or W^{-1} x). W is symmetric for 'l' and 'q' cones."""
        out = np.empty(self.cdim)
        l = self.l
        out[:l] = x[:l] * (W["di"] if inverse else W["d"])
        for (a, b, m), V, beta in zip(self.runs, W["v"], W["beta"]):
            X = x[a:b].reshape(-1, m)
            J = self.J[a:a + m]
            U = V * J if inverse else V
            ux = np.einsum("bi,bi->b", U, X)
            Y = 2.0 * U * ux[:, None] - X * J
            np.multiply(Y, (1.0 / beta if inverse else beta)[:, None],
                        out=out[a:b].reshape(-1, m))
        return out

    def binv_parts(self, W):
        """(W'W)^{-1} as a dense diagonal for 'l' plus per-run blocks."""
        dl2 = W["di"] ** 2
        blocks = []
        for (a, b, m), V, beta in zip(self.runs, W["v"], W["beta"]):
            U = V * self.J[a:a + m]  # u = J v
            uu = np.einsum("bi,bi->b", U, U)
            blk = (4.0 * uu[:, None, None] * U[:, :, None] * U[:, None, :]
                   - 2.0 * U[:, :, None] * V[:, None, :]
                   - 2.0 * V[:, :, None] * U[:, None, :]
                   + np.eye(m)[None, :, :])
            blk /= (beta ** 2)[:, None, None]
            blocks.append(blk)
        return dl2, blocks

    def binv_apply(self, dl2, blocks, x):
        """(W'W)^{-1} x from the parts binv_parts returns."""
        out = np.empty(self.cdim)
        out[:self.l] = dl2 * x[:self.l]
        for (X, O), B in zip(self._views(x, out), blocks):
            np.einsum("bij,bj->bi", B, X, out=O)
        return out


def _cone_columns(Gr, m):
    """Each cone's rows of G restricted to the columns they touch.

    Gr holds the rows of one run of size-m cones. Returns (Gk, cols):
    Gk[c] is cone c's (m, w) row block over columns cols[c], w being the
    most columns any cone of the run touches. A cone that touches fewer
    pads with column -1 and zero entries.
    """
    Gr = Gr.tocoo()
    Gr.sum_duplicates()
    n = Gr.shape[1]
    k = Gr.shape[0] // m
    cone = Gr.row // m
    key = cone * n + Gr.col
    keys, at = np.unique(key, return_inverse=True)
    kc = keys // n
    counts = np.bincount(kc, minlength=k)
    w = int(counts.max()) if k else 0
    slot = np.arange(len(keys)) - (np.cumsum(counts) - counts)[kc]
    cols = np.full((k, w), -1, dtype=np.intp)
    cols[kc, slot] = keys % n
    Gk = np.zeros((k, m, w))
    Gk[cone, Gr.row % m, slot[at]] = Gr.data
    return Gk, cols


def _kkt_dense(G, A, cone, GT):
    """Factor-and-solve closure for [H A'; A 0], H = G'(W'W)^{-1}G, as a
    band LU along a reverse Cuthill-McKee order.

    GT is G' in CSR form; conelp builds it once per call and shares it.

    (W'W)^{-1} is block diagonal, so H is one small block G_k' B_k G_k
    per cone over the columns its rows touch (4 for a branch cone), each
    orthant row being a cone of size 1. Once per call, the blocks'
    column pairs and A's entries give the KKT pattern. Its reverse
    Cuthill-McKee order puts every entry within k of the diagonal (22
    for an IEEE-69 screening hour, where N = 482), and each entry gets
    its slot in an N x (3k+1) band template that holds A. Each
    factorization scatters the blocks into a copy of the template and
    factors it with gbtrf, Gaussian elimination with partial pivoting
    whose fill stays in the template's first k rows. The template's
    transpose is the Fortran-ordered band gbtrf takes, so it factors in
    place.
    """
    G = G.tocsr()
    A = A.tocoo()
    A.sum_duplicates()
    n, p = G.shape[1], A.shape[0]
    N = n + p
    runs = ([(0, cone.l, 1)] if cone.l else []) + cone.runs
    Gks, rows, cols = [], [], []
    for a, b, m in runs:
        Gk, ck = _cone_columns(G[a:b], m)
        w = ck.shape[1]
        Gks.append(Gk)
        rows.append(np.repeat(ck, w, axis=1).ravel())
        cols.append(np.tile(ck, (1, w)).ravel())
    rows = np.concatenate(rows + [A.row + n, A.col])
    cols = np.concatenate(cols + [A.col, A.row + n])
    real = (rows >= 0) & (cols >= 0)
    pattern = sp.csr_matrix((np.ones(real.sum()), (rows[real], cols[real])),
                            shape=(N, N))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    at = np.empty(N, dtype=np.intp)
    at[perm] = np.arange(N)
    i, j = at[rows], at[cols]
    k = int(np.abs(i - j)[real].max(initial=0))
    # entry (i, j) of the band's column j, row 2k + i - j; the padding's
    # zero entries land in one slot past the band
    flat = np.where(real, j * (3 * k + 1) + 2 * k + i - j, N * (3 * k + 1))
    nh = len(flat) - 2 * A.nnz
    template = np.zeros(N * (3 * k + 1) + 1)
    template[flat[nh:]] = np.tile(A.data, 2)
    # every cone block entry's slot among the distinct H positions
    pos, slot = np.unique(flat[:nh], return_inverse=True)

    def factor(W):
        dl2, blocks = cone.binv_parts(W)
        band = template.copy()
        hk = np.concatenate(
            [(Gk.transpose(0, 2, 1) @ (B @ Gk)).ravel() for Gk, B in
             zip(Gks, ([dl2[:, None, None]] if cone.l else []) + blocks)])
        band[pos] += np.bincount(slot, weights=hk, minlength=len(pos))
        lu, piv, info = _gbtrf(band[:-1].reshape(N, 3 * k + 1).T, k, k,
                               overwrite_ab=True)
        # NaN or inf in K reaches U's diagonal (NaN fails the test too)
        # or else the solves, which conelp's stall guard rejects
        diag = np.abs(lu[2 * k])
        if info != 0 or not diag.min() > diag.max() * 1e-300:
            raise ArithmeticError("singular KKT matrix")

        def solve(bx, by, bz):
            rhs = np.concatenate([bx + GT @ cone.binv_apply(dl2, blocks, bz),
                                  by])
            sol, _ = _gbtrs(lu, k, k, rhs[perm], piv, overwrite_b=True)
            sol = sol[at]
            x, y = sol[:n], sol[n:]
            zhat = cone.scale_w(W, G @ x - bz, inverse=True)
            return x, y, zhat

        return solve

    return factor


def _kkt_sparse(G, A, cone):
    """Same contract as _kkt_dense using a sparse LU of the KKT system.

    The KKT matrix [[H, A'], [A, 0]] is symmetric with an empty trailing
    block. Threshold row pivoting on ill-conditioned iterates wrecks the
    fill-reducing ordering (observed: minutes instead of ~0.1s on a week
    horizon), so instead the matrix gets a static quasidefinite shift
    (+delta on the H block, -delta on the empty block), pivoting is
    pinned to the diagonal, and every solve polishes the shift away by
    iterative refinement against the unshifted matrix.

    Each factorization keeps at most two LUs, both of its own K: the
    shifted factor, and splu(K) with partial pivoting, made the first
    time the shifted factor's refinement misses 1e-9 relative; once that
    has done better, later solves of this K start from it. If the shifted
    factorization raises, splu(K) replaces it and is the pivoted LU. No
    LU outlives its factorization.
    """
    G = G.tocsr()
    A = A.tocsr()
    n = G.shape[1]
    p = A.shape[0]
    # (W'W)^{-1} sparsity pattern is fixed: diagonal 'l' entries plus one
    # dense block per q cone.
    rows = [np.arange(cone.l)]
    cols = [np.arange(cone.l)]
    for a, b, m in cone.runs:
        idx = np.arange(a, b).reshape(-1, m)
        rows.append(np.repeat(idx, m, axis=1).ravel())
        cols.append(np.tile(idx, (1, m)).ravel())
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    shift = sp.diags(np.concatenate([np.full(n, _KKT_REG),
                                     np.full(p, -_KKT_REG)])).tocsc()

    def factor(W):
        dl2, blocks = cone.binv_parts(W)
        data = [dl2] + [blk.ravel() for blk in blocks]
        Binv = sp.coo_matrix((np.concatenate(data), (rows, cols)),
                             shape=(cone.cdim, cone.cdim)).tocsr()
        BG = Binv @ G
        H = (G.T @ BG).tocsc()
        K = sp.bmat([[H, A.T], [A, None]], format="csc")
        if not np.all(np.isfinite(K.data)):
            raise ArithmeticError("singular KKT matrix")
        pivoted = None  # K's own partial-pivoting LU, made on demand
        try:
            fast = spla.splu(K + shift, permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0,
                             options={"SymmetricMode": True})
        except RuntimeError:
            try:
                fast = pivoted = spla.splu(K)
            except RuntimeError:
                raise ArithmeticError("singular KKT matrix") from None
        # Sticky accuracy escalation: once the pivoted LU beat the shifted
        # factor, later solves of this K skip the doomed shifted attempt.
        slow_first = False

        def refine(lu, rhs, sol):
            # (best iterate, its residual norm) of up to three steps
            best = None
            for step in range(4):
                r = rhs - K @ sol
                rn = float(np.linalg.norm(r))
                if best is not None and not rn < best[1]:
                    break
                best = (sol, rn)
                if step == 3 or not np.isfinite(rn) or rn == 0.0:
                    break
                sol = sol + lu.solve(r)
            return best

        def solve(bx, by, bz):
            nonlocal pivoted, slow_first
            rhs = np.concatenate([bx + BG.T @ bz, by])
            tol = 1e-9 * max(1.0, float(np.linalg.norm(rhs)))
            lu = pivoted if slow_first else fast
            sol, rn = refine(lu, rhs, lu.solve(rhs))
            if not rn <= tol and pivoted is None:
                try:
                    pivoted = spla.splu(K)
                except RuntimeError:
                    pivoted = fast  # nothing more accurate to try
            if not rn <= tol and pivoted is not lu:
                s2, r2 = refine(pivoted, rhs, pivoted.solve(rhs))
                if np.isfinite(r2) and r2 < rn:
                    sol, rn = s2, r2
                    slow_first = True
            x, y = sol[:n], sol[n:]
            zhat = cone.scale_w(W, G @ x - bz, inverse=True)
            return x, y, zhat

        return solve

    return factor


def _equilibrate(G, A, cone, rounds=8):
    """Ruiz row/column equilibration of the stacked [G; A] matrix.

    All rows of one second-order cone share a single factor (a cone is
    invariant only under uniform positive scaling); orthant rows and
    equality rows scale individually. Returns (Gs, As, dc, drg, dra)
    with Gs = diag(drg) G diag(dc) and As = diag(dra) A diag(dc).
    """
    n, p = G.shape[1], A.shape[0]
    drg = np.ones(cone.cdim)
    dra = np.ones(p)
    dc = np.ones(n)
    Gs = G.copy().tocsr()
    As = A.copy().tocsr()
    for _ in range(rounds):
        aG = Gs.copy()
        aG.data = np.abs(aG.data)
        aA = As.copy()
        aA.data = np.abs(aA.data)
        rg = aG.max(axis=1).toarray().ravel()
        for a, b, m in cone.runs:
            R = rg[a:b].reshape(-1, m)
            R[:] = R.max(axis=1)[:, None]
        ra = aA.max(axis=1).toarray().ravel() if p else np.zeros(0)
        cmax = aG.max(axis=0).toarray().ravel()
        if p:
            cmax = np.maximum(cmax, aA.max(axis=0).toarray().ravel())
        spread = [v for v in (rg, ra, cmax) if v.size]
        if max(float(np.abs(np.log(np.where(v > 0, v, 1.0))).max())
               for v in spread) < 0.05:
            break
        fg = 1.0 / np.sqrt(np.where(rg > 0, rg, 1.0))
        fa = 1.0 / np.sqrt(np.where(ra > 0, ra, 1.0))
        fc = 1.0 / np.sqrt(np.where(cmax > 0, cmax, 1.0))
        Gs = sp.diags(fg) @ Gs @ sp.diags(fc)
        if p:
            As = sp.diags(fa) @ As @ sp.diags(fc)
        drg *= fg
        dra *= fa
        dc *= fc
    return Gs.tocsr(), As.tocsr(), dc, drg, dra


def conelp(c, G, h, dims, A, b, feastol=1e-8, abstol=1e-8, reltol=1e-8,
           maxiters=100):
    """Solve the cone LP; returns a dict with status and iterates.

    status is 'optimal', 'primal infeasible', 'dual infeasible' or
    'unknown'. For 'optimal'/'unknown' the primal x, s and dual y, z are
    returned unscaled; infeasibility certificates replace them otherwise.
    An 'unknown' result says in 'reason' why the search stopped:
    'max-iters', 'stall' (a merit plateau or relapse after near
    convergence), 'breakdown' (a non-finite merit) or 'singular-kkt'.
    A search that stops early returns its best iterate, with that
    iterate's residuals and costs; 'iterations' always counts the
    iterations run. The problem data is Ruiz-equilibrated internally;
    the reported pres and dres refer to the scaled system, while x, y,
    s, z and the cost values are always in original units.

    The endgame of the embedding can break down in floating point one or
    two iterations past the requested tolerances; intermediate overflow
    there is expected, handled by the stall guard, and must not warn.
    """
    old = np.seterr(divide="ignore", invalid="ignore", over="ignore")
    try:
        return _conelp(c, G, h, dims, A, b, feastol, abstol, reltol,
                       maxiters)
    finally:
        np.seterr(**old)


def _conelp(c, G, h, dims, A, b, feastol, abstol, reltol, maxiters):
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    b = np.asarray(b, dtype=float)
    G = sp.csr_matrix(G)
    A = sp.csr_matrix(A) if A is not None else sp.csr_matrix((0, len(c)))
    cone = Cones(dims.get("l", 0), dims.get("q", ()))
    n, p = len(c), A.shape[0]
    if G.shape != (cone.cdim, n):
        raise ValueError("G shape does not match dims and c")
    if cone.cdim == 0:
        raise ValueError("empty cone")

    dense = n + p <= _DENSE_LIMIT
    if dense:
        # small systems solve accurately as-is; skipping the scaling
        # keeps their results bit-stable
        dc, drg, dra = np.ones(n), np.ones(cone.cdim), np.ones(p)
    else:
        G, A, dc, drg, dra = _equilibrate(G, A, cone)
        c = c * dc
        h = h * drg
        b = b * dra
    # Newton correction rounds per step; the sparse path's KKT solves
    # already refine against the unshifted matrix
    refinement = 2 if dense else 1
    GT, AT = G.T.tocsr(), A.T.tocsr()
    factor = _kkt_dense(G, A, cone, GT) if dense else \
        _kkt_sparse(G, A, cone)

    resx0 = max(1.0, np.linalg.norm(c))
    resy0 = max(1.0, np.linalg.norm(b))
    resz0 = max(1.0, np.linalg.norm(h))

    def result(status, x, y, s, z, **kw):
        out = {"status": status,
               "x": None if x is None else x * dc,
               "y": None if y is None else y * dra,
               "s": None if s is None else s / drg,
               "z": None if z is None else z * drg,
               "iterations": kw.pop("iterations", 0)}
        out.update(kw)
        return out

    # Initial point from two least-squares solves with W = I.
    try:
        f0 = factor(cone.identity_w())
    except ArithmeticError:
        raise ValueError("Rank(A) < p or Rank([G; A]) < n") from None
    x, _, zh = f0(np.zeros(n), b.copy(), h.copy())
    s = -zh
    ts = cone.max_step(s)
    if ts >= -1e-8 * max(1.0, np.linalg.norm(s)):
        a = 1.0 + ts
        s[:cone.l] += a
        s[cone.heads] += a
    _, y, z = f0(-c, np.zeros(p), np.zeros(cone.cdim))
    tz = cone.max_step(z)
    if tz >= -1e-8 * max(1.0, np.linalg.norm(z)):
        a = 1.0 + tz
        z[:cone.l] += a
        z[cone.heads] += a

    tau, kappa = 1.0, 1.0
    gap = float(s @ z)
    W = lmbda = lg = dg = dgi = None
    pcost = dcost = relgap = pres = dres = None
    pinfres = dinfres = None
    best = None  # (merit, kwargs of the best near-feasible iterate)
    last_gain = 0

    for iters in range(maxiters + 1):
        # Unscaled residuals of the self-dual embedding.
        hrx = -(AT @ y) - (GT @ z)
        hresx = np.linalg.norm(hrx)
        rx = hrx - c * tau
        resx = np.linalg.norm(rx) / tau
        hry = A @ x
        hresy = np.linalg.norm(hry)
        ry = hry - b * tau
        resy = np.linalg.norm(ry) / tau
        hrz = s + G @ x
        hresz = np.linalg.norm(hrz)
        rz = hrz - h * tau
        resz = np.linalg.norm(rz) / tau

        cx = float(c @ x)
        by = float(b @ y)
        hz = float(h @ z)
        rt = kappa + cx + by + hz

        pcost = cx / tau
        dcost = -(by + hz) / tau
        if pcost < 0.0:
            relgap = gap / -pcost
        elif dcost > 0.0:
            relgap = gap / dcost
        else:
            relgap = None
        pres = max(resy / resy0, resz / resz0)
        dres = resx / resx0
        pinfres = (hresx / resx0 / (-hz - by)) if hz + by < 0.0 else None
        dinfres = (max(hresy / resy0, hresz / resz0) / -cx) if cx < 0.0 else None

        if pres <= feastol and dres <= feastol and \
                (gap <= abstol or (relgap is not None and relgap <= reltol)):
            return result("optimal", x / tau, y / tau, s / tau, z / tau,
                          iterations=iters, pcost=pcost, dcost=dcost,
                          gap=gap, relgap=relgap, pres=pres, dres=dres)
        if pinfres is not None and pinfres <= feastol:
            scal = -hz - by
            return result("primal infeasible", None, y / scal, None, z / scal,
                          iterations=iters, pcost=None, dcost=1.0,
                          gap=None, relgap=None, pres=pres, dres=dres,
                          pinfres=pinfres)
        if dinfres is not None and dinfres <= feastol:
            return result("dual infeasible", x / -cx, None, s / -cx, None,
                          iterations=iters, pcost=-1.0, dcost=None,
                          gap=None, relgap=None, pres=pres, dres=dres,
                          dinfres=dinfres)

        # Track the most balanced iterate seen; once the search was nearly
        # converged, a large relapse or a dead plateau means numerical
        # breakdown, so stop instead of burning the remaining iterations.
        merit = max(pres, dres, relgap if relgap is not None else gap)
        bad = not np.isfinite(merit)
        snap = dict(pcost=pcost, dcost=dcost, gap=gap, relgap=relgap,
                    pres=pres, dres=dres)
        if best is None or (not bad and merit < best[0]):
            best = (merit, (x / tau, y / tau, s / tau, z / tau), snap)
            last_gain = iters
        stalled = bad or (best[0] <= 1e-6 and merit > 1e4 * best[0]) \
            or (best[0] <= _PATIENCE_ARM and iters - last_gain >= _PATIENCE)
        if iters == maxiters or stalled:
            bs = best[2]
            near = bs["pres"] <= 100 * feastol and bs["dres"] <= 100 * feastol \
                and (bs["gap"] <= 100 * abstol or
                     (bs["relgap"] is not None and bs["relgap"] <= 100 * reltol))
            if near:
                return result("optimal", *best[1], iterations=iters, **bs)
            reason = "breakdown" if bad else "stall" if stalled \
                else "max-iters"
            return result("unknown", *best[1], iterations=iters,
                          reason=reason, **bs)

        # Nesterov-Todd scaling of the current iterate.
        if iters == 0:
            W, lmbda = cone.compute_scaling(s, z)
            dg = math.sqrt(kappa / tau)
            dgi = math.sqrt(tau / kappa)
            lg = math.sqrt(tau * kappa)
        try:
            f3 = factor(W)
        except ArithmeticError:
            return result("unknown", x / tau, y / tau, s / tau, z / tau,
                          iterations=iters, pcost=pcost, dcost=dcost,
                          gap=gap, relgap=relgap, pres=pres, dres=dres,
                          reason="singular-kkt")
        x1, y1, z1 = f3(-c, b.copy(), h.copy())
        x1 *= dgi
        y1 *= dgi
        z1 *= dgi
        th = cone.scale_w(W, h, inverse=True)
        z1z1 = float(z1 @ z1)

        def f6_no_ir(bx, by_, bz, btau, bs, bkappa):
            # See the conelp references: solves the scaled Newton system
            # with the homogenizing (tau, kappa) row folded in.
            uy = -by_
            us = -cone.sinv(bs, lmbda)
            uz = -(bz + cone.scale_w(W, us))
            ux, uy, uz = f3(bx, uy, uz)
            ukappa = -bkappa / lg
            utau = btau + ukappa / dgi
            utau = dgi * (utau + float(c @ ux) + float(b @ uy)
                          + float(th @ uz)) / (1.0 + z1z1)
            ux = ux + utau * x1
            uy = uy + utau * y1
            uz = uz + utau * z1
            us = us - uz
            ukappa -= utau
            return ux, uy, uz, utau, us, ukappa

        def f6(bx, by_, bz, btau, bs, bkappa):
            ux, uy, uz, utau, us, ukappa = f6_no_ir(
                bx, by_, bz, btau, bs, bkappa)
            for _ in range(refinement):
                # residual of the Newton system at the current solution
                wz = cone.scale_w(W, uz, inverse=True)
                vx = bx - (AT @ uy) - (GT @ wz) - c * (utau / dg)
                vy = by_ + A @ ux - b * (utau / dg)
                vz = bz + G @ ux - h * (utau / dg) + cone.scale_w(W, us)
                vtau = btau + dg * ukappa + float(c @ ux) + float(b @ uy) \
                    + float(h @ wz)
                vs = bs + cone.sprod(lmbda, uz + us)
                vkappa = bkappa + lg * (utau + ukappa)
                dx_, dy_, dz_, dtau_, ds_, dk_ = f6_no_ir(
                    vx, vy, vz, vtau, vs, vkappa)
                ux = ux + dx_
                uy = uy + dy_
                uz = uz + dz_
                utau += dtau_
                us = us + ds_
                ukappa += dk_
            return ux, uy, uz, utau, us, ukappa

        lmbdasq = cone.sprod(lmbda, lmbda)
        lgsq = lg * lg
        mu = (float(lmbda @ lmbda) + lgsq) / (1 + cone.degree)
        sigma = 0.0
        ws3 = None
        wkappa3 = 0.0
        for i in (0, 1):
            ds = lmbdasq.copy()
            dkappa = lgsq
            if i == 1:
                ds += ws3
                ds[:cone.l] -= sigma * mu
                ds[cone.heads] -= sigma * mu
                dkappa += wkappa3 - sigma * mu
            dx = (1.0 - sigma) * rx
            dy = (1.0 - sigma) * ry
            dz = (1.0 - sigma) * rz
            dtau = (1.0 - sigma) * rt
            dx, dy, dz, dtau, ds, dkappa = f6(dx, dy, dz, dtau, ds, dkappa)
            if i == 0:
                ws3 = cone.sprod(ds, dz)
                wkappa3 = dtau * dkappa
            ds = cone.scale2(lmbda, ds)
            dz = cone.scale2(lmbda, dz)
            ts = cone.max_step(ds)
            tz = cone.max_step(dz)
            tt = -dtau / lg
            tk = -dkappa / lg
            t = max(0.0, ts, tz, tt, tk)
            if t == 0.0:
                step = 1.0
            else:
                step = min(1.0, (1.0 if i == 0 else STEP) / t)
            if i == 0:
                sigma = (1.0 - step) ** EXPON

        x = x + step * dx
        y = y + step * dy

        # ds, dz become the updated iterates in the current scaling.
        ds = step * ds
        dz = step * dz
        ds[:cone.l] += 1.0
        dz[:cone.l] += 1.0
        ds[cone.heads] += 1.0
        dz[cone.heads] += 1.0
        ds = cone.scale2(lmbda, ds, inverse=True)
        dz = cone.scale2(lmbda, dz, inverse=True)

        cone.update_scaling(W, lmbda, ds, dz)
        dg *= math.sqrt(1.0 - step * tk) / math.sqrt(1.0 - step * tt)
        dgi = 1.0 / dg
        lg *= math.sqrt(1.0 - step * tt) * math.sqrt(1.0 - step * tk)

        s = cone.scale_w(W, lmbda)
        z = cone.scale_w(W, lmbda, inverse=True)
        kappa = lg / dgi
        tau = lg * dgi
        gap = (np.linalg.norm(lmbda) / tau) ** 2
