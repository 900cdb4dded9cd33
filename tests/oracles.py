"""Independent oracles for the library's tests: a chart manifold with ODE
geodesics, parallel transport and curvature for the Jacobi oracle, the
center-of-mass chart
written with the scalar ``dist`` and ``log`` of a model rather than the
stacked code the library solves with, a finite-difference cross-check of
the connection distortion, the Jacobi initial value problem and the
second variation, the generalized-eigenvalue comparison of two flat
metrics, finite-difference Christoffel symbols of a metric, and the
icosphere subdivided one face and one midpoint at a time."""

import numpy as np
from scipy.linalg import eigh

from karcher.barycentric import pullback_metric
from karcher.errors import NonRealizableError
from karcher.fem import _ICO_FACES, _ICO_VERTS
from karcher.flat_simplex import BarycentricWeight, FlatMetric
from karcher.integrate import solve_ode
from karcher.jacobi import (JacobiBVP, _frame_curvature, parallel_frame,
                            solve_bvp)
from karcher.manifolds import (_FD_STEP, ChartManifold, Geodesic, Manifold,
                               ManifoldPoint, TangentVector, _jacobi_operator,
                               _require_same_base)


class OracleChart(ChartManifold):
    """A ``ChartManifold`` that also gives what the Jacobi oracle of
    ``karcher.jacobi`` reads: arclength geodesics with dense output,
    parallel transport and frames along them, and the curvature operator
    from the central-difference Christoffel jet.  The library's charts
    take none of these; here they check its Hessians by Jacobi shooting."""

    def geodesic_from(self, p, v, length=None):
        u, L = self._unit_direction(v, length)
        y0 = np.concatenate([p.coords, u])
        span = max(L, 1e-12)
        sol = solve_ode(self._geodesic_rhs, (0.0, span), y0, dense_output=True)
        d = self.dim

        def flow(t):
            y = sol.sol(t)
            return y[:d], y[d:]

        return Geodesic(self, p, TangentVector(p, u), L, flow)

    def parallel_transport(self, gamma, t0, t1, v):
        _require_same_base(v, gamma.velocity(t0))
        if t0 == t1:
            return TangentVector(gamma.point(t1), v.components.copy())

        def rhs(t, w):
            x, u = gamma._flow(t)
            return -np.einsum("kij,i,j->k", self.christoffel_fn(x), u, w)

        sol = solve_ode(rhs, (t0, t1), v.components)
        return TangentVector(gamma.point(t1), sol.y[:, -1])

    def frame_field(self, gamma, basis0):
        d = self.dim
        m = len(basis0)
        w0 = np.concatenate([b.components for b in basis0])

        def rhs(t, w):
            x, u = gamma._flow(t)
            gam = self.christoffel_fn(x)
            wm = w.reshape(m, d)
            return (-np.einsum("kij,i,aj->ak", gam, u, wm)).ravel()

        span = max(gamma.length, 1e-12)
        sol = solve_ode(rhs, (0.0, span), w0, dense_output=True)

        def frame(t: float) -> np.ndarray:
            return sol.sol(t).reshape(m, d)

        return frame

    def curvature_rt(self, p, T, w):
        # One matrix, from one ``_christoffel_jet``, for all rows of a
        # stack w.
        M = _jacobi_operator(*self._christoffel_jet(p.coords), np.asarray(T))
        return np.einsum("ab,...b->...a", M, w)


def energy(chart, a, lam) -> float:
    """Weighted sum of squared geodesic distances to the vertices."""
    man = chart.manifold
    total = 0.0
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            total += li * man.dist(a, p) ** 2
    return total


def grad_field(chart, a, lam) -> TangentVector:
    """Half the gradient of the energy in its first argument, which is
    minus the lambda-weighted sum of logarithms toward the vertices."""
    man = chart.manifold
    comps = np.zeros(man.coord_dim)
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            comps -= li * man.log(a, p).components
    return TangentVector(a, comps)


def connection_gap_fd(chart, lam: BarycentricWeight, step: float = 1e-4) -> float:
    """Cross-check value of the largest flat metric derivative computed by
    differencing the pulled-back metric matrix along weight lines."""
    n = chart.n
    # Columns: a basis orthonormal for the flat edge-length metric.
    B = np.linalg.solve(chart.flat_metric.cholesky, np.eye(n)).T
    worst = 0.0
    for u in range(n):
        direction = np.concatenate([[-B[:, u].sum()], B[:, u]])
        lp = BarycentricWeight(lam.values + step * direction)
        lm = BarycentricWeight(lam.values - step * direction)
        dmat = (pullback_metric(chart, lp) - pullback_metric(chart, lm)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(B.T @ dmat @ B))))
    return worst


def integrate_jacobi(gamma: Geodesic, j0: TangentVector, jdot0: TangentVector,
                     ts: np.ndarray) -> tuple[list[TangentVector], list[TangentVector]]:
    """Propagate a Jacobi field with given initial value and derivative;
    returns (J(t), J'(t)) at the requested times."""
    man = gamma.manifold
    m = man.dim
    frame = parallel_frame(gamma)
    R_of_t = _frame_curvature(gamma, frame)

    p = gamma.start
    F0 = frame(0.0)
    y = np.array([man._ip(p, j0.components, F0[a]) for a in range(m)])
    yd = np.array([man._ip(p, jdot0.components, F0[a]) for a in range(m)])

    def rhs(t, state):
        return np.concatenate([state[m:], -(R_of_t(t) @ state[:m])])

    ts = np.asarray(ts, dtype=float)
    sol = solve_ode(rhs, (0.0, float(ts[-1])), np.concatenate([y, yd]),
                    dense_output=True)
    js, jdots = [], []
    for t in ts:
        state = sol.sol(t)
        F = frame(t)
        pt = gamma.point(t)
        js.append(TangentVector(pt, F.T @ state[:m]))
        jdots.append(TangentVector(pt, F.T @ state[m:]))
    return js, jdots


def _second_difference(man: Manifold, q: ManifoldPoint, U: TangentVector,
                       field, step: float) -> TangentVector:
    """|U|^2 times the covariant derivative at q, in direction U / |U|, of
    field(x, u), with u the velocity at x of the geodesic through q in
    that direction: Richardson-extrapolated central differences of steps
    ``step`` and ``step / 2``, each value transported back to q."""
    scale = man.norm(U)
    if scale == 0.0:
        return TangentVector(q, np.zeros(man.coord_dim))
    u_hat = U * (1.0 / scale)
    fwd = man.geodesic_from(q, u_hat, length=2.0 * step)
    bwd = man.geodesic_from(q, -u_hat, length=2.0 * step)

    def central(s: float) -> np.ndarray:
        hp = field(fwd.point(s), fwd.velocity(s))
        hm = field(bwd.point(s), -1.0 * bwd.velocity(s))
        hp0 = man.parallel_transport(fwd, s, 0.0, hp)
        hm0 = man.parallel_transport(bwd, s, 0.0, hm)
        return (hp0.components - hm0.components) / (2.0 * s)

    d1 = central(step)
    d2 = central(0.5 * step)
    return TangentVector(q, (scale ** 2) * (4.0 * d2 - d1) / 3.0)


def second_variation(bvp: JacobiBVP, step: float = 1e-4) -> TangentVector:
    """tau * D_s J'(0, tau): Richardson-extrapolated central difference of
    the boundary derivative under the geodesic variation of the endpoint
    with initial speed V (``_second_difference`` of that derivative)."""
    gamma = bvp.geodesic
    man = gamma.manifold
    p = gamma.start

    def boundary_derivative(endpoint: ManifoldPoint, vel: TangentVector) -> TangentVector:
        connecting = man.geodesic_between(p, endpoint)
        jdot_tau, _ = solve_bvp(JacobiBVP(connecting, vel))
        return connecting.length * jdot_tau

    return _second_difference(man, gamma.point(gamma.length), bvp.end_value,
                              boundary_derivative, step)


def compare_metrics(g1: FlatMetric, g2: FlatMetric) -> float:
    """sup over nonzero tangents of |(g1 - g2)(v, v)| / g1(v, v), computed
    as a generalized eigenvalue problem on the Gram matrices."""
    if g1.n != g2.n:
        raise ValueError("metrics have different dimensions")
    if not g1.realizable:
        raise NonRealizableError("reference metric must be positive definite")
    diff = g1.G - g2.G
    vals = eigh(diff, g1.G, eigvals_only=True)
    return float(np.max(np.abs(vals)))


def christoffel_from_metric(metric_fn):
    """Finite-difference Christoffel symbols Gamma[k, i, j] from a metric
    callback, using central differences with step ``_FD_STEP``."""

    def christoffel(x):
        x = np.asarray(x, dtype=float)
        d = x.size
        dg = np.empty((d, d, d))  # dg[l] = d g / d x_l
        for l in range(d):
            e = np.zeros(d)
            e[l] = _FD_STEP
            dg[l] = (metric_fn(x + e) - metric_fn(x - e)) / (2.0 * _FD_STEP)
        ginv = np.linalg.inv(metric_fn(x))
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        term = np.empty((d, d, d))
        for i in range(d):
            for j in range(d):
                term[:, i, j] = dg[i, j, :] + dg[j, i, :] - dg[:, i, j]
        return 0.5 * np.einsum("kl,lij->kij", ginv, term)

    return christoffel


def icosphere(level: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The subdivided icosahedron built face by face: a dict numbers each
    edge's midpoint when a face first meets the edge."""
    verts = [row for row in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return radius * np.array(verts), np.array(faces, dtype=int)
