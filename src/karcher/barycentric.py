"""Barycentric coordinates through the Riemannian center of mass.

A weight vector lambda is mapped to the minimizer of the weighted sum of
squared geodesic distances to the chart's vertices.  The first and second
derivatives of that map follow from differentiating the stationarity
condition: with sigma(v) = sum v^i log_a(p_i) and A(V) the lambda-convex
combination of squared-distance Hessians, the differential solves
A(dx(v)) = sigma(v), and the Hessian of the map solves a similar linear
system driven by second derivatives of the distance functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import MeanSolverError
from .flat_simplex import (BarycentricWeight, EdgeLengthSystem, FlatMetric,
                           SimplexTangent, flat_metric_from_lengths)
from .manifolds import (Manifold, ManifoldPoint, Sphere, TangentVector,
                        _stretch_array)


@dataclass(frozen=True)
class SolverConfig:
    """Settings for the center-of-mass fixed-point iteration."""

    grad_tol: float
    max_iters: int = 100
    step_damping: float = 1.0

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0.0 < self.step_damping <= 1.0:
            raise ValueError("step_damping must lie in (0, 1]")


class KarcherChart:
    """n+1 manifold vertices plus solver configuration.

    Construction computes the geodesic edge lengths (or reuses a table
    computed elsewhere, so mesh edges are measured exactly once), derives
    the induced flat simplex metric, and verifies that all pairwise
    distances stay below the manifold's convexity radius.
    """

    def __init__(self, manifold: Manifold, vertices, solver: SolverConfig | None = None,
                 edge_lengths: EdgeLengthSystem | None = None):
        self.manifold = manifold
        self.vertices = tuple(vertices)
        self.n = len(self.vertices) - 1
        if self.n < 1:
            raise ValueError("need at least two vertices")
        if edge_lengths is None:
            n1 = self.n + 1
            table = np.zeros((n1, n1))
            for i in range(n1):
                for j in range(i + 1, n1):
                    table[i, j] = table[j, i] = manifold.dist(
                        self.vertices[i], self.vertices[j])
            edge_lengths = EdgeLengthSystem(table)
        self.edge_lengths = edge_lengths
        self.h = edge_lengths.max_length
        if exceeds_convexity_radius(manifold, self.h):
            raise ValueError(
                "vertex separation exceeds the convexity radius; "
                "the center of mass may not be unique")
        self.flat_metric: FlatMetric = flat_metric_from_lengths(edge_lengths)
        coord_scale = max(float(np.max(np.abs(v.coords))) for v in self.vertices)
        self.solver = solver if solver is not None else SolverConfig(
            grad_tol=float(default_grad_tol(self.h, coord_scale)))


def exceeds_convexity_radius(manifold: Manifold, h):
    """Whether vertex sets of diameter h (elementwise on arrays) may have
    no unique center of mass: such a set lies in a ball of radius h
    around any of its vertices, and that ball is convex only up to the
    convexity radius."""
    return h > manifold.bounds.convexity_radius * (1.0 + 1e-12)


def default_grad_tol(h, coord_scale):
    """Default stopping tolerance of the mean solver for charts of
    diameter h: 1e-12 h, but never below 16 ulps of the coordinates, which
    is all double precision resolves once h is small.  Works elementwise
    on arrays."""
    return np.maximum(1e-12 * h,
                      16.0 * np.finfo(float).eps * np.maximum(1.0, coord_scale))


@dataclass(frozen=True, eq=False)
class ChartJet:
    """Value, differential and (optionally) Hessian of the coordinate map
    at one weight vector.  Columns of ``dx_matrix`` are the images of the
    tangent basis e_k - e_0."""

    point: ManifoldPoint
    dx_matrix: np.ndarray                 # (coord_dim, n)
    nabla_dx_tensor: np.ndarray | None    # (n, n, coord_dim), symmetric in (k, l)

    def dx(self, v: SimplexTangent) -> TangentVector:
        return TangentVector(self.point, self.dx_matrix @ v.reduced())

    def nabla_dx(self, v: SimplexTangent, w: SimplexTangent) -> TangentVector:
        if self.nabla_dx_tensor is None:
            raise ValueError("jet was built without second derivatives")
        comps = np.einsum("klc,k,l->c", self.nabla_dx_tensor,
                          v.reduced(), w.reduced())
        return TangentVector(self.point, comps)


def energy(chart: KarcherChart, a: ManifoldPoint, lam: BarycentricWeight) -> float:
    """Weighted sum of squared geodesic distances to the vertices."""
    man = chart.manifold
    total = 0.0
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            total += li * man.dist(a, p) ** 2
    return total


def grad_field(chart: KarcherChart, a: ManifoldPoint,
               lam: BarycentricWeight) -> TangentVector:
    """Half the gradient of the energy in its first argument, which is
    minus the lambda-weighted sum of logarithms toward the vertices."""
    man = chart.manifold
    comps = np.zeros(man.coord_dim)
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            comps -= li * man.log(a, p).components
    return TangentVector(a, comps)


def _initial_guess(chart: KarcherChart, lam: BarycentricWeight) -> ManifoldPoint:
    # Tangent-space average seen from vertex 0: exact in flat space.
    man = chart.manifold
    p0 = chart.vertices[0]
    comps = np.zeros(man.coord_dim)
    for li, p in zip(lam.values[1:], chart.vertices[1:]):
        if li != 0.0:
            comps += li * man.log(p0, p).components
    return man.exp(p0, TangentVector(p0, comps))


def karcher_mean(chart: KarcherChart, lam: BarycentricWeight,
                 trace: list | None = None) -> ManifoldPoint:
    """Damped fixed-point iteration a <- exp_a(-damping * F(a, lambda)).

    Near the mean the update is a contraction with rate of order C0 h^2,
    so a handful of iterations reaches gradient norms near roundoff.
    """
    man = chart.manifold
    cfg = chart.solver
    conv_radius = man.bounds.convexity_radius
    a = _initial_guess(chart, lam)
    if trace is not None:
        trace.append(a)
    for _ in range(cfg.max_iters):
        comps = np.zeros(man.coord_dim)
        max_dist = 0.0
        for li, p in zip(lam.values, chart.vertices):
            log_ap = man.log(a, p)
            max_dist = max(max_dist, man.norm(log_ap))
            if li != 0.0:
                comps -= li * log_ap.components
        if max_dist > conv_radius * (1.0 + 1e-9):
            raise MeanSolverError("iterate left the convex ball")
        F = TangentVector(a, comps)
        if man.norm(F) <= cfg.grad_tol:
            return a
        a = man.exp(a, -cfg.step_damping * F)
        if trace is not None:
            trace.append(a)
    raise MeanSolverError(
        f"no convergence to grad_tol={cfg.grad_tol} in {cfg.max_iters} iterations")


def sigma(chart: KarcherChart, lam: BarycentricWeight, v: SimplexTangent,
          at: ManifoldPoint | None = None) -> TangentVector:
    """sum_i v^i log_a(p_i) at a = x(lambda); the flat-model differential."""
    man = chart.manifold
    a = at if at is not None else karcher_mean(chart, lam)
    comps = np.zeros(man.coord_dim)
    for vi, p in zip(v.v, chart.vertices):
        if vi != 0.0:
            comps += vi * man.log(a, p).components
    return TangentVector(a, comps)


def a_operator(chart: KarcherChart, lam: BarycentricWeight,
               V: TangentVector) -> TangentVector:
    """lambda-weighted combination of squared-distance Hessians applied to
    V at V's base point; close to the identity for small charts."""
    man = chart.manifold
    a = V.base
    comps = np.zeros(man.coord_dim)
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            comps += li * man.hess_half_dist_sq(p, a, V).components
    return TangentVector(a, comps)


def _assemble_linear_data(chart: KarcherChart, lam: BarycentricWeight,
                          a: ManifoldPoint):
    """Orthonormal tangent basis, the matrix of A in it, and the sigma
    images of the simplex basis directions."""
    man = chart.manifold
    basis = man.tangent_basis(a)
    m = len(basis)
    logs = [man.log(a, p) for p in chart.vertices]
    a_mat = np.empty((m, m))
    for l, b in enumerate(basis):
        av = a_operator(chart, lam, b)
        for k in range(m):
            a_mat[k, l] = man._ip(a, av.components, basis[k].components)
    sig = np.empty((m, chart.n))
    for j in range(1, chart.n + 1):
        s = logs[j].components - logs[0].components
        for k in range(m):
            sig[k, j - 1] = man._ip(a, s, basis[k].components)
    return basis, a_mat, sig


def differential(chart: KarcherChart, lam: BarycentricWeight,
                 at: ManifoldPoint | None = None) -> ChartJet:
    """First derivative of the coordinate map: solves A dx(v) = sigma(v)
    for each basis direction."""
    man = chart.manifold
    a = at if at is not None else karcher_mean(chart, lam)
    basis, a_mat, sig = _assemble_linear_data(chart, lam, a)
    if np.linalg.cond(a_mat) > 1e12:
        raise MeanSolverError("Hessian combination A is numerically singular")
    dx_basis = np.linalg.solve(a_mat, sig)          # (m, n) in basis coords
    frame = np.array([b.components for b in basis])  # (m, coord_dim)
    return ChartJet(point=a, dx_matrix=frame.T @ dx_basis, nabla_dx_tensor=None)


def hessian(chart: KarcherChart, lam: BarycentricWeight,
            at: ManifoldPoint | None = None) -> ChartJet:
    """Jet with both dx and the symmetric bilinear map nabla dx.

    nabla dx(v, w) solves A(nabla dx) = -(sum w^i H_i V + sum v^i H_i W +
    sum lambda^i grad2 X_i (V, W)) with V = dx(v), W = dx(w).
    """
    man = chart.manifold
    n = chart.n
    a = at if at is not None else karcher_mean(chart, lam)
    basis, a_mat, sig = _assemble_linear_data(chart, lam, a)
    if np.linalg.cond(a_mat) > 1e12:
        raise MeanSolverError("Hessian combination A is numerically singular")
    lu = lu_factor(a_mat)
    dx_basis = lu_solve(lu, sig)
    frame = np.array([b.components for b in basis])
    dx_matrix = frame.T @ dx_basis

    dx_vecs = [TangentVector(a, dx_matrix[:, k]) for k in range(n)]
    # H[i][k] = Hessian term of vertex i applied to dx(e_k - e_0)
    hess_comp = np.empty((n + 1, n, man.coord_dim))
    for i, p in enumerate(chart.vertices):
        for k in range(n):
            hess_comp[i, k] = man.hess_half_dist_sq(p, a, dx_vecs[k]).components

    tensor = np.empty((n, n, man.coord_dim))
    for k in range(n):
        for l in range(k, n):
            rhs = (hess_comp[l + 1, k] - hess_comp[0, k]
                   + hess_comp[k + 1, l] - hess_comp[0, l])
            for i, (li, p) in enumerate(zip(lam.values, chart.vertices)):
                if li != 0.0:
                    rhs = rhs + li * man.second_deriv_X(
                        p, a, dx_vecs[k], dx_vecs[l]).components
            rhs_basis = np.array([man._ip(a, rhs, frame[j])
                                  for j in range(len(basis))])
            sol = lu_solve(lu, -rhs_basis)
            tensor[k, l] = frame.T @ sol
            tensor[l, k] = tensor[k, l]
    return ChartJet(point=a, dx_matrix=dx_matrix, nabla_dx_tensor=tensor)


def pullback_metric(chart: KarcherChart, lam: BarycentricWeight,
                    jet: ChartJet | None = None) -> np.ndarray:
    """Matrix of the pulled-back manifold metric at lambda in the simplex
    tangent basis e_k - e_0."""
    if jet is None:
        jet = differential(chart, lam)
    man = chart.manifold
    n = chart.n
    out = np.empty((n, n))
    for k in range(n):
        for l in range(k, n):
            out[k, l] = out[l, k] = man._ip(
                jet.point, jet.dx_matrix[:, k], jet.dx_matrix[:, l])
    return out


def differential_batch(manifold: Sphere, vertices, weights,
                       solver: SolverConfig | None = None,
                       iterations: list | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Centers of mass and their differentials for a stack of sphere
    charts, one row per (chart, weight) pair.

    ``vertices`` is (N, n+1, coord_dim) and ``weights`` is (N, n+1).
    Returns the points (N, coord_dim) and the dx matrices
    (N, coord_dim, n), whose columns are the images of e_k - e_0, as
    ``differential`` gives them row by row.  Each row runs karcher_mean's
    iteration with the same checks until its own gradient test passes.
    A is formed in closed form, sum_i lambda_i (y y^T + f(tau_i)(P - y y^T))
    with y the unit direction away from vertex i and P the tangent
    projector.  Without ``solver`` every row uses its own chart's default
    (``default_grad_tol`` of its diameter and coordinates).  A
    MeanSolverError names the failing row in its ``index``.  A list passed
    as ``iterations`` receives each row's number of iterates, the initial
    guess included, which is the length karcher_mean's ``trace`` reaches.
    """
    if not isinstance(manifold, Sphere):
        raise ValueError("batched jets are implemented for spheres only")
    verts = np.asarray(vertices, dtype=float)
    lam = np.asarray(weights, dtype=float)
    rows, n1, _ = verts.shape
    if solver is None:
        i, j = np.triu_indices(n1, 1)
        diam = manifold.dist_array(verts[:, i], verts[:, j]).max(axis=1)
        grad_tol = default_grad_tol(diam, np.abs(verts).max(axis=(1, 2)))
        max_iters, damping = SolverConfig.max_iters, SolverConfig.step_damping
    else:
        grad_tol = np.full(rows, solver.grad_tol)
        max_iters, damping = solver.max_iters, solver.step_damping
    conv_radius = manifold.bounds.convexity_radius

    # Tangent-space average seen from vertex 0, as in _initial_guess.
    p0 = verts[:, 0]
    a = manifold.exp_array(p0, np.einsum(
        "ri,rid->rd", lam[:, 1:], manifold.log_array(p0[:, None], verts[:, 1:])))
    logs = np.empty_like(verts)        # log_a(p_i) at each row's mean
    active = np.arange(rows)
    iterates = np.ones(rows, dtype=int)
    for _ in range(max_iters):
        cur = manifold.log_array(a[active, None], verts[active])
        far = np.linalg.norm(cur, axis=-1).max(axis=1)
        left = np.flatnonzero(far > conv_radius * (1.0 + 1e-9))
        if left.size:
            k = left[0]
            raise MeanSolverError(
                f"iterate left the convex ball: vertex distance "
                f"{far[k]:.3e} > {conv_radius:.3e}", index=int(active[k]))
        F = -np.einsum("ri,rid->rd", lam[active], cur)
        f_norm = np.linalg.norm(F, axis=-1)
        done = f_norm <= grad_tol[active]
        logs[active[done]] = cur[done]
        active, F, f_norm = active[~done], F[~done], f_norm[~done]
        if active.size == 0:
            break
        a[active] = manifold.exp_array(a[active], -damping * F)
        iterates[active] += 1
    else:
        raise MeanSolverError(
            f"no convergence to grad_tol={grad_tol[active[0]]:.3e} in "
            f"{max_iters} iterations (last |F| = {f_norm[0]:.3e})",
            index=int(active[0]))

    # Orthonormal tangent frame at each mean, as Sphere.tangent_basis.
    r = manifold.radius
    eye = np.broadcast_to(np.eye(manifold.coord_dim), (rows,) + (manifold.coord_dim,) * 2)
    qmat, _ = np.linalg.qr(np.concatenate([a[:, :, None] / r, eye], axis=2))
    frame = qmat[:, :, 1:manifold.dim + 1]                   # (N, coord_dim, m)

    tau = np.linalg.norm(logs, axis=-1)
    y = np.divide(-logs, tau[..., None], out=np.zeros_like(logs),
                  where=tau[..., None] > 0.0)
    f, one_minus_f = _stretch_array(manifold.constant_sectional_curvature, tau)
    y_frame = np.einsum("rid,rdk->rik", y, frame)
    a_mat = ((lam * f).sum(axis=1)[:, None, None] * np.eye(manifold.dim)
             + np.einsum("ri,rik,ril->rkl", lam * one_minus_f, y_frame, y_frame))
    cond = np.linalg.cond(a_mat)
    singular = np.flatnonzero(~(cond <= 1e12))
    if singular.size:
        k = singular[0]
        raise MeanSolverError(
            f"Hessian combination A is numerically singular: cond(A) = "
            f"{cond[k]:.3e}", index=int(k))
    sig = np.einsum("rjd,rdk->rkj", logs[:, 1:] - logs[:, :1], frame)
    if iterations is not None:
        iterations.extend(iterates.tolist())
    return a, frame @ np.linalg.solve(a_mat, sig)
