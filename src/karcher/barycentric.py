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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import MeanSolverError
from .flat_simplex import (BarycentricWeight, EdgeLengthSystem, FlatMetric,
                           SimplexTangent, flat_metric_from_lengths)
from .manifolds import Manifold, ManifoldPoint, TangentVector, _SpaceForm


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

    The chart also keeps the logarithms log_a(p_i) that ``karcher_mean``
    computed at the point a it last returned, so that jets and ``sigma``
    at that same point object do not compute them again.
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
        self._mean_logs: tuple[ManifoldPoint | None, list] = (None, [])


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
    so a handful of iterations reaches gradient norms near roundoff.  Each
    iterate's logarithm toward a vertex is passed to the next one's as a
    warm start (``Manifold.log``'s ``start``): the closed-form spaces
    ignore it, and a ``ChartManifold``'s shooting starts from it, so its
    logarithms agree with cold ones to the shooting tolerance.  The
    logarithms toward the vertices at the returned point stay on the chart
    for later jets at that point.
    """
    man = chart.manifold
    cfg = chart.solver
    conv_radius = man.bounds.convexity_radius
    a = _initial_guess(chart, lam)
    if trace is not None:
        trace.append(a)
    logs = [None] * len(chart.vertices)
    for _ in range(cfg.max_iters):
        logs = [man.log(a, p, start=s) for p, s in zip(chart.vertices, logs)]
        comps = np.zeros(man.coord_dim)
        max_dist = 0.0
        for li, log_ap in zip(lam.values, logs):
            max_dist = max(max_dist, man.norm(log_ap))
            if li != 0.0:
                comps -= li * log_ap.components
        if max_dist > conv_radius * (1.0 + 1e-9):
            raise MeanSolverError(
                f"iterate left the convex ball at weights {lam.values.tolist()}: "
                f"vertex distance {max_dist:.3e} > {conv_radius:.3e}")
        F = TangentVector(a, comps)
        f_norm = man.norm(F)
        if f_norm <= cfg.grad_tol:
            chart._mean_logs = (a, logs)
            return a
        a = man.exp(a, -cfg.step_damping * F)
        if trace is not None:
            trace.append(a)
    raise MeanSolverError(
        f"no convergence to grad_tol={cfg.grad_tol:.3e} in {cfg.max_iters} "
        f"iterations at weights {lam.values.tolist()} (last |F| = {f_norm:.3e})")


def _mean_logs(chart: KarcherChart, a: ManifoldPoint) -> list[TangentVector] | None:
    """log_a(p_i) for every vertex if a is the point karcher_mean last
    returned for this chart, else None."""
    point, logs = chart._mean_logs
    return logs if point is a else None


def sigma(chart: KarcherChart, lam: BarycentricWeight, v: SimplexTangent,
          at: ManifoldPoint | None = None) -> TangentVector:
    """sum_i v^i log_a(p_i) at a = x(lambda); the flat-model differential."""
    man = chart.manifold
    a = at if at is not None else karcher_mean(chart, lam)
    logs = _mean_logs(chart, a)
    comps = np.zeros(man.coord_dim)
    for i, (vi, p) in enumerate(zip(v.v, chart.vertices)):
        if vi != 0.0:
            log_ap = logs[i] if logs is not None else man.log(a, p)
            comps += vi * log_ap.components
    return TangentVector(a, comps)


def a_operator(chart: KarcherChart, lam: BarycentricWeight,
               V: TangentVector) -> TangentVector:
    """lambda-weighted combination of squared-distance Hessians applied to
    V at V's base point; close to the identity for small charts."""
    return _apply_a(lam, _hessian_maps(chart, lam, V.base), V)


def _hessian_maps(chart: KarcherChart, lam: BarycentricWeight, a: ManifoldPoint,
                  logs: list[TangentVector] | None = None):
    """hess_half_dist_sq(p_i, a, .) for each vertex of nonzero weight, and
    None for the others; built from the logarithms log_a(p_i) if given."""
    man = chart.manifold
    logs = logs or [None] * len(chart.vertices)
    return [man.hess_half_dist_sq_map(p, a, log_ap) if li != 0.0 else None
            for li, p, log_ap in zip(lam.values, chart.vertices, logs)]


def _apply_a(lam: BarycentricWeight, hess: list, V: TangentVector) -> TangentVector:
    """A(V) from the per-vertex Hessian maps of ``_hessian_maps``."""
    comps = np.zeros(V.components.shape)
    for li, h in zip(lam.values, hess):
        if li != 0.0:
            comps += li * h(V).components
    return TangentVector(V.base, comps)


def _linear_data(chart: KarcherChart, lam: BarycentricWeight,
                 at: ManifoldPoint | None):
    """Setup shared by ``differential`` and ``hessian``: the mean a (``at``
    if given), an orthonormal tangent frame at a as rows, the matrix of A
    in it, the sigma images of the simplex basis directions in it, the
    per-vertex Hessian maps at a (``_hessian_maps``) and the logarithms
    log_a(p_i) they were built from."""
    man = chart.manifold
    a = at if at is not None else karcher_mean(chart, lam)
    basis = man.tangent_basis(a)
    m = len(basis)
    logs = _mean_logs(chart, a) or [man.log(a, p) for p in chart.vertices]
    hess = _hessian_maps(chart, lam, a, logs)
    a_mat = np.empty((m, m))
    for l, b in enumerate(basis):
        av = _apply_a(lam, hess, b)
        for k in range(m):
            a_mat[k, l] = man._ip(a, av.components, basis[k].components)
    sig = np.empty((m, chart.n))
    for j in range(1, chart.n + 1):
        s = logs[j].components - logs[0].components
        for k in range(m):
            sig[k, j - 1] = man._ip(a, s, basis[k].components)
    cond = np.linalg.cond(a_mat)
    if cond > 1e12:
        raise MeanSolverError(
            f"Hessian combination A is numerically singular at weights "
            f"{lam.values.tolist()}: cond(A) = {cond:.3e}")
    frame = np.array([b.components for b in basis])  # (m, coord_dim)
    return a, frame, a_mat, sig, hess, logs


def differential(chart: KarcherChart, lam: BarycentricWeight,
                 at: ManifoldPoint | None = None) -> ChartJet:
    """First derivative of the coordinate map: solves A dx(v) = sigma(v)
    for each basis direction."""
    a, frame, a_mat, sig, _, _ = _linear_data(chart, lam, at)
    dx_basis = np.linalg.solve(a_mat, sig)          # (m, n) in basis coords
    return ChartJet(point=a, dx_matrix=frame.T @ dx_basis, nabla_dx_tensor=None)


def hessian(chart: KarcherChart, lam: BarycentricWeight,
            at: ManifoldPoint | None = None) -> ChartJet:
    """Jet with both dx and the symmetric bilinear map nabla dx.

    nabla dx(v, w) solves A(nabla dx) = -(sum w^i H_i V + sum v^i H_i W +
    sum lambda^i grad2 X_i (V, W)) with V = dx(v), W = dx(w).
    """
    man = chart.manifold
    n = chart.n
    a, frame, a_mat, sig, hess, logs = _linear_data(chart, lam, at)
    lu = lu_factor(a_mat)
    dx_basis = lu_solve(lu, sig)
    dx_matrix = frame.T @ dx_basis

    dx_vecs = [TangentVector(a, dx_matrix[:, k]) for k in range(n)]
    # H[i][k] = Hessian term of vertex i applied to dx(e_k - e_0)
    hess_comp = np.empty((n + 1, n, man.coord_dim))
    for i, p in enumerate(chart.vertices):
        h = (hess[i] if hess[i] is not None
             else man.hess_half_dist_sq_map(p, a, logs[i]))
        for k in range(n):
            hess_comp[i, k] = h(dx_vecs[k]).components

    second = [man.second_deriv_map(p, a) if li != 0.0 else None
              for li, p in zip(lam.values, chart.vertices)]
    tensor = np.empty((n, n, man.coord_dim))
    for k in range(n):
        for l in range(k, n):
            rhs = (hess_comp[l + 1, k] - hess_comp[0, k]
                   + hess_comp[k + 1, l] - hess_comp[0, l])
            for li, grad2_x in zip(lam.values, second):
                if li != 0.0:
                    rhs = rhs + li * grad2_x(dx_vecs[k], dx_vecs[l]).components
            rhs_basis = np.array([man._ip(a, rhs, frame[j])
                                  for j in range(len(frame))])
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


def differential_batch(manifold: _SpaceForm, vertices, weights,
                       solver: SolverConfig | Sequence[SolverConfig] | None = None,
                       iterations: list | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Centers of mass and their differentials for a stack of charts on
    the sphere or hyperbolic space, one row per (chart, weight) pair.

    ``vertices`` is (N, n+1, coord_dim) and ``weights`` is (N, n+1).
    Returns the points (N, coord_dim) and the dx matrices
    (N, coord_dim, n), whose columns are the images of e_k - e_0, as
    ``differential`` gives them row by row.  Each row runs karcher_mean's
    iteration with the same checks until its own gradient test passes.
    A is formed in closed form, sum_i lambda_i (y y^T + f(tau_i)(P - y y^T))
    with y the unit direction away from vertex i and P the tangent
    projector.  ``solver`` is one SolverConfig for every row or a
    sequence of one per row; without it every row uses its own chart's
    default (``default_grad_tol`` of its diameter and coordinates).  A
    MeanSolverError names the failing row in its ``index``.  A list passed
    as ``iterations`` receives each row's number of iterates, the initial
    guess included, which is the length karcher_mean's ``trace`` reaches.
    """
    a, frame, a_mat, sig, _, iterates = _batch_linear_data(
        manifold, vertices, weights, solver)
    if iterations is not None:
        iterations.extend(iterates.tolist())
    return a, frame @ np.linalg.solve(a_mat, sig)


def hessian_batch(manifold: _SpaceForm, vertices, weights,
                  solver: SolverConfig | Sequence[SolverConfig] | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``differential_batch`` plus nabla dx, as ``hessian`` gives it row
    by row: returns the points, the dx matrices and the tensors
    (N, n, n, coord_dim), symmetric in the middle axes.

    The right-hand side of nabla dx is formed in closed form from each
    vertex's Hessian and second derivative, ``_SpaceForm.hess_array`` and
    ``second_deriv_array``, and solved against the same A as dx.
    """
    a, frame, a_mat, sig, radial, _ = _batch_linear_data(
        manifold, vertices, weights, solver)
    y, _, f, _, _ = radial
    lam = np.asarray(weights, dtype=float)
    rows, n = sig.shape[0], sig.shape[2]
    dx = frame @ np.linalg.solve(a_mat, sig)
    vecs = np.swapaxes(dx, 1, 2)                                  # (N, n, D)
    hess = manifold.hess_array(y, f, vecs)
    hdiff = hess[:, 1:] - hess[:, :1]       # [r, l, k]: H_{l+1}(V_k) - H_0(V_k)
    second = manifold.second_deriv_array(radial, vecs)            # (N, n+1, n, n, D)
    rhs = (np.swapaxes(hdiff, 1, 2) + hdiff
           + np.einsum("ri,rikld->rkld", lam, second))
    rhs_frame = np.einsum("rkld,rdj->rjkl", rhs * manifold.signature, frame)
    sol = np.linalg.solve(a_mat, -rhs_frame.reshape(rows, -1, n * n))
    nabla = (frame @ sol).reshape(rows, -1, n, n).transpose(0, 2, 3, 1)
    return a, dx, nabla


def _batch_settings(manifold: _SpaceForm, verts: np.ndarray, solver):
    """Per-row grad_tol, max_iters and step_damping arrays."""
    rows, n1, _ = verts.shape
    if solver is None:
        i, j = np.triu_indices(n1, 1)
        diam = manifold.dist_array(verts[:, i], verts[:, j]).max(axis=1)
        return (default_grad_tol(diam, np.abs(verts).max(axis=(1, 2))),
                np.full(rows, SolverConfig.max_iters),
                np.full(rows, SolverConfig.step_damping))
    configs = [solver] * rows if isinstance(solver, SolverConfig) else list(solver)
    if len(configs) != rows:
        raise ValueError(f"{len(configs)} solver configurations for {rows} rows")
    return (np.array([c.grad_tol for c in configs]),
            np.array([c.max_iters for c in configs]),
            np.array([c.step_damping for c in configs]))


def _batch_mean(manifold: _SpaceForm, verts: np.ndarray, lam: np.ndarray, solver):
    """karcher_mean on every row: the means (N, coord_dim), the logarithms
    log_a(p_i) there (N, n+1, coord_dim) and each row's iterate count."""
    grad_tol, max_iters, damping = _batch_settings(manifold, verts, solver)
    conv_radius = manifold.bounds.convexity_radius
    rows = len(verts)
    # Tangent-space average seen from vertex 0, as in _initial_guess.
    p0 = verts[:, 0]
    a = manifold.exp_array(p0, np.einsum(
        "ri,rid->rd", lam[:, 1:], manifold.log_array(p0[:, None], verts[:, 1:])))
    logs = np.empty_like(verts)
    active = np.arange(rows)
    iterates = np.ones(rows, dtype=int)
    for it in range(int(max_iters.max())):
        cur = manifold.log_array(a[active, None], verts[active])
        far = manifold.norm_array(cur).max(axis=1)
        left = np.flatnonzero(far > conv_radius * (1.0 + 1e-9))
        if left.size:
            k = left[0]
            raise MeanSolverError(
                f"iterate left the convex ball: vertex distance "
                f"{far[k]:.3e} > {conv_radius:.3e}", index=int(active[k]))
        F = -np.einsum("ri,rid->rd", lam[active], cur)
        f_norm = manifold.norm_array(F)
        done = f_norm <= grad_tol[active]
        logs[active[done]] = cur[done]
        stuck = np.flatnonzero(~done & (max_iters[active] <= it + 1))
        if stuck.size:
            k, row = stuck[0], active[stuck[0]]
            raise MeanSolverError(
                f"no convergence to grad_tol={grad_tol[row]:.3e} in "
                f"{max_iters[row]} iterations (last |F| = {f_norm[k]:.3e})",
                index=int(row))
        active, F = active[~done], F[~done]
        if active.size == 0:
            break
        a[active] = manifold.exp_array(a[active], -damping[active, None] * F)
        iterates[active] += 1
    return a, logs, iterates


def _batch_linear_data(manifold: _SpaceForm, vertices, weights, solver):
    """Setup shared by ``differential_batch`` and ``hessian_batch``, as
    ``_linear_data`` is for one chart: the means, orthonormal tangent
    frames (N, coord_dim, m), the matrices of A (N, m, m) and the sigma
    images of the simplex basis (N, m, n) in those frames, the
    ``radial_array`` data (y, tau, f, f', 1 - f) of every vertex, and the
    iterate counts."""
    if not isinstance(manifold, _SpaceForm):
        raise ValueError("batched jets are implemented for the sphere and "
                         "hyperbolic space only")
    verts = np.asarray(vertices, dtype=float)
    lam = np.asarray(weights, dtype=float)
    a, logs, iterates = _batch_mean(manifold, verts, lam, solver)
    frame = manifold.tangent_frame_array(a)
    # Components in the frame are ambient products with the lowered frame.
    low_frame = frame * manifold.signature[:, None]
    radial = manifold.radial_array(logs)
    y, _, f, _, one_minus_f = radial
    y_frame = np.einsum("rid,rdk->rik", y, low_frame)
    a_mat = ((lam * f).sum(axis=1)[:, None, None] * np.eye(manifold.dim)
             + np.einsum("ri,rik,ril->rkl", lam * one_minus_f, y_frame, y_frame))
    cond = np.linalg.cond(a_mat)
    singular = np.flatnonzero(~(cond <= 1e12))
    if singular.size:
        k = singular[0]
        raise MeanSolverError(
            f"Hessian combination A is numerically singular: cond(A) = "
            f"{cond[k]:.3e}", index=int(k))
    sig = np.einsum("rjd,rdk->rkj", logs[:, 1:] - logs[:, :1], low_frame)
    return a, frame, a_mat, sig, radial, iterates
