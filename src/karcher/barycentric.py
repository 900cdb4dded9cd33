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

from .errors import MeanSolverError
from .flat_simplex import (BarycentricWeight, EdgeLengthSystem, FlatMetric,
                           SimplexTangent, flat_metric_from_lengths)
from .manifolds import Manifold, ManifoldPoint, TangentVector, _SpaceForm

# Iteration cap of the center-of-mass solve, scalar and batched.
MAX_MEAN_ITERS = 100


class KarcherChart:
    """n+1 manifold vertices and the mean solver's stopping tolerance.

    Construction computes the geodesic edge lengths (or reuses a table
    computed elsewhere, so mesh edges are measured exactly once), derives
    the induced flat simplex metric, and verifies that all pairwise
    distances stay below the manifold's convexity radius.  ``grad_tol`` is
    ``default_grad_tol`` of the diameter and coordinate scale, floored at
    the manifold's logarithm tolerance ``shooting_tol``: the gradient test
    reads logarithms that are only that exact.

    The chart also keeps the logarithms log_a(p_i) that ``karcher_mean``
    computed at the point a it last returned, so that jets and ``sigma``
    at that same point object do not compute them again.  On a model
    whose logarithm is solved for (``shooting_tol > 0``) a chart that
    measures its own edges shoots log_p0(p_j) once and keeps them: the
    (0, j) edge lengths are their norms, which is what ``dist`` computes
    there, and ``_initial_guess`` reads them.  Closed-form spaces measure
    every edge with ``dist``.
    """

    def __init__(self, manifold: Manifold, vertices,
                 edge_lengths: EdgeLengthSystem | None = None):
        self.manifold = manifold
        self.vertices = tuple(vertices)
        self.n = len(self.vertices) - 1
        if self.n < 1:
            raise ValueError("need at least two vertices")
        self._edge_logs: list[TangentVector] | None = None
        if edge_lengths is None:
            n1 = self.n + 1
            table = np.zeros((n1, n1))
            rows = range(n1)
            if manifold.shooting_tol > 0:
                p0 = self.vertices[0]
                self._edge_logs = [manifold.log(p0, p) for p in self.vertices[1:]]
                table[0, 1:] = table[1:, 0] = [manifold.norm(v) for v in self._edge_logs]
                rows = range(1, n1)
            for i in rows:
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
        self.grad_tol = max(float(default_grad_tol(self.h, coord_scale)),
                            manifold.shooting_tol)
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
    logs = chart._edge_logs or [None] * chart.n
    comps = np.zeros(man.coord_dim)
    for li, p, log in zip(lam.values[1:], chart.vertices[1:], logs):
        if li != 0.0:
            comps += li * (log if log is not None else man.log(p0, p)).components
    return man.exp(p0, TangentVector(p0, comps))


def karcher_mean(chart: KarcherChart, lam: BarycentricWeight,
                 trace: list | None = None) -> ManifoldPoint:
    """Fixed-point iteration a <- exp_a(-F(a, lambda)) until |F| is at most
    the chart's ``grad_tol``, for at most MAX_MEAN_ITERS iterates.

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
    conv_radius = man.bounds.convexity_radius
    a = _initial_guess(chart, lam)
    if trace is not None:
        trace.append(a)
    logs = [None] * len(chart.vertices)
    for _ in range(MAX_MEAN_ITERS):
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
        if f_norm <= chart.grad_tol:
            chart._mean_logs = (a, logs)
            return a
        a = man.exp(a, -F)
        if trace is not None:
            trace.append(a)
    raise MeanSolverError(
        f"no convergence to grad_tol={chart.grad_tol:.3e} in {MAX_MEAN_ITERS} "
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
    if given), its ``_frame_system`` and dx as one-row stacks, the
    per-vertex Hessian maps at a (``_hessian_maps``) and the logarithms
    log_a(p_i) they were built from.  A is applied to each vector of the
    tangent frame through the maps."""
    man = chart.manifold
    a = at if at is not None else karcher_mean(chart, lam)
    logs = _mean_logs(chart, a) or [man.log(a, p) for p in chart.vertices]
    hess = _hessian_maps(chart, lam, a, logs)
    basis = man.tangent_basis(a)
    frame = np.stack([b.components for b in basis], axis=1)[None]   # (1, D, m)
    low_frame = man.metric_matrix(a) @ frame
    a_cols = np.stack([_apply_a(lam, hess, b).components for b in basis], axis=1)
    system = (frame, low_frame, np.swapaxes(low_frame, 1, 2) @ a_cols)
    dx = _frame_system(system, np.array([[log_ap.components for log_ap in logs]]),
                       lam.values[None])
    return a, system, dx, hess, logs


def differential(chart: KarcherChart, lam: BarycentricWeight,
                 at: ManifoldPoint | None = None) -> ChartJet:
    """First derivative of the coordinate map: solves A dx(v) = sigma(v)
    for each basis direction."""
    a, _, dx, _, _ = _linear_data(chart, lam, at)
    return ChartJet(point=a, dx_matrix=dx[0], nabla_dx_tensor=None)


def hessian(chart: KarcherChart, lam: BarycentricWeight,
            at: ManifoldPoint | None = None) -> ChartJet:
    """Jet with both dx and the symmetric bilinear map nabla dx.

    nabla dx(v, w) solves A(nabla dx) = -(sum w^i H_i V + sum v^i H_i W +
    sum lambda^i grad2 X_i (V, W)) with V = dx(v), W = dx(w).  Each
    vertex's Hessian and second-derivative maps are applied to the dx
    columns here, and ``_nabla_dx`` forms and solves the system.
    """
    man = chart.manifold
    n = chart.n
    a, system, dx, hess, logs = _linear_data(chart, lam, at)
    vecs = [TangentVector(a, v) for v in dx[0].T]
    maps = [h if h is not None else man.hess_half_dist_sq_map(p, a, log_ap)
            for h, p, log_ap in zip(hess, chart.vertices, logs)]
    hess_vecs = np.array([[h(v).components for v in vecs] for h in maps])
    second = np.zeros((n + 1, n, n, man.coord_dim))
    for i, (li, p) in enumerate(zip(lam.values, chart.vertices)):
        if li != 0.0:
            grad2_x = man.second_deriv_map(p, a)
            for k in range(n):
                for l in range(k, n):
                    second[i, k, l] = second[i, l, k] = \
                        grad2_x(vecs[k], vecs[l]).components
    nabla = _nabla_dx(system, hess_vecs[None], second[None], lam.values[None])
    return ChartJet(point=a, dx_matrix=dx[0], nabla_dx_tensor=nabla[0])


def pullback_metric(chart: KarcherChart, lam: BarycentricWeight,
                    jet: ChartJet | None = None) -> np.ndarray:
    """Matrix of the pulled-back manifold metric at lambda in the simplex
    tangent basis e_k - e_0."""
    if jet is None:
        jet = differential(chart, lam)
    dx = jet.dx_matrix
    return dx.T @ chart.manifold.metric_matrix(jet.point) @ dx


def _frame_system(system, logs: np.ndarray, lam: np.ndarray,
                  index: bool = False) -> np.ndarray:
    """dx (N, coord_dim, n) of a stack of jets, one row per (chart,
    weight) pair; the tail that scalar and batched jets share.
    ``system`` holds orthonormal tangent frames (N, coord_dim, m) as
    columns, the frames lowered by the metric, so that the frame
    components of a vector u are u @ low_frame, and the matrices of A
    (N, m, m) in the frames; ``logs`` (N, n+1, coord_dim) are log_a(p_i)
    and ``lam`` (N, n+1) the weights.  Checks that every A is well
    conditioned and solves A dx(v) = sigma(v) for the simplex basis
    directions in the frame.  The MeanSolverError for a singular A names
    the weights of its row, and the row itself as ``index`` on a batch."""
    frame, low_frame, a_mat = system
    cond = np.linalg.cond(a_mat)
    singular = np.flatnonzero(~(cond <= 1e12))
    if singular.size:
        k = singular[0]
        raise MeanSolverError(
            f"Hessian combination A is numerically singular at weights "
            f"{lam[k].tolist()}: cond(A) = {cond[k]:.3e}",
            index=int(k) if index else None)
    sig = np.einsum("rjd,rdk->rkj", logs[:, 1:] - logs[:, :1], low_frame)
    return frame @ np.linalg.solve(a_mat, sig)


def _nabla_dx(system, hess: np.ndarray, second: np.ndarray,
              lam: np.ndarray) -> np.ndarray:
    """nabla dx (N, n, n, coord_dim), symmetric in the middle axes, from
    each vertex's Hessian applied to the dx columns, H_i(V_k) as
    (N, n+1, n, coord_dim), and its second derivative grad2 X_i(V_k, V_l)
    as (N, n+1, n, n, coord_dim): the right-hand side of ``hessian``,
    solved in the frames of ``_frame_system`` against the same A as dx."""
    frame, low_frame, a_mat = system
    rows, n = hess.shape[0], hess.shape[2]
    hdiff = hess[:, 1:] - hess[:, :1]       # [r, l, k]: H_{l+1}(V_k) - H_0(V_k)
    rhs = (np.swapaxes(hdiff, 1, 2) + hdiff
           + np.einsum("ri,rikld->rkld", lam, second))
    rhs_frame = np.einsum("rkld,rdj->rjkl", rhs, low_frame)
    sol = np.linalg.solve(a_mat, -rhs_frame.reshape(rows, -1, n * n))
    return (frame @ sol).reshape(rows, -1, n, n).transpose(0, 2, 3, 1)


def differential_batch(manifold: _SpaceForm, vertices, weights,
                       iterations: list | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Centers of mass and their differentials for a stack of charts on
    the sphere or hyperbolic space, one row per (chart, weight) pair.

    ``vertices`` is (N, n+1, coord_dim) and ``weights`` is (N, n+1).
    Returns the points (N, coord_dim) and the dx matrices
    (N, coord_dim, n), whose columns are the images of e_k - e_0, as
    ``differential`` gives them row by row.  Each row runs karcher_mean's
    iteration with the same checks until its own gradient test passes,
    at the ``default_grad_tol`` of its chart's diameter and coordinates.
    A is formed in closed form, sum_i lambda_i (y y^T + f(tau_i)(P - y y^T))
    with y the unit direction away from vertex i and P the tangent
    projector, and the rest is ``differential``'s ``_frame_system``.  A
    MeanSolverError names the failing row in its ``index``.  A list
    passed as ``iterations`` receives each row's number of iterates, the
    initial guess included, which is the length karcher_mean's ``trace``
    reaches.
    """
    a, _, dx, _, iterates = _batch_linear_data(manifold, vertices, weights)
    if iterations is not None:
        iterations.extend(iterates.tolist())
    return a, dx


def hessian_batch(manifold: _SpaceForm, vertices, weights
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``differential_batch`` plus nabla dx, as ``hessian`` gives it row
    by row: returns the points, the dx matrices and the tensors
    (N, n, n, coord_dim), symmetric in the middle axes.

    Each vertex's Hessian and second derivative are applied to the dx
    columns in closed form, ``_SpaceForm.hess_array`` and
    ``second_deriv_array``, and ``_nabla_dx`` solves the system as it
    does for ``hessian``.
    """
    a, system, dx, radial, _ = _batch_linear_data(manifold, vertices, weights)
    y, _, f, _, _ = radial
    vecs = np.swapaxes(dx, 1, 2)                                  # (N, n, D)
    nabla = _nabla_dx(system, manifold.hess_array(y, f, vecs),
                      manifold.second_deriv_array(radial, vecs),
                      np.asarray(weights, dtype=float))
    return a, dx, nabla


def _batch_mean(manifold: _SpaceForm, verts: np.ndarray, lam: np.ndarray):
    """karcher_mean on every row, each at the ``default_grad_tol`` of its
    chart: the means (N, coord_dim), the logarithms log_a(p_i) there
    (N, n+1, coord_dim) and each row's iterate count."""
    i, j = np.triu_indices(verts.shape[1], 1)
    diam = manifold.dist_array(verts[:, i], verts[:, j]).max(axis=1)
    grad_tol = default_grad_tol(diam, np.abs(verts).max(axis=(1, 2)))
    conv_radius = manifold.bounds.convexity_radius
    # Tangent-space average seen from vertex 0, as in _initial_guess.
    p0 = verts[:, 0]
    a = manifold.exp_array(p0, np.einsum(
        "ri,rid->rd", lam[:, 1:], manifold.log_array(p0[:, None], verts[:, 1:])))
    logs = np.empty_like(verts)
    active = np.arange(len(verts))
    iterates = np.ones(len(verts), dtype=int)
    for _ in range(MAX_MEAN_ITERS):
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
        active, F, f_norm = active[~done], F[~done], f_norm[~done]
        if active.size == 0:
            return a, logs, iterates
        a[active] = manifold.exp_array(a[active], -F)
        iterates[active] += 1
    row = active[0]
    raise MeanSolverError(
        f"no convergence to grad_tol={grad_tol[row]:.3e} in {MAX_MEAN_ITERS} "
        f"iterations (last |F| = {f_norm[0]:.3e})", index=int(row))


def _batch_linear_data(manifold: _SpaceForm, vertices, weights):
    """Setup shared by ``differential_batch`` and ``hessian_batch``, as
    ``_linear_data`` is for one chart: the means, their ``_frame_system``
    and dx, the ``radial_array`` data (y, tau, f, f', 1 - f) of every
    vertex, and the iterate counts."""
    if not isinstance(manifold, _SpaceForm):
        raise ValueError("batched jets are implemented for the sphere and "
                         "hyperbolic space only")
    verts = np.asarray(vertices, dtype=float)
    lam = np.asarray(weights, dtype=float)
    a, logs, iterates = _batch_mean(manifold, verts, lam)
    frame = manifold.tangent_frame_array(a)
    # Components in the frame are ambient products with the lowered frame.
    low_frame = frame * manifold.signature[:, None]
    radial = manifold.radial_array(logs)
    y, _, f, _, one_minus_f = radial
    y_frame = np.einsum("rid,rdk->rik", y, low_frame)
    a_mat = ((lam * f).sum(axis=1)[:, None, None] * np.eye(manifold.dim)
             + np.einsum("ri,rik,ril->rkl", lam * one_minus_f, y_frame, y_frame))
    system = (frame, low_frame, a_mat)
    dx = _frame_system(system, logs, lam, index=True)
    return a, system, dx, radial, iterates
