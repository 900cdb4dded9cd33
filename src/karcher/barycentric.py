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
                           SimplexTangent, _check_weights, _fold,
                           flat_metric_from_lengths)
from .manifolds import Manifold, ManifoldPoint, TangentVector

# Iteration cap of the center-of-mass solve.
MAX_MEAN_ITERS = 100


class KarcherChart:
    """n+1 manifold vertices, measured as a one-row stack: the edge
    lengths, the flat simplex metric they induce, ``grad_tol`` and the
    logarithms log_p0(p_j) (a one-row stack) of the mean's initial
    guess.  ``coords`` (n+1, coord_dim) stacks the vertex coordinates.
    The chart keeps the point a that ``karcher_mean`` last returned with
    its logarithms log_a(p_i), so that jets and ``sigma`` at that same
    point object do not compute them again."""

    def __init__(self, manifold: Manifold, vertices):
        self.manifold = manifold
        self.vertices = tuple(vertices)
        self.n = len(self.vertices) - 1
        if self.n < 1:
            raise ValueError("need at least two vertices")
        self.coords = np.array([v.coords for v in self.vertices])
        lengths, grad_tol, self._edge_logs = _convex_edge_lengths(manifold, self.coords[None])
        self.edge_lengths = EdgeLengthSystem(_length_tables(lengths[0], self.n + 1))
        self.h = self.edge_lengths.max_length
        self.flat_metric: FlatMetric = flat_metric_from_lengths(self.edge_lengths)
        self.grad_tol = float(grad_tol[0])
        self._mean: tuple[ManifoldPoint | None, np.ndarray | None] = (None, None)


def _edge_lengths(manifold: Manifold, verts: np.ndarray):
    """The edge lengths (N, E) of vertex sets (N, n+1, coord_dim), in
    ``_edge_pairs`` order, each row's ``_grad_tol`` and the logarithms
    log_p0(p_j) (N, n, coord_dim) of the mean's initial guess.  A model
    that shoots its logarithms shoots each edge once, as log_pi(p_j), in
    one ``log_array`` stack that shares each vertex's symbols among its
    edges, and the lengths are their norms; a closed form adds one
    ``log_array`` from p0 to its ``dist_array``.  Nothing is checked here."""
    n1 = verts.shape[1]
    i, j = _edge_pairs(n1)
    if manifold.shooting_tol > 0:
        edge_logs = manifold.log_array(verts[:, i], verts[:, j])
        lengths = manifold.norm_array(edge_logs, verts[:, i])
        logs = edge_logs[:, :n1 - 1]        # the (0, j) pairs come first
    else:
        lengths = manifold.dist_array(verts[:, i], verts[:, j])
        logs = manifold.log_array(verts[:, :1], verts[:, 1:])
    return lengths, _grad_tol(manifold, _fold(np.maximum, lengths), verts), logs


def _grad_tol(manifold: Manifold, h: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Each row's ``default_grad_tol`` of its diameter h and coordinates
    (N, n+1, coord_dim), floored at ``shooting_tol``."""
    return np.maximum(default_grad_tol(h, _fold(np.maximum, _fold(np.maximum, np.abs(verts)))),
                      manifold.shooting_tol)


def _convex_edge_lengths(manifold: Manifold, verts: np.ndarray):
    """``_edge_lengths``; a ValueError names the first row whose diameter
    exceeds the convexity radius."""
    lengths, grad_tol, logs = _edge_lengths(manifold, verts)
    h = _fold(np.maximum, lengths)
    bad = np.flatnonzero(exceeds_convexity_radius(manifold, h))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"row {k}: vertex separation {h[k]:.3e} exceeds the convexity radius "
            f"{manifold.bounds.convexity_radius:.3e}; the center of mass may not be unique")
    return lengths, grad_tol, logs


def _length_tables(lengths: np.ndarray, n1: int) -> np.ndarray:
    """The symmetric tables (..., n1, n1) of edge lengths (..., E) listed
    in ``_edge_pairs`` order, zero on the diagonal."""
    i, j = _edge_pairs(n1)
    tables = np.zeros(np.shape(lengths)[:-1] + (n1, n1))
    tables[..., i, j] = tables[..., j, i] = lengths
    return tables


def _edge_pairs(n1: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs i < j of n1 vertices in row-major order, (0, 1),
    (0, 2), ..., (1, 2), ...: ``np.triu_indices(n1, 1)`` at less cost."""
    r = np.arange(n1)
    return np.nonzero(r[:, None] < r)


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


def karcher_mean(chart: KarcherChart, lam: BarycentricWeight,
                 trace: list | None = None) -> ManifoldPoint:
    """The center of mass of the chart's vertices at weights lam:
    ``_batch_mean`` on one row, at the chart's ``grad_tol``.  A list
    passed as ``trace`` receives every iterate once the mean is found,
    the initial guess first and the returned mean last.  The chart keeps
    the mean with its logarithms toward the vertices for later jets at
    that point."""
    iterates = None if trace is None else []
    a, _ = _chart_row(chart, lam, None, iterates)
    if trace is not None:
        trace.extend(ManifoldPoint(x[0]) for x in iterates)
    return a


def _chart_row(chart: KarcherChart, lam: BarycentricWeight,
               at: ManifoldPoint | None, trace: list | None = None):
    """The point of a jet of the chart at weights lam and its logarithms
    log_a(p_i) (n+1, coord_dim): ``at`` if given, else the mean.  The
    mean starts from the chart's logarithms log_p0(p_j), and the chart
    keeps it with its logarithms, so a jet at that same point object
    takes no logarithm."""
    man = chart.manifold
    verts = chart.coords
    if at is None:
        a, logs, _ = _batch_mean(man, verts[None], lam.values[None],
                                 np.array([chart.grad_tol]), chart._edge_logs, trace)
        chart._mean = (ManifoldPoint(a[0]), logs[0])
    elif at is not chart._mean[0]:
        return at, man.log_array(at.coords, verts)
    return chart._mean


def sigma(chart: KarcherChart, lam: BarycentricWeight, v: SimplexTangent,
          at: ManifoldPoint | None = None) -> TangentVector:
    """sum_i v^i log_a(p_i) at a = x(lambda); the flat-model differential."""
    a, logs = _chart_row(chart, lam, at)
    return TangentVector(a, v.v @ logs)


def differential(chart: KarcherChart, lam: BarycentricWeight,
                 at: ManifoldPoint | None = None) -> ChartJet:
    """First derivative of the coordinate map: solves A dx(v) = sigma(v)
    for each basis direction, as ``differential_batch`` on one row."""
    return _chart_jet(chart, lam, at, second=False)


def hessian(chart: KarcherChart, lam: BarycentricWeight,
            at: ManifoldPoint | None = None) -> ChartJet:
    """Jet with both dx and the symmetric bilinear map nabla dx, as
    ``hessian_batch`` on one row.

    nabla dx(v, w) solves A(nabla dx) = -(sum w^i H_i V + sum v^i H_i W +
    sum lambda^i grad2 X_i (V, W)) with V = dx(v), W = dx(w).
    """
    return _chart_jet(chart, lam, at, second=True)


def _chart_jet(chart: KarcherChart, lam: BarycentricWeight,
               at: ManifoldPoint | None, second: bool) -> ChartJet:
    a, logs = _chart_row(chart, lam, at)
    dx, nabla = _jets(chart.manifold, chart.coords[None], lam.values[None],
                      a.coords[None], logs[None], second)
    return ChartJet(a, dx[0], None if nabla is None else nabla[0])


def pullback_metric(chart: KarcherChart, lam: BarycentricWeight,
                    jet: ChartJet | None = None) -> np.ndarray:
    """Matrix of the pulled-back manifold metric at lambda in the simplex
    tangent basis e_k - e_0."""
    if jet is None:
        jet = differential(chart, lam)
    dx = jet.dx_matrix
    return dx.T @ chart.manifold.metric_matrix(jet.point.coords) @ dx


def differential_batch(manifold: Manifold, vertices, weights,
                       iterations: list | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Centers of mass and their differentials for a stack of charts, one
    row per (chart, weight) pair.

    ``vertices`` is (N, n+1, coord_dim) and ``weights`` is (N, n+1).
    Returns the points (N, coord_dim) and the dx matrices
    (N, coord_dim, n), whose columns are the images of e_k - e_0.  The
    shapes, then the points and weights are checked, a ValueError naming
    the first bad row; each row is then measured and checked as a
    ``KarcherChart`` measures its one row, and its mean stops at its own
    ``grad_tol``.  A MeanSolverError names the weights of the failing row
    and the row itself in its ``index``.  A list passed as ``iterations``
    receives each row's iterate count, the initial guess included, as
    karcher_mean's ``trace`` counts them.  No rows give empty arrays."""
    return _batch_jets(manifold, vertices, weights, False, iterations)[:2]


def hessian_batch(manifold: Manifold, vertices, weights
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``differential_batch`` plus nabla dx: returns the points, the dx
    matrices and the tensors (N, n, n, coord_dim), symmetric in the
    middle axes."""
    return _batch_jets(manifold, vertices, weights, True)


def _batch_jets(manifold: Manifold, vertices, weights, second: bool,
                iterations: list | None = None):
    """Points, dx and nabla dx (None unless ``second``) of a checked,
    measured stack; no rows reach no model, whose stacks assume one."""
    verts = np.asarray(vertices, dtype=float)
    lam = np.asarray(weights, dtype=float)
    dim = manifold.coord_dim
    if verts.ndim != 3 or verts.shape[2] != dim or lam.shape != verts.shape[:2]:
        raise ValueError(f"expected vertices (N, n+1, {dim}) and weights (N, n+1), "
                         f"got {verts.shape} and {lam.shape}")
    manifold._check_points(verts)
    _check_weights(lam)
    if not len(verts):
        n = verts.shape[1] - 1
        return np.zeros((0, dim)), np.zeros((0, dim, n)), np.zeros((0, n, n, dim))
    _, grad_tol, guess = _convex_edge_lengths(manifold, verts)
    a, _, dx, nabla = _stack_jets(manifold, verts, lam, grad_tol, guess, second, iterations)
    return a, dx, nabla


def _stack_jets(manifold: Manifold, verts: np.ndarray, lam: np.ndarray, grad_tol: np.ndarray,
                guess_logs: np.ndarray, second: bool, iterations: list | None = None):
    """The means of a checked, measured stack (N, n+1, coord_dim) at
    weights lam, each at its ``grad_tol`` and from its log_p0(p_j) (see
    ``_batch_mean``), their logarithms log_a(p_i) and ``_jets``."""
    a, logs, iterates = _batch_mean(manifold, verts, lam, grad_tol, guess_logs)
    if iterations is not None:
        iterations.extend(iterates.tolist())
    return (a, logs, *_jets(manifold, verts, lam, a, logs, second))


def _batch_mean(manifold: Manifold, verts: np.ndarray, lam: np.ndarray,
                grad_tol: np.ndarray, guess_logs: np.ndarray,
                trace: list | None = None):
    """The one center-of-mass iteration, on every row of vertices
    (N, n+1, coord_dim) and weights (N, n+1): a <- R_a(-F(a, lambda)),
    F = -sum_i lambda_i log_a(p_i), until each row's |F| is at most its
    ``grad_tol``, for at most MAX_MEAN_ITERS iterates.  R is the model's
    ``retract_array``, which agrees with exp_a to second order (exp_a
    itself on the closed forms, a + w - Gamma_a(w, w)/2 on a
    ``ChartManifold``); the fixed point F = 0 does not depend on it.

    The initial guess is the tangent-space average seen from vertex 0,
    from the logarithms ``guess_logs`` = log_p0(p_j) (N, n, coord_dim) of
    ``_edge_lengths``, moved by ``exp_array``: exact in flat space.  Near
    the mean the update is a contraction with rate of order C0 h^2, so a
    handful of iterations reaches gradient norms near roundoff.  On a
    model that shoots its logarithms, each iterate's logarithms toward
    the vertices are taken by ``Manifold._warm_log_array``, whose state
    (for ``ChartManifold`` the logarithms, endpoint Jacobians, symbols at
    the base points, first-shot residuals and accepted first steps)
    warm-starts the next iterate's and lives only as long as this call,
    and each logarithm takes one shot per iterate: the Newton step from
    that shot stands in for it, unverified, while its first-shot residual
    at least halves from iterate to iterate (``ChartManifold._shoot_log``);
    any other logarithm is shot to
    ``shooting_tol``.  A row has converged once its |F| is at most its
    ``grad_tol`` and every logarithm of that iterate is verified, and
    then leaves the iteration.  Returns the means (N, coord_dim), the
    logarithms there (N, n+1, coord_dim) and each row's iterate count; a
    list passed as ``trace`` receives a copy of the means (N, coord_dim)
    at every iterate tested.  A MeanSolverError names the weights of the
    failing row and the row as its ``index``.
    """
    conv_radius = manifold.bounds.convexity_radius
    # The guess's long step keeps exp: on the chart-ode benchmark's seed-0
    # pass a retraction there cost 42 more mean logarithms and saved only
    # 262 of 29 161 ODE evaluations.
    a = manifold.exp_array(verts[:, 0], np.einsum("ri,rid->rd", lam[:, 1:], guess_logs))
    logs = np.empty_like(verts)
    active = np.arange(len(verts))
    iterates = np.ones(len(verts), dtype=int)
    state = None
    for _ in range(MAX_MEAN_ITERS):
        if trace is not None:
            trace.append(a.copy())
        base = a[active, None]
        cur, exact, state = manifold._warm_log_array(base, verts[active], state)
        far = _fold(np.maximum, manifold.norm_array(cur, base))
        left = np.flatnonzero(far > conv_radius * (1.0 + 1e-9))
        if left.size:
            k = left[0]
            raise MeanSolverError(
                f"iterate left the convex ball at weights {lam[active[k]].tolist()}: "
                f"vertex distance {far[k]:.3e} > {conv_radius:.3e}",
                index=int(active[k]))
        F = -np.einsum("ri,rid->rd", lam[active], cur)
        f_norm = manifold.norm_array(F, base[:, 0])
        done = (f_norm <= grad_tol[active]) & _fold(np.logical_and, exact)
        logs[active[done]] = cur[done]
        keep = ~done
        active, F, f_norm = active[keep], F[keep], f_norm[keep]
        if active.size == 0:
            return a, logs, iterates
        if state is not None:
            state = tuple(x[keep] for x in state)
        a[active] = manifold.retract_array(a[active], -F)
        iterates[active] += 1
    row = active[0]
    raise MeanSolverError(
        f"no convergence to grad_tol={grad_tol[row]:.3e} in {MAX_MEAN_ITERS} "
        f"iterations at weights {lam[row].tolist()} (last |F| = {f_norm[0]:.3e})",
        index=int(row))


def _jets(manifold: Manifold, verts: np.ndarray, lam: np.ndarray, a: np.ndarray,
          logs: np.ndarray, second: bool):
    """dx (N, coord_dim, n) and, if ``second``, nabla dx (N, n, n,
    coord_dim) else None, at the points a with their logarithms log_a(p_i):
    the one jet tail.  The model gives the frames the jets solve in
    (``jet_frame_array``), A in them and the Hessian and second-derivative
    terms (``hess_terms_array``, for the vertices of nonzero weight, or
    for all of them when nabla dx needs every Hessian), and
    ``_frame_system`` and ``_nabla_dx`` solve for the jet.

    The sphere solves in its ambient coordinates, with no frame: its A
    there keeps each tangent space and has the eigenvalues of the frame
    matrix plus s = sum_i lam_i f_i on the normal.  The hyperboloid keeps
    its boost frame: its ambient matrix s I + sum_i c_i y_i (J y_i)^T under
    the Minkowski form J is not normal, with entries that grow like
    cosh^2 of the distance from the origin, so its condition number would
    depend on where the simplex sits.  ``ChartManifold`` and
    ``EuclideanSpace`` keep their frames too."""
    frame, low_frame = manifold.jet_frame_array(a)
    terms = manifold.hess_terms_array(verts, a, logs, second | (lam != 0.0))
    system = (frame, low_frame, manifold.a_matrix_array(terms, lam, frame, low_frame))
    dx, a_inv = _frame_system(system, logs, lam)
    if not second:
        return dx, None
    vecs = np.swapaxes(dx, 1, 2)                                  # (N, n, D)
    return dx, _nabla_dx(frame, low_frame, a_inv, manifold.hess_array(terms, vecs),
                         manifold.second_deriv_array(terms, vecs), lam)


def _frame_system(system, logs: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dx (N, coord_dim, n) of a stack of jets, one row per (chart,
    weight) pair, and the inverses of A (N, m, m).  ``system`` holds the
    frames of ``jet_frame_array``, orthonormal tangent frames (N,
    coord_dim, m) as columns and their lowered forms, so that the frame
    components of a vector u are u @ low_frame (both None for the
    coordinates themselves), and the matrices of A (N, m, m) in them;
    ``logs`` (N, n+1, coord_dim) are log_a(p_i) and ``lam`` (N, n+1) the
    weights.  One solve of A against [sigma(v) | I] gives dx(v) for the
    simplex basis directions and A^-1, and the gate is |A|_F |A^-1|_F <=
    1e12, the bits of ``np.linalg.cond(A, "fro")``, which takes the same
    inverse; a NaN A fails it.  An exactly singular A stops the solve,
    and ``np.linalg.cond`` (inf there) then names the first bad row.
    The Frobenius number is never below the 2-norm one.
    Nor is it lower in the sphere's ambient coordinates: there A has the
    eigenvalues of its frame matrix plus s = sum_i lam_i f_i, at most the
    least of them as each f_i <= 1 on the sphere, so |A|_F and |A^-1|_F
    only grow.  The MeanSolverError for a singular A names the weights of
    its row and the row as its ``index``."""
    frame, low_frame, a_mat = system
    diff = logs[:, 1:] - logs[:, :1]
    if frame is None:
        rhs = np.swapaxes(diff, 1, 2)
    else:
        rhs = np.einsum("rjd,rdk->rkj", diff, low_frame)
    n = rhs.shape[2]
    try:
        sol = np.linalg.solve(a_mat, np.concatenate(
            [rhs, np.broadcast_to(np.eye(a_mat.shape[1]), a_mat.shape)], axis=2))
        with np.errstate(over="ignore", invalid="ignore"):
            cond = (np.linalg.norm(a_mat, "fro", axis=(1, 2))
                    * np.linalg.norm(sol[:, :, n:], "fro", axis=(1, 2)))
    except np.linalg.LinAlgError:
        cond = np.linalg.cond(a_mat, "fro")
    singular = np.flatnonzero(~(cond <= 1e12))
    if singular.size:
        k = singular[0]
        raise MeanSolverError(
            f"Hessian combination A is numerically singular at weights "
            f"{lam[k].tolist()}: cond(A) = {cond[k]:.3e}", index=int(k))
    dx = sol[:, :, :n]
    return (dx if frame is None else frame @ dx), sol[:, :, n:]


def _nabla_dx(frame, low_frame, a_inv: np.ndarray, hess: np.ndarray, second: np.ndarray,
              lam: np.ndarray) -> np.ndarray:
    """nabla dx (N, n, n, coord_dim), symmetric in the middle axes, from
    each vertex's Hessian applied to the dx columns, H_i(V_k) as
    (N, n+1, n, coord_dim), and its second derivative grad2 X_i(V_k, V_l)
    as (N, n+1, n, n, coord_dim): the right-hand side of ``hessian``, in
    the frames of ``_frame_system`` and times its A^-1."""
    rows, n = hess.shape[0], hess.shape[2]
    hdiff = hess[:, 1:] - hess[:, :1]       # [r, l, k]: H_{l+1}(V_k) - H_0(V_k)
    rhs = (np.swapaxes(hdiff, 1, 2) + hdiff
           + np.einsum("ri,rikld->rkld", lam, second))
    if frame is None:
        rhs_frame = np.moveaxis(rhs, 3, 1)
    else:
        rhs_frame = np.einsum("rkld,rdj->rjkl", rhs, low_frame)
    sol = a_inv @ -rhs_frame.reshape(rows, -1, n * n)
    if frame is not None:
        sol = frame @ sol
    return sol.reshape(rows, -1, n, n).transpose(0, 2, 3, 1)
