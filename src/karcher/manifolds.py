"""Riemannian manifold models.

``Manifold`` holds the interface that the chart and its jets read: exp,
log, the Hessian of half the squared distance and its covariant
derivative.  The chart-based ``ChartManifold`` shoots exp and log and
takes its distance Hessian from numerically integrated ODEs, and the
second derivative from a stencil of that Hessian along the chart's
coordinate lines, made covariant by the Christoffel symbols.  Euclidean
space and the two constant-curvature models, the round sphere and
hyperbolic space (hyperboloid model), have closed forms instead, the
latter two through ``_SpaceForm``, written once in the sign of the
curvature.  Only these give geodesic curves, transport and curvature,
for the Jacobi oracle; a chart's ODE transport is a test oracle.  The
closed-form spaces double as oracles for the chart machinery.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BasePointError, GeodesicError, JacobiError
from .flat_simplex import _dot, _flagged, _fold
from .integrate import solve_ode

_BASE_TOL = 1e-8
_ANTIPODE_TOL = 1e-8
# Central-difference step of the derivatives of a ``ChartManifold``'s
# Christoffel symbols.
_FD_STEP = 1e-5
# Newton steps one ``ChartManifold`` logarithm may take.
MAX_SHOOTING_ITERS = 50
# Step, in g-length along a coordinate line, of the Richardson stencil of
# a ``ChartManifold``'s second derivative.
_STENCIL_STEP = 1e-4


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point described by its coordinate vector.

    For embedded models these are ambient coordinates (unit vector for the
    sphere, hyperboloid vector for hyperbolic space); for chart manifolds
    they are chart coordinates.
    """

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A vector attached to a base point, in the base point's coordinates."""

    base: ManifoldPoint
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "components", np.asarray(self.components, dtype=float)
        )

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _require_same_base(self, other)
        return TangentVector(self.base, self.components + other.components)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        _require_same_base(self, other)
        return TangentVector(self.base, self.components - other.components)

    def __mul__(self, scalar: float) -> "TangentVector":
        return TangentVector(self.base, self.components * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return TangentVector(self.base, -self.components)


def _same_base(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the coordinates a and b name one base point: the same
    array, or within ``_BASE_TOL`` times a's largest entry (at least 1)
    in every entry.  A NaN entry fails the compare."""
    if a is b:
        return True
    scale = max(1.0, float(np.abs(a).max()))
    return float(np.abs(a - b).max()) <= _BASE_TOL * scale


def _require_same_base(v: TangentVector, w: TangentVector):
    if not _same_base(v.base.coords, w.base.coords):
        raise BasePointError("tangent vectors have different base points")


@dataclass(frozen=True)
class ManifoldBounds:
    """Curvature and radius data attached to a manifold instance.

    ``C0`` bounds the curvature tensor norm (1/length^2), ``C1`` its
    covariant derivative (1/length^3).  For chart manifolds the values are
    user-declared and not validated.
    """

    C0: float
    C1: float
    injectivity_radius: float
    convexity_radius: float

    def __post_init__(self):
        if self.C0 < 0 or self.C1 < 0:
            raise ValueError("curvature bounds must be nonnegative")
        if self.injectivity_radius < 0 or self.convexity_radius < 0:
            raise ValueError("radii must be nonnegative")
        if self.convexity_radius > self.injectivity_radius:
            raise ValueError("convexity radius exceeds injectivity radius")


@dataclass(frozen=True, eq=False)
class Geodesic:
    """Arclength-parametrized geodesic segment.

    ``point(t)`` and ``velocity(t)`` evaluate position and unit tangent for
    t in [0, length] (closed-form spaces accept any t).
    """

    manifold: "Manifold"
    start: ManifoldPoint
    length: float
    _flow: Callable[[float], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def point(self, t: float) -> ManifoldPoint:
        coords, _ = self._flow(float(t))
        return ManifoldPoint(coords)

    def velocity(self, t: float) -> TangentVector:
        coords, vel = self._flow(float(t))
        return TangentVector(ManifoldPoint(coords), vel)


# Below u = sqrt(|K|) tau = _SERIES_U the closed forms of the stretch
# factor cancel badly, and Taylor series to O(u^8) replace them.
_SERIES_U = 0.05


def _stretch_array(K: float, tau: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial stretch factor of the squared-distance Hessian on an array
    of distances, for K of either sign.

    Returns (f, df/dtau, 1 - f) where f multiplies the component
    orthogonal to the connecting geodesic: f = u cot(u) for curvature
    K > 0 and f = u coth(u) for K < 0, with u = sqrt(|K|) tau.
    ``1 - f`` is returned separately because it cancels badly for small u.
    """
    sign = 1.0 if K > 0 else -1.0
    rk = math.sqrt(abs(K))
    u = rk * tau
    small = u < _SERIES_U
    u2 = u * u
    f_series = 1.0 - sign * u2 / 3.0 - u2 * u2 / 45.0 - sign * 2.0 * u2 ** 3 / 945.0
    fp_du_series = (-sign * 2.0 * u / 3.0 - 4.0 * u ** 3 / 45.0
                    - sign * 4.0 * u ** 5 / 315.0)
    us = np.where(small, 1.0, u)  # keeps the closed form finite where unused
    s, c = (np.sin(us), np.cos(us)) if K > 0 else (np.sinh(us), np.cosh(us))
    f, one_minus_f = us * c / s, (s - us * c) / s
    fp = rk * (c / s - us / (s * s))
    return (np.where(small, f_series, f), np.where(small, rk * fp_du_series, fp),
            np.where(small, 1.0 - f_series, one_minus_f))


class Manifold(ABC):
    """Common interface of all manifold models.

    Instances are immutable after construction and all operations are pure,
    so a single manifold object can be shared freely across threads.
    """

    dim: int          # intrinsic dimension
    coord_dim: int    # length of coordinate vectors
    bounds: ManifoldBounds
    # Signed sectional curvature if the space has constant curvature,
    # else None.  Lets Jacobi solvers use the exact frame curvature matrix.
    constant_sectional_curvature: float | None = None
    # Accuracy of ``log``: 0 for closed forms, the shooting tolerance for
    # models that solve for it.  No mean is certified below it.
    shooting_tol: float = 0.0

    # -- point / vector construction ------------------------------------

    def point(self, coords) -> ManifoldPoint:
        """The point at coords (coord_dim,): ``_check_points`` on one row."""
        p = ManifoldPoint(np.asarray(coords, dtype=float))
        self._check_points(p.coords[None])
        return p

    def tangent(self, p: ManifoldPoint, components) -> TangentVector:
        v = TangentVector(p, np.asarray(components, dtype=float))
        self._validate_tangent(v)
        return v

    def _check_points(self, x: np.ndarray):
        """Raise a ValueError unless the rows of x (N, coord_dim) are
        points of the model (``_reject_rows`` names a failing row)."""
        if x.shape[1:] != (self.coord_dim,):
            raise ValueError(f"expected {self.coord_dim} coordinates, got {x.shape[1:]}")

    def _validate_tangent(self, v: TangentVector):
        if v.components.shape != (self.coord_dim,):
            raise ValueError("tangent component dimension mismatch")

    # -- raw inner product on components ---------------------------------

    @abstractmethod
    def _ip(self, p: ManifoldPoint, a: np.ndarray, b: np.ndarray) -> float:
        """Metric applied to raw component arrays at p."""

    # -- metric operations ------------------------------------------------

    @abstractmethod
    def metric_matrix(self, p: np.ndarray) -> np.ndarray:
        """The metric at the coordinates p (..., coord_dim) as matrices
        (..., coord_dim, coord_dim), or as one such matrix where it is the
        same at every point."""

    def metric(self, p: ManifoldPoint, v: TangentVector, w: TangentVector) -> float:
        _require_same_base(v, w)
        if not _same_base(p.coords, v.base.coords):
            raise BasePointError("vectors are not based at the evaluation point")
        return self._ip(p, v.components, w.components)

    def norm(self, v: TangentVector) -> float:
        return math.sqrt(max(self._ip(v.base, v.components, v.components), 0.0))

    @abstractmethod
    def exp(self, p: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        ...

    @abstractmethod
    def log(self, p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
        """The tangent vector at p whose geodesic reaches q."""

    def dist(self, p: ManifoldPoint, q: ManifoldPoint) -> float:
        return self.norm(self.log(p, q))

    # -- geodesics and transport, outside the interface --------------------
    # Euclidean space and the space forms give ``geodesic_from(p, v,
    # length=|v|)`` and ``parallel_transport(gamma, t0, t1, v)`` for the
    # Jacobi oracle, which these helpers serve, and the space forms also
    # ``curvature_rt(p, T, w)`` = R(w, T)T; a ``ChartManifold`` gives none
    # of them.

    def _unit_direction(self, v: TangentVector,
                        length: float | None) -> tuple[np.ndarray, float]:
        """(v / |v|, length or |v|) for ``geodesic_from``."""
        n = self.norm(v)
        if n == 0.0:
            raise GeodesicError("zero initial velocity")
        return v.components / n, n if length is None else float(length)

    def geodesic_between(self, p: ManifoldPoint, q: ManifoldPoint) -> Geodesic:
        return self.geodesic_from(p, self.log(p, q))

    def frame_field(self, gamma: Geodesic,
                    basis0: list[TangentVector]) -> Callable[[float], np.ndarray]:
        """Parallel frame along gamma; returns t -> (len(basis0), coord_dim)."""
        return lambda t: np.array([self.parallel_transport(gamma, 0.0, t, b).components
                                   for b in basis0])

    def tangent_basis(self, p: ManifoldPoint) -> list[TangentVector]:
        """Deterministic orthonormal basis of the tangent space at p: the
        columns of ``tangent_frame_array``."""
        return [TangentVector(p, b) for b in self.tangent_frame_array(p.coords).T]

    @abstractmethod
    def tangent_frame_array(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal tangent frames (..., coord_dim, dim) at the
        coordinates p (..., coord_dim), one basis vector per column."""

    # -- derivatives of the squared-distance gradient ---------------------
    # Each model defines them once, on stacks (below); the scalar methods
    # here are those stacks on one row.

    def hess_half_dist_sq(self, p: ManifoldPoint, q: ManifoldPoint,
                          V: TangentVector) -> TangentVector:
        """Covariant derivative at q, in direction V, of half the gradient
        of squared distance to p: ``hess_array`` on one row.  Equals the
        identity plus an O(C0 tau^2) curvature correction."""
        return TangentVector(q, self.hess_array(self._one_row_terms(p, q),
                                                V.components[None, None])[0, 0, 0])

    def second_deriv_X(self, p: ManifoldPoint, q: ManifoldPoint,
                       V: TangentVector, W: TangentVector) -> TangentVector:
        """Symmetrized second covariant derivative at q, in directions V
        and W, of the squared-distance gradient field of p:
        ``second_deriv_array`` on one row, from ``_second_terms``."""
        return TangentVector(q, self.second_deriv_array(
            self._second_terms(p, q), np.stack([V.components, W.components])[None])[0, 0, 0, 1])

    def _second_terms(self, p: ManifoldPoint, q: ManifoldPoint):
        """What ``second_deriv_array`` reads of the row q with vertex p."""
        return self._one_row_terms(p, q)

    def _one_row_terms(self, p: ManifoldPoint, q: ManifoldPoint):
        """``hess_terms_array`` of the row q with the vertex p, from
        log_q(p) by the scalar ``log``."""
        return self.hess_terms_array(p.coords[None, None], q.coords[None],
                                     self.log(q, p).components[None, None],
                                     np.ones((1, 1), bool))

    # -- stacks ------------------------------------------------------------
    # The maps above row by row on (..., coord_dim) coordinate arrays,
    # broadcast over their leading axes: what the mean and the jets of
    # ``barycentric`` read.  The log/exp/dist/norm defaults loop the scalar
    # method; the space forms override them with closed forms.

    def exp_array(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        def exp(x, u):
            x = ManifoldPoint(x)
            return self.exp(x, TangentVector(x, u)).coords
        return _rows(exp, p, v, shape=(self.coord_dim,))

    def retract_array(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A retraction at p along v: a point that agrees with exp_p(v) to
        second order in v, which is all the mean's updates need (Absil,
        Mahony & Sepulchre 2008, ch. 4).  ``exp_array`` itself by default,
        so the closed forms move their iterates as they always have."""
        return self.exp_array(p, v)

    def log_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """log_p(q) row by row, shot to ``shooting_tol`` on models that
        solve for it."""
        return _rows(lambda x, y: self.log(ManifoldPoint(x), ManifoldPoint(y)).components,
                     p, q, shape=(self.coord_dim,))

    def _warm_log_array(self, p: np.ndarray, q: np.ndarray, state=None):
        """``log_array`` as the mean's iterates read it: the logarithms,
        whether each is verified to ``shooting_tol`` (always, for models
        that do not shoot) and the state that the next iterate of the
        same mean passes back as ``state``, None for models that keep
        none.  A shooting model builds and reads its own state
        (``ChartManifold``); nothing of it outlives the mean's call."""
        logs = self.log_array(p, q)
        return logs, np.ones(logs.shape[:-1], dtype=bool), None

    def dist_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _rows(lambda x, y: self.dist(ManifoldPoint(x), ManifoldPoint(y)), p, q)

    def norm_array(self, v: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Norms of the vectors v at the base points p."""
        return _rows(lambda u, x: self.norm(TangentVector(ManifoldPoint(x), u)), v, p)

    # Row r is one point q (N, coord_dim) with vertices p_i (N, n+1,
    # coord_dim), logarithms log_q(p_i) (N, n+1, coord_dim) and directions
    # V_k at q (N, k, coord_dim).  ``hess_terms_array`` does the work that
    # does not depend on the directions, once per row and vertex.

    @abstractmethod
    def hess_terms_array(self, p: np.ndarray, q: np.ndarray, logs: np.ndarray,
                         mask: np.ndarray):
        """What ``hess_array``, ``second_deriv_array`` and
        ``a_matrix_array`` read, for the vertices where ``mask`` (N, n+1)
        holds.  The defaults below read (p, q, mask, matrices), with the
        coordinate matrices (N, n+1, coord_dim, coord_dim) of the Hessians
        H_i on the mask and zero elsewhere, as ``ChartManifold``'s are."""

    def hess_array(self, terms, V: np.ndarray) -> np.ndarray:
        """H_i(V_k) = hess_half_dist_sq(p_i, q, V_k) as (N, n+1, k,
        coord_dim), from the terms' coordinate matrices."""
        return np.einsum("ride,rke->rikd", terms[3], V)

    @abstractmethod
    def second_deriv_array(self, terms, V: np.ndarray) -> np.ndarray:
        """grad^2 X_i(V_k, V_l) = 1/2 ((nabla_{V_k} H_i) V_l + (nabla_{V_l}
        H_i) V_k) as (N, n+1, k, k, coord_dim), from the terms."""

    def a_matrix_array(self, terms, lam: np.ndarray, frame: np.ndarray,
                       low_frame: np.ndarray) -> np.ndarray:
        """The matrices (N, m, m) of A = sum_i lam_i H_i in the orthonormal
        frames (N, coord_dim, m), whose lowered forms ``low_frame`` give
        the frame components of a vector u as u @ low_frame."""
        cols = np.einsum("ri,rikd->rdk", lam,
                         self.hess_array(terms, np.swapaxes(frame, 1, 2)))
        return np.swapaxes(low_frame, 1, 2) @ cols


def _rows(fn: Callable[..., np.ndarray], *arrays, shape: tuple = ()) -> np.ndarray:
    """fn on each row of (..., coord_dim) arrays broadcast over their
    leading axes, with its results, each of the given shape, stacked
    along those axes; an empty array if there are no rows."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    arrays = [np.broadcast_to(a, lead + a.shape[-1:]) for a in arrays]
    out = [fn(*(a[idx] for a in arrays)) for idx in np.ndindex(lead)]
    return np.array(out, dtype=float).reshape(lead + tuple(shape))


def _reject_rows(bad: np.ndarray, message: Callable[[int], str]):
    """Raise a ValueError with message(k) for the first row k where the
    mask bad (N,) holds; a stack of several rows names k as a vertex."""
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError((f"vertex {k}: " if len(bad) > 1 else "") + message(k))


def _reject_stack(bad: np.ndarray, message: str):
    """GeodesicError(message) naming the first entry of a stack where bad holds."""
    if (k := _flagged(bad)) is not None:
        raise GeodesicError((f"row {k[0] if len(k) == 1 else k}: " if k else "") + message)


def _frame_at(g: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """A g-orthonormal frame (rows) whose first row is the g-unit vector
    u0: with g = L L^T, the Householder QR of [L^T u0 | I] gives an
    orthonormal Q whose first column is L^T u0, and the rows of (L^-T
    Q)^T are g-orthonormal to roundoff, however close u0 lies to a
    coordinate direction."""
    low = np.linalg.cholesky(g)
    w = low.T @ u0
    Q = np.linalg.qr(np.column_stack([w, np.eye(len(w))]))[0]
    Q[:, 0] = w
    frame = np.linalg.solve(low.T, Q).T
    frame[0] = u0
    return frame


def _check_length(man: Manifold, tau: float):
    """JacobiError unless a Jacobi boundary value problem along a geodesic
    of length tau has a unique solution on ``man``: tau must be positive
    and below the first conjugate length pi / sqrt(C0)."""
    if tau <= 0.0:
        raise JacobiError("geodesic must have positive length")
    C0 = man.bounds.C0
    if C0 > 0.0 and tau >= math.pi / math.sqrt(C0) * (1.0 - 1e-12):
        raise JacobiError("length reaches the first conjugate point")


class EuclideanSpace(Manifold):
    """Flat R^n with the standard inner product."""

    def __init__(self, dim: int):
        self.dim = dim
        self.coord_dim = dim
        self.bounds = ManifoldBounds(0.0, 0.0, math.inf, math.inf)
        self.constant_sectional_curvature = 0.0

    def _ip(self, p, a, b):
        return float(np.dot(a, b))

    def metric_matrix(self, p):
        """The identity, one matrix for every point."""
        return np.eye(self.dim)

    def exp(self, p, v):
        return ManifoldPoint(p.coords + v.components)

    def log(self, p, q):
        return TangentVector(p, q.coords - p.coords)

    def geodesic_from(self, p, v, length=None):
        u, L = self._unit_direction(v, length)
        p0 = p.coords.copy()
        return Geodesic(self, p, L, lambda t: (p0 + t * u, u))

    def parallel_transport(self, gamma, t0, t1, v):
        return TangentVector(gamma.point(t1), v.components.copy())

    def tangent_frame_array(self, p):
        return np.zeros(np.shape(p) + (self.dim,)) + np.eye(self.dim)

    def hess_terms_array(self, p, q, logs, mask):
        """Identity matrices on the mask."""
        return p, q, mask, mask[..., None, None] * np.eye(self.dim)

    def second_deriv_array(self, terms, V):
        return np.zeros(terms[2].shape + (V.shape[1],) * 2 + (self.dim,))


class _SpaceForm(Manifold):
    """What the sphere (sign +1) and the hyperboloid (sign -1) share: each
    is the quadric <x, x> = sign R^2 in R^(dim+1) under its ambient form
    ``_ip``, of constant curvature K = sign / R^2, so one formula in
    (C, S) = (cos, sin) or (cosh, sinh) gives both models' geodesics,
    transport, curvature and squared-distance derivatives.  Each model
    keeps its own point check, exp/log, ``dist_array`` and tangent
    frame."""

    def __init__(self, dim: int, radius: float, K: float,
                 injectivity_radius: float, convexity_radius: float):
        self.dim = dim
        self.coord_dim = dim + 1
        self.radius = float(radius)
        self.bounds = ManifoldBounds(
            C0=abs(K), C1=0.0, injectivity_radius=injectivity_radius,
            convexity_radius=convexity_radius)
        self.constant_sectional_curvature = K
        self._sign = 1.0 if K > 0 else -1.0
        self._trig = (math.cos, math.sin) if K > 0 else (math.cosh, math.sinh)
        # Diagonal of the ambient form: all ones on the sphere,
        # (1, ..., 1, -1) on the hyperboloid.
        self.signature = np.ones(self.coord_dim)
        self.signature[-1] = self._sign

    def _validate_tangent(self, v):
        super()._validate_tangent(v)
        ip = self._ip(v.base, v.base.coords, v.components)
        scale = max(1.0, self.radius * float(np.linalg.norm(v.components)))
        if abs(ip) > 1e-10 * scale:
            surface = "sphere" if self._sign > 0 else "hyperboloid"
            raise ValueError(f"vector is not tangent to the {surface}")

    def geodesic_from(self, p, v, length=None):
        u, L = self._unit_direction(v, length)
        p0 = p.coords.copy()
        r = self.radius
        C, S = self._trig
        sign = self._sign

        def flow(t):
            a = t / r
            pos = C(a) * p0 + r * S(a) * u
            vel = -sign * S(a) / r * p0 + C(a) * u
            return pos, vel

        return Geodesic(self, p, L, flow)

    def parallel_transport(self, gamma, t0, t1, v):
        T0 = gamma.velocity(t0)
        _require_same_base(v, T0)
        T1c = gamma.velocity(t1).components
        a = self._ip(T0.base, v.components, T0.components)
        w = v.components - a * T0.components
        return TangentVector(gamma.point(t1), w + a * T1c)

    def curvature_rt(self, p, T, w):
        K = self.constant_sectional_curvature
        tt = self._ip(p, T, T)
        return _rows(lambda u: K * (tt * u - self._ip(p, u, T) * T), w,
                     shape=(self.coord_dim,))

    # -- closed-form stacks -------------------------------------------------
    # Each model adds log_array/exp_array, the same formulas as its log/exp
    # broadcast over leading axes, dist_array and tangent_frame_array.

    def dist(self, p, q):
        """``dist_array`` on one pair, so the two are bit-identical."""
        return float(self.dist_array(p.coords, q.coords))

    def ip_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The ambient form ``_ip`` row by row: the bits of np.sum(a *
        signature * b, axis=-1), not of ``_ip``'s ``np.dot`` (ROADMAP item 3
        changes the two together), with the sign on the last slice only."""
        ab = a * b
        ab[..., -1] *= self._sign
        return _fold(np.add, ab)

    def norm_array(self, v: np.ndarray, p: np.ndarray | None = None) -> np.ndarray:
        return np.sqrt(np.maximum(self.ip_array(v, v), 0.0))

    def metric_matrix(self, p):
        """The ambient form, one matrix for every point."""
        return np.diag(self.signature)

    # The squared-distance derivatives read ``radial_array(logs)`` as terms.

    def hess_terms_array(self, p, q, logs, mask):
        return self.radial_array(logs)

    def radial_array(self, logs: np.ndarray):
        """(y, tau, f, f', 1 - f) of the geodesics from p_i to q, from the
        logarithms log_q(p_i): the unit directions y at q pointing away from
        p_i (zero where p_i = q), the lengths tau and ``_stretch_array`` of
        them.  A JacobiError names the first row with a length at the
        conjugate point."""
        tau = self.norm_array(logs)
        K = self.constant_sectional_curvature
        if K > 0:
            conjugate = np.flatnonzero((math.sqrt(K) * tau >= math.pi).any(axis=1))
            if conjugate.size:
                raise JacobiError(f"row {conjugate[0]}: distance reaches the "
                                  "conjugate point")
        y = np.divide(-logs, tau[..., None], out=np.zeros_like(logs),
                      where=tau[..., None] > 0.0)
        return (y, tau) + _stretch_array(K, tau)

    def _split_radial(self, y: np.ndarray, V: np.ndarray):
        """<V_k, y_i> (N, n+1, k) and the parts V_k - <V_k, y_i> y_i normal
        to y_i (N, n+1, k, coord_dim)."""
        along = np.einsum("rid,rkd->rik", y * self.signature, V)
        return along, V[:, None] - along[..., None] * y[:, :, None]

    def hess_array(self, radial, V: np.ndarray) -> np.ndarray:
        """H_i(V_k) = <V_k, y_i> y_i + f_i (V_k - <V_k, y_i> y_i), as
        (N, n+1, k, coord_dim): the radial part of V is kept and the part
        normal to y is stretched by f = u cot(u) or u coth(u)."""
        y, _, f, _, _ = radial
        along, perp = self._split_radial(y, V)
        return along[..., None] * y[:, :, None] + f[:, :, None, None] * perp

    def second_deriv_array(self, radial, V: np.ndarray) -> np.ndarray:
        """grad^2 X_i(V_k, V_l) from ``radial_array``'s output, as
        (N, n+1, k, k, coord_dim): (f' + c) sym(<V_k, y> V_l,perp) +
        c <V_k,perp, V_l,perp> y with c = (1 - f) f / tau, the derivative of
        the stretched Hessian along the radial and normal directions."""
        y, tau, f, fp, one_minus_f = radial
        along, perp = self._split_radial(y, V)
        c = np.divide(one_minus_f * f, tau, out=np.zeros_like(tau), where=tau > 0.0)
        sym = 0.5 * (along[:, :, :, None, None] * perp[:, :, None]
                     + along[:, :, None, :, None] * perp[:, :, :, None])
        perp_ip = np.einsum("rikd,rild->rikl", perp * self.signature, perp)
        return ((fp + c)[:, :, None, None, None] * sym
                + (c[:, :, None, None] * perp_ip)[..., None] * y[:, :, None, None])

    def a_matrix_array(self, radial, lam, frame, low_frame):
        """Closed form: sum_i lam_i (y y^T + f (P - y y^T)) in the frames,
        with y the unit direction away from vertex i and P the tangent
        projector."""
        y, _, f, _, one_minus_f = radial
        y_frame = np.einsum("rid,rdk->rik", y, low_frame)
        return (_fold(np.add, lam * f)[:, None, None] * np.eye(self.dim)
                + np.einsum("ri,rik,ril->rkl", lam * one_minus_f, y_frame, y_frame))


class Sphere(_SpaceForm):
    """Round sphere of given radius, in ambient coordinates."""

    def __init__(self, dim: int = 2, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        super().__init__(dim, radius, 1.0 / radius ** 2,
                         injectivity_radius=math.pi * radius,
                         convexity_radius=math.pi * radius / 2.0)

    def _check_points(self, x):
        super()._check_points(x)
        r = np.sqrt(_dot(x, x))
        _reject_rows(np.abs(r - self.radius) > 1e-12 * max(1.0, self.radius),
                     lambda k: f"point norm {r[k]} is off the radius-{self.radius} sphere")

    def _ip(self, p, a, b):
        return float(np.dot(a, b))

    def exp(self, p, v):
        t = float(np.linalg.norm(v.components))
        if t > self.bounds.injectivity_radius * (1.0 + 1e-9):
            raise GeodesicError("initial vector longer than the injectivity radius")
        if t == 0.0:
            return ManifoldPoint(p.coords.copy())
        u = t / self.radius
        c = math.cos(u) * p.coords + np.sinc(u / math.pi) * v.components
        c *= self.radius / np.linalg.norm(c)
        return ManifoldPoint(c)

    def log(self, p, q):
        r = self.radius
        chord = float(np.linalg.norm(q.coords - p.coords))
        theta = 2.0 * math.asin(min(chord / (2.0 * r), 1.0))
        w = q.coords - (float(np.dot(q.coords, p.coords)) / r ** 2) * p.coords
        nw = float(np.linalg.norm(w))
        if _near_antipode(theta, nw, r):
            raise GeodesicError("antipodal points: logarithm not unique")
        if nw == 0.0:
            return TangentVector(p, np.zeros(self.coord_dim))
        return TangentVector(p, (r * theta / nw) * w)

    def dist_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        chord = self.norm_array(q - p)
        return 2.0 * self.radius * np.arcsin(np.minimum(chord / (2.0 * self.radius), 1.0))

    def log_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        r = self.radius
        chord = self.norm_array(q - p)
        theta = 2.0 * np.arcsin(np.minimum(chord / (2.0 * r), 1.0))
        w = q - (self.ip_array(q, p) / r ** 2)[..., None] * p
        nw = self.norm_array(w)
        _reject_stack(_near_antipode(theta, nw, r), "antipodal points: logarithm not unique")
        scale = np.divide(r * theta, nw, out=np.zeros_like(nw), where=nw != 0.0)
        return scale[..., None] * w

    def exp_array(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        t = self.norm_array(v)
        _reject_stack(t > self.bounds.injectivity_radius * (1.0 + 1e-9),
                      "initial vector longer than the injectivity radius")
        u = (t / self.radius)[..., None]
        c = np.cos(u) * p + np.sinc(u / math.pi) * v
        c *= (self.radius / self.norm_array(c))[..., None]
        return np.where(t[..., None] == 0.0, p, c)

    def tangent_frame_array(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal tangent frames (..., coord_dim, dim), one basis
        vector per column: the QR of (p / R, e_0, ..., e_dim) less its
        first column."""
        eye = np.broadcast_to(np.eye(self.coord_dim), p.shape + (self.coord_dim,))
        qmat, _ = np.linalg.qr(np.concatenate([p[..., None] / self.radius, eye], axis=-1))
        return qmat[..., 1:self.dim + 1]


def _near_antipode(theta, nw, r):
    """Whether a sphere logarithm with angle theta and tangential part of
    norm nw = r sin(theta) is within _ANTIPODE_TOL of the antipode.  Near
    the antipode the chord's arcsine loses half the digits, so theta alone
    can read about 3e-8 short of pi; nw keeps full precision there."""
    return (theta >= math.pi - _ANTIPODE_TOL) | (
        (theta > math.pi / 2) & (nw <= _ANTIPODE_TOL * r))


def _minkowski(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])


class HyperbolicSpace(_SpaceForm):
    """Hyperbolic space of constant curvature -kappa (hyperboloid model).

    Points live on the upper sheet <x, x>_M = -1/kappa of the Minkowski
    quadric, with the Minkowski form diag(1, ..., 1, -1).
    """

    def __init__(self, dim: int = 2, curvature: float = 1.0):
        if curvature <= 0:
            raise ValueError("curvature parameter must be positive (space has -kappa)")
        super().__init__(dim, 1.0 / math.sqrt(curvature), -curvature,
                         injectivity_radius=math.inf, convexity_radius=math.inf)

    def _check_points(self, x):
        super()._check_points(x)
        m = _dot(x[:, :-1], x[:, :-1]) - x[:, -1] * x[:, -1]    # _minkowski
        _reject_rows(np.abs(m + self.radius ** 2) > 1e-12 * max(1.0, self.radius ** 2),
                     lambda k: "point is off the hyperboloid sheet")
        _reject_rows(x[:, -1] <= 0, lambda k: "point is on the lower sheet")

    def _ip(self, p, a, b):
        return _minkowski(a, b)

    def _renorm(self, c: np.ndarray) -> np.ndarray:
        return c * (self.radius / math.sqrt(-_minkowski(c, c)))

    def exp(self, p, v):
        t = math.sqrt(max(_minkowski(v.components, v.components), 0.0))
        if t == 0.0:
            return ManifoldPoint(p.coords.copy())
        u = t / self.radius
        # sinh(u)/u, stable at zero
        shc = math.sinh(u) / u if u > 1e-8 else 1.0 + u * u / 6.0
        c = math.cosh(u) * p.coords + shc * v.components
        return ManifoldPoint(self._renorm(c))

    def log(self, p, q):
        r = self.radius
        d = q.coords - p.coords
        d2 = max(_minkowski(d, d), 0.0)
        theta = 2.0 * math.asinh(math.sqrt(d2) / (2.0 * r))
        if theta == 0.0:
            return TangentVector(p, np.zeros(self.coord_dim))
        c = 1.0 + d2 / (2.0 * r ** 2)  # cosh(theta), exact identity
        w = q.coords - c * p.coords
        nw = math.sqrt(max(_minkowski(w, w), 0.0))
        return TangentVector(p, (r * theta / nw) * w)

    def dist_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        d = q - p
        d2 = np.maximum(self.ip_array(d, d), 0.0)
        return 2.0 * self.radius * np.arcsinh(np.sqrt(d2) / (2.0 * self.radius))

    def log_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        r = self.radius
        d = q - p
        d2 = np.maximum(self.ip_array(d, d), 0.0)
        theta = 2.0 * np.arcsinh(np.sqrt(d2) / (2.0 * r))
        w = q - (1.0 + d2 / (2.0 * r ** 2))[..., None] * p
        nw = self.norm_array(w)
        scale = np.divide(r * theta, nw, out=np.zeros_like(nw), where=theta != 0.0)
        return scale[..., None] * w

    def exp_array(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        t = self.norm_array(v)[..., None]
        u = t / self.radius
        big = u > 1e-8
        shc = np.where(big, np.sinh(u) / np.where(big, u, 1.0), 1.0 + u * u / 6.0)
        c = np.cosh(u) * p + shc * v
        c *= (self.radius / np.sqrt(-self.ip_array(c, c)))[..., None]
        return np.where(t == 0.0, p, c)

    def tangent_frame_array(self, p: np.ndarray) -> np.ndarray:
        """Orthonormal tangent frames (..., coord_dim, dim), one basis
        vector per column: the Lorentz boost taking (0, ..., 0, R) to
        p = (x, t) applied to the standard basis, E_k = (e_k + x x_k /
        (R (R + t)), x_k / R)."""
        r = self.radius
        x, t = p[..., :-1], p[..., -1]
        spatial = np.eye(self.dim) + (x[..., :, None] * x[..., None, :]
                                      / (r * (r + t))[..., None, None])
        return np.concatenate([spatial, x[..., None, :] / r], axis=-2)


def _jacobi_operator(gam: np.ndarray, dgam: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The matrix of w -> R(w, T)T from the Christoffel symbols gam and
    their derivatives dgam[l] = d Gamma / d x_l at a point (symmetric
    symbols): (d_w Gamma)(T, T) - (d_T Gamma)(w, T) + Gamma(w, Gamma(T,
    T)) - Gamma(T, Gamma(w, T))."""
    d = T.size
    dT = np.dot(dgam, T)                # dT[l] = (d_l Gamma)(., T)
    gT = np.dot(gam, T)                 # w -> Gamma(w, T)
    dTT = np.dot(T, dT.reshape(d, -1)).reshape(d, d)   # w -> (d_T Gamma)(w, T)
    return np.dot(dT, T).T - dTT + np.dot(gam, np.dot(gT, T)) - np.dot(gT, gT)


def _third_order_seed(gam: np.ndarray, dgam: np.ndarray, chord: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Start and Jacobian of the Newton shooting for log_p(p + chord) from
    the third-order expansion of the endpoint map at p, E(v) = p + v -
    Gamma(v, v)/2 - (dGamma[v](v, v) - 2 Gamma(Gamma(v, v), v))/6 +
    O(|v|^4), with gam, dgam the symbols and their derivatives at p: v0 =
    c + Gamma(c, c)/2 + (dGamma[c](c, c) + Gamma(Gamma(c, c), c))/6 with
    c = chord inverts E to that order, and the Jacobian is dE at v0
    (``_seed_jacobian``)."""
    c = chord
    gc = gam @ c
    v = c + 0.5 * (gc @ c) + (c @ ((dgam @ c) @ c) + gc @ (gc @ c)) / 6.0
    return v, _seed_jacobian(gam, dgam, v)


def _seed_jacobian(gam: np.ndarray, dgam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dE at v of the third-order expansion E of the endpoint map at p
    (``_third_order_seed``), from the symbols and derivatives at p."""
    gv, dv = gam @ v, dgam @ v
    # d/dw of dGamma[v](v, v) - 2 Gamma(Gamma(v, v), v) along w
    cubic = ((dv @ v).T + 2.0 * np.tensordot(v, dv, 1)
             - 4.0 * gv @ gv - 2.0 * gam @ (gv @ v))
    return np.eye(v.size) - gv - cubic / 6.0


# Fixed-point sweeps of ``_two_point_seed``.
_HERMITE_SWEEPS = 5


def _two_point_seed(jet_p: tuple[np.ndarray, np.ndarray], jet_q: tuple[np.ndarray, np.ndarray],
                    chord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and Jacobian of the Newton shooting for log_p(q), chord = q -
    p, from the symbols and their derivatives at both ends.  Along the
    geodesic x(t) from p to q, x'' = a = -Gamma(x)(x', x') and a' =
    -dGamma[x'](x', x') - 2 Gamma(x', a).  The two-point Hermite rule on
    the cubic through a and a' at t = 0 and 1 gives, with v = x'(0), w =
    x'(1) and a_0, a_1 their values,
        chord = v + 7/20 a_0 + 3/20 a_1 + 1/20 a_0' - 1/30 a_1' + O(|c|^6),
        w = v + (a_0 + a_1)/2 + (a_0' - a_1')/12 + O(|c|^5),
    and ``_HERMITE_SWEEPS`` sweeps of this pair from v = w = chord solve
    it.  The seed misses by O(|c|^6), where the one-end
    ``_third_order_seed`` misses by O(|c|^4), so a cold logarithm takes
    fewer shots; the Jacobian is ``_seed_jacobian`` at the seed."""
    def accel(gam, dgam, u):
        gu = np.dot(gam, u)
        a = -np.dot(gu, u)
        return a, -np.dot(u, np.dot(np.dot(dgam, u), u)) - 2.0 * np.dot(gu, a)

    v = w = chord
    for _ in range(_HERMITE_SWEEPS):
        (a0, d0), (a1, d1) = accel(*jet_p, v), accel(*jet_q, w)
        v = chord - (7.0 * a0 + 3.0 * a1 + d0) / 20.0 + d1 / 30.0
        w = v + 0.5 * (a0 + a1) + (d0 - d1) / 12.0
    return v, _seed_jacobian(*jet_p, v)


def _shooting_state(p: np.ndarray, q: np.ndarray, steps: int,
                    fresh: int, res: float) -> str:
    """Where a ``ChartManifold.log`` shooting stood when it failed; the
    Christoffel seed and finite-difference Jacobians count as fresh."""
    return (f" from p = {p.tolist()} to q = {q.tolist()} after "
            f"{steps} Newton steps ({fresh} with a fresh Jacobian), last "
            f"residual |exp_p(v) - q| = {res:.3e}")


class _Symbols:
    """The Christoffel symbols, their ``_christoffel_jet`` and the metric
    of one ``ChartManifold`` at the points that one call reaches, each
    taken once per point (by its exact coordinates) and kept until the
    call returns."""

    def __init__(self, man: "ChartManifold"):
        self._man = man
        self._taken: dict[tuple[str, bytes], object] = {}

    def _take(self, kind: str, x: np.ndarray, fn):
        key = (kind, x.tobytes())
        if key not in self._taken:
            self._taken[key] = fn(x)
        return self._taken[key]

    def gamma(self, x: np.ndarray) -> np.ndarray:
        return self._take("gamma", x, self._man.christoffel_fn)

    def jet(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._take("jet", x, lambda z: self._man._christoffel_jet(z, self.gamma(z)))

    def metric(self, x: np.ndarray) -> np.ndarray:
        return self._take("metric", x, self._man.metric_fn)


class ChartManifold(Manifold):
    """Manifold given by metric and Christoffel callbacks on a single
    chart.  Geodesics are shot with an adaptive RK integrator and
    logarithms are found by Newton shooting on the endpoint map, to
    ``shooting_tol`` in at most ``MAX_SHOOTING_ITERS`` Newton steps.
    ``christoffel_fn(x)`` returns Gamma[k, i, j] at x.  It is required:
    the jets difference the symbols once more, and symbols that are
    themselves differences of the metric are too noisy for that.  Its jets
    take no geodesic curve, transport or curvature, and it gives none.

    Curvature bounds are taken from the caller and are not validated.
    """

    shooting_tol = 1e-11

    def __init__(self, dim: int,
                 metric_fn: Callable[[np.ndarray], np.ndarray],
                 christoffel_fn: Callable[[np.ndarray], np.ndarray],
                 bounds: ManifoldBounds | None = None):
        self.dim = dim
        self.coord_dim = dim
        self.metric_fn = metric_fn
        self.christoffel_fn = christoffel_fn
        # Rows: the central-difference offsets of ``_christoffel_jet``,
        # +h e_l over -h e_l.
        self._fd_offsets = _FD_STEP * np.concatenate([np.eye(dim), -np.eye(dim)])
        self.bounds = bounds if bounds is not None else ManifoldBounds(
            0.0, 0.0, math.inf, math.inf)

    def _ip(self, p, a, b):
        return float(a @ self.metric_fn(p.coords) @ b)

    def metric_matrix(self, p):
        """``metric_fn`` row by row: one callback per point."""
        return _rows(self.metric_fn, p, shape=(self.dim, self.dim))

    # This right-hand side, the fused one of ``_hess_matrix`` and the
    # ``_jacobi_operator`` it calls run once per integrator stage on arrays
    # of a few entries, where ``np.dot`` takes about 1 us less than ``@``.
    def _geodesic_rhs(self, t, y, gams=None):
        """The geodesic equation of a stack of geodesics, y = [x_0, u_0,
        x_1, u_1, ...], each in one geodesic's arithmetic: one
        ``christoffel_fn`` call per geodesic, or its symbols from gams."""
        d, parts = self.dim, []
        for k in range(0, len(y), 2 * d):
            u = y[k + d:k + 2 * d]
            gam = self.christoffel_fn(y[k:k + d]) if gams is None else gams[k // (2 * d)]
            parts += [u, -np.dot(np.dot(gam, u), u)]
        return np.concatenate(parts)

    def _christoffel_jet(self, x: np.ndarray, gam: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Gamma(x) and its central differences with step ``_FD_STEP``,
        dgam[l] = d Gamma / d x_l: 2 dim + 1 ``christoffel_fn`` calls, or
        2 dim given gam = Gamma(x)."""
        near = np.array([self.christoffel_fn(z) for z in x + self._fd_offsets])
        if gam is None:
            gam = self.christoffel_fn(x)
        return gam, (near[:self.dim] - near[self.dim:]) / (2.0 * _FD_STEP)

    def _shots(self, p: np.ndarray, v: np.ndarray, step: float,
               gam: np.ndarray | None = None) -> tuple[np.ndarray, float]:
        """exp_p(v) in coordinates for the rows of p and v (K, dim),
        integrated over (0, 1) as one ODE system from a first step of
        ``step``, and the first step that the system accepted.  Given gam
        = Gamma(p) (K, dim, dim), the first right-hand side is taken from
        it."""
        y0 = np.concatenate([p, v], axis=1).ravel()
        f0 = None if gam is None else self._geodesic_rhs(0.0, y0, gam)
        sol = solve_ode(self._geodesic_rhs, (0.0, 1.0), y0, first_step=step, f0=f0)
        return sol.y[:, -1].reshape(-1, 2 * self.dim)[:, :self.dim], float(sol.t[1])

    def exp(self, p, v):
        n = self.norm(v)
        if n > self.bounds.injectivity_radius * (1.0 + 1e-9):
            raise GeodesicError("initial vector longer than the injectivity radius")
        return ManifoldPoint(self._shots(p.coords[None], v.components[None], 1.0)[0][0])

    def retract_array(self, p, v):
        """p + v - Gamma_p(v, v)/2, the second-order expansion of exp_p(v):
        one ``christoffel_fn`` call per row in place of one shot."""
        return _rows(lambda x, u: x + u - 0.5 * ((self.christoffel_fn(x) @ u) @ u), p, v,
                     shape=(self.dim,))

    def log(self, p, q):
        return TangentVector(p, self.log_array(p.coords, q.coords))

    def log_array(self, p, q, symbols: _Symbols | None = None):
        """log_p(q), each row shot cold to ``shooting_tol`` in the
        lockstep groups of ``_lockstep``, with one Christoffel jet per
        distinct point of the stack, p or q, from ``symbols`` (a new one
        by default): the rows share the seeds' jets."""
        p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        symbols = _Symbols(self) if symbols is None else symbols
        found = self._lockstep(p, "edge", lambda i: self._shoot_log(p[i], q[i], symbols))
        return np.array([f[0] for f in found]).reshape(p.shape)

    def _warm_log_array(self, p, q, state=None):
        """``_shoot_log`` on every row in the mean's one-shot mode, in the
        lockstep groups of ``_lockstep`` (a mean row's vertices): the
        logarithms, whether each is verified, and the state (p, logs,
        endpoint Jacobians, NaN where p = q, Gamma(p), first-shot
        residuals and the first steps that each row's last shot accepted)
        for the next iterate of the same mean.  Gamma is taken once per
        distinct base point, and the state carries it as the next
        iterate's Gamma(b).  From a state (b, v, jac, Gamma(b), res, step)
        a row shoots warm from v at b against jac, with res as its guard
        reference, and its first shot starts from step.  Without one it
        shoots cold from the one-end ``_third_order_seed``, against |q -
        p| (the residual of v = 0), from the whole interval.  Their
        first-shot residuals are the next iterate's guard references, and
        the two-point seed's far smaller ones would send every warm shot
        to full shooting.  A row whose first shot misses by at most half
        of its reference returns that shot's Newton step unverified."""
        p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        symbols = _Symbols(self)
        gams = _rows(symbols.gamma, p, shape=(self.dim,) * 3)

        def shooter(i):
            warm = (None, np.linalg.norm(q[i] - p[i]), 1.0) if state is None else (
                tuple(x[i] for x in state[:4]), state[4][i], state[5][i])
            return self._shoot_log(p[i], q[i], symbols, *warm)

        found = self._lockstep(p, "vertex", shooter)
        logs, jacs, res, exact, steps = (np.array(col).reshape(p.shape[:-1] + np.shape(col[0]))
                                         for col in zip(*found))
        return logs, exact, (p, logs, jacs, gams, res, steps)

    def _lockstep(self, p: np.ndarray, what: str, shooter) -> list:
        """The results of the ``_shoot_log`` generators shooter(i) for the
        indices i of the leading axes of p (..., dim), the base points, in
        ``np.ndindex`` order.  A group is one index of the first axis (one
        row if p has no leading axis), and its rows run in lockstep: each
        round integrates the shot that each unfinished row asks for, a
        Newton iterate or a finite-difference column, as one ODE system
        (``_shots``) from the smallest first step that they carry, and
        sends each row its end and the step the system accepted.  A
        row leaves when its generator returns.  The rows of a group share
        steps and scipy's error norm, so a row's bits are those of its
        group's one-row call, and a one-row group is one logarithm's
        shooting.  A GeodesicError names its row (the group) and the
        ``what`` within it whose shooting failed, or those whose shots the
        failed system held."""
        lead, out = p.shape[:-1], []
        idx = list(np.ndindex(lead))
        size = max(1, math.prod(lead[1:]))
        for g in range(0, len(idx), size):
            rows = idx[g:g + size]
            gens, asks, found = [shooter(i) for i in rows], {}, [None] * len(rows)
            sent = dict.fromkeys(range(len(rows)))
            try:
                while True:
                    for k in sent:
                        held = [k]              # the shootings a failure names
                        try:
                            asks[k] = gens[k].send(sent[k])
                        except StopIteration as stop:
                            found[k] = stop.value
                            asks.pop(k, None)
                    if not asks:
                        break
                    held = list(asks)
                    v, steps, gams = zip(*(asks[k] for k in held))
                    ends, step = self._shots(np.array([p[rows[k]] for k in held]),
                                             np.array(v), min(steps), np.array(gams))
                    sent = {k: (end, step) for k, end in zip(held, ends)}
            except GeodesicError as exc:
                if not lead:
                    raise
                where = f"row {rows[0][0]}" + ("" if len(lead) == 1 else f", {what} {held[0]}"
                                               if len(held) == 1 else f", {what}s {held}")
                raise GeodesicError(f"{where}: {exc}") from exc
            out += found
        return out

    def _shoot_log(self, p: np.ndarray, q: np.ndarray, symbols: _Symbols,
                   start=None, ref: float = 0.0, step: float = 1.0):
        """Newton shooting on v -> exp_p(v) - q, in coordinates, until its
        norm is below ``shooting_tol``, as a generator that ``_lockstep``
        drives: it yields each request (v, step, Gamma(p)), one shot v
        (dim,) from a first step of ``step``, a Newton iterate or one
        column of a finite-difference Jacobian, and is sent back its end
        and the first step that its system accepted.  It returns v, its
        estimate of the endpoint Jacobian of v -> exp_p(v) (NaN if p = q),
        the residual of the first shot (0 if p = q), whether v is verified
        (True unless ``ref`` cut the shooting short) and the last step it
        was sent (``step`` if p = q).  The symbols and jets come from
        ``symbols``, which a stack of logarithms shares, and every shot
        takes its first right-hand side from Gamma(p).

        The Christoffel symbols at p and their central differences give
        the third-order Taylor expansion of the endpoint map, exp_p(v) = p
        + v - Gamma(v, v)/2 - (dGamma[v](v, v) - 2 Gamma(Gamma(v, v),
        v))/6 + O(|v|^4), for 2 dim + 1 ``christoffel_fn`` calls and no
        shots.  A cold start shoots against the derivative of the
        expansion at its seed.  A logarithm that must be verified (``ref``
        = 0) seeds from the jets at both p and q (``_two_point_seed``),
        whose first shot misses by O(|q - p|^6).  The mean's one-shot
        logarithms seed from the inverse of the expansion at chord = q -
        p (``_third_order_seed``), which misses by O(|q - p|^4): that
        first-shot residual is the guard reference of the mean's next
        iterate (``_warm_log_array``).  A seed farther from the chord than
        the chord's own length is outside the expansions' range: the
        shooting then starts from the chord with a forward-difference
        Jacobian (one request per column), where the take-back rule
        below would end up after wasted shots.  With ``start`` = (b, w, J,
        Gamma(b)), a logarithm w toward q at a nearby base point b, its
        endpoint Jacobian J and the symbols at b, it shoots from w moved to
        p by the second-order expansion, w - (p - b) + (Gamma(p)(q - p, q
        - p) - Gamma(b)(q - b, q - b))/2, against J (if J is NaN, the
        second-order seed Jacobian I - Gamma(p)(v0, .)).  After every
        accepted step the Jacobian takes a rank-one (good) Broyden update
        from the step and the change of the endpoint.

        A step is accepted if it halves the residual (a step cut to t of
        the Newton step must cut it to 1 - t/2).  A failed step is taken
        back.  If it was the first step from the seed or the start, that
        start is bad and the shooting restarts from the chord with a
        finite-difference Jacobian.  Otherwise the Jacobian is recomputed
        by finite differences at the last accepted iterate, and a step
        that fails with such a Jacobian is halved.  The returned Jacobian,
        the last one after its Broyden update, carries on to the next warm
        start.  Warm and cold logarithms agree to the shooting tolerance.
        The first request carries ``step`` (by default the whole
        interval); every later one, Newton iterate or Jacobian column,
        the step it was last sent.

        A positive ``ref`` is the one-shot mode of a mean iterate (an
        inexact Newton step): if the first shot misses q by more than the
        tolerance but by at most ref / 2, the Newton step from it, v -
        J^-1 (exp_p(v) - q), is returned unverified, with J as it was.
        Any other first shot goes on as above."""
        chord = q - p
        if not np.any(chord):
            return np.zeros(self.dim), np.full((self.dim,) * 2, np.nan), 0.0, True, step
        gamma = symbols.gamma(p)
        fresh, first = 0, True
        if start is None:
            # On long chords near the rim of the disk the two-point sweeps
            # can overflow; such a seed is out of range, and NaN or inf
            # fails the test below.
            with np.errstate(over="ignore", invalid="ignore"):
                v, jac = (_two_point_seed(symbols.jet(p), symbols.jet(q), chord) if ref == 0.0
                          else _third_order_seed(*symbols.jet(p), chord))
                in_range = np.linalg.norm(v - chord) <= np.linalg.norm(chord)
            if not in_range:
                v, jac, first = chord, None, False
            else:
                fresh = 1
        else:
            b, v, jac, gamma_b = start
            v = (v - (p - b) + 0.5 * np.einsum("kij,i,j->k", gamma, chord, chord)
                 - 0.5 * np.einsum("kij,i,j->k", gamma_b, q - b, q - b))
            if np.isnan(jac).any():
                jac, fresh = np.eye(self.dim) - np.einsum("kij,i->kj", gamma, v), 1
        # The last accepted iterate (None before the first shot), its
        # endpoint and residual; whether the next step is the first from
        # the seed or start (``first``, set above); whether jac is by
        # finite differences there.
        base = base_end = None
        base_res = res = math.inf
        exact = False
        steps, t = 0, 1.0
        first_res = None
        for _ in range(MAX_SHOOTING_ITERS):
            end, step = yield v, step, gamma
            res = float(np.linalg.norm(end - q))
            if first_res is None:
                first_res = res
            done = res < self.shooting_tol
            if done or base is None or res <= (1.0 - 0.5 * t) * base_res:
                if base is not None:  # good Broyden update
                    moved = v - base
                    jac = jac + np.outer(end - base_end - jac @ moved, moved) / (moved @ moved)
                    first, exact = False, False
                if done:
                    return v, jac, first_res, True, step
                base, base_end, base_res, t = v, end, res, 1.0
            elif first:
                v, jac, base, first = chord, None, None, False
                continue
            elif exact:
                t *= 0.5
            else:
                jac = None
            if jac is None:
                h, cols = 1e-7 * max(1.0, float(np.linalg.norm(base))), []
                for dv in h * np.eye(self.dim):
                    shot, step = yield base + dv, step, gamma
                    cols.append((shot - base_end) / h)
                jac, fresh, exact = np.column_stack(cols), fresh + 1, True
            try:
                newton = -np.linalg.solve(jac, base_end - q)
            except np.linalg.LinAlgError as exc:
                raise GeodesicError(
                    "endpoint Jacobian is singular"
                    + _shooting_state(p, q, steps, fresh, base_res)) from exc
            v = base + t * newton
            steps += 1
            if steps == 1 and first_res <= 0.5 * ref:
                return v, jac, first_res, False, step
        raise GeodesicError("shooting for the logarithm did not converge"
                            + _shooting_state(p, q, steps, fresh, res))

    def hess_terms_array(self, p, q, logs, mask, symbols: _Symbols | None = None):
        """(p, q, mask, matrices): ``_hess_matrix`` on the mask, zero
        elsewhere.  Within a row, each vertex's ODE starts from the first
        step that the previous vertex's ODE accepted, as a fraction of its
        interval; each row starts from the whole interval, so that a row's
        matrices are those of its one-row call.  The Christoffel jet and
        the metric at a row's q are taken once, for the frames and the
        first right-hand sides of all the row's ODEs, from ``symbols`` (a
        new one by default).  A JacobiError names its row and vertex."""
        mats = np.zeros(logs.shape + (self.dim,))
        row, frac = -1, 1.0
        symbols = _Symbols(self) if symbols is None else symbols
        for r, i in zip(*np.nonzero(mask)):
            if r != row:
                row, frac = r, 1.0
            try:
                mats[r, i], frac = self._hess_matrix(q[r], logs[r, i], frac, symbols)
            except JacobiError as exc:
                raise JacobiError(f"row {r}, vertex {i}: {exc}") from exc
        return p, q, mask, mats

    def _second_terms(self, p, q):
        # The stencil reads p, q and the mask alone: no log_q(p).
        return p.coords[None, None], q.coords[None], np.ones((1, 1), bool)

    def second_deriv_array(self, terms, V):
        """grad^2 X_i(V_k, V_l) as (N, n+1, k, k, dim), zero off the mask,
        from p, q and the mask, the terms' first three entries, with one
        stencil per row and nonzero direction V_k, in coordinates.  At q
        +- s V_k / |V_k| for s = ``_STENCIL_STEP`` and s / 2, the Hessian
        matrices of every vertex (from cold logarithms) give d_{V_k} H_i by
        Richardson-extrapolated central differences and H_i(q) by
        extrapolated means; the symbols at q then give nabla_{V_k} H_i =
        d_{V_k} H_i + [Gamma(V_k), H_i], Gamma(V)^a_b = Gamma^a_cb V^c.
        The logarithms, the Hessians and the symbols at q share one
        ``_Symbols``, so the call takes each point's symbols once."""
        p, q, mask = terms[:3]
        scale = self.norm_array(V, q[:, None])                       # (N, k)
        pairs = np.nonzero(scale)
        if not pairs[0].size:
            return np.zeros(mask.shape + (V.shape[1],) * 2 + (self.dim,))
        # Stencil points by (pair, sign, step).
        step, u = _STENCIL_STEP, V[pairs] / scale[pairs][:, None]
        offsets = step * np.array([1.0, 0.5, -1.0, -0.5])
        x = (q[pairs[0]][:, None] + offsets[:, None] * u[:, None]).reshape(-1, self.dim)
        verts, keep = p[pairs[0]].repeat(4, axis=0), mask[pairs[0]].repeat(4, axis=0)
        logs, symbols = np.zeros(verts.shape), _Symbols(self)
        logs[keep] = self.log_array(np.broadcast_to(x[:, None], verts.shape)[keep],
                                    verts[keep], symbols)
        mats = self.hess_terms_array(verts, x, logs, keep, symbols)[3]
        # The central differences D(s) and D(s / 2) extrapolate to
        # (4 D(s / 2) - D(s)) / 3, and so do the means.
        mats = mats.reshape((-1, 2, 2) + mats.shape[1:])
        diff, total = mats[:, 0] - mats[:, 1], mats[:, 0] + mats[:, 1]
        hess = (4.0 * total[:, 1] - total[:, 0]) / 6.0
        gam = np.einsum("pacb,pc->pab", np.array([symbols.gamma(q[r]) for r in pairs[0]]),
                        V[pairs])[:, None]
        deriv = np.zeros(scale.shape + diff.shape[2:])               # (N, k, n+1, D, D)
        deriv[pairs] = (scale[pairs][:, None, None, None]
                        * (8.0 * diff[:, 1] - diff[:, 0]) / (6.0 * step)
                        + gam @ hess - hess @ gam)
        grad = np.einsum("rkiab,rlb->rikla", deriv, V)
        return np.where(mask[:, :, None, None, None],
                        0.5 * (grad + np.swapaxes(grad, 2, 3)), 0.0)

    def _hess_matrix(self, q: np.ndarray, v: np.ndarray, frac: float = 1.0,
                     symbols: _Symbols | None = None) -> tuple[np.ndarray, float]:
        """The coordinate matrix at q of the Hessian of half the squared
        distance to p, from v = log_q(p): the identity if v = 0 (the
        closed forms' limit at tau = 0).  Else one fused ODE from q along
        the geodesic to p, with unit speed u and sigma in [0, tau], tau =
        |v|: the geodesic x' = u, u' = -Gamma(u, u); the parallel frame
        F_b' = -Gamma(u, F_b), from ``_frame_at(g_q, u0)``; and the Jacobi
        fields Y'' = -R Y in that frame, R_ab = g(F_a, R(F_b, u)u), with
        Y(0) = [I | 0] and Y'(0) = [0 | I].  With C, S the two blocks of
        Y(tau), the Jacobi field J(0) = V, J(tau) = 0 has J'(0) = -S^-1 C
        V, and the Hessian is -tau J'(0): the map is tau S^-1 C in q's
        frame.  The ODE's first step is frac tau; the returned fraction is
        the first step it accepted over tau (``frac`` if v = 0).  The
        jet and metric at q, which give the frame and the ODE's first
        right-hand side, come from ``symbols`` (a new one by default).  A
        JacobiError is raised at a conjugate point: tau beyond pi /
        sqrt(C0), or S singular."""
        if not np.any(v):
            return np.eye(self.dim), frac
        if symbols is None:
            symbols = _Symbols(self)
        g_q = symbols.metric(q)
        tau = math.sqrt(max(float(v @ g_q @ v), 0.0))
        _check_length(self, tau)
        d = m = self.dim
        u0 = v / tau
        F0 = _frame_at(g_q, u0)
        # y = [x, u, F, Y, Y'], with Y and Y' (m, 2m) each.
        frame = slice(2 * d, 2 * d + m * d)
        fields = slice(frame.stop, frame.stop + 2 * m * m)
        speeds = slice(fields.stop, None)

        def field(y, gam, dgam, g):
            """The right-hand side at y, given the jet and metric at x."""
            u = y[d:2 * d]
            F = y[frame].reshape(m, d)
            ngu = -np.dot(gam, u)                       # w -> -Gamma(u, w)
            R = np.dot(np.dot(np.dot(F, g), _jacobi_operator(gam, dgam, u)), F.T)
            return np.concatenate([u, np.dot(ngu, u), np.dot(F, ngu.T).ravel(), y[speeds],
                                   np.dot(-R, y[fields].reshape(m, 2 * m)).ravel()])

        def rhs(s, y):
            x = y[:d]
            return field(y, *self._christoffel_jet(x), self.metric_fn(x))

        # Y(0) = [I | 0] over Y'(0) = [0 | I] is the identity of size 2m.
        y0 = np.concatenate([q, u0, F0.ravel(), np.eye(2 * m).ravel()])
        sol = solve_ode(rhs, (0.0, tau), y0, first_step=frac * tau,
                        f0=field(y0, *symbols.jet(q), g_q))
        Y = sol.y[fields, -1].reshape(m, 2 * m)
        C, S = Y[:, :m], Y[:, m:]
        if np.linalg.cond(S) > 1e12:
            raise JacobiError("shooting matrix is singular (conjugate point)")
        return F0.T @ (tau * np.linalg.solve(S, C)) @ F0 @ g_q, float(sol.t[1]) / tau

    def tangent_frame_array(self, p):
        """The inverse transposed Cholesky factor of the metric, whose
        columns are g-orthonormal."""
        return _rows(lambda x: np.linalg.solve(np.linalg.cholesky(self.metric_fn(x)),
                                               np.eye(self.dim)).T, p, shape=(self.dim, self.dim))
