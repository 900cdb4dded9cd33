"""Riemannian manifold models.

Provides exact closed-form implementations for Euclidean space, round
spheres and hyperbolic space (hyperboloid model), plus a generic
chart-based manifold whose geodesics, transport and curvature come from
numerically integrated ODEs.  The closed-form spaces double as oracles
for the generic machinery.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import BasePointError, GeodesicError, JacobiError
from .integrate import solve_ode

_BASE_TOL = 1e-8
_ANTIPODE_TOL = 1e-8


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


def _require_same_base(v: TangentVector, w: TangentVector):
    a, b = v.base.coords, w.base.coords
    scale = max(1.0, float(np.max(np.abs(a))))
    if not np.allclose(a, b, rtol=0.0, atol=_BASE_TOL * scale):
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
    initial_velocity: TangentVector
    length: float
    _flow: Callable[[float], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def point(self, t: float) -> ManifoldPoint:
        coords, _ = self._flow(float(t))
        return ManifoldPoint(coords)

    def velocity(self, t: float) -> TangentVector:
        coords, vel = self._flow(float(t))
        return TangentVector(ManifoldPoint(coords), vel)


# Below u = sqrt(|K|) tau = _SERIES_U the closed forms of the stretch
# factor cancel badly, and Taylor series replace them.
_SERIES_U = 0.05


def _ucotu_series(u2):
    """u cot(u) to O(u^8), from u^2; on floats or arrays."""
    return 1.0 - u2 / 3.0 - u2 * u2 / 45.0 - 2.0 * u2 ** 3 / 945.0


def _stretch_closed(u, s, c):
    """(f, 1 - f) for f = u c / s, with (s, c) = (sin u, cos u) when K > 0
    and (sinh u, cosh u) when K < 0; on floats or arrays."""
    return u * c / s, (s - u * c) / s


def _stretch_coeffs(K: float, tau: float) -> tuple[float, float, float]:
    """Radial stretch factor of the squared-distance Hessian.

    Returns (f, df/dtau, 1 - f) where f multiplies the component
    orthogonal to the connecting geodesic: f = u*cot(u) for curvature
    K > 0 and f = u*coth(u) for K < 0, with u = sqrt(|K|)*tau.
    ``1 - f`` is returned separately because it cancels badly for small u.
    """
    if K == 0.0 or tau == 0.0:
        return 1.0, 0.0, 0.0
    rk = math.sqrt(abs(K))
    u = rk * tau
    if u < _SERIES_U:
        u2 = u * u
        if K > 0:
            f = _ucotu_series(u2)
            fp_du = -2.0 * u / 3.0 - 4.0 * u ** 3 / 45.0 - 4.0 * u ** 5 / 315.0
        else:
            f = 1.0 + u2 / 3.0 - u2 * u2 / 45.0 + 2.0 * u2 ** 3 / 945.0
            fp_du = 2.0 * u / 3.0 - 4.0 * u ** 3 / 45.0 + 4.0 * u ** 5 / 315.0
        return f, rk * fp_du, 1.0 - f
    if K > 0:
        s, c = math.sin(u), math.cos(u)
    else:
        s, c = math.sinh(u), math.cosh(u)
    f, one_minus_f = _stretch_closed(u, s, c)
    return f, rk * (c / s - u / (s * s)), one_minus_f


def _stretch_array(K: float, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, 1 - f) of ``_stretch_coeffs`` for K > 0 on an array of
    distances."""
    u = math.sqrt(K) * tau
    small = u < _SERIES_U
    f_series = _ucotu_series(u * u)
    us = np.where(small, 1.0, u)  # keeps the closed form finite where unused
    f, one_minus_f = _stretch_closed(us, np.sin(us), np.cos(us))
    return np.where(small, f_series, f), np.where(small, 1.0 - f_series, one_minus_f)


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

    # -- point / vector construction ------------------------------------

    def point(self, coords) -> ManifoldPoint:
        p = ManifoldPoint(np.asarray(coords, dtype=float))
        self._validate_point(p)
        return p

    def tangent(self, p: ManifoldPoint, components) -> TangentVector:
        v = TangentVector(p, np.asarray(components, dtype=float))
        self._validate_tangent(v)
        return v

    def _validate_point(self, p: ManifoldPoint):
        if p.coords.shape != (self.coord_dim,):
            raise ValueError(
                f"expected {self.coord_dim} coordinates, got {p.coords.shape}"
            )

    def _validate_tangent(self, v: TangentVector):
        if v.components.shape != (self.coord_dim,):
            raise ValueError("tangent component dimension mismatch")

    # -- raw inner product on components ---------------------------------

    @abstractmethod
    def _ip(self, p: ManifoldPoint, a: np.ndarray, b: np.ndarray) -> float:
        """Metric applied to raw component arrays at p."""

    # -- metric operations ------------------------------------------------

    def metric(self, p: ManifoldPoint, v: TangentVector, w: TangentVector) -> float:
        _require_same_base(v, w)
        scale = max(1.0, float(np.max(np.abs(p.coords))))
        if not np.allclose(p.coords, v.base.coords, rtol=0.0, atol=_BASE_TOL * scale):
            raise BasePointError("vectors are not based at the evaluation point")
        return self._ip(p, v.components, w.components)

    def norm(self, v: TangentVector) -> float:
        return math.sqrt(max(self._ip(v.base, v.components, v.components), 0.0))

    @abstractmethod
    def exp(self, p: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        ...

    @abstractmethod
    def log(self, p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
        ...

    def dist(self, p: ManifoldPoint, q: ManifoldPoint) -> float:
        return self.norm(self.log(p, q))

    @abstractmethod
    def geodesic_from(self, p: ManifoldPoint, v: TangentVector,
                      length: float | None = None) -> Geodesic:
        """Arclength geodesic starting at p in direction v.

        ``length`` defaults to the norm of v.
        """

    def geodesic_between(self, p: ManifoldPoint, q: ManifoldPoint) -> Geodesic:
        return self.geodesic_from(p, self.log(p, q))

    @abstractmethod
    def parallel_transport(self, gamma: Geodesic, t0: float, t1: float,
                           v: TangentVector) -> TangentVector:
        ...

    def frame_field(self, gamma: Geodesic,
                    basis0: list[TangentVector]) -> Callable[[float], np.ndarray]:
        """Parallel frame along gamma; returns t -> (len(basis0), coord_dim)."""
        def frame(t: float) -> np.ndarray:
            return np.array([
                self.parallel_transport(gamma, 0.0, t, b).components
                for b in basis0
            ])
        return frame

    @abstractmethod
    def tangent_basis(self, p: ManifoldPoint) -> list[TangentVector]:
        """Deterministic orthonormal basis of the tangent space at p."""

    def curvature_rt(self, p: ManifoldPoint, T: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
        """Components of R(w, T)T at p (the Jacobi operator applied to w)."""
        K = self.constant_sectional_curvature
        if K is None:
            raise NotImplementedError
        tt = self._ip(p, T, T)
        wt = self._ip(p, w, T)
        return K * (tt * w - wt * T)

    # -- derivatives of the squared-distance gradient ---------------------

    def hess_half_dist_sq(self, p: ManifoldPoint, q: ManifoldPoint,
                          V: TangentVector) -> TangentVector:
        """Covariant derivative at q, in direction V, of half the gradient
        of squared distance to p.  Equals the identity plus an O(C0 tau^2)
        curvature correction."""
        K = self.constant_sectional_curvature
        if K is None:
            return self._hess_via_jacobi(p, q, V)
        tau = self.dist(p, q)
        if tau == 0.0:
            return TangentVector(q, V.components.copy())
        if K > 0 and math.sqrt(K) * tau >= math.pi:
            raise JacobiError("distance reaches the conjugate point")
        f, _, _ = _stretch_coeffs(K, tau)
        y = -self.log(q, p).components / tau  # unit radial, away from p
        a = self._ip(q, V.components, y)
        perp = V.components - a * y
        return TangentVector(q, a * y + f * perp)

    def second_deriv_X(self, p: ManifoldPoint, q: ManifoldPoint,
                       V: TangentVector, W: TangentVector) -> TangentVector:
        """Symmetrized second covariant derivative of the squared-distance
        gradient field, obtained by polarizing the quadratic form."""
        K = self.constant_sectional_curvature
        if K is not None:
            return self._second_deriv_closed_form(K, p, q, V, W)
        qv = self._second_quadratic(p, q, V + W)
        qa = self._second_quadratic(p, q, V)
        qb = self._second_quadratic(p, q, W)
        return 0.5 * (qv - qa - qb)

    def _second_deriv_closed_form(self, K, p, q, V, W) -> TangentVector:
        tau = self.dist(p, q)
        if tau == 0.0 or K == 0.0:
            return TangentVector(q, np.zeros(self.coord_dim))
        f, fp, one_minus_f = _stretch_coeffs(K, tau)
        c = one_minus_f * f / tau
        y = -self.log(q, p).components / tau
        av = self._ip(q, V.components, y)
        aw = self._ip(q, W.components, y)
        vperp = V.components - av * y
        wperp = W.components - aw * y
        sym = 0.5 * (av * wperp + aw * vperp)
        out = (fp + c) * sym + c * self._ip(q, vperp, wperp) * y
        return TangentVector(q, out)

    def _second_quadratic(self, p: ManifoldPoint, q: ManifoldPoint,
                          U: TangentVector, step: float = 1e-4) -> TangentVector:
        """Quadratic form U -> sym(grad^2)(U,U) by Richardson-extrapolated
        central differences of hess_half_dist_sq along the geodesic through
        q with direction U."""
        scale = self.norm(U)
        if scale == 0.0:
            return TangentVector(q, np.zeros(self.coord_dim))
        u_hat = U * (1.0 / scale)
        fwd = self.geodesic_from(q, u_hat, length=2.0 * step)
        bwd = self.geodesic_from(q, -u_hat, length=2.0 * step)

        def central(s: float) -> np.ndarray:
            hp = self.hess_half_dist_sq(p, fwd.point(s), fwd.velocity(s))
            hm = self.hess_half_dist_sq(p, bwd.point(s), -1.0 * bwd.velocity(s))
            hp0 = self.parallel_transport(fwd, s, 0.0, hp)
            hm0 = self.parallel_transport(bwd, s, 0.0, hm)
            return (hp0.components - hm0.components) / (2.0 * s)

        d1 = central(step)
        d2 = central(0.5 * step)
        return TangentVector(q, (scale ** 2) * (4.0 * d2 - d1) / 3.0)

    def _hess_via_jacobi(self, p, q, V) -> TangentVector:
        from . import jacobi  # deferred: jacobi depends on this module

        gamma = self.geodesic_between(p, q)
        bvp = jacobi.JacobiBVP(gamma, V)
        jdot_tau, _ = jacobi.solve_bvp(bvp)
        return gamma.length * jdot_tau


class EuclideanSpace(Manifold):
    """Flat R^n with the standard inner product."""

    def __init__(self, dim: int):
        self.dim = dim
        self.coord_dim = dim
        self.bounds = ManifoldBounds(0.0, 0.0, math.inf, math.inf)
        self.constant_sectional_curvature = 0.0

    def _ip(self, p, a, b):
        return float(np.dot(a, b))

    def exp(self, p, v):
        return ManifoldPoint(p.coords + v.components)

    def log(self, p, q):
        return TangentVector(p, q.coords - p.coords)

    def geodesic_from(self, p, v, length=None):
        n = self.norm(v)
        if n == 0.0:
            raise GeodesicError("zero initial velocity")
        u = v.components / n
        L = n if length is None else float(length)
        p0 = p.coords.copy()

        def flow(t):
            return p0 + t * u, u

        return Geodesic(self, p, TangentVector(p, u), L, flow)

    def parallel_transport(self, gamma, t0, t1, v):
        return TangentVector(gamma.point(t1), v.components.copy())

    def tangent_basis(self, p):
        return [TangentVector(p, e) for e in np.eye(self.dim)]

    def hess_half_dist_sq(self, p, q, V):
        return TangentVector(q, V.components.copy())

    def second_deriv_X(self, p, q, V, W):
        return TangentVector(q, np.zeros(self.dim))


class Sphere(Manifold):
    """Round sphere of given radius, in ambient coordinates."""

    def __init__(self, dim: int = 2, radius: float = 1.0):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = dim
        self.coord_dim = dim + 1
        self.radius = float(radius)
        self.bounds = ManifoldBounds(
            C0=1.0 / radius ** 2, C1=0.0,
            injectivity_radius=math.pi * radius,
            convexity_radius=math.pi * radius / 2.0,
        )
        self.constant_sectional_curvature = 1.0 / radius ** 2

    def _validate_point(self, p):
        super()._validate_point(p)
        r = float(np.linalg.norm(p.coords))
        if abs(r - self.radius) > 1e-12 * max(1.0, self.radius):
            raise ValueError(f"point norm {r} is off the radius-{self.radius} sphere")

    def _validate_tangent(self, v):
        super()._validate_tangent(v)
        ip = float(np.dot(v.base.coords, v.components))
        scale = max(1.0, self.radius * float(np.linalg.norm(v.components)))
        if abs(ip) > 1e-10 * scale:
            raise ValueError("vector is not tangent to the sphere")

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

    def dist(self, p, q):
        chord = float(np.linalg.norm(q.coords - p.coords))
        return 2.0 * self.radius * math.asin(min(chord / (2.0 * self.radius), 1.0))

    # -- array kernels on (..., coord_dim) coordinate stacks ----------------
    # The same formulas as log/exp/dist, broadcast over leading axes, for
    # callers that hold many points at once.

    def dist_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        chord = np.linalg.norm(q - p, axis=-1)
        return 2.0 * self.radius * np.arcsin(np.minimum(chord / (2.0 * self.radius), 1.0))

    def log_array(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        r = self.radius
        chord = np.linalg.norm(q - p, axis=-1)
        theta = 2.0 * np.arcsin(np.minimum(chord / (2.0 * r), 1.0))
        w = q - (np.sum(q * p, axis=-1, keepdims=True) / r ** 2) * p
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        if np.any(_near_antipode(theta, nw[..., 0], r)):
            raise GeodesicError("antipodal points: logarithm not unique")
        scale = np.divide(r * theta[..., None], nw, out=np.zeros_like(nw),
                          where=nw != 0.0)
        return scale * w

    def exp_array(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        t = np.linalg.norm(v, axis=-1, keepdims=True)
        if np.any(t > self.bounds.injectivity_radius * (1.0 + 1e-9)):
            raise GeodesicError("initial vector longer than the injectivity radius")
        u = t / self.radius
        c = np.cos(u) * p + np.sinc(u / math.pi) * v
        c *= self.radius / np.linalg.norm(c, axis=-1, keepdims=True)
        return np.where(t == 0.0, p, c)

    def geodesic_from(self, p, v, length=None):
        n = self.norm(v)
        if n == 0.0:
            raise GeodesicError("zero initial velocity")
        u = v.components / n
        L = n if length is None else float(length)
        p0 = p.coords.copy()
        r = self.radius

        def flow(t):
            a = t / r
            pos = math.cos(a) * p0 + r * math.sin(a) * u
            vel = -math.sin(a) / r * p0 + math.cos(a) * u
            return pos, vel

        return Geodesic(self, p, TangentVector(p, u), L, flow)

    def parallel_transport(self, gamma, t0, t1, v):
        T0 = gamma.velocity(t0)
        _require_same_base(v, T0)
        T1c = gamma.velocity(t1).components
        a = float(np.dot(v.components, T0.components))
        w = v.components - a * T0.components
        return TangentVector(gamma.point(t1), w + a * T1c)

    def tangent_basis(self, p):
        m = np.concatenate([p.coords[:, None] / self.radius,
                            np.eye(self.coord_dim)], axis=1)
        qmat, _ = np.linalg.qr(m)
        return [TangentVector(p, qmat[:, k].copy()) for k in range(1, self.dim + 1)]


def _near_antipode(theta, nw, r):
    """Whether a sphere logarithm with angle theta and tangential part of
    norm nw = r sin(theta) is within _ANTIPODE_TOL of the antipode.  Near
    the antipode the chord's arcsine loses half the digits, so theta alone
    can read about 3e-8 short of pi; nw keeps full precision there."""
    return (theta >= math.pi - _ANTIPODE_TOL) | (
        (theta > math.pi / 2) & (nw <= _ANTIPODE_TOL * r))


def _minkowski(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.dot(a[:-1], b[:-1]) - a[-1] * b[-1])


class HyperbolicSpace(Manifold):
    """Hyperbolic space of constant curvature -kappa (hyperboloid model).

    Points live on the upper sheet <x, x>_M = -1/kappa of the Minkowski
    quadric, with the Minkowski form diag(1, ..., 1, -1).
    """

    def __init__(self, dim: int = 2, curvature: float = 1.0):
        if curvature <= 0:
            raise ValueError("curvature parameter must be positive (space has -kappa)")
        self.dim = dim
        self.coord_dim = dim + 1
        self.kappa = float(curvature)
        self.radius = 1.0 / math.sqrt(curvature)
        self.bounds = ManifoldBounds(
            C0=curvature, C1=0.0,
            injectivity_radius=math.inf, convexity_radius=math.inf,
        )
        self.constant_sectional_curvature = -curvature

    def _validate_point(self, p):
        super()._validate_point(p)
        m = _minkowski(p.coords, p.coords)
        if abs(m + self.radius ** 2) > 1e-12 * max(1.0, self.radius ** 2):
            raise ValueError("point is off the hyperboloid sheet")
        if p.coords[-1] <= 0:
            raise ValueError("point is on the lower sheet")

    def _validate_tangent(self, v):
        super()._validate_tangent(v)
        ip = _minkowski(v.base.coords, v.components)
        scale = max(1.0, self.radius * float(np.linalg.norm(v.components)))
        if abs(ip) > 1e-10 * scale:
            raise ValueError("vector is not tangent to the hyperboloid")

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

    def dist(self, p, q):
        d = q.coords - p.coords
        d2 = max(_minkowski(d, d), 0.0)
        return 2.0 * self.radius * math.asinh(math.sqrt(d2) / (2.0 * self.radius))

    def geodesic_from(self, p, v, length=None):
        n = self.norm(v)
        if n == 0.0:
            raise GeodesicError("zero initial velocity")
        u = v.components / n
        L = n if length is None else float(length)
        p0 = p.coords.copy()
        r = self.radius

        def flow(t):
            a = t / r
            pos = math.cosh(a) * p0 + r * math.sinh(a) * u
            vel = math.sinh(a) / r * p0 + math.cosh(a) * u
            return pos, vel

        return Geodesic(self, p, TangentVector(p, u), L, flow)

    def parallel_transport(self, gamma, t0, t1, v):
        T0 = gamma.velocity(t0)
        _require_same_base(v, T0)
        T1c = gamma.velocity(t1).components
        a = _minkowski(v.components, T0.components)
        w = v.components - a * T0.components
        return TangentVector(gamma.point(t1), w + a * T1c)

    def tangent_basis(self, p):
        pp = _minkowski(p.coords, p.coords)
        basis: list[np.ndarray] = []
        for e in np.eye(self.coord_dim):
            v = e - (_minkowski(e, p.coords) / pp) * p.coords
            for b in basis:
                v = v - _minkowski(v, b) * b
            n2 = _minkowski(v, v)
            if n2 > 1e-14:
                basis.append(v / math.sqrt(n2))
            if len(basis) == self.dim:
                break
        return [TangentVector(p, b) for b in basis]


def christoffel_from_metric(metric_fn: Callable[[np.ndarray], np.ndarray],
                            step: float = 1e-5) -> Callable[[np.ndarray], np.ndarray]:
    """Finite-difference Christoffel symbols Gamma[k, i, j] from a metric
    callback, using central differences with the given step."""

    def christoffel(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = x.size
        dg = np.empty((d, d, d))  # dg[l] = d g / d x_l
        for l in range(d):
            e = np.zeros(d)
            e[l] = step
            dg[l] = (metric_fn(x + e) - metric_fn(x - e)) / (2.0 * step)
        ginv = np.linalg.inv(metric_fn(x))
        # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
        term = np.empty((d, d, d))
        for i in range(d):
            for j in range(d):
                term[:, i, j] = dg[i, j, :] + dg[j, i, :] - dg[:, i, j]
        return 0.5 * np.einsum("kl,lij->kij", ginv, term)

    return christoffel


class ChartManifold(Manifold):
    """Manifold given by a metric (and optionally Christoffel) callback on
    a single chart.  Geodesics are shot with an adaptive RK integrator and
    logarithms are found by Newton shooting on the endpoint map.

    Curvature bounds are taken from the caller and are not validated.
    """

    def __init__(self, dim: int,
                 metric_fn: Callable[[np.ndarray], np.ndarray],
                 christoffel_fn: Callable[[np.ndarray], np.ndarray] | None = None,
                 bounds: ManifoldBounds | None = None,
                 fd_step: float = 1e-5,
                 shooting_tol: float = 1e-11,
                 max_shooting_iters: int = 50):
        self.dim = dim
        self.coord_dim = dim
        self.metric_fn = metric_fn
        self.christoffel_fn = (christoffel_fn if christoffel_fn is not None
                               else christoffel_from_metric(metric_fn, fd_step))
        self.bounds = bounds if bounds is not None else ManifoldBounds(
            0.0, 0.0, math.inf, math.inf)
        self.fd_step = fd_step
        self.shooting_tol = shooting_tol
        self.max_shooting_iters = max_shooting_iters
        self.constant_sectional_curvature = None

    def _ip(self, p, a, b):
        return float(a @ self.metric_fn(p.coords) @ b)

    def _geodesic_rhs(self, t, y):
        d = self.dim
        x, u = y[:d], y[d:]
        gamma = self.christoffel_fn(x)
        acc = -np.einsum("kij,i,j->k", gamma, u, u)
        return np.concatenate([u, acc])

    def _exp_coords(self, p_coords: np.ndarray, v_comps: np.ndarray) -> np.ndarray:
        if not np.any(v_comps):
            return p_coords.copy()
        y0 = np.concatenate([p_coords, v_comps])
        sol = solve_ode(self._geodesic_rhs, (0.0, 1.0), y0)
        return sol.y[: self.dim, -1]

    def exp(self, p, v):
        n = self.norm(v)
        if n > self.bounds.injectivity_radius * (1.0 + 1e-9):
            raise GeodesicError("initial vector longer than the injectivity radius")
        return ManifoldPoint(self._exp_coords(p.coords, v.components))

    def log(self, p, q):
        v = q.coords - p.coords
        if not np.any(v):
            return TangentVector(p, np.zeros(self.dim))
        target = q.coords
        for _ in range(self.max_shooting_iters):
            err = self._exp_coords(p.coords, v) - target
            if float(np.linalg.norm(err)) < self.shooting_tol:
                return TangentVector(p, v)
            h = 1e-7 * max(1.0, float(np.linalg.norm(v)))
            jac = np.empty((self.dim, self.dim))
            base = err + target
            for k in range(self.dim):
                dv = np.zeros(self.dim)
                dv[k] = h
                jac[:, k] = (self._exp_coords(p.coords, v + dv) - base) / h
            try:
                v = v - np.linalg.solve(jac, err)
            except np.linalg.LinAlgError as exc:
                raise GeodesicError("endpoint Jacobian is singular") from exc
        raise GeodesicError("shooting for the logarithm did not converge")

    def geodesic_from(self, p, v, length=None):
        n = self.norm(v)
        if n == 0.0:
            raise GeodesicError("zero initial velocity")
        u = v.components / n
        L = n if length is None else float(length)
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
        x = p.coords
        d = self.dim
        gam = self.christoffel_fn(x)
        dgam = np.empty((d, d, d, d))  # dgam[l] = d Gamma / d x_l
        for l in range(d):
            e = np.zeros(d)
            e[l] = self.fd_step
            dgam[l] = (self.christoffel_fn(x + e)
                       - self.christoffel_fn(x - e)) / (2.0 * self.fd_step)
        # (R(u,v)w)^a with u = w_arg, v = T, w = T
        u, vv, ww = w, T, T
        t1 = np.einsum("mans,m,n,s->a", dgam, u, vv, ww)
        t2 = np.einsum("mans,m,n,s->a", dgam, vv, u, ww)
        t3 = np.einsum("aml,lns,m,n,s->a", gam, gam, u, vv, ww)
        t4 = np.einsum("aml,lns,m,n,s->a", gam, gam, vv, u, ww)
        return t1 - t2 + t3 - t4

    def tangent_basis(self, p):
        g = self.metric_fn(p.coords)
        L = np.linalg.cholesky(g)
        B = np.linalg.solve(L, np.eye(self.dim)).T  # columns are g-orthonormal
        return [TangentVector(p, B[:, k].copy()) for k in range(self.dim)]
