"""Jacobi fields with two fixed values along a geodesic.

Solves J'' + R(J, T)T = 0 with J(0) = 0 and J(tau) = V by shooting in a
parallel orthonormal frame, where the equation becomes a linear ODE with
matrix-valued coefficient.  Also provides a checker for the two-point
ODE bound that controls the second variation (the s-derivative of the
boundary derivative under a geodesic variation of the endpoint).

No model computes its distance Hessian through this module:
``ChartManifold`` integrates its own fused Jacobi ODE from the other end
of the geodesic, and the closed-form spaces need none.  ``JacobiShooting``
and ``solve_bvp`` are the independent check of both.  They read the
model's ``geodesic_from``, ``parallel_transport`` and, off constant
curvature, ``curvature_rt``: the closed forms give them, a
``ChartManifold`` does not, and the tests' charts integrate them as ODEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import JacobiError
from .integrate import solve_ode
from .manifolds import (Geodesic, ManifoldPoint, TangentVector, _check_length,
                        _gram_schmidt, _require_same_base)


@dataclass(frozen=True, eq=False)
class JacobiBVP:
    """Boundary data: a geodesic from p to q and the field value at q."""

    geodesic: Geodesic
    end_value: TangentVector

    def __post_init__(self):
        _check_length(self.geodesic.manifold, self.geodesic.length)
        _require_same_base(self.end_value,
                           self.geodesic.velocity(self.geodesic.length))


@dataclass(frozen=True, eq=False)
class FrameField:
    """Parallel orthonormal frame along a geodesic, first vector tangent."""

    geodesic: Geodesic
    base_frame: np.ndarray                      # (m, coord_dim) at t = 0
    _eval: Callable[[float], np.ndarray] = field(repr=False)

    def __call__(self, t: float) -> np.ndarray:
        return self._eval(t)


def parallel_frame(gamma: Geodesic) -> FrameField:
    man = gamma.manifold
    p = gamma.start
    t0 = gamma.velocity(0.0)
    # Orthonormalize {T, tangent basis...} so the frame starts with the
    # geodesic tangent; curvature matrices then have a fixed zero row.
    candidates = (c.components for c in [t0] + man.tangent_basis(p))
    base = np.array(_gram_schmidt(lambda a, b: man._ip(p, a, b), candidates,
                                  man.dim))
    vecs0 = [TangentVector(p, b) for b in base]
    evaluator = man.frame_field(gamma, vecs0)
    return FrameField(gamma, base, evaluator)


def _frame_curvature(gamma: Geodesic, frame: FrameField) -> Callable[[float], np.ndarray]:
    """t -> matrix of the Jacobi operator w -> R(w, T)T in the frame."""
    man = gamma.manifold
    m = man.dim
    K = man.constant_sectional_curvature
    if K is not None:
        # Parallel frame with e_0 = T: the operator is K on the normal
        # space and 0 on the tangent line, for every t.
        R = K * np.eye(m)
        R[0, 0] = 0.0
        return lambda t: R

    def R_of_t(t: float) -> np.ndarray:
        F = frame(t)
        x, Tc = gamma._flow(float(t))
        pt = ManifoldPoint(x)
        rv = man.curvature_rt(pt, Tc, F)        # row b is R(F[b], T)T
        return np.array([[man._ip(pt, rv[b], F[a]) for b in range(m)] for a in range(m)])

    return R_of_t


class JacobiShooting:
    """The part of the boundary value problems J(0) = 0, J(tau) = V along
    one geodesic that does not depend on V: the parallel frame and the
    shooting matrices Phi(tau), Phi'(tau) of the fields with J(0) = 0 and
    J'(0) running through the frame.  ``solve(V)`` then costs one small
    linear solve, so every direction at the same geodesic shares one frame
    ODE and one shooting ODE."""

    def __init__(self, gamma: Geodesic):
        _check_length(gamma.manifold, gamma.length)
        man = gamma.manifold
        m = man.dim
        tau = gamma.length
        frame = parallel_frame(gamma)
        R_of_t = _frame_curvature(gamma, frame)

        def rhs(t, y):
            Y = y[: m * m].reshape(m, m)
            Yd = y[m * m:]
            acc = -(R_of_t(t) @ Y).ravel()
            return np.concatenate([Yd, acc])

        y0 = np.concatenate([np.zeros(m * m), np.eye(m).ravel()])
        sol = solve_ode(rhs, (0.0, tau), y0)
        self.phi = sol.y[: m * m, -1].reshape(m, m)
        self.phi_dot = sol.y[m * m:, -1].reshape(m, m)
        if np.linalg.cond(self.phi) > 1e12:
            raise JacobiError("shooting matrix is singular (conjugate point)")
        self.geodesic = gamma
        self.frame = frame
        self.frame_end = frame(tau)
        self.end_velocity = gamma.velocity(tau)

    def solve(self, end_value: TangentVector) -> tuple[TangentVector, TangentVector]:
        """(J'(tau), J'(0)) for the field with J(0) = 0, J(tau) = end_value."""
        _require_same_base(end_value, self.end_velocity)
        man = self.geodesic.manifold
        q = self.end_velocity.base
        F_tau = self.frame_end
        v_frame = np.array([man._ip(q, end_value.components, F_tau[a])
                            for a in range(man.dim)])
        u0 = np.linalg.solve(self.phi, v_frame)
        jdot0 = TangentVector(self.geodesic.start, self.frame.base_frame.T @ u0)
        jdot_tau = TangentVector(q, F_tau.T @ (self.phi_dot @ u0))
        return jdot_tau, jdot0


def solve_bvp(bvp: JacobiBVP) -> tuple[TangentVector, TangentVector]:
    """Return (J'(tau), J'(0)) for the field with J(0) = 0, J(tau) = V."""
    return JacobiShooting(bvp.geodesic).solve(bvp.end_value)


@dataclass(frozen=True)
class OdeBoundReport:
    tau: float
    max_A_norm: float
    max_B_norm: float
    max_Udot: float
    bound: float            # 3 * max|B| * tau
    passed: bool


def ode_bound_check(A_fn: Callable[[float], np.ndarray],
                    B_fn: Callable[[float], np.ndarray],
                    tau: float) -> OdeBoundReport:
    """Solve U'' = A(t) U + B(t), U(0) = U(tau) = 0 and test the derivative
    bound max|U'| <= 3 max|B| tau, valid whenever |A| tau^2 <= 1."""
    ts = np.linspace(0.0, tau, 200)
    a_max = max(float(np.linalg.norm(A_fn(t), 2)) for t in ts)
    b_max = max(float(np.linalg.norm(B_fn(t))) for t in ts)
    if a_max * tau ** 2 > 1.0 + 1e-9:
        raise ValueError("hypothesis |A| tau^2 <= 1 is violated")
    m = np.atleast_1d(B_fn(0.0)).size

    def rhs_particular(t, y):
        return np.concatenate([y[m:], A_fn(t) @ y[:m] + B_fn(t)])

    def rhs_fundamental(t, y):
        Y = y[: m * m].reshape(m, m)
        return np.concatenate([y[m * m:], (A_fn(t) @ Y).ravel()])

    sol_p = solve_ode(rhs_particular, (0.0, tau), np.zeros(2 * m),
                      dense_output=True)
    y0 = np.concatenate([np.zeros(m * m), np.eye(m).ravel()])
    sol_f = solve_ode(rhs_fundamental, (0.0, tau), y0, dense_output=True)

    phi_tau = sol_f.sol(tau)[: m * m].reshape(m, m)
    up_tau = sol_p.sol(tau)[:m]
    c = np.linalg.solve(phi_tau, -up_tau)

    max_udot = 0.0
    for t in ts:
        yp = sol_p.sol(t)
        yf = sol_f.sol(t)
        udot = yp[m:] + yf[m * m:].reshape(m, m) @ c
        max_udot = max(max_udot, float(np.linalg.norm(udot)))

    bound = 3.0 * b_max * tau
    return OdeBoundReport(tau, a_max, b_max, max_udot, bound,
                          max_udot <= bound * (1.0 + 1e-9))
