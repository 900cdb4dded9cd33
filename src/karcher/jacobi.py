"""Jacobi fields with two fixed values along a geodesic.

Solves J'' + R(J, T)T = 0 with J(0) = 0 and J(tau) = V by shooting in a
parallel orthonormal frame, where the equation becomes a linear ODE with
matrix-valued coefficient.  Also provides a checker for the two-point
ODE bound that controls the second variation (the s-derivative of the
boundary derivative under a geodesic variation of the endpoint).

No model computes its distance Hessian through this module:
``ChartManifold`` integrates its own fused Jacobi ODE from the other end
of the geodesic, and the closed-form spaces need none.  ``JacobiShooting``
is the independent check of both.  It reads the model's
``geodesic_from``, ``parallel_transport`` and, off constant curvature,
``curvature_rt``: the closed forms give the first two, a
``ChartManifold`` none, and the tests' charts integrate all three as ODEs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import JacobiError
from .integrate import solve_ode
from .manifolds import (Geodesic, ManifoldPoint, TangentVector, _check_length,
                        _require_same_base)


def _gram_schmidt(ip: Callable[[np.ndarray, np.ndarray], float], vectors,
                  count: int) -> list[np.ndarray]:
    """Gram-Schmidt on ``vectors`` in order under the inner product ``ip``:
    a vector whose remainder has squared norm 1e-14 or less is skipped,
    and the loop stops once ``count`` orthonormal vectors are found."""
    basis: list[np.ndarray] = []
    for v in vectors:
        for b in basis:
            v = v - ip(v, b) * b
        n2 = ip(v, v)
        if n2 > 1e-14:
            basis.append(v / math.sqrt(n2))
        if len(basis) == count:
            break
    return basis


def parallel_frame(gamma: Geodesic
                   ) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """A parallel orthonormal frame along gamma whose first vector is the
    tangent: its rows (m, coord_dim) at t = 0, and t -> its rows at t."""
    man = gamma.manifold
    p = gamma.start
    # Orthonormalize {T, tangent basis...} so the frame starts with the
    # geodesic tangent; curvature matrices then have a fixed zero row.
    candidates = (c.components for c in [gamma.velocity(0.0)] + man.tangent_basis(p))
    base = np.array(_gram_schmidt(lambda a, b: man._ip(p, a, b), candidates,
                                  man.dim))
    return base, man.frame_field(gamma, [TangentVector(p, b) for b in base])


def _frame_curvature(gamma: Geodesic, frame: Callable[[float], np.ndarray]
                     ) -> Callable[[float], np.ndarray]:
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
    """The boundary value problems J(0) = 0, J(tau) = V along one
    geodesic.  What does not depend on V is taken once: the parallel
    frame (``base_frame`` at t = 0, ``frame`` t -> its rows) and the
    shooting matrices Phi(tau), Phi'(tau) of the fields with J(0) = 0 and
    J'(0) running through the frame.  ``solve(V)`` then costs one small
    linear solve per direction."""

    def __init__(self, gamma: Geodesic):
        m, tau = gamma.manifold.dim, gamma.length
        _check_length(gamma.manifold, tau)
        self.base_frame, self.frame = parallel_frame(gamma)
        R_of_t = _frame_curvature(gamma, self.frame)

        def rhs(t, y):
            Y = y[: m * m].reshape(m, m)
            return np.concatenate([y[m * m:], -(R_of_t(t) @ Y).ravel()])

        y0 = np.concatenate([np.zeros(m * m), np.eye(m).ravel()])
        sol = solve_ode(rhs, (0.0, tau), y0)
        self.phi = sol.y[: m * m, -1].reshape(m, m)
        self.phi_dot = sol.y[m * m:, -1].reshape(m, m)
        if np.linalg.cond(self.phi) > 1e12:
            raise JacobiError("shooting matrix is singular (conjugate point)")
        self.geodesic = gamma
        self.frame_end = self.frame(tau)
        self.end_velocity = gamma.velocity(tau)

    def solve(self, end_value: TangentVector) -> tuple[TangentVector, TangentVector]:
        """(J'(tau), J'(0)) for the field with J(0) = 0, J(tau) = end_value."""
        _require_same_base(end_value, self.end_velocity)
        man = self.geodesic.manifold
        q = self.end_velocity.base
        F_tau = self.frame_end
        v_frame = np.array([man._ip(q, end_value.components, row) for row in F_tau])
        u0 = np.linalg.solve(self.phi, v_frame)
        jdot0 = TangentVector(self.geodesic.start, self.base_frame.T @ u0)
        jdot_tau = TangentVector(q, F_tau.T @ (self.phi_dot @ u0))
        return jdot_tau, jdot0


def solve_bvp(gamma: Geodesic, end_value: TangentVector
              ) -> tuple[TangentVector, TangentVector]:
    """(J'(tau), J'(0)) for the field along gamma with J(0) = 0 and
    J(tau) = end_value: one ``JacobiShooting`` used once."""
    return JacobiShooting(gamma).solve(end_value)


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
