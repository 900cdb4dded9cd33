"""Euclidean simplex geometry from edge lengths.

The squared-length matrix E_ij = -l_ij^2 / 2 defines a constant metric on
the standard simplex (tangent vectors sum to zero), and its reduction
G_ij = E_ij - E_0i - E_0j is the Gram matrix over the unit simplex.  The
system is realizable as a Euclidean simplex exactly when G is positive
definite, in which case the Cayley-Menger determinant and det(G) give the
same volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonRealizableError

_SUM_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class BarycentricWeight:
    """Point of the standard simplex: nonnegative entries summing to one."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        _check_weights(vals.reshape(1, -1))

    @property
    def n(self) -> int:
        return self.values.size - 1

    @staticmethod
    def vertex(n: int, i: int) -> "BarycentricWeight":
        v = np.zeros(n + 1)
        v[i] = 1.0
        return BarycentricWeight(v)

    @staticmethod
    def barycenter(n: int) -> "BarycentricWeight":
        return BarycentricWeight(np.full(n + 1, 1.0 / (n + 1)))


@dataclass(frozen=True, eq=False)
class SimplexTangent:
    """Tangent vector to the standard simplex: components sum to zero."""

    v: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "v", vals)
        scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
        if not abs(float(vals.sum())) <= _SUM_TOL * scale * vals.size:
            raise ValueError("simplex tangent components must sum to zero")

    @property
    def n(self) -> int:
        return self.v.size - 1

    @staticmethod
    def edge(n: int, i: int, j: int) -> "SimplexTangent":
        """The direction e_j - e_i."""
        v = np.zeros(n + 1)
        v[j] += 1.0
        v[i] -= 1.0
        return SimplexTangent(v)

    @staticmethod
    def basis(n: int) -> list["SimplexTangent"]:
        """The n directions e_k - e_0, k = 1..n."""
        return [SimplexTangent.edge(n, 0, k) for k in range(1, n + 1)]

    def reduced(self) -> np.ndarray:
        """Coefficients in the basis e_k - e_0 (just the entries 1..n)."""
        return self.v[1:]


@dataclass(frozen=True, eq=False)
class EdgeLengthSystem:
    """Symmetric table of prescribed edge lengths on n+1 vertices."""

    lengths: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.lengths, dtype=float)
        object.__setattr__(self, "lengths", L)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError("length table must be square")
        # One max-abs compare; a NaN entry fails it.
        asym = float(np.abs(L - L.T).max(initial=0.0))
        if not asym <= 1e-14 * max(1.0, L.max(initial=0.0)):
            raise ValueError("length table must be symmetric")
        if np.any(np.diag(L) != 0.0):
            raise ValueError("diagonal must be zero")
        off = L[~np.eye(L.shape[0], dtype=bool)]
        if np.any(off <= 0.0):
            raise ValueError("off-diagonal lengths must be positive")

    @property
    def n(self) -> int:
        return self.lengths.shape[0] - 1

    @property
    def max_length(self) -> float:
        return float(self.lengths.max())

    @staticmethod
    def from_points(points: np.ndarray) -> "EdgeLengthSystem":
        pts = np.asarray(points, dtype=float)
        diff = pts[:, None, :] - pts[None, :, :]
        return EdgeLengthSystem(np.sqrt(_fold(np.add, diff ** 2)))


@dataclass(frozen=True, eq=False)
class FlatMetric:
    """Constant metric on the standard simplex induced by edge lengths.

    Built from a stack of length tables, every array field carries the
    stack's leading axes and ``realizable`` is a boolean array.
    """

    n: int
    E: np.ndarray          # (..., n+1, n+1), E_ij = -l_ij^2 / 2
    G: np.ndarray          # (..., n, n) Gram matrix over the unit simplex
    realizable: bool | np.ndarray
    cholesky: np.ndarray | None   # lower factor of G when realizable


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Stacked inner products; matmul takes the same BLAS dot as np.dot,
    # so a stack gives the bits of the one-at-a-time loop.
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _fold(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)``, which costs 5-40 times its arithmetic on
    short axes: 2-7 slices are folded elementwise, (0.0 + a_0) + a_1 + ...
    for np.add (np.sum starts at 0.0 too), with the bits of np.sum, .max and
    .all.  From 8 slices on, numpy's pairwise sum orders them otherwise."""
    if not 1 < a.shape[-1] < 8:
        return ufunc.reduce(a, axis=-1)
    out = 0.0 + a[..., 0] if ufunc is np.add else a[..., 0]
    for k in range(1, a.shape[-1]):
        out = ufunc(out, a[..., k])
    return out


def _cholesky(G: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack (..., n, n) without pivoting, and
    whether each exists: it does not once a pivot (the square of a
    diagonal entry) drops to tol or below.  Factors that do not exist
    hold NaN from the failed pivot on."""
    # np.linalg.cholesky differs in the last bits and would change reports.
    n = G.shape[-1]
    L = np.zeros_like(G)
    ok = np.ones(G.shape[:-2], dtype=bool)
    for j in range(n):
        d = G[..., j, j] - _dot(L[..., j, :j], L[..., j, :j])
        ok &= d > tol
        L[..., j, j] = np.sqrt(np.where(ok, d, np.nan))
        for i in range(j + 1, n):
            L[..., i, j] = (G[..., i, j] - _dot(L[..., i, :j], L[..., j, :j])) / L[..., j, j]
    return L, ok


def _check_weights(lam: np.ndarray):
    """Raise a ValueError unless every row of lam (N, n+1) has entries of
    at least -1e-15 that sum to one within _SUM_TOL max(1, n+1), tests
    that NaN fails; a stack of several rows names the first failing row."""
    negative = ~_fold(np.logical_and, lam >= -1e-15)
    off_sum = ~(np.abs(_fold(np.add, lam) - 1.0) <= _SUM_TOL * max(1.0, lam.shape[-1]))
    for bad, message in ((negative, "barycentric weights must be nonnegative"),
                         (off_sum, "barycentric weights must sum to one")):
        if (k := _flagged(bad)) is not None:
            raise ValueError((f"row {k[0]}: " if len(bad) > 1 else "") + message)


def _flagged(mask) -> tuple | None:
    """Index of the first true entry of a mask (``()`` for a 0-d one), or
    None when there is none."""
    mask = np.asarray(mask)
    return tuple(int(i) for i in np.argwhere(mask)[0]) if mask.any() else None


def _at(k: tuple) -> str:
    """' at simplex k' for an entry of a stack; '' for a single simplex."""
    return f" at simplex {k[0] if len(k) == 1 else k}" if k else ""


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def flat_metric_from_lengths(system) -> FlatMetric:
    """Build the E and Gram matrices; non-realizable systems are returned
    with ``realizable=False`` rather than rejected.  ``system`` is an
    EdgeLengthSystem or a stack (..., n+1, n+1) of symmetric length
    tables."""
    lengths = (system.lengths if isinstance(system, EdgeLengthSystem)
               else np.asarray(system, dtype=float))
    n = lengths.shape[-1] - 1
    E = -0.5 * lengths ** 2
    G = E[..., 1:, 1:] - E[..., 0, 1:][..., None, :] - E[..., 0, 1:][..., :, None]
    tol = 1e-12 * np.maximum(np.trace(G, axis1=-2, axis2=-1), 1e-300)
    L, ok = _cholesky(G, tol)
    if ok.ndim == 0:
        return FlatMetric(n=n, E=E, G=G, realizable=bool(ok),
                          cholesky=L if ok else None)
    return FlatMetric(n=n, E=E, G=G, realizable=ok, cholesky=L)


def volume_from_gram(G: np.ndarray):
    """Volume from the Gram determinant; works on stacks (..., n, n)."""
    n = G.shape[-1]
    det = np.linalg.det(G)
    return _scalar(np.sqrt(np.maximum(det, 0.0)) / math.factorial(n))


def volume_from_cayley_menger(E: np.ndarray):
    """Volume from the Cayley-Menger determinant; works on stacks
    (..., n+1, n+1)."""
    n = E.shape[-1] - 1
    m = np.zeros(E.shape[:-2] + (n + 2, n + 2))
    m[..., 0, 1:] = -0.5
    m[..., 1:, 0] = -0.5
    m[..., 1:, 1:] = E
    det = np.linalg.det(m)
    return _scalar((2.0 / math.factorial(n)) * np.sqrt(np.maximum(-det, 0.0)))


def volume(gm: FlatMetric):
    """Simplex volume; the Cayley-Menger and Gram-determinant routes are
    both evaluated and must agree.  A stacked metric gives an array."""
    if (k := _flagged(~np.asarray(gm.realizable))) is not None:
        raise NonRealizableError(f"volume of a non-realizable length system{_at(k)}")
    v_cm = volume_from_cayley_menger(gm.E)
    v_gram = volume_from_gram(gm.G)
    if (k := _flagged(np.abs(v_cm - v_gram) > 1e-9 * np.maximum(v_cm, v_gram))) is not None:
        raise ArithmeticError(
            f"volume formulas disagree{_at(k)}: {np.asarray(v_cm)[k]} "
            f"(Cayley-Menger) vs {np.asarray(v_gram)[k]} (Gram)")
    return v_cm


def fullness(gm: FlatMetric, h):
    """Thinness measure n! vol / h^n for edge bound h.  On a stacked
    metric h may be one bound per simplex."""
    max_edge = np.sqrt(-2.0 * gm.E.min(axis=(-2, -1)))
    short = h < max_edge * (1.0 - 1e-12)
    if (k := _flagged(short)) is not None:
        raise ValueError(f"h={np.broadcast_to(h, np.shape(short))[k]} is below the "
                         f"longest edge {np.broadcast_to(max_edge, np.shape(short))[k]}{_at(k)}")
    return math.factorial(gm.n) * volume(gm) / h ** gm.n


def gram_eigen_bounds(gm: FlatMetric, h: float) -> tuple[float, float]:
    """Two-sided bounds for the singular values sqrt(lambda_k) of the Gram
    matrix of a full simplex: theta*h*n^(1-n) <= sqrt(lambda) <= h*n."""
    if not gm.realizable:
        raise NonRealizableError("eigenvalue bounds need a realizable system")
    n = gm.n
    theta = fullness(gm, h)
    lo = theta * h * float(n) ** (1 - n)
    hi = h * n
    roots = np.sqrt(np.linalg.eigvalsh(gm.G))
    if roots.min() < lo * (1.0 - 1e-9) or roots.max() > hi * (1.0 + 1e-9):
        raise ArithmeticError("Gram eigenvalues escaped their theoretical bounds")
    return lo, hi
