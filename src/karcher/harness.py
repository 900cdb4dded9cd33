"""Experiment driver: simplex families over refinement ladders, distortion
measurements and convergence-order fits.

For a family of geodesic simplices shrunk by factors of two, the driver
measures how far the pulled-back manifold metric is from the flat
edge-length metric (and the corresponding first/second derivative gaps),
then fits log-log slopes.  Expected orders: metric gap 2, connection gap
1, differential-vs-flat-model gap 2, second derivative 1, edge-length gap 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .barycentric import (KarcherChart, _batch_mean, _edge_lengths, _edge_pairs,
                          _length_tables, _stack_jets, exceeds_convexity_radius)
from .errors import MeanSolverError, NonRealizableError, SlopeFitError
from .flat_simplex import (BarycentricWeight, FlatMetric, _flagged, _fold,
                           flat_metric_from_lengths, fullness)
from .manifolds import Manifold, ManifoldPoint, TangentVector

MIN_INTERIOR_WEIGHT = 0.05
# Low-discrepancy points in each set of ``interior_weights``.
INTERIOR_POINTS = 20


@dataclass(frozen=True, eq=False)
class SimplexFamily:
    """A base direction configuration together with a scale ladder."""

    manifold: Manifold
    center: ManifoldPoint
    directions: tuple[TangentVector, ...]
    ladder: tuple[float, ...]
    fullness_target: float

    @property
    def n(self) -> int:
        return len(self.directions) - 1


def equilateral_family(manifold: Manifold, center: ManifoldPoint,
                       h0: float = 0.2, levels: int = 5) -> SimplexFamily:
    """Equally spaced tangent directions (a regular triangle) and the
    ladder h0, h0/2, ..., h0/2^(levels-1)."""
    basis = manifold.tangent_basis(center)
    e1, e2 = basis[0], basis[1]
    dirs = []
    for k in range(3):
        ang = 2.0 * math.pi * k / 3.0
        dirs.append(math.cos(ang) * e1 + math.sin(ang) * e2)
    ladder = tuple(h0 * 0.5 ** k for k in range(levels))
    return SimplexFamily(manifold, center, tuple(dirs), ladder,
                         fullness_target=math.sqrt(3.0) / 2.0)


def generate_geodesic_simplex(manifold: Manifold, center: ManifoldPoint,
                              directions, h: float) -> KarcherChart:
    """Vertices exp_center(s * u_i) with s chosen so the tangent-space
    simplex has maximal edge h; the geodesic edge lengths then differ from
    h only at order C0 h^3.  The one-level ``_ladder``, as a chart."""
    family = SimplexFamily(manifold, center, tuple(directions), (h,), 0.0)
    return KarcherChart(manifold, [ManifoldPoint(v) for v in _ladder(family)[0][0]])


def achieved_fullness(chart: KarcherChart) -> float:
    return fullness(chart.flat_metric, chart.h)


def _ladder(family: SimplexFamily):
    """The family's ``generate_geodesic_simplex`` at every level as one
    stack: vertices (L, n+1, coord_dim) from the scalar ``exp``, one
    ``_edge_lengths`` call's edge lengths (L, E), ``achieved_fullness``,
    flat metrics' Cholesky factors (L, n, n), ``grad_tol`` and edge
    logarithms.  An empty ladder, a level that is not positive and
    finite, and directions that span no simplex raise before any
    ``exp``; the first failing level raises, naming its h, for the
    first check it fails: scale and vertex separation within the
    convexity radius, realizable lengths, fullness >= 0.9 of target."""
    man, ladder = family.manifold, family.ladder
    if not ladder:
        raise ValueError("need at least one ladder level")
    if (bad := next((h for h in ladder if not 0.0 < h < math.inf), None)) is not None:
        raise ValueError(f"level h={bad}: ladder levels must be positive and finite")
    norms = [man.norm(d) for d in family.directions]
    if 0.0 in norms:
        raise ValueError("zero direction vector")
    units = [d * (1.0 / nd) for d, nd in zip(family.directions, norms)]
    sep = max((man.norm(units[i] - units[j]) for i, j in zip(*_edge_pairs(len(units)))),
              default=0.0)
    if sep == 0.0:
        raise ValueError("need at least two distinct directions")
    radius = man.bounds.convexity_radius
    # Each check keeps the levels before its first failure, so the last
    # failure found is the first check that the first failing level fails.
    stop = next((k for k, h in enumerate(ladder) if h / sep >= radius), len(ladder))
    error = None if stop == len(ladder) else ValueError(
        f"level h={ladder[stop]}: requested scale exceeds the convexity radius")
    if stop == 0:
        raise error
    verts = np.array([[man.exp(family.center, (h / sep) * u).coords for u in units]
                      for h in ladder[:stop]])
    lengths, grad_tol, logs = _edge_lengths(man, verts)
    diam = lengths.max(axis=1)
    gm = flat_metric_from_lengths(_length_tables(lengths, len(units)))
    if (k := _flagged(exceeds_convexity_radius(man, diam))) is not None:
        stop, error = k[0], ValueError(
            f"level h={ladder[k[0]]}: vertex separation {diam[k]:.3e} exceeds the "
            f"convexity radius {radius:.3e}; the center of mass may not be unique")
    if (k := _flagged(~gm.realizable[:stop])) is not None:
        stop, error = k[0], NonRealizableError(
            f"level h={ladder[k[0]]}: generated edge lengths are not realizable")
    thetas = fullness(FlatMetric(gm.n, *(x[:stop] for x in (
        gm.E, gm.G, gm.realizable, gm.cholesky))), diam[:stop])
    if (k := _flagged(thetas < 0.9 * family.fullness_target)) is not None:
        stop, error = k[0], NonRealizableError(
            f"simplex at h={ladder[k[0]]} is too thin: fullness {thetas[k]:.3f}")
    if error is not None:
        raise error
    return verts, lengths, thetas, gm.cholesky, grad_tol, logs


def interior_weights(n: int) -> list[BarycentricWeight]:
    """Sample weights: the barycenter, edge midpoints pulled inward to the
    floor MIN_INTERIOR_WEIGHT, and INTERIOR_POINTS low-discrepancy
    interior points.

    The weights are built once per n and shared between calls, so their
    values are read-only; each call returns a new list."""
    return list(_interior_weights(n))


@functools.lru_cache(maxsize=None)
def _interior_weights(n: int) -> tuple[BarycentricWeight, ...]:
    bary = np.full(n + 1, 1.0 / (n + 1))
    out = [BarycentricWeight(bary)]
    pull = MIN_INTERIOR_WEIGHT * (n + 1)
    for i, j in zip(*_edge_pairs(n + 1)):
        lam = np.zeros(n + 1)
        lam[i] = lam[j] = 0.5
        out.append(BarycentricWeight((1.0 - pull) * lam + pull * bary))
    for row in _halton_points(n, INTERIOR_POINTS):
        z = np.sort(row)
        lam = np.diff(np.concatenate([[0.0], z, [1.0]]))
        out.append(BarycentricWeight((1.0 - pull) * lam + pull * bary))
    for w in out:
        w.values.flags.writeable = False
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _halton_points(n: int, extra: int) -> np.ndarray:
    """The first ``extra`` points of the unscrambled n-dimensional Halton
    sequence, drawn once per (n, extra) and returned read-only.

    Column j is the radical inverse of 0, 1, ..., extra - 1 in the j-th
    prime base.  The digits are summed lowest first, each times a weight
    divided down by the base, in the order of scipy's van der Corput
    kernel, so the points are bit-identical to
    ``scipy.stats.qmc.Halton(d=n, scramble=False).random(extra)`` (the
    tests check this).  They are computed here because importing
    ``scipy.stats`` loads most of scipy, which took longer than the 40
    distortion sweeps of the benchmark's pass.
    """
    pts = np.zeros((extra, n))
    for col, base in enumerate(_primes(n)):
        quotient = np.arange(extra)
        b2r = 1.0 / base
        while quotient.any():
            pts[:, col] += (quotient % base) * b2r
            b2r /= base
            quotient //= base
    pts.flags.writeable = False
    return pts


def _primes(n: int) -> list[int]:
    """The first n primes, by trial division."""
    primes = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


@dataclass(frozen=True)
class DistortionSample:
    """Per-level normalized suprema over sampled weights and an
    edge-length-orthonormal tangent basis."""

    h: float
    theta: float
    sup_metric_gap: float
    sup_connection_gap: float
    sup_dx_sigma_gap: float
    sup_nabla_dx: float

    def to_dict(self) -> dict:
        return {
            "h": self.h, "theta": self.theta,
            "metric_gap": self.sup_metric_gap,
            "connection_gap": self.sup_connection_gap,
            "dx_sigma_gap": self.sup_dx_sigma_gap,
            "nabla_dx": self.sup_nabla_dx,
        }


QUANTITIES = ("metric_gap", "connection_gap", "dx_sigma_gap", "nabla_dx")
# The order of each quantity in h, and the half-width of the band around
# it that every local slope of a curved ladder must lie in.
EXPECTED_SLOPES = {"metric_gap": 2.0, "connection_gap": 1.0,
                   "dx_sigma_gap": 2.0, "nabla_dx": 1.0, "edge_length_gap": 2.0}
SLOPE_TOLERANCES = {"metric_gap": 0.25, "connection_gap": 0.25,
                    "dx_sigma_gap": 0.3, "nabla_dx": 0.25, "edge_length_gap": 0.25}


def measure_distortion(chart: KarcherChart,
                       sample_weights) -> DistortionSample:
    """Suprema of the four distortion quantities over the given interior
    weights: ``_measure`` of the chart as a one-level stack."""
    return _measure(chart.manifold, chart.coords[None], [chart.h], [achieved_fullness(chart)],
                    chart.flat_metric.cholesky[None], np.array([chart.grad_tol]),
                    chart._edge_logs, sample_weights)[0]


def _measure(manifold: Manifold, verts, h, thetas, cholesky, grad_tol, edge_logs,
             sample_weights) -> list[DistortionSample]:
    """``measure_distortion`` of each level of a ``_ladder`` stack, from
    one stack of ``hessian`` jets, a row per (level, weight) pair, that
    reads each level's ``grad_tol`` and edge logarithms."""
    lam = np.array([w.values for w in sample_weights])   # (W, n+1)
    if lam.min() < MIN_INTERIOR_WEIGHT - 1e-12:
        raise ValueError("sample weights must be interior (entries >= 0.05)")
    count, n = len(lam), lam.shape[1] - 1
    rows = functools.partial(np.repeat, repeats=count, axis=0)
    try:
        points, logs, dx, nabla = _stack_jets(
            manifold, rows(verts), np.tile(lam, (len(verts), 1)), rows(grad_tol),
            rows(edge_logs), True)
    except MeanSolverError as exc:
        raise MeanSolverError(f"level h={h[exc.index // count]}: {exc}",
                              index=exc.index) from exc
    metric = manifold.metric_matrix(points)
    sig = np.swapaxes(logs[:, 1:] - logs[:, :1], 1, 2)      # (R, D, n)
    # Columns: a basis orthonormal for each level's flat metric, one solve.
    eye = np.broadcast_to(np.eye(n), cholesky.shape)
    B = rows(np.swapaxes(np.linalg.solve(cholesky, eye), 1, 2))     # (R, n, n)
    dxB = dx @ B                                          # (R, D, n)
    xg = np.swapaxes(dxB, 1, 2) @ metric @ dxB
    metric_gap = _sup(np.abs(xg - np.eye(n)))
    gap = dxB - sig @ B
    dx_sigma = _sup(_norm_rows(np.einsum("rda,rda->ra", gap, metric @ gap)))
    nb = np.einsum("rklc,rka,rlb->rabc", nabla, B, B)     # (R, n, n, D)
    low_nb = nb @ metric[..., None, :, :]
    nabla_sup = _sup(_norm_rows(np.einsum("rabc,rabc->rab", nb, low_nb)))
    # flat derivative of the pulled-back metric via the product rule:
    # <nb[u, i], dxB[:, j]> + <dxB[:, i], nb[u, j]>
    prod = low_nb @ dxB[:, None]                          # (R, n, n, n)
    conn_gap = _sup(np.abs(prod + np.swapaxes(prod, 2, 3)))
    per_level = [_sup(q.reshape(len(verts), -1))
                 for q in (metric_gap, conn_gap, dx_sigma, nabla_sup)]
    return [DistortionSample(
        h=float(hk), theta=float(theta),
        sup_metric_gap=float(m), sup_connection_gap=float(c),
        sup_dx_sigma_gap=float(d), sup_nabla_dx=float(nd))
        for hk, theta, m, c, d, nd in zip(h, thetas, *per_level)]


def _norm_rows(squares: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(squares, 0.0))


def _sup(x: np.ndarray) -> np.ndarray:
    """The largest entry of each row of a stack (R, ...), by ``_fold``."""
    return _fold(np.maximum, x.reshape(len(x), -1))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    n_used: int

    def to_dict(self) -> dict:
        # Every level is fitted; the constant key keeps the reports' bytes.
        return {"slope": self.slope, "intercept": self.intercept,
                "stderr": self.stderr, "n_used": self.n_used,
                "dropped_coarsest": False}


def fit_slope(hs, values) -> SlopeFit:
    """Least-squares slope of log(value) against log(h) over every level.
    Values are norms: a smallest one <= 1e-13 (flat space) gives a NaN
    fit, and a NaN, infinite or negative one a SlopeFitError naming its
    level.  Fewer than four levels, or a bad h, is a ValueError."""
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(hs) < 4:
        raise ValueError("need at least four ladder levels to fit a slope")
    if not np.all((hs > 0.0) & (hs < math.inf)):
        raise ValueError(f"ladder levels must be positive and finite, got {hs.tolist()}")
    bad = ~((values >= 0.0) & (values < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise SlopeFitError(f"level {k} (h = {hs[k]:.6g}): value {values[k]} is not "
                            "a finite non-negative distortion")
    if np.min(values) <= 1e-13:
        return SlopeFit(math.nan, math.nan, math.nan, len(hs))
    x, y = np.log(hs), np.log(values)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / max(len(x) - 2, 1) / sxx) if sxx > 0 else math.inf
    return SlopeFit(float(coef[0]), float(coef[1]), stderr, len(hs))


@dataclass(frozen=True)
class ConvergenceReport:
    samples: tuple[DistortionSample, ...]
    fitted_slopes: dict[str, SlopeFit] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "fitted_slopes": {k: v.to_dict() for k, v in self.fitted_slopes.items()},
        }


def fit_orders(samples) -> ConvergenceReport:
    """Fit one slope per distortion quantity across the ladder."""
    samples = tuple(samples)
    hs = [s.h for s in samples]
    return ConvergenceReport(samples, {name: fit_slope(hs, [s.to_dict()[name] for s in samples])
                                       for name in QUANTITIES})


def _check_slope(family: SimplexFamily, name: str, hs, values):
    """On a flat space the gaps vanish and a NaN fit is expected.  On a
    curved one the first local slope log(v_k / v_k+1) / log(h_k / h_k+1)
    off the band SLOPE_TOLERANCES[name] around EXPECTED_SLOPES[name] (a
    zero value makes one) raises SlopeFitError.  On a monotone ladder the
    least-squares slope is a convex combination of the local slopes."""
    if family.manifold.bounds.C0 <= 0:
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        local = np.diff(np.log(values)) / np.diff(np.log(hs))
    target, tol = EXPECTED_SLOPES[name], SLOPE_TOLERANCES[name]
    if (k := _flagged(~(np.abs(local - target) <= tol))) is not None:
        k = k[0]
        raise SlopeFitError(
            f"{name} local slope {local[k]:.3f} on h = {hs[k]:.4g} -> {hs[k + 1]:.4g} "
            f"is outside {target}+/-{tol}; suprema at h = "
            f"[{', '.join(f'{h:.4g}' for h in hs)}]: [{', '.join(f'{v:.3e}' for v in values)}]")


def run_distortion_sweep(family: SimplexFamily) -> ConvergenceReport:
    """Generate the ladder, measure every level, fit orders and check
    each quantity's local slopes with ``_check_slope``.  The ladder and
    then the jets of all levels and weights are each one stack, and
    aggregation is a pure reduction, so results do not depend on
    evaluation scheduling."""
    verts, lengths, *measured = _ladder(family)
    samples = _measure(family.manifold, verts, lengths.max(axis=1), *measured,
                       interior_weights(family.n))
    report = fit_orders(samples)
    for name in QUANTITIES:
        _check_slope(family, name, [s.h for s in samples], [s.to_dict()[name] for s in samples])
    return report


@dataclass(frozen=True)
class EdgeLengthReport:
    """Gap between geodesic edge lengths and tangent-space edge lengths
    seen from the barycenter point."""

    h: float
    max_rel_gap: float


def check_edge_length_comparison(chart: KarcherChart) -> EdgeLengthReport:
    """The largest relative gap between the chart's geodesic edge lengths
    and their lengths |log_a(p_j) - log_a(p_i)| seen from the barycenter
    a: ``_edge_gaps`` of the chart as a one-level stack."""
    gap = _edge_gaps(chart.manifold, chart.coords[None],
                     chart.edge_lengths.lengths[_edge_pairs(chart.n + 1)][None],
                     np.array([chart.grad_tol]), chart._edge_logs)
    return EdgeLengthReport(h=chart.h, max_rel_gap=float(gap[0]))


def _edge_gaps(manifold: Manifold, verts, lengths, grad_tol, edge_logs) -> np.ndarray:
    """``check_edge_length_comparison`` of each level of a ``_ladder``
    stack, from one ``_batch_mean`` at the barycenters.  The tangent
    lengths are the scalar ``norm`` row by row, as for ``sigma``: the
    space forms' summed ``norm_array`` moves a roundoff-bound gap far out
    on the hyperboloid (d = 15) by 3%."""
    n1 = verts.shape[1]
    a, logs, _ = _batch_mean(manifold, verts, np.full((len(verts), n1), 1.0 / n1),
                             grad_tol, edge_logs)
    i, j = _edge_pairs(n1)
    tangent = Manifold.norm_array(manifold, logs[:, i] - logs[:, j], a[:, None])
    return (np.abs(lengths - tangent) / lengths).max(axis=1)


def edge_length_rate(family: SimplexFamily) -> tuple[list[EdgeLengthReport], SlopeFit]:
    """``check_edge_length_comparison`` at every ladder level, one stacked
    ``_edge_gaps``, and the slope of the gaps, with the ladder and slope
    checks of ``run_distortion_sweep``."""
    verts, lengths, _, _, grad_tol, logs = _ladder(family)
    hs, gaps = lengths.max(axis=1), _edge_gaps(family.manifold, verts, lengths, grad_tol, logs)
    fit = fit_slope(hs, gaps)
    _check_slope(family, "edge_length_gap", hs, gaps)
    return [EdgeLengthReport(h=float(h), max_rel_gap=float(g)) for h, g in zip(hs, gaps)], fit
