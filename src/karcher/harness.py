"""Experiment driver: simplex families over refinement ladders, distortion
measurements and convergence-order fits.

For a family of geodesic simplices shrunk by factors of two, the driver
measures how far the pulled-back manifold metric is from the flat
edge-length metric (and the corresponding first/second derivative gaps),
then fits log-log slopes.  Expected orders: metric gap 2, connection gap
1, differential-vs-flat-model gap 2, second derivative 1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .barycentric import KarcherChart, _stack_jets, karcher_mean, sigma
from .errors import MeanSolverError, NonRealizableError, SlopeFitError
from .flat_simplex import BarycentricWeight, SimplexTangent, fullness
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
    h only at order C0 h^3."""
    units = []
    for d in directions:
        nd = manifold.norm(d)
        if nd == 0.0:
            raise ValueError("zero direction vector")
        units.append(d * (1.0 / nd))
    sep = 0.0
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            diff = units[i] - units[j]
            sep = max(sep, manifold.norm(diff))
    scale = h / sep
    if scale >= manifold.bounds.convexity_radius:
        raise ValueError("requested scale exceeds the convexity radius")
    vertices = [manifold.exp(center, scale * u) for u in units]
    chart = KarcherChart(manifold, vertices)
    if not chart.flat_metric.realizable:
        raise NonRealizableError("generated edge lengths are not realizable")
    return chart


def achieved_fullness(chart: KarcherChart) -> float:
    return fullness(chart.flat_metric, chart.h)


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
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
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
EXPECTED_SLOPES = {"metric_gap": 2.0, "connection_gap": 1.0,
                   "dx_sigma_gap": 2.0, "nabla_dx": 1.0}


def _orthonormal_tangent_frame(chart: KarcherChart) -> np.ndarray:
    """Columns: reduced coordinates of a basis orthonormal for the flat
    edge-length metric."""
    L = chart.flat_metric.cholesky
    if L is None:
        raise NonRealizableError("chart's flat metric is not positive definite")
    return np.linalg.solve(L, np.eye(chart.n)).T


def measure_distortion(chart: KarcherChart,
                       sample_weights) -> DistortionSample:
    """Suprema of the four distortion quantities over the given interior
    weights."""
    return _measure([chart], sample_weights)[0]


def _measure(charts, sample_weights, thetas=None) -> list[DistortionSample]:
    """``measure_distortion`` of each chart (all on one manifold), from
    one stack of jets with a row per (chart, weight) pair.  ``thetas``
    are the charts' ``achieved_fullness`` if the caller has them."""
    lam = np.array([w.values for w in sample_weights])   # (W, n+1)
    if lam.min() < MIN_INTERIOR_WEIGHT - 1e-12:
        raise ValueError("sample weights must be interior (entries >= 0.05)")
    n = charts[0].n
    metric, dx, sig, nabla = _jet_stack(charts, lam)
    B = np.repeat(np.array([_orthonormal_tangent_frame(c) for c in charts]),
                  len(lam), axis=0)                       # (R, n, n)
    dxB = dx @ B                                          # (R, D, n)
    xg = np.swapaxes(dxB, 1, 2) @ metric @ dxB
    metric_gap = np.abs(xg - np.eye(n)).max(axis=(1, 2))
    gap = dxB - sig @ B
    dx_sigma = _norm_rows(np.einsum("rda,rda->ra", gap, metric @ gap)).max(axis=1)
    nb = np.einsum("rklc,rka,rlb->rabc", nabla, B, B)     # (R, n, n, D)
    low_nb = nb @ metric[..., None, :, :]
    nabla_sup = _norm_rows(np.einsum("rabc,rabc->rab", nb, low_nb)).max(axis=(1, 2))
    # flat derivative of the pulled-back metric via the product rule:
    # <nb[u, i], dxB[:, j]> + <dxB[:, i], nb[u, j]>
    prod = low_nb @ dxB[:, None]                          # (R, n, n, n)
    conn_gap = np.abs(prod + np.swapaxes(prod, 2, 3)).max(axis=(1, 2, 3))
    per_level = [q.reshape(len(charts), -1).max(axis=1)
                 for q in (metric_gap, conn_gap, dx_sigma, nabla_sup)]
    if thetas is None:
        thetas = [achieved_fullness(chart) for chart in charts]
    return [DistortionSample(
        h=chart.h, theta=theta,
        sup_metric_gap=float(m), sup_connection_gap=float(c),
        sup_dx_sigma_gap=float(d), sup_nabla_dx=float(nd))
        for chart, theta, m, c, d, nd in zip(charts, thetas, *per_level)]


def _norm_rows(squares: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(squares, 0.0))


def _jet_stack(charts, weights: np.ndarray):
    """Jets at every pair of a chart and a row of weights (W, n+1),
    chart-major, from one stack of ``hessian_batch`` jets: the metric in
    coordinates (R, D, D), or one (D, D) matrix for all rows where it is
    constant, the dx matrices (R, D, n), sigma images of the simplex
    basis (R, D, n), from the mean's own logarithms, and nabla dx tensors
    (R, n, n, D)."""
    man = charts[0].manifold
    verts = np.repeat(np.array([c.coords for c in charts]), len(weights), axis=0)
    lam = np.tile(weights, (len(charts), 1))
    try:
        points, logs, dx, nabla = _stack_jets(man, verts, lam, True)
    except MeanSolverError as exc:
        raise MeanSolverError(f"level h={charts[exc.index // len(weights)].h}: {exc}",
                              index=exc.index) from exc
    sig = np.swapaxes(logs[:, 1:] - logs[:, :1], 1, 2)
    return man.metric_matrix(points), dx, sig, nabla


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float
    n_used: int
    dropped_coarsest: bool

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "stderr": self.stderr, "n_used": self.n_used,
                "dropped_coarsest": self.dropped_coarsest}


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, np.ndarray, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if sxx > 0 else math.inf
    return float(coef[0]), float(coef[1]), resid, stderr


def fit_slope(hs, values) -> SlopeFit:
    """Least-squares slope of log(value) against log(h); the coarsest level
    is dropped when its residual is an outlier (pre-asymptotic pollution)."""
    hs = np.asarray(hs, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(hs) < 4:
        raise ValueError("need at least four ladder levels to fit a slope")
    if np.min(values) <= 1e-13:
        return SlopeFit(math.nan, math.nan, math.nan, len(hs), False)
    x, y = np.log(hs), np.log(values)
    slope, intercept, resid, stderr = _ols(x, y)
    coarse = int(np.argmax(hs))
    rms = math.sqrt(float(np.mean(resid ** 2)))
    if abs(resid[coarse]) > max(2.0 * rms, 1e-6) and len(hs) >= 5:
        keep = np.ones(len(hs), dtype=bool)
        keep[coarse] = False
        slope, intercept, _, stderr = _ols(x[keep], y[keep])
        return SlopeFit(slope, intercept, stderr, int(keep.sum()), True)
    return SlopeFit(slope, intercept, stderr, len(hs), False)


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
    slopes = {}
    for name in QUANTITIES:
        values = [s.to_dict()[name] for s in samples]
        slopes[name] = fit_slope(hs, values)
    return ConvergenceReport(samples=samples, fitted_slopes=slopes)


def _ladder_charts(family: SimplexFamily) -> tuple[list[KarcherChart], list[float]]:
    """The family's chart at every ladder level and its
    ``achieved_fullness``.  A level thinner than 0.9 of the family's
    fullness target raises NonRealizableError before any mean is
    taken."""
    charts, thetas = [], []
    for h in family.ladder:
        chart = generate_geodesic_simplex(family.manifold, family.center,
                                          family.directions, h)
        theta = achieved_fullness(chart)
        if theta < 0.9 * family.fullness_target:
            raise NonRealizableError(
                f"simplex at h={h} is too thin: fullness {theta:.3f}")
        charts.append(chart)
        thetas.append(theta)
    return charts, thetas


def _check_slope(family: SimplexFamily, name: str, fit: SlopeFit, values):
    """On a flat space the gaps vanish and a NaN fit is the expected
    outcome; on a curved one it, or a slope <= 0, raises SlopeFitError
    with the ladder's ``values``."""
    if family.manifold.bounds.C0 > 0 and not (math.isfinite(fit.slope)
                                              and fit.slope > 0.0):
        sups = ", ".join(f"{v:.3e}" for v in values)
        raise SlopeFitError(
            f"{name} fitted slope {fit.slope:.3f} is not positive; suprema "
            f"at h = {list(family.ladder)}: [{sups}]")


def run_distortion_sweep(family: SimplexFamily) -> ConvergenceReport:
    """Generate the ladder, measure every level and fit orders.

    Every level's chart is built first; the jets of all levels and
    weights are then measured as one stack, and aggregation is a pure
    reduction, so results do not depend on evaluation scheduling.
    """
    charts, thetas = _ladder_charts(family)
    samples = _measure(charts, interior_weights(family.n), thetas)
    report = fit_orders(samples)
    for name in QUANTITIES:
        _check_slope(family, name, report.fitted_slopes[name],
                     [s.to_dict()[name] for s in samples])
    C0 = family.manifold.bounds.C0
    h_safe = 0.2 / math.sqrt(C0) if C0 > 0 else math.inf
    for name in QUANTITIES:
        vals = [s.to_dict()[name] for s in samples
                if s.h <= h_safe]
        if any(b > a * (1 + 1e-9) for a, b in zip(vals, vals[1:])):
            warnings.warn(f"distortion quantity {name} is not monotone "
                          "along the ladder", RuntimeWarning)
    return report


@dataclass(frozen=True)
class EdgeLengthReport:
    """Gap between geodesic edge lengths and tangent-space edge lengths
    seen from the barycenter point."""

    h: float
    max_rel_gap: float


def check_edge_length_comparison(chart: KarcherChart) -> EdgeLengthReport:
    man = chart.manifold
    n = chart.n
    lam = BarycentricWeight.barycenter(n)
    a = karcher_mean(chart, lam)
    worst = 0.0
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            tangent_len = man.norm(sigma(chart, lam, SimplexTangent.edge(n, j, i), at=a))
            geodesic_len = chart.edge_lengths.lengths[i, j]
            worst = max(worst, abs(geodesic_len - tangent_len) / geodesic_len)
    return EdgeLengthReport(h=chart.h, max_rel_gap=worst)


def edge_length_rate(family: SimplexFamily) -> tuple[list[EdgeLengthReport], SlopeFit]:
    """``check_edge_length_comparison`` at every ladder level and the
    slope of the gaps, with the ladder and slope checks of
    ``run_distortion_sweep``."""
    reports = [check_edge_length_comparison(chart) for chart in _ladder_charts(family)[0]]
    gaps = [r.max_rel_gap for r in reports]
    fit = fit_slope([r.h for r in reports], gaps)
    _check_slope(family, "edge length gap", fit, gaps)
    return reports, fit
