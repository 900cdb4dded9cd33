"""Experiment definitions and the runnable verification suite.

Each experiment kind behind ``karcher run`` (distortion sweep, FEM Poisson
ladder, Jacobi oracle cases, flat simplex properties) is defined once
here: a records builder plus its named assertions, packaged by
``*_experiment`` into an :class:`Experiment`.  The acceptance criteria
read the same records through :class:`AcceptanceContext` and add their
own gates (elapsed time, extra manifolds).  Each check returns a
structured pass/fail result shared between the test suite and the
``karcher verify`` command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import flat_simplex, harness, jacobi
from .barycentric import (BarycentricWeight, KarcherChart, hessian,
                          karcher_mean, pullback_metric)
from .harness import EXPECTED_SLOPES, SLOPE_TOLERANCES
from .manifolds import EuclideanSpace, HyperbolicSpace, Manifold, Sphere

# Largest relative gap of a flat simplex's Cayley-Menger and Gram volumes.
VOLUME_GAP_TOL = 1e-10
# Every criterion's random seed, and criterion 10's FEM ladder levels.
SEED = 0
FEM_LEVELS = (1, 2, 3, 4)


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"criterion": self.criterion, "passed": self.passed,
                "detail": self.detail}


@dataclass(frozen=True)
class Experiment:
    """One finished experiment: its kind-specific report fields, its CSV
    table and the failures of its named assertions."""

    fields: dict
    header: list[str]
    rows: list[list]
    footer: list[list]
    failures: list[dict]


def _failure(assertion: str, detail: str) -> dict:
    return {"assertion": assertion, "detail": detail}


def _table(records: list[dict], header: list[str]) -> list[list]:
    return [[r[key] for key in header] for r in records]


def _slope_ok(fit: harness.SlopeFit, target: float, tol: float) -> bool:
    return math.isfinite(fit.slope) and abs(fit.slope - target) <= tol


# -- distortion sweep ----------------------------------------------------------

def distortion_family(man: Manifold, h0: float = 0.2,
                      levels: int = 5) -> harness.SimplexFamily:
    """Equilateral ladder centred at (0, ..., 0, radius) on the sphere and
    hyperboloid, at the origin of Euclidean space."""
    coords = np.zeros(man.coord_dim)
    if not isinstance(man, EuclideanSpace):
        coords[-1] = man.radius
    return harness.equilateral_family(man, man.point(coords), h0=h0,
                                      levels=levels)


def distortion_sweep(man: Manifold, h0: float = 0.2,
                     levels: int = 5) -> harness.ConvergenceReport:
    return harness.run_distortion_sweep(distortion_family(man, h0, levels))


def distortion_experiment(man: Manifold, h0: float, levels: int) -> Experiment:
    """Flat space: every sampled quantity vanishes.  Curved space: the
    sweep itself raises a SlopeFitError unless every local slope, and so
    every fitted order, lies within SLOPE_TOLERANCES of its expected
    value, so a report it returns has no failures."""
    report = distortion_sweep(man, h0, levels)
    records = [s.to_dict() for s in report.samples]
    failures = []
    if isinstance(man, EuclideanSpace):
        failures = [_failure(f"flat {name} at h={r['h']}", f"{val:.3e} > 1e-9")
                    for r in records for name, val in r.items()
                    if name in harness.QUANTITIES and val > 1e-9]
    header = ["h", "theta", *harness.QUANTITIES]
    footer = [["slope", ""] + [report.fitted_slopes[q].slope
                               for q in harness.QUANTITIES]]
    return Experiment({"report": report.to_dict()}, header,
                      _table(records, header), footer, failures)


# -- FEM Poisson ladder -----------------------------------------------------------

def fem_ladder(man: Sphere, levels, mode: str = "flat") -> list[dict]:
    """Model problem on the sphere of radius R: the divergence-form
    Poisson equation with f = -2z/R^2 has the exact solution u = z, whose
    surface gradient is e_z - (z/R^2) x.

    ``fem`` and its ``scipy.sparse`` are imported here, so runs and checks
    without a FEM ladder do not load them."""
    from . import fem

    r2 = man.radius ** 2
    return fem.poisson_ladder(
        man, levels,
        f=lambda c: -2.0 * c[2] / r2,
        u_exact=lambda c: c[2],
        grad_u_exact=lambda c: np.array([0.0, 0.0, 1.0]) - (c[2] / r2) * c,
        modes=(mode,))[mode]


def _fem_fit(records: list[dict], key: str) -> harness.SlopeFit:
    return harness.fit_slope([r["h"] for r in records],
                             [r[key] for r in records])


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def fem_failures(records: list[dict], h1_fit: harness.SlopeFit) -> list[dict]:
    failures = []
    if not h1_fit.slope >= 0.8:
        failures.append(_failure("H1 error slope",
                                 f"{h1_fit.slope:.3f} < 0.8"))
    l2 = [r["l2_error"] for r in records]
    if not _strictly_decreasing(l2):
        failures.append(_failure("L2 errors strictly decreasing", str(l2)))
    return failures


def fem_experiment(man: Sphere, levels, mode: str) -> Experiment:
    records = fem_ladder(man, levels, mode)
    h1_fit = _fem_fit(records, "h1_error")
    l2_fit = _fem_fit(records, "l2_error")
    header = ["level", "h", "dof", "l2_error", "h1_error"]
    return Experiment(
        {"records": records,
         "fitted_slopes": {"h1_error": h1_fit.to_dict(),
                           "l2_error": l2_fit.to_dict()}},
        header, _table(records, header),
        [["slope", "", "", l2_fit.slope, h1_fit.slope]],
        fem_failures(records, h1_fit))


# -- Jacobi oracle ------------------------------------------------------------------

def jacobi_cases(man: Manifold, rng: np.random.Generator,
                 trials: int) -> list[dict]:
    """Random geodesics of length tau in (0.05, 1); each gap compares
    tau J'(tau) from the Jacobi BVP with the closed-form Hessian of
    dist^2/2 applied to the same end value."""
    cases = []
    for case in range(trials):
        p = _random_point(man, rng)
        direction = _random_tangent(man, p, rng)
        tau = float(rng.uniform(0.05, 1.0))
        gamma = man.geodesic_from(p, direction, length=tau)
        q = gamma.point(tau)
        V = _random_tangent(man, q, rng, unit=False)
        jdot_tau, _ = jacobi.solve_bvp(gamma, V)
        gap = (tau * jdot_tau.components
               - man.hess_half_dist_sq(p, q, V).components)
        cases.append({"case": case, "tau": tau,
                      "gap": man.norm(man.tangent(q, gap))})
    return cases


def _max_gap(cases: list[dict]) -> float:
    return max([0.0] + [c["gap"] for c in cases])


def jacobi_failures(cases: list[dict]) -> list[dict]:
    worst = _max_gap(cases)
    if worst > 1e-8:
        return [_failure("Jacobi oracle gap", f"max gap {worst:.3e} > 1e-8")]
    return []


def jacobi_experiment(man: Manifold, seed: int, trials: int) -> Experiment:
    cases = jacobi_cases(man, np.random.default_rng(seed), trials)
    worst = _max_gap(cases)
    header = ["case", "tau", "gap"]
    return Experiment({"cases": cases, "max_gap": worst}, header,
                      _table(cases, header), [["max", "", worst]],
                      jacobi_failures(cases))


# -- flat simplex properties ------------------------------------------------------

def flat_simplex_trials(rng: np.random.Generator, trials: int,
                        max_dim: int = 4) -> list[dict]:
    """Random realizable simplices of dimension 2..max_dim (non-realizable
    draws are redrawn): relative gap between the Cayley-Menger and Gram
    volumes, and whether the Gram eigenvalues obey their bounds."""
    rows = []
    while len(rows) < trials:
        n = int(rng.integers(2, max_dim + 1))
        pts = rng.uniform(-1.0, 1.0, size=(n + 1, n))
        system = flat_simplex.EdgeLengthSystem.from_points(pts)
        gm = flat_simplex.flat_metric_from_lengths(system)
        if not gm.realizable:
            continue
        v_cm = flat_simplex.volume_from_cayley_menger(gm.E)
        v_gram = flat_simplex.volume_from_gram(gm.G)
        contained = True
        try:
            flat_simplex.gram_eigen_bounds(gm, system.max_length)
        except ArithmeticError:
            contained = False
        rows.append({"trial": len(rows), "n": n,
                     "volume_gap": abs(v_cm - v_gram) / max(v_cm, v_gram),
                     "eigen_contained": contained})
    return rows


def flat_simplex_experiment(seed: int, trials: int) -> Experiment:
    rows = flat_simplex_trials(np.random.default_rng(seed), trials)
    failures = []
    for r in rows:
        if r["volume_gap"] > VOLUME_GAP_TOL:
            failures.append(_failure(f"volume agreement trial {r['trial']}",
                                     f"{r['volume_gap']:.3e} > {VOLUME_GAP_TOL:g}"))
        if not r["eigen_contained"]:
            failures.append(_failure(
                f"eigenvalue containment trial {r['trial']}",
                "bounds violated"))
    header = ["trial", "n", "volume_gap", "eigen_contained"]
    return Experiment({"trials": rows}, header, _table(rows, header), [],
                      failures)


# -- acceptance criteria ----------------------------------------------------------

class AcceptanceContext:
    """Caches the expensive shared artifacts (ladder sweeps, FEM runs) so
    several criteria can reuse one computation; records wall times."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._cache: dict[str, object] = {}

    def _get(self, key: str, builder):
        if key not in self._cache:
            start = time.perf_counter()
            self._cache[key] = builder()
            self.timings[key] = time.perf_counter() - start
        return self._cache[key]

    @property
    def sphere_family(self) -> harness.SimplexFamily:
        return distortion_family(Sphere(2))

    @property
    def sphere_sweep(self) -> harness.ConvergenceReport:
        return self._get("sphere_sweep", lambda: distortion_sweep(Sphere(2)))

    @property
    def hyperbolic_sweep(self) -> harness.ConvergenceReport:
        return self._get("hyperbolic_sweep", lambda: distortion_sweep(
            HyperbolicSpace(2, curvature=1.0)))

    @property
    def fem_records(self) -> list[dict]:
        return self._get("fem_records",
                         lambda: fem_ladder(Sphere(2), FEM_LEVELS))


def _slope_check(criterion: str, fit: harness.SlopeFit, target: float,
                 tol: float, elapsed: float | None = None,
                 limit: float | None = None) -> CheckResult:
    ok = _slope_ok(fit, target, tol)
    detail = f"slope={fit.slope:.3f} target {target}+/-{tol}"
    if elapsed is not None and limit is not None:
        ok = ok and elapsed <= limit
        detail += f"; elapsed {elapsed:.1f}s <= {limit:.0f}s"
    return CheckResult(criterion, ok, detail)


def _sphere_sweep_check(criterion: str, ctx: AcceptanceContext, name: str,
                        limit: float | None = None) -> CheckResult:
    return _slope_check(criterion, ctx.sphere_sweep.fitted_slopes[name],
                        EXPECTED_SLOPES[name], SLOPE_TOLERANCES[name],
                        ctx.timings.get("sphere_sweep"), limit)


def check_metric_distortion_rate(ctx: AcceptanceContext) -> CheckResult:
    return _sphere_sweep_check("1 metric distortion rate (sphere)", ctx,
                               "metric_gap", 60.0)


def check_connection_distortion_rate(ctx: AcceptanceContext) -> CheckResult:
    return _sphere_sweep_check("2 connection distortion rate (sphere)", ctx,
                               "connection_gap", 120.0)


def check_dx_sigma_rate(ctx: AcceptanceContext) -> CheckResult:
    s_fit = ctx.sphere_sweep.fitted_slopes["dx_sigma_gap"]
    h_fit = ctx.hyperbolic_sweep.fitted_slopes["dx_sigma_gap"]
    tol = SLOPE_TOLERANCES["dx_sigma_gap"]
    # The sphere is held to 0.25 here, tighter than the shared band.
    ok = _slope_ok(s_fit, 2.0, 0.25) and _slope_ok(h_fit, 2.0, tol)
    detail = (f"sphere slope={s_fit.slope:.3f} (2.0+/-0.25), "
              f"hyperbolic slope={h_fit.slope:.3f} (2.0+/-{tol})")
    return CheckResult("3 differential vs flat model rate", ok, detail)


def check_nabla_dx_rate(ctx: AcceptanceContext) -> CheckResult:
    return _sphere_sweep_check("4 second derivative rate (sphere)", ctx,
                               "nabla_dx")


def check_flat_space_exactness(ctx: AcceptanceContext) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    man = EuclideanSpace(3)
    worst = 0.0
    for _ in range(3):
        pts = rng.uniform(-1.0, 1.0, size=(4, 3))
        vertices = [man.point(p) for p in pts]
        chart = KarcherChart(man, vertices)
        for _ in range(4):
            w = rng.dirichlet(np.ones(4))
            lam = BarycentricWeight(w)
            mean = karcher_mean(chart, lam)
            worst = max(worst, float(np.max(np.abs(
                mean.coords - w @ pts))))
            jet = hessian(chart, lam, at=mean)
            xg = pullback_metric(chart, lam, jet=jet)
            worst = max(worst, float(np.max(np.abs(xg - chart.flat_metric.G))))
            worst = max(worst, float(np.max(np.abs(jet.nabla_dx_tensor))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 1.0
    return CheckResult("5 flat space exactness", ok,
                       f"max deviation {worst:.2e} <= 1e-10; "
                       f"elapsed {elapsed:.2f}s <= 1s")


def check_edge_and_submanifold(ctx: AcceptanceContext) -> CheckResult:
    man = Sphere(2)
    center = man.point([0.0, 0.0, 1.0])
    family = ctx.sphere_family
    chart = harness.generate_geodesic_simplex(man, center, family.directions, 0.2)
    tol_edge = 10.0 * chart.grad_tol
    worst_edge = 0.0
    for (i, j) in ((0, 1), (1, 2), (0, 2)):
        gamma = man.geodesic_between(chart.vertices[i], chart.vertices[j])
        for t in (0.25, 0.5, 0.75):
            lam_v = np.zeros(3)
            lam_v[i] = 1.0 - t
            lam_v[j] = t
            x = karcher_mean(chart, BarycentricWeight(lam_v))
            worst_edge = max(worst_edge,
                             man.dist(x, gamma.point(t * gamma.length)))

    # Vertices on the equator: a totally geodesic circle; the mean must
    # stay on it for every weight.
    rng = np.random.default_rng(SEED)
    angles = np.array([0.0, 0.25, 0.55])
    verts = [man.point([math.cos(a), math.sin(a), 0.0]) for a in angles]
    circle_chart = KarcherChart(man, verts)
    worst_plane = 0.0
    for _ in range(10):
        lam = BarycentricWeight(rng.dirichlet(np.ones(3)))
        x = karcher_mean(circle_chart, lam)
        worst_plane = max(worst_plane, abs(float(x.coords[2])))
    ok = worst_edge <= tol_edge and worst_plane <= 1e-9
    return CheckResult(
        "6 edge and submanifold properties", ok,
        f"edge deviation {worst_edge:.2e} <= {tol_edge:.1e}; "
        f"great-circle deviation {worst_plane:.2e} <= 1e-9")


def check_jacobi_oracle(ctx: AcceptanceContext) -> CheckResult:
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cases = [case for man in (Sphere(2), HyperbolicSpace(2, curvature=1.0))
             for case in jacobi_cases(man, rng, 100)]
    elapsed = time.perf_counter() - start
    ok = not jacobi_failures(cases) and elapsed <= 10.0
    return CheckResult(
        "7 Jacobi solver vs closed forms", ok,
        f"{len(cases)} cases, max gap {_max_gap(cases):.2e} <= 1e-8; "
        f"elapsed {elapsed:.1f}s <= 10s")


def ode_bound_trials(rng: np.random.Generator, n: int) -> list[tuple]:
    """n random (A_fn, B_fn, tau) of ``jacobi.ode_bound_check``: A = a0 +
    sin(omega t) a1 with |a0|_2 + |a1|_2 = 0.9 / tau^2, B = b0 + cos(omega t) b1."""
    trials = []
    for _ in range(n):
        tau = float(rng.uniform(0.3, 2.0))
        a0 = rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3))
        target = 0.9 / tau ** 2
        nrm = max(np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2), 1e-12)
        a0 *= target / nrm
        a1 *= target / nrm
        b0 = rng.normal(size=3)
        b1 = rng.normal(size=3)
        omega = 2.0 * math.pi / tau
        trials.append((lambda t, a0=a0, a1=a1, omega=omega: a0 + math.sin(omega * t) * a1,
                       lambda t, b0=b0, b1=b1, omega=omega: b0 + math.cos(omega * t) * b1,
                       tau))
    return trials


def check_ode_bound(ctx: AcceptanceContext) -> CheckResult:
    reports = [jacobi.ode_bound_check(*trial)
               for trial in ode_bound_trials(np.random.default_rng(SEED), 50)]
    failures = sum(not r.passed for r in reports)
    worst_ratio = max(r.max_Udot / r.bound for r in reports)
    return CheckResult("8 two-point ODE derivative bound", failures == 0,
                       f"50 trials, failures={failures}, "
                       f"worst max|U'|/(3 max|B| tau)={worst_ratio:.3f}")


def check_flat_simplex_suite(ctx: AcceptanceContext) -> CheckResult:
    rng = np.random.default_rng(SEED)
    worst_vol = max(r["volume_gap"] for r in flat_simplex_trials(rng, 200))
    eig_ok = all(r["eigen_contained"]
                 for r in flat_simplex_trials(rng, 100, max_dim=3))

    equilateral = flat_simplex.flat_metric_from_lengths(
        flat_simplex.EdgeLengthSystem(np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0.0]])))
    theta = flat_simplex.fullness(equilateral, 1.0)
    theta_gap = abs(theta - math.sqrt(3.0) / 2.0)

    ok = worst_vol <= VOLUME_GAP_TOL and eig_ok and theta_gap <= 1e-12
    return CheckResult(
        "9 flat simplex suite", ok,
        f"volume route gap {worst_vol:.2e} <= {VOLUME_GAP_TOL:g} (200 systems); "
        f"eigen containment {'ok' if eig_ok else 'VIOLATED'} (100 draws); "
        f"equilateral fullness gap {theta_gap:.2e} <= 1e-12")


def check_fem_poisson(ctx: AcceptanceContext) -> CheckResult:
    records = ctx.fem_records
    elapsed = ctx.timings.get("fem_records", 0.0)
    fit = _fem_fit(records, "h1_error")
    decreasing = _strictly_decreasing([r["l2_error"] for r in records])
    ok = not fem_failures(records, fit) and elapsed <= 120.0
    return CheckResult(
        "10 FEM Poisson convergence", ok,
        f"H1 slope={fit.slope:.3f} >= 0.8; L2 errors "
        f"{'strictly decreasing' if decreasing else 'NOT decreasing'}; "
        f"elapsed {elapsed:.1f}s <= 120s")


def check_edge_length_rate(ctx: AcceptanceContext) -> CheckResult:
    _, fit = harness.edge_length_rate(ctx.sphere_family)
    return _slope_check("11 edge length comparison rate", fit,
                        EXPECTED_SLOPES["edge_length_gap"], SLOPE_TOLERANCES["edge_length_gap"])


def _random_point(man, rng):
    if isinstance(man, Sphere):
        v = rng.normal(size=man.coord_dim)
        return man.point(man.radius * v / np.linalg.norm(v))
    if isinstance(man, HyperbolicSpace):
        x = rng.normal(size=man.dim) * 0.5
        r = man.radius
        last = math.sqrt(r ** 2 + float(x @ x))
        return man.point(np.concatenate([x, [last]]))
    return man.point(rng.normal(size=man.coord_dim))


def _random_tangent(man, p, rng, unit: bool = True):
    basis = man.tangent_basis(p)
    coeffs = rng.normal(size=len(basis))
    vec = basis[0] * coeffs[0]
    for b, c in zip(basis[1:], coeffs[1:]):
        vec = vec + b * c
    if unit:
        return vec * (1.0 / man.norm(vec))
    return vec


CRITERIA = {
    "1": check_metric_distortion_rate,
    "2": check_connection_distortion_rate,
    "3": check_dx_sigma_rate,
    "4": check_nabla_dx_rate,
    "5": check_flat_space_exactness,
    "6": check_edge_and_submanifold,
    "7": check_jacobi_oracle,
    "8": check_ode_bound,
    "9": check_flat_simplex_suite,
    "10": check_fem_poisson,
    "11": check_edge_length_rate,
}

SUITES = {
    "distortion": ("1", "2", "3", "4", "11"),
    "karcher": ("5", "6"),
    "jacobi": ("7", "8"),
    "flat-simplex": ("9",),
    "fem": ("10",),
    "all": tuple(CRITERIA),
}


def run_suite(name: str, ctx: AcceptanceContext | None = None) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(name)
    ctx = ctx if ctx is not None else AcceptanceContext()
    return [CRITERIA[c](ctx) for c in SUITES[name]]
