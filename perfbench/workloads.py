"""The three benchmark workloads: seeded inputs, one timed pass, checks.

All workloads are closed loops with one caller: a pass runs its tasks one
after another, and the benchmark runs passes until its time is used.

* ``fem-ladder`` - the Poisson model problem of configs/fem_poisson.json
  with the exact solution rotated by the seed, on icosphere levels 1-4, in
  both assembly modes.  A task is one rung: mesh build, then assemble,
  solve and error norms in each mode.  Chart jets at the quadrature nodes
  dominate, so batched jet kernels show here.
* ``distortion-sweep`` - 20 sphere and 20 hyperbolic simplex families
  through the full distortion sweep (5 levels x 24 weights of ``hessian``
  and ``sigma``).  Few charts, many weights and second derivatives: the
  opposite shape of the FEM ladder on the same two layers.  Hyperbolic
  centers sit at a seeded distance in [0, 2.5] from the origin, where every
  family passes.  Farther out the hyperboloid's absolute tolerances fail
  (results depend on position); the traced run counts those failures
  with a fixed position probe at distances 3-10.
* ``chart-ode`` - chart jets on the Poincare disk given as a
  ``ChartManifold``: RK geodesics, shooting logarithms and Jacobi BVPs,
  the scalar ODE path that batching the closed-form spaces must not slow.
  A task is one jet: chart, mean, differential and pulled-back metric.
  Simplex diameters (0.05-0.2) and center radii come from a fixed
  stratified design, because the cost of a jet grows with the diameter;
  the seed draws positions, shapes and weights.

Checks: the paper's orders (distortion slopes, FEM L2/H1 rates), an
independent oracle (the closed-form hyperboloid for chart-ode, the exact
solution for FEM), and stored reference outputs for the reference seed.

Timing: the speed of a core on a shared machine drifts by tens of percent
over seconds, and the drift is not shared between cores.  A task's
latency is therefore also reported at a reference speed: a fixed probe
of small numpy operations (``SpeedClock``) runs before and after every
task and, at most every ``SAMPLE_INTERVAL_S``, from the workload's own
callbacks; its time is taken out of the task's latency, and the latency
is scaled by ``PROBE_NOMINAL_S`` over the median probe time seen during
the task.
"""

from __future__ import annotations

import math
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from karcher import barycentric, fem, harness
from karcher.manifolds import (ChartManifold, HyperbolicSpace, ManifoldBounds,
                               Sphere)

# Slope tolerances of ``karcher run`` for distortion sweeps.
SLOPE_TOL = {"metric_gap": 0.25, "connection_gap": 0.25,
             "dx_sigma_gap": 0.3, "nabla_dx": 0.25}
FEM_ORDERS = {"l2": 2.0, "h1": 1.0}
FEM_ORDER_TOL = 0.25
FEM_RESIDUAL_TOL = 1e-10
FEM_MODES = ("flat", "pulled-back")
# Chart-ode agreement with the closed-form hyperboloid; observed ~1e-11,
# the shooting tolerance is 1e-11 and the ODE rtol 1e-12.
ORACLE_TOL = 1e-8
HYPERBOLIC_MAX_DIST = 2.5
PROBE_DISTANCES = (3.0, 3.25, 3.5, 4.0, 4.5, 5.0, 7.5, 10.0)
SAMPLE_INTERVAL_S = 0.15
MIN_SAMPLES = 12
# Probe time on the 2-core x86_64 machine the baseline was recorded on,
# so reference-speed seconds read close to wall seconds there.
PROBE_NOMINAL_S = 0.006

_PROBE_RNG = np.random.default_rng(20161004)
_PROBE_VECS = _PROBE_RNG.normal(size=(64, 3))
_PROBE_MAT = _PROBE_RNG.normal(size=(3, 3)) + 4.0 * np.eye(3)


def speed_probe() -> float:
    """Fixed work shaped like the library's inner loops: 3-vector numpy
    calls, a small solve and scalar math from Python."""
    acc = 0.0
    for _ in range(4):
        for k in range(64):
            a, b = _PROBE_VECS[k], _PROBE_VECS[k - 1]
            w = b - (float(np.dot(a, b)) / float(np.dot(a, a))) * a
            n = float(np.linalg.norm(w))
            acc += math.atan2(n, 1.0 + abs(float(np.dot(a, b))))
            acc += float(np.linalg.solve(_PROBE_MAT + n * np.eye(3), w)[0])
    return acc


class SpeedClock:
    """Times tasks and scales them to the reference speed of the probe.

    The probe's time is bimodal on a shared core (the core is fast or
    slow for milliseconds at a time), so a task is scaled by the mean of
    at least ``MIN_SAMPLES`` probe times around it, not by one sample."""

    def __init__(self, enabled: bool = True, ticks: bool = True):
        self.enabled = enabled
        self.ticks = ticks  # off in traced passes: no probe time inside spans
        self.samples: list[float] = []
        self._inside = 0.0
        self._last = -math.inf

    def sample(self) -> float:
        t0 = time.perf_counter()
        speed_probe()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self._last - t0

    def tick(self):
        """Called from callbacks inside library calls."""
        if (self.enabled and self.ticks
                and time.perf_counter() - self._last >= SAMPLE_INTERVAL_S):
            self._inside += self.sample()

    def run(self, fn) -> tuple[float, tuple[int, int], object]:
        """Run ``fn()``; return its latency without probe time, the range
        of probe samples bracketing it, and its result or exception.  The
        sample taken after one task also serves as the sample before the
        next."""
        if self.enabled and time.perf_counter() - self._last > SAMPLE_INTERVAL_S:
            self.sample()
        first = len(self.samples) - 1
        self._inside = 0.0
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted by the caller as a failed task
            result = exc
        latency = time.perf_counter() - t0 - self._inside
        if self.enabled:
            self.sample()
        return latency, (first, len(self.samples)), result

    def scale(self, tasks: list["Task"]):
        """Set each task's reference-speed latency once its pass is done."""
        n = len(self.samples)
        for t in tasks:
            lo, hi = t.samples
            if not self.enabled or n == 0:
                t.ref_latency = t.latency
                continue
            while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
                lo, hi = max(lo - 1, 0), min(hi + 1, n)
            t.ref_latency = t.latency * PROBE_NOMINAL_S / statistics.fmean(
                self.samples[lo:hi])


@dataclass
class Task:
    """Outcome of one task: latency (measured, and at the probe's
    reference speed), outputs (compared with the reference), diagnostics
    (not compared), and why it failed if it did."""

    label: str
    latency: float
    output: dict | None
    errors: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    samples: tuple[int, int] = (0, 0)
    ref_latency: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors


def _timed(label: str, clock: SpeedClock, fn, outputs) -> Task:
    """One task: ``fn`` computes, ``outputs`` turns its result into
    (output, diagnostics) outside the timing."""
    latency, samples, result = clock.run(fn)
    if isinstance(result, Exception):
        return Task(label, latency, None, [_error(result)], samples=samples)
    out, diag = outputs(result)
    return Task(label, latency, out, diagnostics=diag, samples=samples)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _set_task(tracer, i: int):
    if tracer is not None:
        tracer.task = i


# -- fem-ladder ---------------------------------------------------------------

@dataclass
class FemInputs:
    manifold: Sphere
    axis: np.ndarray
    levels: tuple[int, ...]
    clock: SpeedClock = field(default_factory=lambda: SpeedClock(False))

    def f(self, c):
        self.clock.tick()
        return -2.0 * float(self.axis @ c)

    def u_exact(self, c):
        self.clock.tick()
        return float(self.axis @ c)

    def grad_u_exact(self, c):
        return self.axis - float(self.axis @ c) * c


class FemLadder:
    name = "fem-ladder"
    sizes = {"full": {"levels": (1, 2, 3, 4)}, "smoke": {"levels": (1, 2)}}
    # Stage split of a rung in the traced run, by span name.
    stages = {"mesh": "fem.build_triangulation", "jets": "fem.quad_data",
              "assembly": "fem.assemble", "cg": "fem.solve_poisson",
              "error_norms": "fem.error_norms"}

    def make_inputs(self, seed: int, size: str) -> FemInputs:
        rng = np.random.default_rng(seed)
        axis = rng.normal(size=3)
        return FemInputs(Sphere(2), axis / np.linalg.norm(axis),
                         self.sizes[size]["levels"])

    def tasks_per_pass(self, size: str) -> int:
        return len(self.sizes[size]["levels"])

    def run_pass(self, inp: FemInputs, clock: SpeedClock, tracer=None) -> list[Task]:
        inp.clock = clock
        tasks = []
        for i, level in enumerate(inp.levels):
            _set_task(tracer, i)

            def rung(level=level):
                tri = fem.build_triangulation(inp.manifold, level)
                solved = []
                for mode in FEM_MODES:
                    system = fem.assemble(tri, inp.f, mode=mode)
                    u = fem.solve_poisson(system)
                    l2, h1 = fem.error_norms(tri, u, inp.u_exact, inp.grad_u_exact)
                    solved.append((mode, system, u, l2, h1))
                return tri, solved

            def outputs(result, level=level):
                tri, solved = result
                out = {"level": level, "h": tri.h, "dof": tri.num_vertices}
                diag = {}
                for mode, system, u, l2, h1 in solved:
                    out[f"{mode}.l2"] = l2
                    out[f"{mode}.h1"] = h1
                    diag[f"{mode}.residual"] = _relative_residual(system, u)
                return out, diag

            tasks.append(_timed(f"level-{level}", clock, rung, outputs))
        inp.clock = SpeedClock(False)
        return tasks

    def check(self, inp: FemInputs, tasks: list[Task]):
        for t in tasks:
            if t.ok:
                for mode in FEM_MODES:
                    r = t.diagnostics[f"{mode}.residual"]
                    if not r <= FEM_RESIDUAL_TOL:
                        t.errors.append(f"{mode} relative residual {r:.2e}")
        if not all(t.ok for t in tasks):
            return
        hs = np.array([t.output["h"] for t in tasks])
        problems = []
        for mode in FEM_MODES:
            for norm, order in FEM_ORDERS.items():
                errs = np.array([t.output[f"{mode}.{norm}"] for t in tasks])
                if not np.all(np.diff(errs) < 0):
                    problems.append(f"{mode} {norm} errors not decreasing")
                slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
                if not abs(slope - order) <= FEM_ORDER_TOL:
                    problems.append(f"{mode} {norm} slope {slope:.3f} "
                                    f"outside {order}+/-{FEM_ORDER_TOL}")
        for t in tasks:  # the orders belong to the whole ladder
            t.errors.extend(problems)


def _relative_residual(system, u) -> float:
    """||S u - b|| / ||b|| for the compatible right-hand side the solver
    uses; u is shifted by a constant, which S annihilates."""
    b = -system.load
    b = b - b.mean()
    scale = float(np.linalg.norm(b))
    res = float(np.linalg.norm(system.stiffness @ u - b))
    return res / scale if scale > 0 else res


# -- distortion-sweep ---------------------------------------------------------

@dataclass(frozen=True)
class Family:
    label: str
    manifold: object
    center: object


def _hyperbolic_center(man: HyperbolicSpace, d: float, angle: float):
    coords = np.array([math.sinh(d) * math.cos(angle),
                       math.sinh(d) * math.sin(angle), math.cosh(d)])
    return man.point(coords)


def _sweep(man, center) -> tuple[dict, int]:
    """Run one family through the sweep: slopes and suprema, and the
    number of monotonicity warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        family = harness.equilateral_family(man, center, h0=0.2, levels=5)
        report = harness.run_distortion_sweep(family)
    out = {"h": [s.h for s in report.samples]}
    for q in harness.QUANTITIES:
        out[f"slope.{q}"] = report.fitted_slopes[q].slope
        out[f"sup.{q}"] = [s.to_dict()[q] for s in report.samples]
    return out, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def _order_errors(out: dict) -> list[str]:
    errors = []
    for q, tol in SLOPE_TOL.items():
        slope, target = out[f"slope.{q}"], harness.EXPECTED_SLOPES[q]
        if not (math.isfinite(slope) and abs(slope - target) <= tol):
            errors.append(f"{q} slope {slope:.3f} outside {target}+/-{tol}")
    return errors


class DistortionSweep:
    name = "distortion-sweep"
    sizes = {"full": {"per_space": 20}, "smoke": {"per_space": 1}}

    def make_inputs(self, seed: int, size: str) -> list[Family]:
        rng = np.random.default_rng(seed)
        n = self.sizes[size]["per_space"]
        sphere, hyp = Sphere(2), HyperbolicSpace(2, curvature=1.0)
        families = []
        for k in range(n):
            v = rng.normal(size=3)
            families.append(Family(f"sphere-{k}", sphere,
                                   sphere.point(v / np.linalg.norm(v))))
        for k in range(n):
            d = float(rng.uniform(0.0, HYPERBOLIC_MAX_DIST))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            families.append(Family(f"hyperbolic-{k} d={d:.4f}", hyp,
                                   _hyperbolic_center(hyp, d, angle)))
        return families

    def tasks_per_pass(self, size: str) -> int:
        return 2 * self.sizes[size]["per_space"]

    def run_pass(self, families: list[Family], clock: SpeedClock,
                 tracer=None) -> list[Task]:
        tasks = []
        for i, fam in enumerate(families):
            _set_task(tracer, i)
            tasks.append(_timed(
                fam.label, clock, lambda fam=fam: _sweep(fam.manifold, fam.center),
                lambda res: (res[0], {"monotone_warnings": res[1]})))
        return tasks

    def check(self, families, tasks: list[Task]):
        for t in tasks:
            if t.ok:
                t.errors.extend(_order_errors(t.output))

    def probe(self, seed: int, size: str) -> list[dict]:
        """Hyperbolic families at fixed distances beyond the workload's
        range, where results depend on position.  Not timed and not
        counted as tasks."""
        rng = np.random.default_rng([seed, 1])
        hyp = HyperbolicSpace(2, curvature=1.0)
        distances = PROBE_DISTANCES if size == "full" else PROBE_DISTANCES[2::3]
        results = []
        for d in distances:
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            try:
                errors = _order_errors(_sweep(hyp, _hyperbolic_center(hyp, d, angle))[0])
            except Exception as exc:
                errors = [_error(exc)]
            results.append({"distance": d, "angle": angle, "errors": errors})
        return results


# -- chart-ode ------------------------------------------------------------------

def disk_to_hyperboloid(x):
    s = 1.0 - float(x @ x)
    return np.array([2.0 * x[0], 2.0 * x[1], 1.0 + float(x @ x)]) / s


def disk_to_hyperboloid_jacobian(x):
    s = 1.0 - float(x @ x)
    lifted = disk_to_hyperboloid(x)
    jac = np.zeros((3, 2))
    jac[:2, :] = 2.0 * np.eye(2) / s
    jac[2, :] = 2.0 * x / s
    return jac + np.outer(lifted, 2.0 * x / s)


@dataclass
class ChartInputs:
    triples: list
    weights: list
    clock: SpeedClock = field(default_factory=lambda: SpeedClock(False))

    def __post_init__(self):
        self.disk = ChartManifold(2, self.disk_metric, self.disk_christoffel,
                                  bounds=ManifoldBounds(1.0, 0.0, math.inf, math.inf))
        self.hyperboloid = HyperbolicSpace(2, curvature=1.0)

    def disk_metric(self, x):
        s = 1.0 - float(x @ x)
        return (4.0 / s ** 2) * np.eye(2)

    def disk_christoffel(self, x):
        self.clock.tick()
        s = 1.0 - float(x @ x)
        df = 2.0 * x / s
        eye = np.eye(2)
        # Gamma^k_ij = delta_ik df_j + delta_jk df_i - delta_ij df_k
        return (np.einsum("ik,j->kij", eye, df) + np.einsum("jk,i->kij", eye, df)
                - np.einsum("ij,k->kij", eye, df))


class ChartOde:
    name = "chart-ode"
    sizes = {"full": {"jets": 40}, "smoke": {"jets": 3}}

    def make_inputs(self, seed: int, size: str) -> ChartInputs:
        rng = np.random.default_rng(seed)
        n = self.sizes[size]["jets"]
        strata = (np.arange(n) + 0.5) / n
        diam = 0.05 + 0.15 * strata
        radial = strata[np.random.default_rng(0).permutation(n)]  # same for every seed
        inp = ChartInputs([], [])
        for k in range(n):
            circum = diam[k] / math.sqrt(3.0)
            rc = radial[k] * (0.5 - circum)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            center = rc * np.array([math.cos(phi), math.sin(phi)])
            angles = (rng.uniform(0.0, 2.0 * math.pi)
                      + 2.0 * math.pi * np.arange(3) / 3.0
                      + rng.uniform(-0.25, 0.25, size=3))
            inp.triples.append(tuple(
                inp.disk.point(center + circum * np.array([math.cos(a), math.sin(a)]))
                for a in angles))
            inp.weights.append(barycentric.BarycentricWeight(
                0.05 + 0.85 * rng.dirichlet(np.ones(3))))
        return inp

    def tasks_per_pass(self, size: str) -> int:
        return self.sizes[size]["jets"]

    def run_pass(self, inp: ChartInputs, clock: SpeedClock,
                 tracer=None) -> list[Task]:
        inp.clock = clock
        tasks = []
        for i, (verts, lam) in enumerate(zip(inp.triples, inp.weights)):
            _set_task(tracer, i)

            def jet_task(verts=verts, lam=lam):
                chart = barycentric.KarcherChart(inp.disk, verts)
                a = barycentric.karcher_mean(chart, lam)
                jet = barycentric.differential(chart, lam, at=a)
                return jet, barycentric.pullback_metric(chart, lam, jet=jet)

            tasks.append(_timed(f"jet-{i}", clock, jet_task, lambda res: ({
                "point": res[0].point.coords.tolist(),
                "dx": res[0].dx_matrix.ravel().tolist(),
                "metric": res[1].ravel().tolist()}, {})))
        inp.clock = SpeedClock(False)
        return tasks

    def check(self, inp: ChartInputs, tasks: list[Task]):
        hyp = inp.hyperboloid
        for t, verts, lam in zip(tasks, inp.triples, inp.weights):
            if not t.ok:
                continue
            try:
                chart = barycentric.KarcherChart(
                    hyp, [hyp.point(disk_to_hyperboloid(v.coords)) for v in verts])
                jet = barycentric.differential(chart, lam)
                g = barycentric.pullback_metric(chart, lam, jet=jet)
            except Exception as exc:
                t.errors.append(f"oracle raised {_error(exc)}")
                continue
            x = np.array(t.output["point"])
            dx = np.array(t.output["dx"]).reshape(2, 2)
            pairs = {"point": (disk_to_hyperboloid(x), jet.point.coords),
                     "dx": (disk_to_hyperboloid_jacobian(x) @ dx, jet.dx_matrix),
                     "metric": (np.array(t.output["metric"]).reshape(2, 2), g)}
            for key, (got, want) in pairs.items():
                gap = float(np.max(np.abs(got - want)))
                if not gap <= ORACLE_TOL * max(1.0, float(np.max(np.abs(want)))):
                    t.errors.append(f"oracle {key} gap {gap:.2e}")


WORKLOADS = {w.name: w for w in (FemLadder(), DistortionSweep(), ChartOde())}


def compare_reference(tasks: list[Task], ref_outputs: list[dict],
                      rtol: float, atol: float):
    """Mark tasks whose outputs differ from the stored reference."""
    if len(ref_outputs) != len(tasks):
        for t in tasks:
            t.errors.append("reference has a different number of tasks")
        return
    for t, ref in zip(tasks, ref_outputs):
        if not t.ok:
            continue
        for key, want in ref.items():
            got = np.asarray(t.output.get(key, np.nan), dtype=float)
            want = np.asarray(want, dtype=float)
            if got.shape != want.shape or not np.all(
                    np.abs(got - want) <= atol + rtol * np.abs(want)):
                t.errors.append(f"reference mismatch in {key}")
