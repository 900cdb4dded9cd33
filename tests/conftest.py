from dataclasses import dataclass

import hypothesis
import numpy as np
import pytest

from karcher.manifolds import EuclideanSpace, HyperbolicSpace, Sphere

hypothesis.settings.register_profile(
    "numerics", max_examples=25, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("numerics")


@pytest.fixture(scope="session")
def sphere():
    return Sphere(2)


@pytest.fixture(scope="session")
def hyperbolic():
    return HyperbolicSpace(2, curvature=1.0)


@pytest.fixture(scope="session")
def euclidean3():
    return EuclideanSpace(3)


@dataclass(frozen=True)
class OdeCall:
    """One ``solve_ode`` call: its right-hand side and span, the first step
    it was asked to try (None for the default, the whole span), its
    right-hand-side evaluations and the step sizes it accepted."""
    rhs: object
    t_span: tuple
    first_step: float | None
    nfev: int
    steps: np.ndarray


@pytest.fixture
def ode_calls(monkeypatch):
    """The ``solve_ode`` calls that ``karcher.manifolds`` and
    ``karcher.jacobi`` make while the test runs, in order."""
    from karcher import integrate, jacobi, manifolds

    calls = []

    def recording(rhs, t_span, y0, **kwargs):
        sol = integrate.solve_ode(rhs, t_span, y0, **kwargs)
        calls.append(OdeCall(rhs, tuple(t_span), kwargs.get("first_step"),
                             int(sol.nfev), np.diff(sol.t)))
        return sol

    for mod in (manifolds, jacobi):
        monkeypatch.setattr(mod, "solve_ode", recording)
    return calls


@pytest.fixture
def christoffel_calls(monkeypatch):
    """The points at which the ``christoffel_fn`` of every
    ``ChartManifold`` built while the test runs is called, in order."""
    from karcher.manifolds import ChartManifold

    calls = []
    init = ChartManifold.__init__

    def recording_init(self, dim, metric_fn, christoffel_fn, *args, **kwargs):
        def recording(x):
            calls.append(np.array(x))
            return christoffel_fn(x)
        init(self, dim, metric_fn, recording, *args, **kwargs)

    monkeypatch.setattr(ChartManifold, "__init__", recording_init)
    return calls


def endpoint_shots(calls, man):
    """The calls that shoot exp_p(v) on the chart manifold ``man``: its
    geodesic equation over (0, 1)."""
    return [c for c in calls
            if c.rhs == man._geodesic_rhs and c.t_span == (0.0, 1.0)]


def strict_solver(monkeypatch, grad_tol=1e-16):
    """Lets the mean solver take one iterate, and gives every chart built
    afterwards and every batched row the stopping tolerance grad_tol."""
    from karcher import barycentric

    monkeypatch.setattr(barycentric, "MAX_MEAN_ITERS", 1)
    monkeypatch.setattr(barycentric, "default_grad_tol",
                        lambda h, coord_scale: np.full(np.shape(h), grad_tol))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_sphere_point(man, rng):
    v = rng.normal(size=man.coord_dim)
    return man.point(man.radius * v / np.linalg.norm(v))


def random_hyperbolic_point(man, rng, spread=0.5):
    x = rng.normal(size=man.dim) * spread
    last = np.sqrt(man.radius ** 2 + float(x @ x))
    return man.point(np.concatenate([x, [last]]))


def random_unit_tangent(man, p, rng):
    basis = man.tangent_basis(p)
    coeffs = rng.normal(size=len(basis))
    v = basis[0] * coeffs[0]
    for b, c in zip(basis[1:], coeffs[1:]):
        v = v + b * c
    return v * (1.0 / man.norm(v))
