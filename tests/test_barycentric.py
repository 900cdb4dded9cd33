import math

import numpy as np
import pytest

from karcher.barycentric import (KarcherChart, SolverConfig, a_operator,
                                 differential, energy, grad_field, hessian,
                                 karcher_mean, pullback_metric, sigma)
from karcher.errors import MeanSolverError
from karcher.flat_simplex import BarycentricWeight, SimplexTangent
from karcher.harness import equilateral_family, generate_geodesic_simplex
from karcher.manifolds import EuclideanSpace

from conftest import random_unit_tangent


@pytest.fixture(scope="module")
def sphere_chart(sphere):
    family = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 1)
    return generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                     family.directions, 0.2)


@pytest.fixture()
def euclid_chart(euclidean3, rng):
    pts = rng.uniform(-1.0, 1.0, size=(4, 3))
    return pts, KarcherChart(euclidean3, [euclidean3.point(p) for p in pts])


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=1e-12, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=1e-12, step_damping=1.5)


def test_chart_rejects_vertices_beyond_convexity(sphere):
    p0 = sphere.point([0.0, 0.0, 1.0])
    p1 = sphere.point([0.0, 0.0, -1.0])
    p1 = sphere.point([math.sin(2.0), 0.0, math.cos(2.0)])  # dist 2 > pi/2
    with pytest.raises(ValueError):
        KarcherChart(sphere, [p0, p1])


# -- energy -------------------------------------------------------------------

def test_energy_vertex_weight_is_zero(sphere_chart):
    lam = BarycentricWeight.vertex(2, 1)
    assert energy(sphere_chart, sphere_chart.vertices[1], lam) == 0.0


def test_energy_euclidean_midpoint():
    man = EuclideanSpace(2)
    chart = KarcherChart(man, [man.point([0.0, 0.0]), man.point([2.0, 0.0])])
    val = energy(chart, man.point([1.0, 0.0]), BarycentricWeight([0.5, 0.5]))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_energy_sphere_two_points(sphere):
    chart = KarcherChart(sphere, [sphere.point([1, 0, 0]),
                                  sphere.point([0, 1, 0])])
    val = energy(chart, sphere.point([1, 0, 0]), BarycentricWeight([0.5, 0.5]))
    assert val == pytest.approx(0.5 * (math.pi / 2) ** 2, rel=1e-12)


# -- grad_field ----------------------------------------------------------------

def test_grad_vanishes_at_mean(sphere_chart):
    lam = BarycentricWeight([0.3, 0.45, 0.25])
    a = karcher_mean(sphere_chart, lam)
    F = grad_field(sphere_chart, a, lam)
    assert sphere_chart.manifold.norm(F) <= sphere_chart.solver.grad_tol


def test_grad_euclidean_formula(euclid_chart, euclidean3, rng):
    pts, chart = euclid_chart
    a = euclidean3.point(rng.uniform(-0.5, 0.5, 3))
    w = rng.dirichlet(np.ones(4))
    F = grad_field(chart, a, BarycentricWeight(w))
    assert np.allclose(F.components, a.coords - w @ pts, atol=1e-14)


def test_grad_is_half_energy_gradient(sphere_chart, rng):
    # Central-difference oracle: g(F, v) = d/dt E(exp_a(t v)) / 2 at t = 0.
    man = sphere_chart.manifold
    lam = BarycentricWeight([0.5, 0.2, 0.3])
    a = man.exp(sphere_chart.vertices[0],
                0.3 * random_unit_tangent(man, sphere_chart.vertices[0], rng))
    F = grad_field(sphere_chart, a, lam)
    step = 1e-5
    for v in man.tangent_basis(a):
        ep = energy(sphere_chart, man.exp(a, step * v), lam)
        em = energy(sphere_chart, man.exp(a, -step * v), lam)
        assert man.metric(a, F, v) == pytest.approx(
            (ep - em) / (4.0 * step), abs=1e-6)


# -- karcher_mean ----------------------------------------------------------------

def test_mean_euclidean_exact(euclid_chart, euclidean3, rng):
    pts, chart = euclid_chart
    for _ in range(5):
        w = rng.dirichlet(np.ones(4))
        mean = karcher_mean(chart, BarycentricWeight(w))
        assert np.max(np.abs(mean.coords - w @ pts)) <= 1e-12


def test_mean_sphere_midpoint(sphere):
    chart = KarcherChart(sphere, [sphere.point([1, 0, 0]),
                                  sphere.point([0, 1, 0])])
    mid = karcher_mean(chart, BarycentricWeight([0.5, 0.5]))
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(mid.coords, [s, s, 0.0], atol=1e-12)


def test_mean_equilateral_center_is_pole(sphere_chart):
    mean = karcher_mean(sphere_chart, BarycentricWeight.barycenter(2))
    assert np.allclose(mean.coords, [0.0, 0.0, 1.0], atol=1e-12)


def test_mean_max_iters_error(sphere_chart):
    strict = KarcherChart(sphere_chart.manifold, sphere_chart.vertices,
                          solver=SolverConfig(grad_tol=1e-16, max_iters=1,
                                              step_damping=0.1))
    with pytest.raises(MeanSolverError):
        karcher_mean(strict, BarycentricWeight([0.3, 0.3, 0.4]))


@pytest.mark.parametrize("h", [2e-4, 2e-5])
def test_mean_converges_at_small_h(sphere, h):
    # 1e-12 h alone would be below the roundoff of unit-size coordinates.
    pole = sphere.point([0, 0, 1.0])
    family = equilateral_family(sphere, pole, h, 1)
    chart = generate_geodesic_simplex(sphere, pole, family.directions, h)
    lam = BarycentricWeight([0.5, 0.3, 0.2])
    mean = karcher_mean(chart, lam)
    F = grad_field(chart, mean, lam)
    assert chart.manifold.norm(F) <= chart.solver.grad_tol
    assert chart.solver.grad_tol <= 1e-14


def test_energy_descent_along_iterates(sphere_chart):
    lam = BarycentricWeight([0.6, 0.1, 0.3])
    trace: list = []
    karcher_mean(sphere_chart, lam, trace=trace)
    values = [energy(sphere_chart, a, lam) for a in trace]
    assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))


def test_facet_independence(sphere):
    # Weights with a zero entry ignore that vertex entirely.
    base = [sphere.point([1, 0, 0]),
            sphere.point([math.cos(0.2), math.sin(0.2), 0.0]),
            sphere.point([math.cos(0.1), 0.0, math.sin(0.1)])]
    moved = list(base)
    moved[2] = sphere.point([math.cos(0.15), 0.0, math.sin(0.15)])
    lam = BarycentricWeight([0.4, 0.6, 0.0])
    m1 = karcher_mean(KarcherChart(sphere, base), lam)
    m2 = karcher_mean(KarcherChart(sphere, moved), lam)
    assert sphere.dist(m1, m2) <= 1e-10


def test_edge_weights_trace_geodesic(sphere_chart):
    man = sphere_chart.manifold
    g = man.geodesic_between(sphere_chart.vertices[0], sphere_chart.vertices[2])
    for t in (0.2, 0.5, 0.8):
        lam = BarycentricWeight([1.0 - t, 0.0, t])
        x = karcher_mean(sphere_chart, lam)
        assert man.dist(x, g.point(t * g.length)) <= \
            10.0 * sphere_chart.solver.grad_tol


def test_totally_geodesic_circle(sphere, rng):
    angles = [0.0, 0.3, 0.55]
    verts = [sphere.point([math.cos(a), math.sin(a), 0.0]) for a in angles]
    chart = KarcherChart(sphere, verts)
    for _ in range(10):
        lam = BarycentricWeight(rng.dirichlet(np.ones(3)))
        x = karcher_mean(chart, lam)
        assert abs(float(x.coords[2])) <= 1e-9


# -- sigma ------------------------------------------------------------------------

def test_sigma_euclidean_is_affine(euclid_chart, rng):
    pts, chart = euclid_chart
    lam = BarycentricWeight(rng.dirichlet(np.ones(4)))
    raw = rng.normal(size=4)
    v = SimplexTangent(raw - raw.mean())
    s = sigma(chart, lam, v)
    assert np.allclose(s.components, v.v @ pts, atol=1e-12)
    jet = differential(chart, lam)
    assert np.allclose(jet.dx(v).components, v.v @ pts, atol=1e-12)


def test_sigma_zero_vector(sphere_chart):
    lam = BarycentricWeight.barycenter(2)
    s = sigma(sphere_chart, lam, SimplexTangent([0.0, 0.0, 0.0]))
    assert np.max(np.abs(s.components)) == 0.0


def test_sigma_edge_norm_matches_edge_length(sphere):
    family = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.05, 1)
    chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                      family.directions, 0.05)
    s = sigma(chart, BarycentricWeight.barycenter(2), SimplexTangent.edge(2, 0, 1))
    l01 = chart.edge_lengths.lengths[0, 1]
    assert abs(sphere.norm(s) - l01) / l01 <= 2.0 * 0.05 ** 2


# -- a_operator ----------------------------------------------------------------------

def test_a_operator_euclidean_identity(euclid_chart, euclidean3, rng):
    pts, chart = euclid_chart
    lam = BarycentricWeight(rng.dirichlet(np.ones(4)))
    a = karcher_mean(chart, lam)
    v = euclidean3.tangent(a, rng.normal(size=3))
    out = a_operator(chart, lam, v)
    assert np.allclose(out.components, v.components, atol=1e-14)


def test_a_operator_vertex_weight_single_hessian(sphere_chart, rng):
    man = sphere_chart.manifold
    lam = BarycentricWeight.vertex(2, 1)
    x = karcher_mean(sphere_chart, lam)  # the vertex itself
    p1 = sphere_chart.vertices[1]
    assert man.dist(x, p1) <= 1e-12
    other = sphere_chart.vertices[0]
    tau = man.dist(p1, other)
    radial = man.log(p1, other) * (1.0 / tau)
    # perpendicular direction at p1 relative to the geodesic toward p0
    b = random_unit_tangent(man, p1, rng)
    perp = b - man.metric(p1, b, radial) * radial
    perp = perp * (1.0 / man.norm(perp))
    lam_e0 = BarycentricWeight.vertex(2, 0)
    out = a_operator(sphere_chart, lam_e0, perp)
    # single-term A equals the vertex Hessian with factor tau cot(tau)
    assert man.norm(out) == pytest.approx(tau / math.tan(tau), rel=1e-10)


def test_a_operator_linear_in_lambda(sphere_chart, rng):
    man = sphere_chart.manifold
    lam_mid = BarycentricWeight([0.5, 0.5, 0.0])
    a = karcher_mean(sphere_chart, lam_mid)
    v = random_unit_tangent(man, a, rng)
    mid = a_operator(sphere_chart, lam_mid, v)
    avg = 0.5 * (a_operator(sphere_chart, BarycentricWeight.vertex(2, 0), v)
                 + a_operator(sphere_chart, BarycentricWeight.vertex(2, 1), v))
    assert np.max(np.abs(mid.components - avg.components)) <= 1e-12


def test_a_operator_self_adjoint_and_near_identity(sphere, rng):
    family = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 3)
    deviations = []
    hs = (0.2, 0.1, 0.05)
    for h in hs:
        chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                          family.directions, h)
        lam = BarycentricWeight.barycenter(2)
        a = karcher_mean(chart, lam)
        basis = sphere.tangent_basis(a)
        mat = np.array([[sphere.metric(a, a_operator(chart, lam, bj), bi)
                         for bj in basis] for bi in basis])
        assert np.max(np.abs(mat - mat.T)) <= 1e-12
        deviations.append(np.linalg.norm(mat - np.eye(2), 2))
    # ||A - id|| decays quadratically: each halving divides it by ~4
    assert deviations[1] == pytest.approx(deviations[0] / 4.0, rel=0.15)
    assert deviations[2] == pytest.approx(deviations[1] / 4.0, rel=0.15)


# -- differential / hessian / pullback ----------------------------------------------

def test_differential_edge_direction_velocity(sphere_chart):
    # At lambda on the edge, dx(e_j - e_i) equals the geodesic velocity
    # scaled by the remaining parameter.
    man = sphere_chart.manifold
    t = 0.3
    lam = BarycentricWeight([1.0 - t, 0.0, t])
    jet = differential(sphere_chart, lam)
    x = jet.point
    v = SimplexTangent([-1.0, 0.0, 1.0])
    expected = man.log(x, sphere_chart.vertices[2]) * (1.0 / (1.0 - t))
    assert np.max(np.abs(jet.dx(v).components - expected.components)) <= 1e-8


def test_differential_fd_cross_validation(sphere_chart):
    man = sphere_chart.manifold
    lam = BarycentricWeight([0.25, 0.45, 0.3])
    jet = differential(sphere_chart, lam)
    step = 1e-5
    for v in SimplexTangent.basis(2):
        lp = BarycentricWeight(lam.values + step * v.v)
        lm = BarycentricWeight(lam.values - step * v.v)
        xp = karcher_mean(sphere_chart, lp)
        xm = karcher_mean(sphere_chart, lm)
        fd = (man.log(jet.point, xp).components
              - man.log(jet.point, xm).components) / (2.0 * step)
        assert np.max(np.abs(jet.dx(v).components - fd)) <= 1e-6


def test_dG_residual_zero(sphere_chart, rng):
    lam = BarycentricWeight([0.4, 0.35, 0.25])
    jet = differential(sphere_chart, lam)
    man = sphere_chart.manifold
    for _ in range(5):
        raw = rng.normal(size=3)
        v = SimplexTangent(raw - raw.mean())
        lhs = a_operator(sphere_chart, lam, jet.dx(v))
        rhs = sigma(sphere_chart, lam, v, at=jet.point)
        norm_v = math.sqrt(sum(x * x for x in v.v))
        assert man.norm(lhs - rhs) <= 1e-8 * norm_v


def test_hessian_euclidean_zero(euclid_chart, rng):
    pts, chart = euclid_chart
    lam = BarycentricWeight(rng.dirichlet(np.ones(4)))
    jet = hessian(chart, lam)
    assert np.max(np.abs(jet.nabla_dx_tensor)) <= 1e-12


def test_hessian_symmetry(sphere_chart, rng):
    lam = BarycentricWeight([0.3, 0.4, 0.3])
    jet = hessian(sphere_chart, lam)
    man = sphere_chart.manifold
    for _ in range(5):
        raw_v, raw_w = rng.normal(size=3), rng.normal(size=3)
        v = SimplexTangent(raw_v - raw_v.mean())
        w = SimplexTangent(raw_w - raw_w.mean())
        vw = jet.nabla_dx(v, w)
        wv = jet.nabla_dx(w, v)
        nv = np.linalg.norm(v.v)
        nw = np.linalg.norm(w.v)
        assert np.max(np.abs(vw.components - wv.components)) <= 1e-8 * nv * nw


def test_pullback_euclidean_exact(euclid_chart, rng):
    pts, chart = euclid_chart
    lam = BarycentricWeight(rng.dirichlet(np.ones(4)))
    xg = pullback_metric(chart, lam)
    assert np.max(np.abs(xg - chart.flat_metric.G)) <= 1e-12


def test_pullback_spd_and_conditioning(sphere):
    import scipy.linalg as sla

    family = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 1)
    for h in (0.2, 0.1):
        chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                          family.directions, h)
        for lam in (BarycentricWeight.barycenter(2),
                    BarycentricWeight.vertex(2, 1)):
            xg = pullback_metric(chart, lam)
            assert np.all(np.linalg.eigvalsh(xg) > 0.0)
            mu = sla.eigh(xg, chart.flat_metric.G, eigvals_only=True)
            assert mu.max() / mu.min() <= 1.0 + 2.0 * h ** 2
