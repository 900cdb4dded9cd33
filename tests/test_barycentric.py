import math

import numpy as np
import pytest

from hypothesis import given, strategies as st

from karcher.barycentric import (KarcherChart, _frame_system, differential,
                                 differential_batch, hessian, hessian_batch,
                                 karcher_mean, pullback_metric, sigma)
from karcher.errors import GeodesicError, MeanSolverError
from karcher.flat_simplex import BarycentricWeight, SimplexTangent
from karcher.harness import equilateral_family, generate_geodesic_simplex
from karcher.manifolds import (ChartManifold, EuclideanSpace, HyperbolicSpace,
                               ManifoldBounds, Sphere, TangentVector)

from conftest import random_unit_tangent, strict_solver
from oracles import energy, grad_field


@pytest.fixture(scope="module")
def sphere_chart(sphere):
    family = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 1)
    return generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                     family.directions, 0.2)


@pytest.fixture()
def euclid_chart(euclidean3, rng):
    pts = rng.uniform(-1.0, 1.0, size=(4, 3))
    return pts, KarcherChart(euclidean3, [euclidean3.point(p) for p in pts])


@pytest.mark.parametrize("call, message", [
    (lambda chart: KarcherChart(chart.manifold, chart.vertices[:1]),
     "need at least two vertices"),
    (lambda chart: differential(chart, BarycentricWeight(np.full(3, 1.0 / 3.0))).nabla_dx(
        SimplexTangent([-1.0, 1.0, 0.0]), SimplexTangent([-1.0, 0.0, 1.0])),
     "jet was built without second derivatives"),
], ids=["one-vertex", "first-order-jet"])
def test_chart_input_checks(sphere_chart, call, message):
    with pytest.raises(ValueError, match=message):
        call(sphere_chart)


def test_chart_rejects_vertices_beyond_convexity(sphere):
    p0 = sphere.point([0.0, 0.0, 1.0])
    p1 = sphere.point([math.sin(2.0), 0.0, math.cos(2.0)])  # dist 2 > pi/2
    with pytest.raises(ValueError, match="row 0: vertex separation 2.000e"):
        KarcherChart(sphere, [p0, p1])


@pytest.mark.parametrize("batch", [differential_batch, hessian_batch])
def test_batch_rejects_rows_beyond_convexity(sphere, batch):
    # The stacks run the chart's convexity check on every row: row 1
    # spans 2 > pi/2 and has no unique mean.
    p0 = [0.0, 0.0, 1.0]
    verts = np.array([[p0, [math.sin(0.2), 0.0, math.cos(0.2)]],
                      [p0, [math.sin(2.0), 0.0, math.cos(2.0)]]])
    with pytest.raises(ValueError, match="row 1: vertex separation 2.000e.* 1.571e"):
        batch(sphere, verts, np.full((2, 2), 0.5))


@pytest.mark.parametrize("man", [
    EuclideanSpace(2), Sphere(2), HyperbolicSpace(2),
    ChartManifold(2, lambda x: np.eye(2), lambda x: np.zeros((2, 2, 2)))],
    ids=["euclidean", "sphere", "hyperbolic", "chart"])
def test_batch_jets_of_no_rows_have_the_documented_shapes(man):
    # An empty stack of triangles gives empty points (0, D), dx (0, D, 2)
    # and nabla dx (0, 2, 2, D) on every model.
    D = man.coord_dim
    verts, lams = np.zeros((0, 3, D)), np.zeros((0, 3))
    iterations = []
    points, dx = differential_batch(man, verts, lams, iterations=iterations)
    assert (points.shape, dx.shape, iterations) == ((0, D), (0, D, 2), [])
    shapes = [x.shape for x in hessian_batch(man, verts, lams)]
    assert shapes == [(0, D), (0, D, 2), (0, 2, 2, D)]


def _two_triangles(man):
    """Two stacked triangles of diameter about 0.2 around the model's
    origin point, and interior weights for both rows."""
    offsets = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
    if isinstance(man, Sphere):
        tri = np.column_stack([offsets, np.ones(3)])
        tri /= np.linalg.norm(tri, axis=1, keepdims=True)
    else:
        tri = np.column_stack([offsets, np.sqrt(1.0 + np.sum(offsets ** 2, axis=1))])
    return np.array([tri, tri[::-1]]), np.array([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])


@pytest.mark.parametrize("batch", [differential_batch, hessian_batch])
@pytest.mark.parametrize("scale, row, message", [
    (0.5, None, "must sum to one"), (1.2, None, "must sum to one"),
    (None, [0.7, 0.5, -0.2], "must be nonnegative"),
    (None, [math.nan, 0.5, 0.5], "must be nonnegative"),
    (None, [0.5, 0.5, math.nan], "must be nonnegative")],
    ids=["half", "1.2", "negative", "nan-first", "nan-last"])
def test_batch_jets_reject_weights_off_the_simplex(sphere, batch, scale, row, message):
    # Scaled weights used to come back as the same mean with dx scaled by
    # 1/scale, and a negative or NaN weight was accepted; now the stack
    # names its first row that is not a point of the simplex.
    verts, lams = _two_triangles(sphere)
    lams[1] = lams[1] * scale if row is None else row
    with pytest.raises(ValueError, match=f"^row 1: barycentric weights {message}$"):
        batch(sphere, verts, lams)


@pytest.mark.parametrize("batch", [differential_batch, hessian_batch])
@pytest.mark.parametrize("man, scale, message", [
    (Sphere(2), 1.1, r"point norm 1\.1.* is off the radius-1\.0 sphere"),
    (HyperbolicSpace(2), 1.05, "point is off the hyperboloid sheet")],
    ids=["sphere", "hyperbolic"])
def test_batch_jets_reject_points_off_the_model(batch, man, scale, message):
    # A stack scaled off the model used to return a different mean with
    # no error; the model's stacked point check names row and vertex.
    verts, lams = _two_triangles(man)
    verts[1] *= scale
    with pytest.raises(ValueError, match=f"^row 1, vertex 0: {message}$"):
        batch(man, verts, lams)


@pytest.mark.parametrize("batch", [differential_batch, hessian_batch])
@pytest.mark.parametrize("case", ["two-coordinates", "one-weight-row", "flat-weights"])
def test_batch_jets_reject_mismatched_shapes(sphere, batch, case):
    # 2-coordinate vertices on Sphere(2) used to spin into MeanSolverError,
    # and two vertex rows with one weight row raised a bare IndexError.
    verts, lams = _two_triangles(sphere)
    verts, lams = {"two-coordinates": (verts[..., :2], lams),
                   "one-weight-row": (verts, lams[:1]),
                   "flat-weights": (verts, lams.reshape(-1))}[case]
    with pytest.raises(ValueError) as info:
        batch(sphere, verts, lams)
    assert str(info.value) == (f"expected vertices (N, n+1, 3) and weights (N, n+1), "
                               f"got {verts.shape} and {lams.shape}")


def test_antipodal_vertex_zero_fails_in_the_measurement(sphere):
    # The measurement takes log_p0(p_j) for the mean's initial guess, so
    # a vertex antipodal to vertex 0 fails there with the sphere's typed
    # error, from the chart and from the stacks alike; a pair antipodal
    # only between other vertices still fails the convexity check.
    p, q, r = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]
    with pytest.raises(GeodesicError, match=r"^row \(0, 0\): antipodal points"):
        KarcherChart(sphere, [sphere.point(c) for c in (p, q, r)])
    verts, lams = _two_triangles(sphere)
    verts[1] = [p, r, q]
    with pytest.raises(GeodesicError, match=r"^row \(1, 1\): antipodal points"):
        differential_batch(sphere, verts, lams)
    with pytest.raises(ValueError, match="row 0: vertex separation"):
        KarcherChart(sphere, [sphere.point(c) for c in (r, p, q)])


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
    assert sphere_chart.manifold.norm(F) <= sphere_chart.grad_tol


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


def test_mean_max_iters_error(sphere_chart, monkeypatch):
    strict_solver(monkeypatch)
    strict = KarcherChart(sphere_chart.manifold, sphere_chart.vertices)
    with pytest.raises(MeanSolverError):
        karcher_mean(strict, BarycentricWeight([0.3, 0.3, 0.4]))


def test_mean_no_convergence_names_weights_and_last_residual(sphere_chart,
                                                             monkeypatch):
    strict_solver(monkeypatch)
    strict = KarcherChart(sphere_chart.manifold, sphere_chart.vertices)
    message = (r"no convergence to grad_tol=1\.000e-16 in 1 iterations at weights "
               r"\[0\.3, 0\.3, 0\.4\] \(last \|F\| = \d\.\d{3}e-\d\d\)$")
    with pytest.raises(MeanSolverError, match=message):
        karcher_mean(strict, BarycentricWeight([0.3, 0.3, 0.4]))
    # Stacked, behind a row whose initial guess, vertex 0 itself, passes.
    verts = np.array([strict.coords] * 2)
    for call in (differential_batch, hessian_batch):
        with pytest.raises(MeanSolverError, match=message) as info:
            call(strict.manifold, verts, np.array([[1.0, 0.0, 0.0], [0.3, 0.3, 0.4]]))
        assert info.value.index == 1


class _OvershootingPlane(EuclideanSpace):
    """The plane with a declared convexity radius of 1 and an exp map that
    overshoots threefold, so the mean iteration leaves the ball; the
    stacked ``exp_array`` loops over this ``exp``."""

    def __init__(self):
        super().__init__(2)
        self.bounds = ManifoldBounds(0.0, 0.0, 2.0, 1.0)

    def exp(self, p, v):
        return super().exp(p, 3.0 * v)


def test_mean_leaving_the_ball_names_weights_and_distance():
    man = _OvershootingPlane()
    chart = KarcherChart(man, [man.point(c) for c in
                               ([0.0, 0.0], [0.6, 0.0], [0.0, 0.6])])
    message = (r"iterate left the convex ball at weights \[0\.2, 0\.4, 0\.4\]: "
               r"vertex distance 1\.018e\+00 > 1\.000e\+00$")
    with pytest.raises(MeanSolverError, match=message):
        karcher_mean(chart, BarycentricWeight([0.2, 0.4, 0.4]))
    verts = np.array([chart.coords] * 2)
    for call in (differential_batch, hessian_batch):
        with pytest.raises(MeanSolverError, match=message) as info:
            call(man, verts, np.array([[1.0, 0.0, 0.0], [0.2, 0.4, 0.4]]))
        assert info.value.index == 1


@pytest.mark.parametrize("h", [2e-4, 2e-5])
def test_mean_converges_at_small_h(sphere, h):
    # 1e-12 h alone would be below the roundoff of unit-size coordinates.
    pole = sphere.point([0, 0, 1.0])
    family = equilateral_family(sphere, pole, h, 1)
    chart = generate_geodesic_simplex(sphere, pole, family.directions, h)
    lam = BarycentricWeight([0.5, 0.3, 0.2])
    mean = karcher_mean(chart, lam)
    F = grad_field(chart, mean, lam)
    assert chart.manifold.norm(F) <= chart.grad_tol
    assert chart.grad_tol <= 1e-14


@pytest.mark.parametrize("coords, weights", [
    ([[0.266, -0.087], [0.37, -0.115], [0.322, -0.008]], [0.14, 0.08, 0.78]),
    ([[0.357, -0.058], [0.387, -0.171], [0.465, -0.08]], [0.13, 0.39, 0.48]),
    ([[0.103, -0.122], [0.162, -0.016], [0.031, 0.006]], [0.53, 0.38, 0.09]),
])
def test_chart_manifold_mean_meets_grad_tol_exactly(hyperbolic, coords, weights):
    # The mean's gradient test reads shooting logarithms, exact only to the
    # shooting tolerance; the true gradient at the returned mean comes
    # from the hyperboloid's closed-form logarithms.
    from test_manifolds import lift_disk, make_poincare_disk

    disk = make_poincare_disk()
    chart = KarcherChart(disk, [disk.point(c) for c in coords])
    assert chart.grad_tol == disk.shooting_tol
    a = karcher_mean(chart, BarycentricWeight(weights))
    A = lift_disk(hyperbolic, a.coords)
    F = sum(w * hyperbolic.log(A, lift_disk(hyperbolic, np.array(c))).components
            for w, c in zip(weights, coords))
    assert hyperbolic.norm(TangentVector(A, F)) <= 2.0 * chart.grad_tol


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
            10.0 * sphere_chart.grad_tol


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


# -- A, the Hessian combination ---------------------------------------------------

def _a_operator(chart, lam, V):
    """A(V) at V's base point, from the matrix of A in the tangent frame
    there as the jets form it (``Manifold.a_matrix_array``)."""
    man = chart.manifold
    a = V.base.coords[None]
    verts = chart.coords[None]
    frame = man.tangent_frame_array(a)
    low_frame = man.metric_matrix(a) @ frame
    terms = man.hess_terms_array(verts, a, man.log_array(a[:, None], verts),
                                 np.ones((1, chart.n + 1), dtype=bool))
    a_mat = man.a_matrix_array(terms, lam.values[None], frame, low_frame)[0]
    return TangentVector(V.base, frame[0] @ a_mat @ (V.components @ low_frame[0]))


def test_a_operator_euclidean_identity(euclid_chart, euclidean3, rng):
    pts, chart = euclid_chart
    lam = BarycentricWeight(rng.dirichlet(np.ones(4)))
    a = karcher_mean(chart, lam)
    v = euclidean3.tangent(a, rng.normal(size=3))
    out = _a_operator(chart, lam, v)
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
    out = _a_operator(sphere_chart, lam_e0, perp)
    # single-term A equals the vertex Hessian with factor tau cot(tau)
    assert man.norm(out) == pytest.approx(tau / math.tan(tau), rel=1e-10)


def test_a_operator_linear_in_lambda(sphere_chart, rng):
    man = sphere_chart.manifold
    lam_mid = BarycentricWeight([0.5, 0.5, 0.0])
    a = karcher_mean(sphere_chart, lam_mid)
    v = random_unit_tangent(man, a, rng)
    mid = _a_operator(sphere_chart, lam_mid, v)
    avg = 0.5 * (_a_operator(sphere_chart, BarycentricWeight.vertex(2, 0), v)
                 + _a_operator(sphere_chart, BarycentricWeight.vertex(2, 1), v))
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
        mat = np.array([[sphere.metric(a, _a_operator(chart, lam, bj), bi)
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
        lhs = _a_operator(sphere_chart, lam, jet.dx(v))
        rhs = sigma(sphere_chart, lam, v, at=jet.point)
        norm_v = math.sqrt(sum(x * x for x in v.v))
        assert man.norm(lhs - rhs) <= 1e-8 * norm_v


class _ZeroHessianSphere(Sphere):
    """The unit sphere with every squared-distance Hessian replaced by
    zero, scalar and batched, so that A vanishes."""

    def radial_array(self, logs):
        y, tau, f, fp, one_minus_f = super().radial_array(logs)
        return 0.0 * y, tau, 0.0 * f, fp, 0.0 * one_minus_f


def test_singular_a_names_weights_scalar_and_batched(sphere_chart):
    man = _ZeroHessianSphere(2)
    chart = KarcherChart(man, sphere_chart.vertices)
    message = (r"^Hessian combination A is numerically singular at weights "
               r"\[0\.3, 0\.3, 0\.4\]: cond\(A\) = inf$")
    with pytest.raises(MeanSolverError, match=message) as scalar:
        differential(chart, BarycentricWeight([0.3, 0.3, 0.4]))
    assert scalar.value.index == 0  # a scalar jet is a one-row stack
    verts = np.array([chart.coords] * 2)
    for call in (differential_batch, hessian_batch):
        with pytest.raises(MeanSolverError, match=message) as batched:
            call(man, verts, np.array([[0.3, 0.3, 0.4], [0.2, 0.4, 0.4]]))
        assert batched.value.index == 0


def _signed_permuted_diagonals(rng, m: int, conds: np.ndarray) -> np.ndarray:
    """Matrices (len(conds), m, m) of 2-norm condition numbers conds: the
    rows of diag(1, ..., 1/cond), middle singular values between, scaled
    by powers of two, signed and permuted.  Every step is exact, so LU
    and the SVD take them without rounding."""
    n = len(conds)
    s = np.ones((n, m))
    s[:, -1] = 1.0 / conds
    s[:, 1:-1] = conds[:, None] ** -rng.uniform(0.0, 1.0, (n, m - 2))
    s *= 2.0 ** rng.integers(-20, 21, n)[:, None] * rng.choice([-1.0, 1.0], (n, m))
    perm = np.argsort(rng.random((n, m)), axis=1)
    return np.eye(m)[perm] * s[:, None, :]


@pytest.mark.parametrize("m", [2, 3])
def test_frobenius_gate_never_looser_than_the_svd_gate(rng, m):
    # |A|_F |A^-1|_F >= cond_2(A), so whatever the 2-norm gate rejects the
    # Frobenius gate rejects too.  The exact stacks at 1e11, 1e12 (1 +- 1e-6)
    # and 1e13 carry no rounding, so there the bound holds to 1e-12.  On
    # the random stacks and the rotated ones at 1e11 and 1e13 both numbers
    # carry rounding of order cond eps, which the bound allows 8 times
    # over where it exceeds 1e-12.
    def check(a_mat, rounded):
        svd, fro = np.linalg.cond(a_mat), np.linalg.cond(a_mat, "fro")
        slack = np.maximum(1e-12, 8.0 * svd * np.finfo(float).eps) if rounded else 1e-12
        assert np.all(fro >= svd * (1.0 - slack))
        assert np.all(~(fro <= 1e12)[~(svd <= 1e12)])
        return svd

    check(rng.normal(size=(2000, m, m)), rounded=True)
    targets = np.repeat([1e11, 1e12 * (1.0 - 1e-6), 1e12 * (1.0 + 1e-6), 1e13], 50)
    svd = check(_signed_permuted_diagonals(rng, m, targets), rounded=False)
    assert np.array_equal(svd > 1e12, targets > 1e12)
    far = np.repeat([1e11, 1e13], 500)
    q_left = np.linalg.qr(rng.normal(size=(len(far), m, m)))[0]
    q_right = np.linalg.qr(rng.normal(size=(len(far), m, m)))[0]
    rotated = q_left @ _signed_permuted_diagonals(rng, m, far) @ q_right
    svd = check(rotated, rounded=True)
    assert np.array_equal(svd > 1e12, far > 1e12)


def test_frobenius_gate_reads_inf_on_an_exactly_singular_row():
    # numpy's Frobenius condition number takes one batched inverse: an
    # exactly singular matrix within the stack reads inf, a NaN one NaN,
    # and the finite rows read 2 to rounding.  The gate rejects both,
    # naming the row.
    lam = np.full((3, 3), 1.0 / 3.0)
    for fill in (0.0, math.nan):
        a_mat = np.array([np.eye(2), np.full((2, 2), fill), 2.0 * np.eye(2)])
        cond = np.linalg.cond(a_mat, "fro")
        assert cond[1] == np.inf if fill == 0.0 else np.isnan(cond[1])
        assert np.all(np.abs(cond[[0, 2]] - 2.0) <= 2 * np.spacing(2.0))
        with pytest.raises(MeanSolverError, match="numerically singular") as info:
            _frame_system((None, None, a_mat), np.zeros((3, 3, 2)), lam)
        assert info.value.index == 1


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


def test_hessian_builds_each_vertex_map_once(monkeypatch):
    # A model without closed forms: at the mean the jet reads the mean's
    # logarithms and builds one Hessian-terms stack with every vertex's
    # map.  The second derivative takes its Hessian terms and logarithms
    # away from the mean, and takes no geodesic: the library's chart has
    # none to take.
    man = ChartManifold(2, lambda x: np.eye(2), lambda x: np.zeros((2, 2, 2)))
    assert not any(hasattr(man, name) for name in
                   ("geodesic_from", "parallel_transport", "curvature_rt"))
    chart = KarcherChart(man, [man.point(c) for c in ([0.0, 0.0], [0.3, 0.0], [0.1, 0.25])])
    lam = BarycentricWeight([0.3, 0.4, 0.3])
    a = karcher_mean(chart, lam)
    terms, log_bases = [], []
    hess_terms, log_array = man.hess_terms_array, man.log_array

    def counting_terms(p, q, logs, mask, *symbols):
        terms.append((q, mask))
        return hess_terms(p, q, logs, mask, *symbols)

    def counting_logs(p, q, *symbols):
        log_bases.append(np.atleast_2d(p))
        return log_array(p, q, *symbols)

    monkeypatch.setattr(man, "hess_terms_array", counting_terms)
    monkeypatch.setattr(man, "log_array", counting_logs)
    jet = hessian(chart, lam, at=a)
    at_mean = [mask for q, mask in terms if np.array_equal(q, a.coords[None])]
    assert len(at_mean) == 1 and at_mean[0].all()
    for bases in log_bases + [q for q, _ in terms if len(q) > 1]:
        assert not (bases == a.coords).all(axis=1).any()
    # Flat metric: the second derivative vanishes.
    assert np.max(np.abs(jet.nabla_dx_tensor)) <= 1e-9


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


# -- batched jets on the sphere and hyperbolic space ---------------------------

BATCH_SPACES = {
    "sphere": lambda: Sphere(2),
    "sphere3-r2": lambda: Sphere(3, radius=2.0),
    "hyperbolic": lambda: HyperbolicSpace(2),
    "hyperbolic-k2": lambda: HyperbolicSpace(2, curvature=2.0),
}


def _space_form_point(man, rng, max_dist):
    """A point at a uniform distance up to max_dist from (0, ..., 0, R),
    in a random direction."""
    r = man.radius
    d = rng.uniform(0.0, max_dist)
    u = rng.normal(size=man.dim)
    u /= np.linalg.norm(u)
    trig = (math.sin, math.cos) if isinstance(man, Sphere) else (math.sinh, math.cosh)
    return man.point(np.concatenate([r * trig[0](d / r) * u, [r * trig[1](d / r)]]))


def _batch_rows(man, rng, charts=3, weights=4, max_dist=2.5):
    """Random simplices (n = dim) of diameter about 0.05-0.3 and interior
    weights: the charts and weights row by row, and the stacked inputs.
    Each vertex lies within ``size`` <= 0.3 of the center (a normal step,
    cut back to length ``size``), so every chart's diameter stays far
    below the sphere's convexity radius pi R / 2."""
    rows = []
    for _ in range(charts):
        center = _space_form_point(man, rng, max_dist)
        basis = np.array([b.components for b in man.tangent_basis(center)])
        size = rng.uniform(0.05, 0.3)
        steps = rng.normal(size=(man.dim + 1, man.dim))
        steps /= np.maximum(1.0, np.linalg.norm(steps, axis=1, keepdims=True))
        chart = KarcherChart(man, [
            man.exp(center, man.tangent(center, size * step @ basis))
            for step in steps])
        for _ in range(weights):
            lam = 0.05 + (1.0 - 0.05 * (man.dim + 1)) * rng.dirichlet(np.ones(man.dim + 1))
            rows.append((chart, BarycentricWeight(lam)))
    verts = np.array([[v.coords for v in c.vertices] for c, _ in rows])
    lams = np.array([lam.values for _, lam in rows])
    return rows, verts, lams


@pytest.mark.parametrize("space", BATCH_SPACES)
def test_hessian_batch_rows_match_one_row_calls(space, rng):
    # Each row of a stack is solved as if alone, as the one-row stack and
    # the scalar jet of its chart solve it.  The rows need different
    # numbers of iterates, so converged rows leave the iteration while
    # the others go on: the first row sits at a vertex, where the initial
    # guess passes.
    man = BATCH_SPACES[space]()
    rows, verts, lams = _batch_rows(man, rng)
    lams[0] = np.eye(man.dim + 1)[0]
    rows[0] = (rows[0][0], BarycentricWeight(lams[0]))
    counts = []
    differential_batch(man, verts, lams, iterations=counts)
    assert len(set(counts)) > 1
    points, dx, nabla = hessian_batch(man, verts, lams)
    assert nabla.shape == (len(rows), man.dim, man.dim, man.coord_dim)
    for k, (chart, lam) in enumerate(rows):
        jet = hessian(chart, lam)
        tol = 1e-12 * max(1.0, float(np.max(np.abs(verts[k]))))
        one_row = hessian_batch(man, verts[k:k + 1], lams[k:k + 1])
        for want in ([x[0] for x in one_row],
                     (jet.point.coords, jet.dx_matrix, jet.nabla_dx_tensor)):
            for got, row in zip((points, dx, nabla), want):
                assert np.max(np.abs(got[k] - row)) <= tol


def test_euclidean_batch_jets_are_affine(euclid_chart, rng):
    # The mean is lambda . p, dx(e_k - e_0) = p_k - p_0 and nabla dx = 0.
    pts, chart = euclid_chart
    lams = rng.dirichlet(np.ones(4), size=5)
    verts = np.array([pts] * 5)
    points, dx = differential_batch(chart.manifold, verts, lams)
    h_points, h_dx, nabla = hessian_batch(chart.manifold, verts, lams)
    edges = (pts[1:] - pts[0]).T
    for got in (points, h_points):
        assert np.max(np.abs(got - lams @ pts)) <= 1e-12
    for got in (dx, h_dx):
        assert np.max(np.abs(got - edges)) <= 1e-12
    assert np.max(np.abs(nabla)) <= 1e-12


def _random_isometry(man, rng):
    """A random rotation of the ambient space (sphere), or a random Lorentz
    boost of rapidity up to 1.5 after a random spatial rotation
    (hyperboloid): a linear map of the ambient coordinates."""
    def rotation(d):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        return q * np.sign(np.diag(r))

    if isinstance(man, Sphere):
        return rotation(man.coord_dim)
    n = rng.normal(size=man.dim)
    n /= np.linalg.norm(n)
    phi = rng.uniform(0.0, 1.5)
    boost = np.eye(man.coord_dim)
    boost[:-1, :-1] += (math.cosh(phi) - 1.0) * np.outer(n, n)
    boost[:-1, -1] = boost[-1, :-1] = math.sinh(phi) * n
    boost[-1, -1] = math.cosh(phi)
    spin = np.eye(man.coord_dim)
    spin[:-1, :-1] = rotation(man.dim)
    return boost @ spin


@pytest.mark.parametrize("space", BATCH_SPACES)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hessian_batch_is_isometry_invariant(space, seed):
    # Moving every vertex by an isometry M moves the points, dx and
    # nabla dx by the same linear map.
    man = BATCH_SPACES[space]()
    rng = np.random.default_rng(seed)
    _, verts, lams = _batch_rows(man, rng, charts=2, weights=3, max_dist=1.0)
    M = _random_isometry(man, rng)
    moved = verts @ M.T
    points, dx, nabla = hessian_batch(man, verts, lams)
    m_points, m_dx, m_nabla = hessian_batch(man, moved, lams)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(moved))))
    assert np.max(np.abs(m_points - points @ M.T)) <= tol
    assert np.max(np.abs(m_dx - M @ dx)) <= tol
    assert np.max(np.abs(m_nabla - nabla @ M.T)) <= tol


def _frame_jets(man, verts, lams, points):
    """dx and nabla dx at the points, solved in the tangent frames of
    ``tangent_frame_array`` with A from ``a_matrix_array`` there, as
    ``_a_operator`` forms it, and A's Frobenius condition numbers in
    those frames and in the ambient coordinates (no frame)."""
    frame = man.tangent_frame_array(points)
    low_frame = man.metric_matrix(points) @ frame
    logs = man.log_array(points[:, None], verts)
    terms = man.hess_terms_array(verts, points, logs, np.ones(lams.shape, dtype=bool))
    a_mat = man.a_matrix_array(terms, lams, frame, low_frame)
    dx = frame @ np.linalg.solve(
        a_mat, np.einsum("rjd,rdk->rkj", logs[:, 1:] - logs[:, :1], low_frame))
    vecs = np.swapaxes(dx, 1, 2)
    hess, second = man.hess_array(terms, vecs), man.second_deriv_array(terms, vecs)
    hdiff = hess[:, 1:] - hess[:, :1]
    rhs = np.swapaxes(hdiff, 1, 2) + hdiff + np.einsum("ri,rikld->rkld", lams, second)
    nabla = np.einsum("rdj,rklj->rkld", frame, np.linalg.solve(
        a_mat[:, None, None], -np.einsum("rkld,rdj->rklj", rhs, low_frame)[..., None])[..., 0])
    ambient = man.a_matrix_array(terms, lams, None, None)
    return dx, nabla, np.linalg.cond(a_mat, "fro"), np.linalg.cond(ambient, "fro")


@pytest.mark.parametrize("dim, radius", [(2, 1.0), (2, 2.5), (3, 1.0), (3, 2.5)])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_sphere_jets_in_ambient_coordinates_match_the_frame_solve(dim, radius, seed):
    # The sphere's jets solve A in the ambient coordinates, where A keeps
    # each tangent space and adds the eigenvalue s = sum lam_i f_i <= its
    # least one on the normal: the same dx and nabla dx as in a tangent
    # frame, and a cond(A) never below the frame's.  nabla dx cancels to
    # as little as 1e-8 of its terms on small charts, and both solves carry
    # rounding of those terms, so its gap is read against |dx|^2 / R.
    man = Sphere(dim, radius=radius)
    rng = np.random.default_rng(seed)
    _, verts, lams = _batch_rows(man, rng, charts=2, weights=3, max_dist=3.0 * radius)
    points, dx, nabla = hessian_batch(man, verts, lams)
    assert np.array_equal(differential_batch(man, verts, lams)[1], dx)
    want_dx, want_nabla, cond, ambient_cond = _frame_jets(man, verts, lams, points)
    scale = np.abs(want_dx).max(axis=(1, 2))
    assert np.all(np.abs(dx - want_dx).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.all(np.abs(nabla - want_nabla).max(axis=(1, 2, 3)) <= 1e-13 * scale ** 2 / radius)
    assert np.all(ambient_cond >= cond)


def test_sphere_jets_take_no_tangent_frame(monkeypatch):
    # Neither the FEM nodes' jets nor hessian_batch builds a QR frame on
    # the sphere.
    from karcher.fem import build_triangulation

    man = Sphere(2)
    tri = build_triangulation(man, 1)
    verts = tri.coords[tri.triangles[:4]]
    calls = []
    monkeypatch.setattr(Sphere, "tangent_frame_array",
                        lambda self, p: calls.append(np.shape(p)))
    tri.quad_data()
    hessian_batch(man, verts, np.full((4, 3), 1.0 / 3.0))
    assert calls == []
