import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from karcher.errors import BasePointError, GeodesicError
from karcher.manifolds import (ChartManifold, EuclideanSpace, Manifold,
                               ManifoldBounds, Sphere, christoffel_from_metric)

from conftest import (random_hyperbolic_point, random_sphere_point,
                      random_unit_tangent)


# -- chart test manifolds ---------------------------------------------------

def poincare_metric(x):
    s = 1.0 - float(x @ x)
    return (4.0 / s ** 2) * np.eye(2)


def poincare_christoffel(x):
    s = 1.0 - float(x @ x)
    df = 2.0 * x / s
    out = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                out[k, i, j] = ((i == k) * df[j] + (j == k) * df[i]
                                - (i == j) * df[k])
    return out


def poincare_dist(a, b):
    d2 = float((a - b) @ (a - b))
    return math.acosh(1.0 + 2.0 * d2 / ((1.0 - a @ a) * (1.0 - b @ b)))


def make_poincare_disk(**kwargs):
    return ChartManifold(2, poincare_metric, poincare_christoffel,
                         bounds=ManifoldBounds(1.0, 0.0, math.inf, math.inf),
                         **kwargs)


def polar_sphere_metric(x):
    return np.array([[1.0, 0.0], [0.0, math.sin(x[0]) ** 2]])


def polar_sphere_christoffel(x):
    phi = x[0]
    out = np.zeros((2, 2, 2))
    out[0, 1, 1] = -math.sin(phi) * math.cos(phi)
    out[1, 0, 1] = out[1, 1, 0] = 1.0 / math.tan(phi)
    return out


def make_polar_sphere():
    return ChartManifold(2, polar_sphere_metric, polar_sphere_christoffel,
                         bounds=ManifoldBounds(1.0, 0.0, math.pi, math.pi / 2))


def perturbed_flat_metric(x):
    e = 0.1
    off = 0.3 * e * math.sin(x[0] + x[1])
    return np.array([
        [1.0 + e * math.sin(x[0]) * math.cos(x[1]), off],
        [off, 1.0 + 0.5 * e * math.cos(2.0 * x[0])],
    ])


def make_perturbed_flat():
    return ChartManifold(2, perturbed_flat_metric,
                         bounds=ManifoldBounds(0.5, 0.5, 5.0, 2.5))


def embed_polar(man_sphere, x):
    phi, theta = x
    return man_sphere.point([math.sin(phi) * math.cos(theta),
                             math.sin(phi) * math.sin(theta),
                             math.cos(phi)])


# -- type validation --------------------------------------------------------

def test_point_validation(sphere, hyperbolic):
    with pytest.raises(ValueError):
        sphere.point([0.0, 0.0, 1.1])
    with pytest.raises(ValueError):
        hyperbolic.point([0.0, 0.0, -1.0])   # lower sheet
    with pytest.raises(ValueError):
        hyperbolic.point([0.5, 0.0, 1.0])    # off the quadric


def test_tangent_validation(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sphere.tangent(p, [0.0, 0.0, 0.5])


def test_bounds_validation():
    with pytest.raises(ValueError):
        ManifoldBounds(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ManifoldBounds(0.0, 0.0, 1.0, 2.0)  # convexity > injectivity


def test_metric_base_point_mismatch(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    q = sphere.point([1.0, 0.0, 0.0])
    v = sphere.tangent(p, [1.0, 0.0, 0.0])
    w = sphere.tangent(q, [0.0, 1.0, 0.0])
    with pytest.raises(BasePointError):
        sphere.metric(p, v, w)
    with pytest.raises(BasePointError):
        sphere.metric(q, v, v)


# -- metric examples --------------------------------------------------------

def test_metric_euclidean_identity(euclidean3):
    p = euclidean3.point([0.0, 0.0, 0.0])
    v = euclidean3.tangent(p, [1.0, 0.0, 0.0])
    assert euclidean3.metric(p, v, v) == 1.0


def test_metric_sphere_ambient(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    v = sphere.tangent(p, [1.0, 0.0, 0.0])
    assert sphere.metric(p, v, v) == pytest.approx(1.0, abs=1e-15)


def test_metric_chart_diagonal():
    man = ChartManifold(2, lambda x: np.diag([1.0, 4.0]))
    p = man.point([0.3, -0.2])
    v = man.tangent(p, [0.0, 1.0])
    assert man.metric(p, v, v) == pytest.approx(4.0, abs=1e-14)


# -- exp / log / dist examples ----------------------------------------------

def test_exp_euclidean():
    man = EuclideanSpace(2)
    p = man.point([0.0, 0.0])
    assert np.allclose(man.exp(p, man.tangent(p, [1.0, 2.0])).coords, [1.0, 2.0])


def test_exp_sphere_quarter_and_antipode(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    quarter = sphere.exp(p, sphere.tangent(p, [math.pi / 2, 0.0, 0.0]))
    assert np.allclose(quarter.coords, [1.0, 0.0, 0.0], atol=1e-14)
    anti = sphere.exp(p, sphere.tangent(p, [math.pi, 0.0, 0.0]))
    assert np.allclose(anti.coords, [0.0, 0.0, -1.0], atol=1e-14)
    with pytest.raises(GeodesicError):
        sphere.exp(p, sphere.tangent(p, [1.1 * math.pi, 0.0, 0.0]))


def test_log_examples(sphere):
    man = EuclideanSpace(2)
    assert np.allclose(
        man.log(man.point([0.0, 0.0]), man.point([3.0, 4.0])).components,
        [3.0, 4.0])
    p = sphere.point([0.0, 0.0, 1.0])
    v = sphere.log(p, sphere.point([1.0, 0.0, 0.0]))
    assert np.allclose(v.components, [math.pi / 2, 0.0, 0.0], atol=1e-14)
    flat_chart = ChartManifold(2, lambda x: np.eye(2))
    p2 = flat_chart.point([0.5, 0.5])
    assert np.allclose(
        flat_chart.log(p2, flat_chart.point([1.0, 0.0])).components,
        [0.5, -0.5], atol=1e-12)


def test_log_rejects_antipodes(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    with pytest.raises(GeodesicError):
        sphere.log(p, sphere.point([0.0, 0.0, -1.0]))


def test_log_rejects_exact_antipodes_of_random_points(sphere, rng):
    # The chord's arcsine leaves theta up to ~3e-8 short of pi here.
    for _ in range(50):
        p = random_sphere_point(sphere, rng)
        with pytest.raises(GeodesicError):
            sphere.log(p, sphere.point(-p.coords))
        with pytest.raises(GeodesicError):
            sphere.log_array(p.coords, -p.coords)


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_sphere_array_kernels_match_scalar(radius, rng):
    man = Sphere(2, radius=radius)
    ps = [random_sphere_point(man, rng) for _ in range(8)]
    qs = [random_sphere_point(man, rng) for _ in range(7)] + [ps[-1]]  # last: q = p
    P = np.array([p.coords for p in ps])
    Q = np.array([q.coords for q in qs])
    logs = man.log_array(P, Q)
    assert np.max(np.abs(logs[-1])) == 0.0
    for k, (p, q) in enumerate(zip(ps, qs)):
        assert np.allclose(logs[k], man.log(p, q).components, rtol=0.0, atol=1e-14 * radius)
        assert man.dist_array(P, Q)[k] == pytest.approx(man.dist(p, q), rel=1e-14, abs=0.0)
    V = 0.3 * logs
    V[0] = 0.0
    exps = man.exp_array(P, V)
    assert np.array_equal(exps[0], P[0])
    for k, p in enumerate(ps):
        assert np.allclose(exps[k], man.exp(p, man.tangent(p, V[k])).coords,
                           rtol=0.0, atol=1e-14 * radius)
    with pytest.raises(GeodesicError):
        man.log_array(P[:1], -P[:1])
    with pytest.raises(GeodesicError):
        man.exp_array(P[:1], np.array([[0.0, 0.0, 1.1 * math.pi * radius]]))


def test_chart_shooting_failure_is_reported():
    man = make_poincare_disk(max_shooting_iters=1)
    with pytest.raises(GeodesicError):
        man.log(man.point([0.0, 0.0]), man.point([0.7, 0.0]))


def test_chart_exp_rejects_long_vectors():
    man = make_perturbed_flat()  # declared injectivity radius 5.0
    p = man.point([0.0, 0.0])
    with pytest.raises(GeodesicError):
        man.exp(p, man.tangent(p, [6.0, 0.0]))


def test_dist_examples(sphere):
    assert sphere.dist(sphere.point([1, 0, 0]), sphere.point([0, 1, 0])) == \
        pytest.approx(math.pi / 2, abs=1e-15)
    man = EuclideanSpace(2)
    assert man.dist(man.point([0, 0]), man.point([3, 4])) == pytest.approx(5.0)


def test_hyperbolic_dist_closed_form_vs_chart_integration(hyperbolic):
    # Oracle: the same space in the Poincare-disk chart, where distances
    # come from shot geodesics, must reproduce arcosh(-<p,q>).
    disk = make_poincare_disk()

    def lift(x):  # disk -> hyperboloid
        s = 1.0 - float(x @ x)
        return hyperbolic.point(np.array([2 * x[0], 2 * x[1], 1 + x @ x]) / s)

    pairs = [([0.1, -0.2], [0.35, 0.25]), ([0.0, 0.0], [0.4, 0.1]),
             ([-0.3, 0.2], [0.2, 0.3])]
    for a, b in pairs:
        a, b = np.array(a), np.array(b)
        closed = hyperbolic.dist(lift(a), lift(b))
        shot = disk.dist(disk.point(a), disk.point(b))
        assert abs(closed - shot) <= 1e-8
        assert closed == pytest.approx(poincare_dist(a, b), abs=1e-12)


# -- parallel transport -----------------------------------------------------

def test_transport_euclidean_identity():
    man = EuclideanSpace(3)
    p = man.point([0.0, 0.0, 0.0])
    g = man.geodesic_from(p, man.tangent(p, [1.0, 0.0, 0.0]), length=2.0)
    v = man.tangent(p, [0.3, 0.4, 0.5])
    assert np.allclose(man.parallel_transport(g, 0, 2.0, v).components,
                       v.components)


def test_transport_equator_normal_fixed(sphere):
    p = sphere.point([1.0, 0.0, 0.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [0.0, 1.0, 0.0]))
    out = sphere.parallel_transport(g, 0.0, math.pi / 2,
                                    sphere.tangent(p, [0.0, 0.0, 1.0]))
    assert np.allclose(out.components, [0.0, 0.0, 1.0], atol=1e-14)
    assert np.allclose(out.base.coords, [0.0, 1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic", "poincare"])
def test_transport_roundtrip_and_isometry(space, sphere, hyperbolic, rng):
    if space == "sphere":
        man = sphere
        p = random_sphere_point(man, rng)
    elif space == "hyperbolic":
        man = hyperbolic
        p = random_hyperbolic_point(man, rng)
    else:
        man = make_poincare_disk()
        p = man.point(rng.uniform(-0.3, 0.3, 2))
    u = random_unit_tangent(man, p, rng)
    g = man.geodesic_from(p, u, length=0.8)
    v = random_unit_tangent(man, p, rng)
    w = random_unit_tangent(man, p, rng)
    v1 = man.parallel_transport(g, 0.0, 0.8, v)
    w1 = man.parallel_transport(g, 0.0, 0.8, w)
    q = g.point(0.8)
    # inner products preserved
    assert man.metric(q, v1, w1) == pytest.approx(man.metric(p, v, w), abs=1e-10)
    # transport back inverts
    v0 = man.parallel_transport(g, 0.8, 0.0, v1)
    assert np.max(np.abs(v0.components - v.components)) <= 1e-10


# -- geodesics ----------------------------------------------------------------

@pytest.mark.parametrize("space", ["sphere", "hyperbolic", "perturbed"])
def test_geodesic_unit_speed(space, sphere, hyperbolic, rng):
    if space == "sphere":
        man, p = sphere, random_sphere_point(sphere, rng)
    elif space == "hyperbolic":
        man, p = hyperbolic, random_hyperbolic_point(hyperbolic, rng)
    else:
        man = make_perturbed_flat()
        p = man.point([0.2, -0.1])
    u = random_unit_tangent(man, p, rng)
    g = man.geodesic_from(p, u, length=1.0)
    assert man.dist(g.point(0.0), p) <= 1e-12
    for t in np.linspace(0.0, 1.0, 9):
        assert abs(man.norm(g.velocity(t)) - 1.0) <= 1e-9


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_exp_log_roundtrip(space, sphere, hyperbolic, rng):
    man = sphere if space == "sphere" else hyperbolic
    for _ in range(25):
        p = (random_sphere_point(man, rng) if space == "sphere"
             else random_hyperbolic_point(man, rng))
        u = random_unit_tangent(man, p, rng)
        r = rng.uniform(0.05, 0.4) * min(man.bounds.injectivity_radius, 3.0)
        v = r * u
        back = man.log(p, man.exp(p, v))
        err = man.norm(back - v)
        assert err <= 1e-8 * man.norm(v)


def test_exp_log_roundtrip_chart():
    man = make_perturbed_flat()
    rng = np.random.default_rng(7)
    for _ in range(5):
        p = man.point(rng.uniform(-0.3, 0.3, 2))
        u = random_unit_tangent(man, p, rng)
        v = rng.uniform(0.1, 0.6) * u
        back = man.log(p, man.exp(p, v))
        assert man.norm(back - v) <= 1e-8 * man.norm(v)


@given(st.floats(-0.35, 0.35), st.floats(-0.35, 0.35),
       st.floats(0.05, 0.5), st.floats(0.0, 2 * math.pi))
def test_exp_log_roundtrip_poincare_property(x, y, r, ang):
    man = make_poincare_disk()
    p = man.point([x, y])
    basis = man.tangent_basis(p)
    v = (r * math.cos(ang)) * basis[0] + (r * math.sin(ang)) * basis[1]
    back = man.log(p, man.exp(p, v))
    assert man.norm(back - v) <= 1e-8 * max(man.norm(v), 1e-6)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_triangle_inequality(space, sphere, hyperbolic, rng):
    man = sphere if space == "sphere" else hyperbolic
    for _ in range(25):
        if space == "sphere":
            # points in a convex ball around the north pole
            pts = []
            pole = man.point([0.0, 0.0, 1.0])
            for _ in range(3):
                u = random_unit_tangent(man, pole, rng)
                pts.append(man.exp(pole, rng.uniform(0, 0.7) * u))
        else:
            pts = [random_hyperbolic_point(man, rng) for _ in range(3)]
        a, b, c = pts
        assert man.dist(a, c) <= man.dist(a, b) + man.dist(b, c) + 1e-12


def test_polar_chart_matches_ambient_sphere(sphere):
    man = make_polar_sphere()
    p, q = man.point([1.1, 0.4]), man.point([1.5, 0.9])
    assert abs(man.dist(p, q)
               - sphere.dist(embed_polar(sphere, p.coords),
                             embed_polar(sphere, q.coords))) <= 1e-10


def test_chart_curvature_operator_sign():
    # R(w, T)T on constant-curvature charts must match K(<T,T>w - <w,T>T).
    for man, K in ((make_poincare_disk(), -1.0), (make_polar_sphere(), 1.0)):
        p = man.point([0.9, 0.3] if K > 0 else [0.2, -0.1])
        T = np.array([0.6, -0.2])
        w = np.array([0.1, 0.5])
        got = man.curvature_rt(p, T, w)
        tt = man._ip(p, T, T)
        wt = man._ip(p, w, T)
        expect = K * (tt * w - wt * T)
        assert np.max(np.abs(got - expect)) <= 1e-8 * max(1.0, abs(tt))


def test_christoffel_fd_fallback_matches_analytic():
    fd = christoffel_from_metric(poincare_metric)
    x = np.array([0.25, -0.15])
    assert np.max(np.abs(fd(x) - poincare_christoffel(x))) <= 1e-8


# -- squared-distance derivatives -------------------------------------------

def test_hess_euclidean_identity(euclidean3, rng):
    p = euclidean3.point(rng.normal(size=3))
    q = euclidean3.point(rng.normal(size=3))
    v = euclidean3.tangent(q, rng.normal(size=3))
    out = euclidean3.hess_half_dist_sq(p, q, v)
    assert np.allclose(out.components, v.components)


def test_hess_sphere_closed_form_vs_bvp(sphere):
    # Oracle: for V perpendicular to the geodesic the boundary Jacobi field
    # is sin(t)/sin(tau) V, so the derivative magnitude is tau*cot(tau).
    from karcher.jacobi import JacobiBVP, solve_bvp

    p = sphere.point([0.0, 0.0, 1.0])
    tau = 0.7
    g = sphere.geodesic_from(p, sphere.tangent(p, [1.0, 0.0, 0.0]), length=tau)
    q = g.point(tau)
    V = sphere.parallel_transport(g, 0.0, tau, sphere.tangent(p, [0.0, 1.0, 0.0]))
    closed = sphere.hess_half_dist_sq(p, q, V)
    assert sphere.norm(closed) == pytest.approx(tau / math.tan(tau), abs=1e-12)
    jdot_tau, _ = solve_bvp(JacobiBVP(g, V))
    assert np.max(np.abs(tau * jdot_tau.components - closed.components)) <= 1e-8


def test_hess_radial_direction_is_identity(sphere, hyperbolic, rng):
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point)):
        p = maker(man, rng)
        u = random_unit_tangent(man, p, rng)
        q = man.exp(p, 0.6 * u)
        radial = man.log(q, p) * (-1.0 / 0.6)
        out = man.hess_half_dist_sq(p, q, radial)
        assert np.max(np.abs(out.components - radial.components)) <= 1e-10


def test_hess_self_adjoint(sphere, hyperbolic, rng):
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point)):
        for _ in range(5):
            p = maker(man, rng)
            u = random_unit_tangent(man, p, rng)
            q = man.exp(p, rng.uniform(0.2, 0.9) * u)
            v = random_unit_tangent(man, q, rng)
            w = random_unit_tangent(man, q, rng)
            hv = man.hess_half_dist_sq(p, q, v)
            hw = man.hess_half_dist_sq(p, q, w)
            assert man.metric(q, hv, w) == pytest.approx(
                man.metric(q, v, hw), abs=1e-9)


def test_hess_deficiency_quadratic_in_tau(sphere):
    # |grad_V X_p - V| <= c C0 tau^2 |V|, exponent fitted over a ladder.
    from karcher.harness import fit_slope

    p = sphere.point([0.0, 0.0, 1.0])
    taus = [0.4 * 2 ** -k for k in range(6)]
    devs = []
    for tau in taus:
        g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
        q = g.point(tau)
        V = sphere.parallel_transport(g, 0.0, tau, sphere.tangent(p, [0, 1, 0]))
        devs.append(sphere.norm(sphere.hess_half_dist_sq(p, q, V) - V))
    fit = fit_slope(taus, devs)
    assert abs(fit.slope - 2.0) <= 0.1


def test_second_deriv_euclidean_zero(euclidean3, rng):
    p = euclidean3.point(rng.normal(size=3))
    q = euclidean3.point(rng.normal(size=3))
    v = euclidean3.tangent(q, rng.normal(size=3))
    assert np.max(np.abs(euclidean3.second_deriv_X(p, q, v, v).components)) == 0.0


def test_second_deriv_symmetry_and_fd_agreement(sphere, rng):
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=0.5)
    q = g.point(0.5)
    v = random_unit_tangent(sphere, q, rng)
    w = random_unit_tangent(sphere, q, rng)
    vw = sphere.second_deriv_X(p, q, v, w)
    wv = sphere.second_deriv_X(p, q, w, v)
    assert np.max(np.abs(vw.components - wv.components)) <= 1e-8
    # closed form against the generic finite-difference path
    fd = Manifold._second_quadratic(sphere, p, q, v)
    closed = sphere.second_deriv_X(p, q, v, v)
    assert np.max(np.abs(fd.components - closed.components)) <= 1e-6


def test_second_deriv_magnitude_linear_in_tau(sphere):
    from karcher.harness import fit_slope

    p = sphere.point([0.0, 0.0, 1.0])
    taus = [0.4 * 2 ** -k for k in range(5)]
    mags = []
    for tau in taus:
        g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
        q = g.point(tau)
        V = sphere.parallel_transport(g, 0.0, tau, sphere.tangent(p, [0, 1, 0]))
        mags.append(sphere.norm(sphere.second_deriv_X(p, q, V, V)))
    fit = fit_slope(taus, mags)
    assert abs(fit.slope - 1.0) <= 0.1
    # magnitude itself stays below a unit multiple of C0 tau |V|^2
    assert all(m <= 1.0 * t for m, t in zip(mags, taus))
