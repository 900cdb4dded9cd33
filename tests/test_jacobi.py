import math

import numpy as np
import pytest

from karcher.errors import JacobiError
from karcher.jacobi import (_frame_curvature, ode_bound_check, parallel_frame,
                            solve_bvp)
from karcher.manifolds import (EuclideanSpace, HyperbolicSpace, ManifoldPoint,
                               Sphere, TangentVector)

from conftest import (random_hyperbolic_point, random_sphere_point,
                      random_unit_tangent)
from oracles import integrate_jacobi, second_variation


def perp_unit_at_end(man, g, rng=None):
    """A unit vector at the far end of g orthogonal to the geodesic."""
    tau = g.length
    q = g.point(tau)
    T = g.velocity(tau)
    for b in man.tangent_basis(q):
        cand = b.components - man._ip(q, b.components, T.components) * T.components
        n2 = man._ip(q, cand, cand)
        if n2 > 1e-12:
            return man.tangent(q, cand / math.sqrt(n2))
    raise AssertionError("no perpendicular direction found")


# -- solve_bvp ---------------------------------------------------------------

def test_bvp_euclidean_linear_field():
    man = EuclideanSpace(3)
    p = man.point([0.0, 0.0, 0.0])
    tau = 1.3
    g = man.geodesic_from(p, man.tangent(p, [1.0, 0.0, 0.0]), length=tau)
    q = g.point(tau)
    V = man.tangent(q, [0.2, -0.4, 0.7])
    jdot_tau, jdot_0 = solve_bvp(g, V)
    assert np.allclose(tau * jdot_tau.components, V.components, atol=1e-10)
    assert np.allclose(jdot_0.components, V.components / tau, atol=1e-10)


def test_bvp_sphere_perpendicular_closed_form(sphere):
    tau = 0.8
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
    V = perp_unit_at_end(sphere, g)
    jdot_tau, jdot_0 = solve_bvp(g, V)
    # J(t) = sin(t)/sin(tau) P V: derivative cos(t)/sin(tau)
    assert tau * sphere.norm(jdot_tau) == pytest.approx(
        tau / math.tan(tau), abs=1e-10)
    assert sphere.norm(jdot_0) == pytest.approx(1.0 / math.sin(tau), abs=1e-10)


def test_bvp_radial_is_linear(sphere):
    tau = 0.9
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
    V = g.velocity(tau)  # tangential end value
    jdot_tau, jdot_0 = solve_bvp(g, V)
    assert np.allclose(tau * jdot_tau.components, V.components, atol=1e-10)
    assert sphere.norm(jdot_0) == pytest.approx(1.0 / tau, abs=1e-10)


def test_bvp_reproduces_end_value(sphere, hyperbolic, rng):
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point)):
        p = maker(man, rng)
        u = random_unit_tangent(man, p, rng)
        tau = 0.7
        g = man.geodesic_from(p, u, length=tau)
        q = g.point(tau)
        V = random_unit_tangent(man, q, rng) * 1.7
        jdot_tau, jdot_0 = solve_bvp(g, V)
        js, jds = integrate_jacobi(g, man.tangent(p, np.zeros(man.coord_dim)),
                                   jdot_0, [0.0, tau])
        assert man.norm(js[1] - V) <= 1e-9
        assert man.norm(jds[1] - jdot_tau) <= 1e-9


def test_bvp_linearity(sphere, rng):
    p = random_sphere_point(sphere, rng)
    u = random_unit_tangent(sphere, p, rng)
    g = sphere.geodesic_from(p, u, length=0.6)
    q = g.point(0.6)
    v = random_unit_tangent(sphere, q, rng)
    w = random_unit_tangent(sphere, q, rng)
    a, b = 1.7, -0.4
    jt_v, j0_v = solve_bvp(g, v)
    jt_w, j0_w = solve_bvp(g, w)
    jt_c, j0_c = solve_bvp(g, a * v + b * w)
    assert np.max(np.abs(jt_c.components
                         - a * jt_v.components - b * jt_w.components)) <= 1e-10
    assert np.max(np.abs(j0_c.components
                         - a * j0_v.components - b * j0_w.components)) <= 1e-10


def test_bvp_rejects_conjugate_point(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=math.pi)
    V = perp_unit_at_end(sphere, g)
    with pytest.raises(JacobiError):
        solve_bvp(g, V)


def test_one_solve_is_one_shooting_with_each_check_once(sphere, monkeypatch):
    # solve_bvp gives the shared shooting's solve bit for bit, and checks
    # the geodesic's length and the end value's base point once each.
    from karcher import jacobi

    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=0.8)
    V = perp_unit_at_end(sphere, g) * 1.3
    want = jacobi.JacobiShooting(g).solve(V)
    calls = []
    for name in ("_check_length", "_require_same_base"):
        check = getattr(jacobi, name)
        monkeypatch.setattr(jacobi, name, lambda *args, name=name, check=check:
                            calls.append(name) or check(*args))
    got = jacobi.solve_bvp(g, V)
    assert sorted(calls) == ["_check_length", "_require_same_base"]
    for a, b in zip(got, want):
        assert np.array_equal(a.components, b.components)


def test_bvp_consistency_with_hessian_all_manifolds(sphere, hyperbolic, rng):
    from test_manifolds import make_poincare_disk

    cases = [(sphere, random_sphere_point(sphere, rng)),
             (hyperbolic, random_hyperbolic_point(hyperbolic, rng))]
    disk = make_poincare_disk()
    cases.append((disk, disk.point([0.1, 0.2])))
    for man, p in cases:
        u = random_unit_tangent(man, p, rng)
        tau = 0.5
        g = man.geodesic_from(p, u, length=tau)
        q = g.point(tau)
        V = random_unit_tangent(man, q, rng)
        jdot_tau, _ = solve_bvp(g, V)
        closed = man.hess_half_dist_sq(p, q, V)
        assert np.max(np.abs(tau * jdot_tau.components
                             - closed.components)) <= 1e-8


def test_rauch_monotonicity(sphere, rng):
    # |J(t)| nondecreasing before the half-conjugate length.
    p = random_sphere_point(sphere, rng)
    u = random_unit_tangent(sphere, p, rng)
    tau = 1.4  # < pi/2
    g = sphere.geodesic_from(p, u, length=tau)
    V = perp_unit_at_end(sphere, g)
    _, jdot_0 = solve_bvp(g, V)
    ts = np.linspace(0.0, tau, 100)
    js, _ = integrate_jacobi(g, sphere.tangent(p, np.zeros(3)), jdot_0, ts)
    norms = [sphere.norm(j) for j in js]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_log_reversal_through_transport(sphere, hyperbolic, rng):
    # log_q(p) = -P log_p(q) along the connecting geodesic.
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point)):
        p = maker(man, rng)
        u = random_unit_tangent(man, p, rng)
        q = man.exp(p, 0.8 * u)
        g = man.geodesic_between(p, q)
        moved = man.parallel_transport(g, 0.0, g.length, man.log(p, q))
        assert np.max(np.abs(man.log(q, p).components
                             + moved.components)) <= 1e-10


def test_frame_orthonormal_along_geodesic(sphere, rng):
    from test_manifolds import make_poincare_disk

    for man, p in ((sphere, random_sphere_point(sphere, rng)),
                   (make_poincare_disk(), None)):
        if p is None:
            p = man.point([0.15, -0.2])
        u = random_unit_tangent(man, p, rng)
        g = man.geodesic_from(p, u, length=0.9)
        _, frame = parallel_frame(g)
        for t in np.linspace(0.0, 0.9, 5):
            F = frame(t)
            pt = g.point(t)
            gram = np.array([[man._ip(pt, a, b) for b in F] for a in F])
            assert np.max(np.abs(gram - np.eye(man.dim))) <= 1e-10


@pytest.mark.parametrize("man", [Sphere(2), Sphere(3, radius=2.0),
                                 HyperbolicSpace(2, curvature=2.0)],
                         ids=["sphere", "sphere3-r2", "hyperbolic-k2"])
def test_constant_curvature_frame_matrix_matches_curvature_rt(man, rng):
    # The constant-K shortcut of _frame_curvature against curvature_rt
    # projected on the parallel frame, as the generic path computes it.
    maker = random_sphere_point if isinstance(man, Sphere) else random_hyperbolic_point
    p = maker(man, rng)
    g = man.geodesic_from(p, random_unit_tangent(man, p, rng), length=0.6)
    _, frame = parallel_frame(g)
    R_of_t = _frame_curvature(g, frame)
    K = man.constant_sectional_curvature
    assert R_of_t(0.0)[1, 1] == K
    for t in (0.0, 0.3, 0.6):
        F = frame(t)
        x, T = g._flow(t)
        pt = ManifoldPoint(x)
        rv = man.curvature_rt(pt, T, F)
        projected = np.array([[man._ip(pt, rv[b], F[a]) for b in range(man.dim)]
                              for a in range(man.dim)])
        assert np.max(np.abs(R_of_t(t) - projected)) <= 1e-14 * max(1.0, abs(K))


# -- boundary derivative estimate ---------------------------------------------

def boundary_estimate(man, g, V):
    """(|tau J'(tau) - V|, C0 tau^2 |V|) for the Jacobi field along g with
    J(0) = 0, J(tau) = V: the boundary-derivative estimate bounds the
    first by the second."""
    tau = g.length
    jdot_tau, _ = solve_bvp(g, V)
    dev = man.norm(TangentVector(g.point(tau),
                                 tau * jdot_tau.components - V.components))
    return dev, man.bounds.C0 * tau ** 2 * man.norm(V)


def test_boundary_estimate_sphere_ratio(sphere):
    # Oracle: series tau*cot(tau) = 1 - tau^2/3 - tau^4/45 - ...
    tau = 0.2
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
    V = perp_unit_at_end(sphere, g)
    deviation, bound = boundary_estimate(sphere, g, V)
    expected_dev = abs(tau / math.tan(tau) - 1.0)
    assert expected_dev == pytest.approx(0.0133690, abs=1e-6)
    assert deviation == pytest.approx(expected_dev, abs=1e-9)
    assert deviation / bound == pytest.approx(0.334, abs=2e-3)
    assert deviation <= bound


def test_boundary_estimate_quadratic_scaling(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    ratios = []
    for tau in (0.2, 0.1):
        g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
        V = perp_unit_at_end(sphere, g)
        deviation, bound = boundary_estimate(sphere, g, V)
        ratios.append(deviation / bound)
    assert abs(ratios[1] / ratios[0] - 1.0) <= 0.05


def test_boundary_estimate_flat_is_exact():
    man = EuclideanSpace(2)
    p = man.point([0.0, 0.0])
    g = man.geodesic_from(p, man.tangent(p, [1.0, 0.0]), length=0.5)
    V = man.tangent(g.point(0.5), [0.0, 1.0])
    deviation, bound = boundary_estimate(man, g, V)
    assert bound == 0.0
    assert deviation <= 1e-11


# -- second variation -----------------------------------------------------------

def test_second_variation_flat_zero():
    man = EuclideanSpace(2)
    p = man.point([0.0, 0.0])
    g = man.geodesic_from(p, man.tangent(p, [1.0, 0.0]), length=0.7)
    V = man.tangent(g.point(0.7), [0.4, 0.3])
    out = second_variation(g, V)
    assert np.max(np.abs(out.components)) <= 1e-8


def test_second_variation_radial_vanishes(sphere):
    tau = 0.5
    p = sphere.point([0.0, 0.0, 1.0])
    g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
    V = g.velocity(tau)
    out = second_variation(g, V)
    assert sphere.norm(out) <= 1e-7


def test_second_variation_matches_closed_form_and_scales(sphere):
    from karcher.harness import fit_slope

    p = sphere.point([0.0, 0.0, 1.0])
    taus = [0.3 * 2 ** -k for k in range(4)]
    mags = []
    for tau in taus:
        g = sphere.geodesic_from(p, sphere.tangent(p, [1, 0, 0]), length=tau)
        V = perp_unit_at_end(sphere, g)
        fd = second_variation(g, V)
        closed = sphere.second_deriv_X(p, g.point(tau), V, V)
        assert np.max(np.abs(fd.components - closed.components)) <= 1e-6
        mags.append(sphere.norm(closed))
    fit = fit_slope(taus, mags)
    assert abs(fit.slope - 1.0) <= 0.1
    assert all(m <= 1.0 * t for m, t in zip(mags, taus))


# -- two-point ODE bound ----------------------------------------------------------

def test_ode_bound_constant_forcing():
    # Oracle: U(t) = b (t^2 - tau t)/2 gives max |U'| = b tau / 2.
    tau = 1.2
    b = np.array([0.7, -0.3, 0.2])
    report = ode_bound_check(lambda t: np.zeros((3, 3)), lambda t: b, tau)
    assert report.max_Udot == pytest.approx(np.linalg.norm(b) * tau / 2, rel=1e-6)
    assert report.passed


def test_ode_bound_sinusoidal_forcing():
    tau = 1.0
    e = np.array([1.0, 0.0])

    def B(t):
        return math.sin(2 * math.pi * t / tau) * e

    report = ode_bound_check(lambda t: np.zeros((2, 2)), B, tau)
    assert report.passed
    # direct integration oracle: U'' = sin(2 pi t), U(0)=U(1)=0 has
    # U'(t) = -cos(2 pi t)/(2 pi) + const, max |U'| <= 1/pi
    assert report.max_Udot <= 1.0 / math.pi + 1e-9


def test_ode_bound_random_trials(rng):
    for _ in range(50):
        m = 3
        tau = float(rng.uniform(0.3, 2.0))
        a0 = rng.normal(size=(m, m))
        a1 = rng.normal(size=(m, m))
        target = 0.9 / tau ** 2
        scale = target / max(np.linalg.norm(a0, 2) + np.linalg.norm(a1, 2), 1e-12)
        a0 *= scale
        a1 *= scale
        b0 = rng.normal(size=m)
        b1 = rng.normal(size=m)
        omega = 2 * math.pi / tau
        report = ode_bound_check(
            lambda t, a0=a0, a1=a1: a0 + math.sin(omega * t) * a1,
            lambda t, b0=b0, b1=b1: b0 + math.cos(omega * t) * b1,
            tau)
        assert report.passed


def test_ode_bound_rejects_large_A():
    tau = 2.0
    A = np.eye(2) * (1.5 / tau ** 2)
    with pytest.raises(ValueError):
        ode_bound_check(lambda t: A, lambda t: np.ones(2), tau)
