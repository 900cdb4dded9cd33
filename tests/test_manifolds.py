import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from karcher.errors import BasePointError, GeodesicError, JacobiError, KarcherError
from karcher.manifolds import (ChartManifold, EuclideanSpace, HyperbolicSpace,
                               ManifoldBounds, ManifoldPoint, Sphere, _Symbols)

from conftest import (endpoint_shots, random_hyperbolic_point,
                      random_sphere_point, random_unit_tangent)
from oracles import OracleChart, christoffel_from_metric


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


def make_poincare_disk():
    return OracleChart(2, poincare_metric, poincare_christoffel,
                       bounds=ManifoldBounds(1.0, 0.0, math.inf, math.inf))


def polar_sphere_metric(x):
    return np.array([[1.0, 0.0], [0.0, math.sin(x[0]) ** 2]])


def polar_sphere_christoffel(x):
    phi = x[0]
    out = np.zeros((2, 2, 2))
    out[0, 1, 1] = -math.sin(phi) * math.cos(phi)
    out[1, 0, 1] = out[1, 1, 0] = 1.0 / math.tan(phi)
    return out


def stereographic_sphere_metric(x):
    return (4.0 / (1.0 + float(x @ x)) ** 2) * np.eye(2)


def stereographic_sphere_christoffel(x):
    # The conformal factor's log-gradient is -2x / (1 + |x|^2), against the
    # disk's +2x / (1 - |x|^2): the symbols have the opposite sign.
    df = -2.0 * x / (1.0 + float(x @ x))
    eye = np.eye(2)
    return (np.einsum("ik,j->kij", eye, df) + np.einsum("jk,i->kij", eye, df)
            - np.einsum("ij,k->kij", eye, df))


def make_stereographic_sphere():
    """The unit sphere in the chart of the stereographic projection from
    the south pole."""
    return OracleChart(2, stereographic_sphere_metric,
                       stereographic_sphere_christoffel,
                       bounds=ManifoldBounds(1.0, 0.0, math.pi, math.pi / 2))


def lift_stereographic(x):
    """Stereographic chart -> unit sphere, (2x, 1 - |x|^2) / (1 + |x|^2)."""
    return np.array([2 * x[0], 2 * x[1], 1 - x @ x]) / (1.0 + float(x @ x))


def lift_stereographic_differential(x):
    """The differential of ``lift_stereographic`` at x as a 3 x 2 matrix."""
    s = 1.0 + float(x @ x)
    jac = np.vstack([2.0 * np.eye(2), -2.0 * x]) / s
    return jac - np.outer(lift_stereographic(x), 2.0 * x / s)


def make_polar_sphere():
    return OracleChart(2, polar_sphere_metric, polar_sphere_christoffel,
                       bounds=ManifoldBounds(1.0, 0.0, math.pi, math.pi / 2))


def perturbed_flat_metric(x):
    e = 0.1
    off = 0.3 * e * math.sin(x[0] + x[1])
    return np.array([
        [1.0 + e * math.sin(x[0]) * math.cos(x[1]), off],
        [off, 1.0 + 0.5 * e * math.cos(2.0 * x[0])],
    ])


def make_perturbed_flat():
    return OracleChart(2, perturbed_flat_metric,
                       christoffel_from_metric(perturbed_flat_metric),
                       bounds=ManifoldBounds(0.5, 0.5, 5.0, 2.5))


def lift_disk(hyperbolic, x):
    """Poincare disk -> hyperboloid, the isometry (2x, 1 + |x|^2) / (1 - |x|^2)."""
    s = 1.0 - float(x @ x)
    return hyperbolic.point(np.array([2 * x[0], 2 * x[1], 1 + x @ x]) / s)


def lift_disk_differential(x, v):
    """The differential of ``lift_disk`` at x applied to v."""
    s = 1.0 - float(x @ x)
    xv = float(x @ v)
    image = np.array([2 * x[0], 2 * x[1], 1 + x @ x])
    return np.array([2 * v[0], 2 * v[1], 2 * xv]) / s + image * (2 * xv) / s ** 2


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


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_tangent_validation(space, sphere, hyperbolic):
    man = sphere if space == "sphere" else hyperbolic
    surface = "sphere" if space == "sphere" else "hyperboloid"
    p = man.point([0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match=f"not tangent to the {surface}"):
        man.tangent(p, [0.0, 0.0, 0.5])
    man.tangent(p, [0.3, -0.2, 0.0])
    if space == "hyperbolic":
        # Tangency is orthogonality in the model's own form, here the
        # Minkowski one, which the Euclidean dot would reject.
        c, s = math.cosh(1.0), math.sinh(1.0)
        man.tangent(man.point([s, 0.0, c]), [c, 0.0, s])


def test_bounds_validation():
    with pytest.raises(ValueError):
        ManifoldBounds(-1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ManifoldBounds(0.0, 0.0, 1.0, 2.0)  # convexity > injectivity


def _zero_length_shooting(s, p):
    from karcher.jacobi import JacobiShooting

    return JacobiShooting(s.geodesic_from(p, s.tangent(p, [1.0, 0.0, 0.0]), length=0.0))


@pytest.mark.parametrize("call, error, message", [
    (lambda s, p: ManifoldBounds(0.0, 0.0, -1.0, -1.0), ValueError,
     "radii must be nonnegative"),
    (lambda s, p: s.point([1.0, 0.0]), ValueError, "expected 3 coordinates"),
    (lambda s, p: s.tangent(p, [1.0, 0.0]), ValueError,
     "tangent component dimension mismatch"),
    (lambda s, p: s.geodesic_from(p, s.tangent(p, [0.0, 0.0, 0.0])), GeodesicError,
     "zero initial velocity"),
    (_zero_length_shooting, JacobiError, "geodesic must have positive length"),
    (lambda s, p: Sphere(2, radius=0.0), ValueError, "radius must be positive"),
    (lambda s, p: HyperbolicSpace(2, curvature=0.0), ValueError,
     "curvature parameter must be positive"),
], ids=["negative-radius", "point-length", "tangent-length", "zero-velocity",
        "zero-length-jacobi", "zero-radius", "zero-curvature"])
def test_model_input_checks(sphere, call, error, message):
    with pytest.raises(error, match=message):
        call(sphere, sphere.point([0.0, 0.0, 1.0]))


def test_metric_base_point_mismatch(sphere):
    p = sphere.point([0.0, 0.0, 1.0])
    q = sphere.point([1.0, 0.0, 0.0])
    v = sphere.tangent(p, [1.0, 0.0, 0.0])
    w = sphere.tangent(q, [0.0, 1.0, 0.0])
    with pytest.raises(BasePointError):
        sphere.metric(p, v, w)
    with pytest.raises(BasePointError):
        sphere.metric(q, v, v)


@pytest.mark.parametrize("gap, same", [(0.5, True), (2.0, False),
                                       (math.nan, False)])
def test_base_point_tolerance_scales_with_coordinates(gap, same):
    # Distinct point objects are one base point when their coordinates
    # agree to 1e-8 times the largest entry (here 40).
    man = EuclideanSpace(3)
    p = man.point([1.0, -40.0, 3.0])
    q = man.point(p.coords + [0.0, 0.0, gap * 1e-8 * 40.0])
    v, w = man.tangent(p, [1.0, 0.0, 0.0]), man.tangent(q, [0.0, 1.0, 0.0])
    if same:
        assert (v + w).components.tolist() == [1.0, 1.0, 0.0]
        assert man.metric(q, v, v) == 1.0
        return
    with pytest.raises(BasePointError):
        v + w
    with pytest.raises(BasePointError):
        man.metric(q, v, v)


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
    metric = lambda x: np.diag([1.0, 4.0])
    man = ChartManifold(2, metric, christoffel_from_metric(metric))
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
    flat_metric = lambda x: np.eye(2)
    flat_chart = ChartManifold(2, flat_metric, christoffel_from_metric(flat_metric))
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


def hyperbolic_point_at(man, rng, max_dist=2.5):
    """A point at a uniform distance up to max_dist from (0, ..., 0, R)."""
    d = rng.uniform(0.0, max_dist)
    u = rng.normal(size=man.dim)
    r = man.radius
    return man.point(np.concatenate([r * math.sinh(d / r) * u / np.linalg.norm(u),
                                     [r * math.cosh(d / r)]]))


ARRAY_SPACES = {
    "sphere-r1": (lambda: Sphere(2), random_sphere_point),
    "sphere-r2": (lambda: Sphere(2, radius=2.0), random_sphere_point),
    "hyperbolic-k1": (lambda: HyperbolicSpace(2), hyperbolic_point_at),
    "hyperbolic-k2": (lambda: HyperbolicSpace(2, curvature=2.0), hyperbolic_point_at),
}


@pytest.mark.parametrize("space", ARRAY_SPACES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@example(seed=28338)  # sphere-r1: a row 0.0086 short of the antipode
def test_array_kernels_match_scalar(space, seed):
    make, draw = ARRAY_SPACES[space]
    man = make()
    rng = np.random.default_rng(seed)
    ps = [draw(man, rng) for _ in range(8)]
    qs = [draw(man, rng) for _ in range(7)] + [ps[-1]]  # last: q = p
    P = np.array([p.coords for p in ps])
    Q = np.array([q.coords for q in qs])
    # Per-row scale R (c/R)^3 for coordinates of size c: the radius on the
    # sphere; on the hyperboloid Minkowski products cancel terms of size
    # (c/R)^2, and tangent vectors grow like c.
    coord = np.maximum(np.abs(P).max(axis=1), np.abs(Q).max(axis=1))
    scale = man.radius * (np.maximum(coord, man.radius) / man.radius) ** 3
    # The sphere log's condition number max(1, theta / sin theta) grows
    # toward antipodal pairs; on the hyperboloid theta / sinh theta <= 1.
    # Over seeds 0-1999 the gaps stay within 2.2 (sphere) and 6.8
    # (hyperboloid) ulps of scale * cond.
    theta = man.dist_array(P, Q) / man.radius
    cond = 1.0 / np.sinc(theta / math.pi) if isinstance(man, Sphere) else 1.0
    log_tol = 16.0 * np.finfo(float).eps * scale * np.maximum(1.0, cond)
    logs = man.log_array(P, Q)
    assert np.max(np.abs(logs[-1])) == 0.0
    for k, (p, q) in enumerate(zip(ps, qs)):
        assert np.allclose(logs[k], man.log(p, q).components, rtol=0.0, atol=log_tol[k])
        assert man.dist_array(P, Q)[k] == man.dist(p, q)
    V = 0.3 * logs
    V[0] = 0.0
    exps = man.exp_array(P, V)
    assert np.array_equal(exps[0], P[0])
    for k, p in enumerate(ps):
        assert np.allclose(exps[k], man.exp(p, man.tangent(p, V[k])).coords,
                           rtol=0.0, atol=1e-14 * scale[k])
    frames = man.tangent_frame_array(P)
    for k, p in enumerate(ps):
        gram = frames[k].T @ np.diag(man.signature) @ frames[k]
        assert np.allclose(gram, np.eye(man.dim), rtol=0.0, atol=1e-14 * scale[k])
        assert np.allclose(man.ip_array(frames[k].T, p.coords), 0.0,
                           rtol=0.0, atol=1e-14 * scale[k])
    if isinstance(man, Sphere):
        with pytest.raises(GeodesicError):
            man.log_array(P[:1], -P[:1])
        with pytest.raises(GeodesicError):
            man.exp_array(P[:1], np.array([[0.0, 0.0, 1.1 * math.pi * man.radius]]))


def test_chart_shooting_failure_is_reported(monkeypatch):
    from karcher import manifolds

    monkeypatch.setattr(manifolds, "MAX_SHOOTING_ITERS", 1)
    man = make_poincare_disk()
    p, q = man.point([0.0, 0.0]), man.point([0.7, 0.0])
    with pytest.raises(GeodesicError, match=(
            r"did not converge from p = \[0\.0, 0\.0\] to q = \[0\.7, 0\.0\] "
            r"after 1 Newton steps \(1 with a fresh Jacobian\), "
            r"last residual \|exp_p\(v\) - q\| = (\S+)")) as info:
        man.log(p, q)
    residual = float(info.value.args[0].rsplit(" = ", 1)[1])
    assert residual >= man.shooting_tol
    # A singular Jacobian carried in by a warm start is reported the same way.
    state = (p.coords, np.array([0.5, 0.0]), np.zeros((2, 2)), man.christoffel_fn(p.coords),
             np.array(0.0), np.array(1.0))
    with pytest.raises(GeodesicError, match=(
            r"endpoint Jacobian is singular from p = \[0\.0, 0\.0\] to "
            r"q = \[0\.7, 0\.0\] after 0 Newton steps \(0 with a fresh "
            r"Jacobian\), last residual")):
        man._warm_log_array(p.coords, q.coords, state)


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

    pairs = [([0.1, -0.2], [0.35, 0.25]), ([0.0, 0.0], [0.4, 0.1]),
             ([-0.3, 0.2], [0.2, 0.3])]
    for a, b in pairs:
        a, b = np.array(a), np.array(b)
        closed = hyperbolic.dist(lift_disk(hyperbolic, a), lift_disk(hyperbolic, b))
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
    from karcher.jacobi import solve_bvp

    p = sphere.point([0.0, 0.0, 1.0])
    tau = 0.7
    g = sphere.geodesic_from(p, sphere.tangent(p, [1.0, 0.0, 0.0]), length=tau)
    q = g.point(tau)
    V = sphere.parallel_transport(g, 0.0, tau, sphere.tangent(p, [0.0, 1.0, 0.0]))
    closed = sphere.hess_half_dist_sq(p, q, V)
    assert sphere.norm(closed) == pytest.approx(tau / math.tan(tau), abs=1e-12)
    jdot_tau, _ = solve_bvp(g, V)
    assert np.max(np.abs(tau * jdot_tau.components - closed.components)) <= 1e-8


def random_disk_point(man, rng):
    return man.point(rng.uniform(-0.3, 0.3, size=2))


def test_hess_radial_direction_is_identity(sphere, hyperbolic, rng):
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point),
                       (make_poincare_disk(), random_disk_point)):
        p = maker(man, rng)
        u = random_unit_tangent(man, p, rng)
        q = man.exp(p, 0.6 * u)
        radial = man.log(q, p) * (-1.0 / 0.6)
        out = man.hess_half_dist_sq(p, q, radial)
        assert np.max(np.abs(out.components - radial.components)) <= 1e-10


def test_hess_self_adjoint(sphere, hyperbolic, rng):
    for man, maker in ((sphere, random_sphere_point),
                       (hyperbolic, random_hyperbolic_point),
                       (make_poincare_disk(), random_disk_point)):
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


def chart_of_lift(X):
    """The inverse of ``lift_stereographic`` and of ``lift_disk``, x =
    X[:2] / (1 + X[2]), on the last axis of X."""
    return X[..., :2] / (1.0 + X[..., 2:])


def chart_of_lift_differential(X, V):
    """The differential of ``chart_of_lift`` at X applied to V."""
    return V[..., :2] / (1.0 + X[..., 2:]) - X[..., :2] * V[..., 2:] / (1.0 + X[..., 2:]) ** 2


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_second_deriv_symmetry_and_fd_agreement(space, sphere, hyperbolic, rng):
    man = sphere if space == "sphere" else hyperbolic
    p = man.point([0.0, 0.0, 1.0])
    g = man.geodesic_from(p, man.tangent(p, [1, 0, 0]), length=0.5)
    q = g.point(0.5)
    v = random_unit_tangent(man, q, rng)
    w = random_unit_tangent(man, q, rng)
    vw = man.second_deriv_X(p, q, v, w)
    wv = man.second_deriv_X(p, q, w, v)
    assert np.max(np.abs(vw.components - wv.components)) <= 1e-8
    # The closed forms against the chart stencil on a stack of two rows,
    # through the isometric chart of the model (stereographic, Poincare
    # disk); the second row has a masked-out vertex and a zero direction,
    # where the stencil gives zero.
    q1 = man.exp(q, 0.3 * w)
    u = random_unit_tangent(man, q1, rng)
    qs = np.array([q.coords, q1.coords])
    verts = np.array([[p.coords, man.exp(q, 0.3 * v).coords, man.exp(q, -0.4 * w).coords],
                      [p.coords, man.exp(q1, 0.2 * u).coords, man.exp(q1, -0.5 * u).coords]])
    mask = np.array([[True, True, True], [True, True, False]])
    V = np.array([[v.components, w.components], [u.components, np.zeros(3)]])
    terms = man.hess_terms_array(verts, qs, man.log_array(qs[:, None], verts), mask)
    closed = np.where(mask[:, :, None, None, None], man.second_deriv_array(terms, V), 0.0)
    if space == "sphere":
        chart, lift = make_stereographic_sphere(), lift_stereographic_differential
    else:
        chart = make_poincare_disk()

        def lift(x):
            return np.column_stack([lift_disk_differential(x, e) for e in np.eye(2)])
    xs = chart_of_lift(qs)
    fd = chart.second_deriv_array((chart_of_lift(verts), xs, mask),
                                  chart_of_lift_differential(qs[:, None], V))
    lifted = np.einsum("rda,rikla->rikld", np.array([lift(x) for x in xs]), fd)
    assert np.max(np.abs(closed)) >= 0.05
    # 8.2e-7 (sphere) and 3.1e-7 (hyperboloid) with a Gram-Schmidt Hessian
    # frame; 2.5e-9 and 2.3e-8 with the QR frame of ``_frame_at``.
    assert np.max(np.abs(lifted - closed)) <= 1e-7
    assert not fd[1, 2].any() and not fd[1, :, 1].any() and not fd[1, :, :, 1].any()
    assert not chart.second_deriv_array(
        (chart_of_lift(verts[1:]), xs[1:], mask[1:]),
        chart_of_lift_differential(qs[1:, None], V[1:, 1:])).any()


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


def test_radial_array_rejects_conjugate_distances():
    # Logarithms of length pi R reach the conjugate point, where the
    # stretch factor u cot(u) blows up; the error names the first such row.
    # Inside the batched jets log_array rejects near-antipodes first.
    man = Sphere(2, radius=2.0)
    logs = np.zeros((3, 3, 3))
    logs[:, :, 0] = 0.5
    logs[1, 2] = [0.0, math.pi * man.radius, 0.0]
    logs[2, 0] = [0.0, 0.0, 1.5 * math.pi * man.radius]
    with pytest.raises(JacobiError, match=r"row 1: distance reaches the conjugate point"):
        man.radial_array(logs)
    y, tau, f, _, one_minus_f = man.radial_array(logs[:1])
    assert np.allclose(tau, 0.5) and np.allclose(y, [-1.0, 0.0, 0.0])
    assert np.allclose(f + one_minus_f, 1.0, rtol=0.0, atol=1e-15)


def test_scalar_closed_forms_reject_antipodal_points(sphere):
    # The scalar maps take log_q(p) before the distance, so the sphere
    # log's antipode check answers first.
    p, q = sphere.point([0.0, 0.0, 1.0]), sphere.point([0.0, 0.0, -1.0])
    V = sphere.tangent(q, [1.0, 0.0, 0.0])
    for call in (lambda: sphere.hess_half_dist_sq(p, q, V),
                 lambda: sphere.second_deriv_X(p, q, V, V)):
        with pytest.raises(KarcherError, match="antipodal") as info:
            call()
        assert isinstance(info.value, GeodesicError)


def _north_poles(shape):
    p = np.zeros(shape + (3,))
    p[..., 2] = 1.0
    return p


def test_stacked_sphere_log_names_the_first_antipodal_row(sphere):
    p = _north_poles((2, 3))
    q = np.tile([0.6, 0.0, 0.8], (2, 3, 1))
    q[1, 2] = q[1, 1] = [0.0, 0.0, -1.0]
    with pytest.raises(GeodesicError, match=r"^row \(1, 1\): antipodal points: "):
        sphere.log_array(p, q)
    with pytest.raises(GeodesicError, match=r"^antipodal points: "):
        sphere.log_array(p[1, 2], q[1, 2])


def test_stacked_sphere_exp_names_the_first_row_past_the_injectivity_radius(sphere):
    p = _north_poles((2, 3))
    v = np.zeros((2, 3, 3))
    v[..., 0] = 0.5
    v[1, 2, 0] = v[1, 1, 1] = 1.5 * math.pi
    with pytest.raises(GeodesicError, match=r"^row \(1, 1\): initial vector longer "
                                            "than the injectivity radius"):
        sphere.exp_array(p, v)
    with pytest.raises(GeodesicError, match=r"^initial vector longer"):
        sphere.exp_array(p[1, 2], v[1, 2])


# -- shared Jacobi shooting and the mean's logarithms (Poincare chart) ---------

def test_curvature_rt_stack_matches_single_vectors():
    man = make_poincare_disk()
    p = man.point([0.2, -0.1])
    T = np.array([0.6, -0.2])
    W = np.array([[0.1, 0.5], [-0.4, 0.3], [0.0, 1.0]])
    stacked = man.curvature_rt(p, T, W)
    for w, row in zip(W, stacked):
        assert np.array_equal(row, man.curvature_rt(p, T, w))


def test_shared_shooting_matches_per_direction_solves():
    from karcher.jacobi import JacobiShooting, solve_bvp

    man = make_poincare_disk()
    p, q = man.point([0.1, -0.05]), man.point([-0.05, 0.12])
    g = man.geodesic_between(p, q)
    shooting = JacobiShooting(g)
    for V in man.tangent_basis(q) + [man.tangent(q, [0.3, -0.7])]:
        shared = shooting.solve(V)
        own = solve_bvp(g, V)
        for a, b in zip(shared, own):
            assert np.array_equal(a.components, b.components)


@pytest.mark.parametrize("make", [make_poincare_disk, make_stereographic_sphere],
                         ids=["disk", "stereographic-sphere"])
def test_chart_hessian_map_matches_jacobi_shooting(make):
    # The fused ODE from q against the Jacobi shooting oracle (a dense
    # geodesic from p, its parallel frame and the shooting ODE) on the
    # same geodesic, for every direction of a basis at q and one more.
    from karcher.jacobi import JacobiShooting

    man = make()
    rng = np.random.default_rng(12)
    for _ in range(4):
        xp = rng.uniform(-0.4, 0.4, size=2)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        xq = xp + rng.uniform(0.1, 0.6) * np.array([math.cos(angle), math.sin(angle)])
        p, q = man.point(xp), man.point(xq)
        gamma = man.geodesic_between(p, q)
        shooting = JacobiShooting(gamma)
        for V in man.tangent_basis(q) + [man.tangent(q, rng.normal(size=2))]:
            want = gamma.length * shooting.solve(V)[0].components
            got = man.hess_half_dist_sq(p, q, V).components
            assert np.max(np.abs(got - want)) <= 1e-10


def test_chart_second_deriv_matches_hyperboloid_closed_form(hyperbolic):
    # The generic path (one finite-difference stencil of the Hessian per
    # direction) on the Poincare disk against the hyperboloid's closed
    # form, carried over by the isometry between the two models.
    disk = make_poincare_disk()
    xp, xq = np.array([0.1, -0.05]), np.array([-0.05, 0.12])
    V, W = np.array([0.3, -0.7]), np.array([0.5, 0.2])
    q = disk.point(xq)
    fd = disk.second_deriv_X(disk.point(xp), q, disk.tangent(q, V),
                             disk.tangent(q, W))
    Q = lift_disk(hyperbolic, xq)
    closed = hyperbolic.second_deriv_X(
        lift_disk(hyperbolic, xp), Q,
        hyperbolic.tangent(Q, lift_disk_differential(xq, V)),
        hyperbolic.tangent(Q, lift_disk_differential(xq, W)))
    assert np.max(np.abs(closed.components)) >= 0.1
    assert np.max(np.abs(lift_disk_differential(xq, fd.components)
                         - closed.components)) <= 1e-8


def test_chart_second_deriv_runs_only_the_stencil(monkeypatch):
    # The generic stencil reads no Hessian at q itself, so the scalar
    # second_deriv_X on a chart takes none: one fused Jacobi ODE per
    # stencil point (2 directions, 2 signs, 2 steps) and no log_q(p), with
    # the value of the stencil on the full one-row terms.
    disk = make_poincare_disk()
    p, q = disk.point(np.array([0.1, -0.05])), disk.point(np.array([-0.05, 0.12]))
    V, W = disk.tangent(q, np.array([0.3, -0.7])), disk.tangent(q, np.array([0.5, 0.2]))
    full = disk.second_deriv_array(disk._one_row_terms(p, q),
                                   np.stack([V.components, W.components])[None])
    calls = []
    hess_matrix = disk._hess_matrix
    monkeypatch.setattr(disk, "_hess_matrix",
                        lambda *args: calls.append(args) or hess_matrix(*args))
    fd = disk.second_deriv_X(p, q, V, W)
    assert len(calls) == 8
    assert not any(np.array_equal(x, q.coords) for x, *_ in calls)
    assert np.array_equal(fd.components, full[0, 0, 0, 1])


# -- warm-started shooting and the mean's logarithms ------------------------

def _shoot_log(man, p, q, *args):
    """``ChartManifold._shoot_log``'s results for log_p(q), run by
    ``_lockstep`` as a one-row group."""
    return man._lockstep(p, "edge", lambda i: man._shoot_log(p, q, _Symbols(man), *args))[0]


def _record_requests(monkeypatch):
    """Every shot (row, v) that a shooting generator asks
    ``ChartManifold._lockstep`` for, where row stands for the generator,
    one per logarithm."""
    requests = []
    lockstep = ChartManifold._lockstep

    def recording(self, p, what, shooter):
        def spied(i):
            gen, sent, row = shooter(i), None, object()
            while True:
                try:
                    v, step, gam = gen.send(sent)
                except StopIteration as stop:
                    return stop.value
                requests.append((row, v))
                sent = yield v, step, gam
        return lockstep(self, p, what, spied)

    monkeypatch.setattr(ChartManifold, "_lockstep", recording)
    return requests


def _jacobian_refreshes(requests):
    """The finite-difference Jacobian columns among ``requests``: shots
    that differ from an earlier shot w of their logarithm in one
    coordinate, by 1e-7 max(1, |w|)."""
    return [(row, v) for n, (row, v) in enumerate(requests)
            if any(r is row and np.count_nonzero(v - w) == 1
                   and math.isclose(np.max(np.abs(v - w)), 1e-7 * max(1.0, np.linalg.norm(w)),
                                    rel_tol=1e-6)
                   for r, w in requests[:n])]


@given(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(0.02, 0.2),
       st.floats(0.0, 2 * math.pi), st.floats(0.0, 0.02),
       st.floats(0.0, 2 * math.pi))
def test_warm_started_log_matches_cold_log_property(x, y, r, ang, shift, shift_ang):
    # The start is the logarithm toward q from a base point near p, as a
    # mean's previous iterate gives it, with its endpoint Jacobian and
    # without one (NaN).  A guard reference of 0 allows no one-shot step,
    # so the warm logarithm is shot to the tolerance.
    man = make_poincare_disk()
    p = man.point([x, y])
    q = man.point(p.coords + r * np.array([math.cos(ang), math.sin(ang)]))
    b = man.point(p.coords + shift * np.array([math.cos(shift_ang),
                                               math.sin(shift_ang)]))
    v, jac, _, exact, step = _shoot_log(man, b.coords, q.coords)
    assert exact
    cold = man.log(p, q).components
    none = np.full((2, 2), np.nan)
    for J in (jac, none):
        warm, verified, _ = man._warm_log_array(
            p.coords, q.coords, (b.coords, v, J, man.christoffel_fn(b.coords), np.array(0.0),
                                 np.array(step)))
        assert verified
        gap = np.linalg.norm(warm - cold)
        assert gap <= 1e-10 * max(1.0, float(np.linalg.norm(cold)))
        residual = np.linalg.norm(man.exp(p, man.tangent(p, warm)).coords - q.coords)
        assert residual < man.shooting_tol


@pytest.mark.parametrize("start", [
    (np.array([-0.6, 0.5]), np.array([2.0, -1.5]), np.array([[0.0, 5.0], [-3.0, 0.1]])),
    (np.array([0.11, -0.2]), np.array([0.2, 0.3]), -np.eye(2)),
], ids=["far-base", "wrong-jacobian"])
def test_bad_start_falls_back_to_a_fresh_jacobian(start, monkeypatch):
    man = make_poincare_disk()
    p, q = man.point([0.1, -0.2]), man.point([0.3, 0.1])
    cold = man.log(p, q)
    requests = _record_requests(monkeypatch)
    warm = man._warm_log_array(p.coords, q.coords,
                               (*start, man.christoffel_fn(start[0]), np.array(0.0),
                                np.array(1.0)))[0]
    assert _jacobian_refreshes(requests)
    assert np.linalg.norm(warm - cold.components) <= 1e-10
    assert np.linalg.norm(man.exp(p, man.tangent(p, warm)).coords - q.coords) \
        < man.shooting_tol


# -- one shot per vertex and mean iterate, and its guard ---------------------

def _record_shots(monkeypatch):
    """Every endpoint shot of a ChartManifold as (p, v, exp_p(v)): each
    row of the systems that ``_shots`` integrates for ``_lockstep``."""
    shots = []
    integrate = ChartManifold._shots

    def recording(self, p, v, *args):
        ends, step = integrate(self, p, v, *args)
        shots.extend(zip(p.copy(), v.copy(), ends))
        return ends, step

    monkeypatch.setattr(ChartManifold, "_shots", recording)
    return shots


def _verified(shots, p, v, q, tol):
    """Whether v was shot from p and landed within tol of q."""
    return any(np.array_equal(a, p) and np.array_equal(w, v)
               and np.linalg.norm(end - q) < tol for a, w, end in shots)


def _disk_rows(count=8, seed=7):
    """Triangles of the Poincare disk of diameter 0.05 to 0.2 within
    radius 0.5 of the origin, and interior weights."""
    rng = np.random.default_rng(seed)
    verts, lams = [], []
    for diam in np.linspace(0.05, 0.2, count):
        center = rng.uniform(-0.3, 0.3, size=2)
        angles = rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(3) / 3.0
        verts.append([center + diam / math.sqrt(3.0) * np.array([math.cos(a), math.sin(a)])
                      for a in angles])
        lams.append(0.05 + 0.85 * rng.dirichlet(np.ones(3)))
    return np.array(verts), np.array(lams)


ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
SEED_CORRUPTIONS = {"times-3": lambda jac: 3.0 * jac,
                    "rotated-90": lambda jac: ROTATION @ jac,
                    "times-0.3": lambda jac: 0.3 * jac}


def _corrupt_seed(monkeypatch, corrupt):
    from karcher import manifolds

    seed = manifolds._third_order_seed

    def corrupted(gam, dgam, chord):
        v, jac = seed(gam, dgam, chord)
        return v, corrupt(jac)

    monkeypatch.setattr(manifolds, "_third_order_seed", corrupted)


@pytest.mark.parametrize("corruption", sorted(SEED_CORRUPTIONS))
def test_guard_keeps_means_with_a_corrupted_seed_jacobian(corruption, monkeypatch):
    # A one-shot logarithm trusts the Newton step of a Jacobian it has
    # not checked.  Without the guard a seed Jacobian three times too
    # large took 28-42 mean iterates on these rows, and the other two
    # corruptions raised a GeodesicError; with it a row takes at most
    # one more iterate.
    from karcher.barycentric import differential_batch

    disk = make_poincare_disk()
    verts, lams = _disk_rows()
    clean_iters, iters = [], []
    clean, _ = differential_batch(disk, verts, lams, iterations=clean_iters)
    _corrupt_seed(monkeypatch, SEED_CORRUPTIONS[corruption])
    points, _ = differential_batch(disk, verts, lams, iterations=iters)
    assert np.max(np.abs(points - clean)) <= 1e-10
    assert all(k <= c + 1 for k, c in zip(iters, clean_iters))


@pytest.mark.parametrize("corruption", [None] + sorted(SEED_CORRUPTIONS))
def test_mean_returns_only_verified_logarithms(corruption, monkeypatch):
    # Each logarithm the mean returns is a v whose own shot from the mean
    # landed within shooting_tol of its vertex, so its stopping test
    # |F| <= grad_tol reads logarithms as exact as a full shooting gives.
    from karcher.barycentric import _edge_lengths, _stack_jets

    disk = make_poincare_disk()
    verts, lams = _disk_rows()
    if corruption is not None:
        _corrupt_seed(monkeypatch, SEED_CORRUPTIONS[corruption])
    shots = _record_shots(monkeypatch)
    _, grad_tol, guess = _edge_lengths(disk, verts)
    points, logs, _, _ = _stack_jets(disk, verts, lams, grad_tol, guess, False)
    for a, row_logs, row_verts in zip(points, logs, verts):
        for v, p in zip(row_logs, row_verts):
            assert _verified(shots, a, v, p, disk.shooting_tol)


def test_log_array_with_a_start_returns_verified_logarithms(monkeypatch):
    # The same warm start that the mean's one-shot mode takes as one
    # unverified Newton step is shot to the tolerance with a guard
    # reference of 0.
    man = make_poincare_disk()
    p, q = np.array([0.1, -0.2]), np.array([0.3, 0.1])
    b = p + 0.01 * np.array([0.6, 0.8])
    v, jac, _, _, step = _shoot_log(man, b, q)
    step = np.array(step)
    gam = man.christoffel_fn(b)
    _, exact, _ = man._warm_log_array(p, q, (b, v, jac, gam, np.linalg.norm(q - p), step))
    assert not exact
    shots = _record_shots(monkeypatch)
    warm, exact, _ = man._warm_log_array(p, q, (b, v, jac, gam, np.array(0.0), step))
    assert exact and _verified(shots, p, warm, q, man.shooting_tol)


# Three disk triangles and weights whose means take 4, 5 and 6 iterates.
STAGGERED_VERTICES = np.array([
    [[-0.24359938256745428, -0.2454974464605006],
     [-0.2879238679974753, -0.3056680850058866],
     [-0.20611298502932204, -0.2989632074724155]],
    [[0.0012815336012201, -0.037157812329747],
     [-0.05907421852126479, 0.05223037431362512],
     [-0.1179865096808949, -0.07196595514109]],
    [[0.03045906928158472, -0.16726643991668513],
     [0.19873222894202425, -0.22537282897847666],
     [0.17854350024991758, -0.06241371246414242]]])
STAGGERED_WEIGHTS = np.array([
    [0.5029351907643308, 0.23717826533696412, 0.2598865438987051],
    [0.08095342179577188, 0.5065883539327841, 0.4124582242714441],
    [0.10929207050592897, 0.5013575125572486, 0.38935041693682254]])


def test_rows_leaving_the_mean_at_different_iterates_keep_their_warm_state():
    # Each iterate keeps only the warm-start rows that stay in the
    # iteration; a row must read its own state however many rows left
    # before it, so every row is bit-identical to its one-row call.
    from karcher.barycentric import differential_batch

    disk = make_poincare_disk()
    iters: list = []
    points, dx = differential_batch(disk, STAGGERED_VERTICES, STAGGERED_WEIGHTS,
                                    iterations=iters)
    assert iters == [4, 5, 6]
    for r in range(3):
        one: list = []
        point, jet = differential_batch(disk, STAGGERED_VERTICES[r:r + 1],
                                        STAGGERED_WEIGHTS[r:r + 1], iterations=one)
        assert one == [iters[r]]
        assert np.array_equal(point[0], points[r]) and np.array_equal(jet[0], dx[r])


def test_disk_differential_batch_shoots_each_edge_once(monkeypatch):
    # The (0, j) edge lengths are the norms of the initial guess's
    # logarithms log_p0(p_j), so besides the mean's shootings from its
    # iterates each edge of a row is shot once: (0, 1), (0, 2), (1, 2).
    from karcher.barycentric import differential_batch

    disk = make_poincare_disk()
    verts, lams = _disk_rows(count=3)
    vertices = {tuple(x) for x in verts.reshape(-1, 2)}
    calls = []
    shoot_log = ChartManifold._shoot_log

    def counting(self, p, q, *args):
        calls.append((tuple(p), tuple(q)))
        return shoot_log(self, p, q, *args)

    monkeypatch.setattr(ChartManifold, "_shoot_log", counting)
    differential_batch(disk, verts, lams)
    assert sorted(c for c in calls if c[0] in vertices) == sorted(
        (tuple(row[i]), tuple(row[j])) for row in verts for i, j in ((0, 1), (0, 2), (1, 2)))


def test_chart_hessian_map_from_a_log_matches_the_hyperboloid(hyperbolic):
    # The chart's Hessian, from its own shot logarithm, against the
    # hyperboloid's closed form, carried over by the isometry between the
    # two models.
    disk = make_poincare_disk()
    xp, xq = np.array([0.1, -0.05]), np.array([-0.05, 0.12])
    p, q = disk.point(xp), disk.point(xq)
    P, Q = lift_disk(hyperbolic, xp), lift_disk(hyperbolic, xq)
    for V in (np.array([0.3, -0.7]), np.array([0.5, 0.2])):
        got = lift_disk_differential(
            xq, disk.hess_half_dist_sq(p, q, disk.tangent(q, V)).components)
        want = hyperbolic.hess_half_dist_sq(
            P, Q, hyperbolic.tangent(Q, lift_disk_differential(xq, V)))
        assert np.max(np.abs(got - want.components)) <= 1e-8


MEAN_VERTICES = ([0.1, 0.05], [0.22, 0.08], [0.14, 0.2])


def _mean_vertices(space: str, scale: float = 1.0, man=None):
    """The same three points, times ``scale``, in the Poincare disk chart
    or the plane, lifted to the hyperboloid, or placed on the sphere near
    its north pole; on ``man`` if given, else on a new model."""
    corners = scale * np.array(MEAN_VERTICES)
    if space == "disk":
        man = man or make_poincare_disk()
        return man, [man.point(c) for c in corners]
    if space == "euclidean":
        man = man or EuclideanSpace(2)
        return man, [man.point(c) for c in corners]
    if space == "hyperbolic":
        man = man or HyperbolicSpace(2)
        return man, [lift_disk(man, c) for c in corners]
    man = man or Sphere(2)
    return man, [man.point(np.array([*c, 1.0]) / math.hypot(*c, 1.0))
                 for c in corners]


@pytest.fixture(params=["sphere", "hyperbolic", "disk"])
def chart_and_mean(request):
    from karcher.barycentric import KarcherChart, karcher_mean
    from karcher.flat_simplex import BarycentricWeight

    man, vertices = _mean_vertices(request.param)
    chart = KarcherChart(man, vertices)
    lam = BarycentricWeight([0.2, 0.5, 0.3])
    return chart, lam, karcher_mean(chart, lam)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic", "disk"])
def test_chart_edge_logarithms_feed_the_initial_guess(space, monkeypatch):
    # On the disk a chart shoots each of its three edges once; a
    # closed-form chart adds one log_array from p0 to its dist_array, and
    # keeps log_p0(p_j) bit for bit.  Either way the mean starts from the
    # kept logarithms log_p0(p_j), so it takes no logarithm from p0.
    from karcher.barycentric import KarcherChart, karcher_mean
    from karcher.flat_simplex import BarycentricWeight

    man, vertices = _mean_vertices(space)
    p0 = vertices[0].coords
    guess = man.log_array(p0[None, None], np.array([[v.coords for v in vertices[1:]]]))
    bases = []
    if isinstance(man, ChartManifold):
        shoot_log = ChartManifold._shoot_log

        def counting(self, p, q, *args):
            bases.append(np.array(p))
            return shoot_log(self, p, q, *args)

        monkeypatch.setattr(ChartManifold, "_shoot_log", counting)
    else:
        for name in ("log", "log_array"):
            def counting(p, q, _fn=getattr(man, name)):
                bases.append(np.asarray(getattr(p, "coords", p)))
                return _fn(p, q)
            monkeypatch.setattr(man, name, counting)
    chart = KarcherChart(man, vertices)
    if isinstance(man, ChartManifold):
        assert len(bases) == 3
    else:
        (base,) = bases
        assert np.array_equal(base.reshape(-1), p0)
        assert np.array_equal(chart._edge_logs, guess)
    del bases[:]
    karcher_mean(chart, BarycentricWeight([0.2, 0.5, 0.3]))
    assert not [b for b in bases if np.array_equal(b.reshape(-1), p0)]
    # A chart's edges are one lockstep group, whose shots share their
    # integration steps: each length is the norm of its row of that group,
    # and within 1e-12 relative of its own one-row ``dist`` (5.5e-13 at
    # most on 400 random disk and stereographic-sphere triangles of
    # diameter up to 0.8).  A closed form's lengths are its ``dist``.
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    if isinstance(man, ChartManifold):
        x, y = chart.coords[None, i], chart.coords[None, j]
        group = man.norm_array(man.log_array(x, y), x)[0]
        assert np.array_equal(chart.edge_lengths.lengths[i, j], group)
    for k in range(3):
        d = man.dist(vertices[i[k]], vertices[j[k]])
        if isinstance(man, ChartManifold):
            assert abs(chart.edge_lengths.lengths[i[k], j[k]] - d) <= 1e-12 * d
        else:
            assert chart.edge_lengths.lengths[i[k], j[k]] == d


@pytest.mark.parametrize("space", ["euclidean", "sphere", "hyperbolic", "disk"])
def test_chart_tables_are_rows_of_the_stack(space):
    # A chart is a one-row call of the stacked edge lengths that the jet
    # stacks use: its table, diameter, tolerance and edge logarithms are
    # its row of a multi-row call, and rows of other diameters keep their
    # own tolerance.
    from karcher.barycentric import KarcherChart, _edge_lengths, _length_tables

    man, _ = _mean_vertices(space)
    charts = [KarcherChart(man, _mean_vertices(space, scale, man)[1])
              for scale in (1.0, 0.5, 2.0)]
    lengths, grad_tol, logs = _edge_lengths(man, np.array([c.coords for c in charts]))
    tables = _length_tables(lengths, 3)
    for k, chart in enumerate(charts):
        assert np.array_equal(chart.edge_lengths.lengths, tables[k])
        assert chart.h == tables[k].max()
        assert chart.grad_tol == grad_tol[k]
        assert np.array_equal(chart._edge_logs, logs[k:k + 1])
    assert len({c.h for c in charts}) == 3
    if man.shooting_tol == 0.0:
        assert len(set(grad_tol.tolist())) == 3


def test_two_vertex_disk_chart_and_stack():
    # A two-vertex set has only the edge (0, 1), which a shooting model
    # measures as the norm of log_p0(p1); the chart and the stacked jets
    # both take it, and the mean of the segment lies on it.
    from karcher.barycentric import KarcherChart, differential, differential_batch, karcher_mean
    from karcher.flat_simplex import BarycentricWeight

    man, vertices = _mean_vertices("disk")
    chart = KarcherChart(man, vertices[:2])
    d = man.dist(vertices[0], vertices[1])
    assert chart.edge_lengths.lengths[0, 1] == chart.edge_lengths.lengths[1, 0]
    assert chart.edge_lengths.lengths[0, 1] == pytest.approx(d, rel=1e-10)
    lam = BarycentricWeight([0.3, 0.7])
    a = karcher_mean(chart, lam)
    assert man.dist(vertices[0], a) == pytest.approx(0.7 * d, rel=1e-8)
    points, dx = differential_batch(man, chart.coords[None], lam.values[None])
    assert np.allclose(points[0], a.coords, rtol=0.0, atol=1e-12)
    assert np.allclose(dx[0], differential(chart, lam, at=a).dx_matrix, rtol=0.0, atol=1e-8)


def _log_agreement(man: ChartManifold, a: ManifoldPoint, vertices) -> float:
    """How far apart two logarithms at a toward the same vertex can be
    when both pass the shooting test: each is within shooting_tol / s of
    the exact one, s the smallest singular value of the endpoint map's
    Jacobian there."""
    s = min(np.linalg.svd(_endpoint_jacobian(man, a.coords, man.log(a, p).components, p.coords),
                          compute_uv=False).min() for p in vertices)
    return 2.0 * man.shooting_tol / s


def _endpoint_jacobian(man: ChartManifold, p, v, end):
    """The forward-difference Jacobian at v of v -> exp_p(v), whose value
    there is ``end``, from one ``exp`` shot per column."""
    h = 1e-7 * max(1.0, float(np.linalg.norm(v)))
    shots = man.exp_array(np.broadcast_to(p, (man.dim, man.dim)), v + h * np.eye(man.dim))
    return (shots - end).T / h


def test_differential_at_the_mean_reuses_its_logarithms(chart_and_mean,
                                                        monkeypatch):
    from karcher.barycentric import differential

    chart, lam, a = chart_and_mean
    man = chart.manifold
    bases = []
    for name in ("log", "log_array"):
        def counting(p, q, _fn=getattr(man, name)):
            bases.append(p)
            return _fn(p, q)
        monkeypatch.setattr(man, name, counting)
    hit = differential(chart, lam, at=a)
    assert not bases
    fresh = ManifoldPoint(a.coords.copy())
    miss = differential(chart, lam, at=fresh)
    # One stack of logarithms from the fresh point toward every vertex.
    assert len(bases) == 1 and np.array_equal(bases[0], fresh.coords)
    assert np.array_equal(hit.point.coords, miss.point.coords)
    if isinstance(man, ChartManifold):
        # The mean's logarithms are warm-started and the fresh ones cold.
        # dx(e_k - e_0) = A^-1 sigma(e_k - e_0): the two sigmas differ by at
        # most twice the log agreement, and A, near the identity on this
        # small chart, at most doubles that.
        bound = 4.0 * _log_agreement(man, fresh, chart.vertices)
        assert np.max(np.abs(hit.dx_matrix - miss.dx_matrix)) <= bound
    else:
        assert np.array_equal(hit.dx_matrix, miss.dx_matrix)


def test_sigma_same_bits_with_and_without_the_mean_logarithms(chart_and_mean):
    from karcher.barycentric import sigma
    from karcher.flat_simplex import SimplexTangent

    chart, lam, a = chart_and_mean
    man = chart.manifold
    fresh = ManifoldPoint(a.coords.copy())
    for v in ([-1.0, 0.25, 0.75], [0.0, -1.0, 1.0]):
        v = SimplexTangent(v)
        hit = sigma(chart, lam, v, at=a).components
        miss = sigma(chart, lam, v, at=fresh).components
        if isinstance(man, ChartManifold):
            # Warm-started against cold logarithms, weighted by |v|_1.
            bound = np.abs(v.v).sum() * _log_agreement(man, fresh, chart.vertices)
            assert np.max(np.abs(hit - miss)) <= bound
        else:
            assert np.array_equal(hit, miss)


def _disk_jet(man=None):
    """karcher_mean plus differential on the disk chart of
    ``_mean_vertices``, on ``man`` if given."""
    from karcher.barycentric import KarcherChart, differential, karcher_mean
    from karcher.flat_simplex import BarycentricWeight

    man, vertices = _mean_vertices("disk", man=man)
    chart = KarcherChart(man, vertices)
    lam = BarycentricWeight([0.2, 0.5, 0.3])
    differential(chart, lam, at=karcher_mean(chart, lam))
    return man


# ``_disk_jet`` took 167 endpoint shots when every logarithm started cold
# from the chord with a fresh finite-difference Jacobian per Newton step,
# and each Hessian map took its own logarithm.
COLD_START_SHOTS = 167


def test_warm_started_disk_jet_takes_at_most_55_percent_of_the_cold_shots(
        ode_calls):
    man = _disk_jet()
    assert len(endpoint_shots(ode_calls, man)) <= 0.55 * COLD_START_SHOTS


def test_stereographic_sphere_jets_match_the_closed_form_batch():
    # Positive curvature: the seeds bend the chord the other way than on
    # the disk.  Chart jets against differential_batch and hessian_batch
    # on Sphere(2).
    from karcher.barycentric import (KarcherChart, differential, differential_batch,
                                     hessian_batch)
    from karcher.flat_simplex import BarycentricWeight

    man = make_stereographic_sphere()
    rng = np.random.default_rng(20)
    jets, charts, lifted, weights = [], [], [], []
    for rc in np.linspace(0.0, 0.8, 20):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        center = rc * np.array([math.cos(phi), math.sin(phi)])
        radius = rng.uniform(0.03, 0.25)
        angles = (rng.uniform(0.0, 2.0 * math.pi) + 2.0 * math.pi * np.arange(3) / 3.0
                  + rng.uniform(-0.25, 0.25, size=3))
        xs = [center + radius * np.array([math.cos(a), math.sin(a)]) for a in angles]
        lam = 0.05 + 0.85 * rng.dirichlet(np.ones(3))
        chart = KarcherChart(man, [man.point(x) for x in xs])
        jets.append(differential(chart, BarycentricWeight(lam)))
        charts.append(xs)
        lifted.append([lift_stereographic(x) for x in xs])
        weights.append(lam)
    points, dx = differential_batch(Sphere(2), lifted, weights)
    for jet, point, dx_row in zip(jets, points, dx):
        x = jet.point.coords
        assert np.max(np.abs(lift_stereographic(x) - point)) <= 1e-8
        assert np.max(np.abs(lift_stereographic_differential(x) @ jet.dx_matrix
                             - dx_row)) <= 1e-8
    # The chart's coordinate stencil of nabla dx against the closed form.
    _, _, nabla = hessian_batch(Sphere(2), lifted, weights)
    c_points, _, c_nabla = hessian_batch(man, charts, weights)
    lifted_nabla = np.einsum("rda,rkla->rkld", np.array(
        [lift_stereographic_differential(x) for x in c_points]), c_nabla)
    assert np.max(np.abs(lifted_nabla - nabla)) <= 1e-8


def _disk_jet_gaps(hyperbolic, verts, lams):
    """differential_batch and hessian_batch on the Poincare disk chart
    against the hyperboloid's closed-form batch, carried over by the
    isometry between the two models: the largest gaps of the points and
    dx of both disk batches, the largest gap of nabla dx, and the largest
    hyperboloid nabla dx."""
    from karcher.barycentric import differential_batch, hessian_batch

    disk = make_poincare_disk()
    lifted = [[lift_disk(hyperbolic, x).coords for x in row] for row in verts]
    points, dx, nabla = hessian_batch(hyperbolic, lifted, lams)
    d_points, d_dx = differential_batch(disk, verts, lams)
    h_points, h_dx, h_nabla = hessian_batch(disk, verts, lams)
    jet_gap = nabla_gap = 0.0
    for x, x_dx in ((d_points, d_dx), (h_points, h_dx)):
        for k in range(len(verts)):
            jet_gap = max(jet_gap, np.max(np.abs(lift_disk(hyperbolic, x[k]).coords
                                                 - points[k])))
            for j in range(2):
                jet_gap = max(jet_gap, np.max(np.abs(
                    lift_disk_differential(x[k], x_dx[k][:, j]) - dx[k][:, j])))
    for k, x in enumerate(h_points):
        for a in range(2):
            for b in range(2):
                nabla_gap = max(nabla_gap, np.max(np.abs(
                    lift_disk_differential(x, h_nabla[k, a, b]) - nabla[k, a, b])))
    return jet_gap, nabla_gap, np.max(np.abs(nabla))


DISK_ROWS = np.array([MEAN_VERTICES, [[-0.2, 0.1], [-0.05, 0.12], [-0.12, -0.02]]])


def test_disk_batch_jets_match_the_hyperboloid_batch(hyperbolic):
    # Stacked jets of a model without closed forms.
    lams = np.array([[0.2, 0.5, 0.3], [0.45, 0.25, 0.3]])
    jet_gap, nabla_gap, nabla = _disk_jet_gaps(hyperbolic, DISK_ROWS, lams)
    assert nabla >= 1e-3
    assert jet_gap <= 1e-8 and nabla_gap <= 1e-8


def test_disk_batch_jets_at_vertex_weights_match_the_hyperboloid_batch(hyperbolic):
    # At a vertex weight the mean is that vertex, whose logarithm is zero:
    # its Hessian is the identity, the closed forms' limit at distance 0.
    lams = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    jet_gap, nabla_gap, nabla = _disk_jet_gaps(hyperbolic, DISK_ROWS, lams)
    assert nabla >= 1e-3
    assert jet_gap <= 1e-8 and nabla_gap <= 1e-8


def test_manifold_interface_holds_what_the_library_calls():
    # Geodesic curves, transport and curvature serve only the Jacobi
    # oracle: the closed forms give them, the library's chart does not.
    # Flat space has none of the curvature the oracle reads off constant
    # curvature.
    from karcher.manifolds import Manifold

    moved = {"geodesic_from", "parallel_transport", "curvature_rt"}
    assert Manifold.__abstractmethods__ == {
        "_ip", "metric_matrix", "exp", "log", "tangent_frame_array",
        "hess_terms_array", "second_deriv_array"}
    assert not any(hasattr(ChartManifold, name) for name in moved)
    assert "frame_field" not in vars(ChartManifold)
    for man in (Sphere(2), HyperbolicSpace(2), make_poincare_disk()):
        assert all(callable(getattr(man, name)) for name in moved)
    assert all(callable(getattr(EuclideanSpace(2), name))
               for name in moved - {"curvature_rt"})
    assert not hasattr(EuclideanSpace(2), "curvature_rt")


def test_chart_metric_matrix_takes_one_callback_per_row(monkeypatch):
    # Built from dim^2 inner products of the unit vectors, each matrix
    # takes one callback per entry; the chart's takes the callback's
    # matrix, which has the same entries bit for bit.
    disk = make_poincare_disk()
    calls = []
    metric = disk.metric_fn
    monkeypatch.setattr(disk, "metric_fn", lambda x: calls.append(x) or metric(x))
    rows = np.array([[0.1, -0.2], [0.3, 0.25]])
    mats = disk.metric_matrix(rows)
    assert len(calls) == 2
    eye = np.eye(2)
    by_entry = np.array([[[disk._ip(ManifoldPoint(x), e, g) for g in eye] for e in eye]
                         for x in rows])
    assert np.array_equal(mats, by_entry)
    assert len(calls) == 10


@pytest.mark.parametrize("space", ["euclidean", "disk"])
def test_default_stacks_of_no_rows_are_empty(space):
    # Shaped as the closed forms' stacks of no rows are.
    man = EuclideanSpace(2) if space == "euclidean" else make_poincare_disk()
    none = np.zeros((0, 2))
    sphere_none = np.zeros((0, 3))
    assert Sphere(2).log_array(sphere_none, sphere_none).shape == (0, 3)
    assert man.log_array(none, none).shape == (0, 2)
    assert man.dist_array(none, none).shape == (0,)
    assert man.norm_array(none, none).shape == (0,)
    # Flat space has one metric matrix for every point, as the space forms
    # have their form; the chart's is one matrix per row.
    want = np.eye(2) if space == "euclidean" else np.zeros((0, 2, 2))
    assert np.array_equal(man.metric_matrix(none), want)


def test_disk_batch_jets_take_no_transport(monkeypatch):
    # The chart's second derivative is a stencil along coordinate lines:
    # no geodesic, parallel frame or transport is taken, and the jets are
    # those of a call that could take them.  The library's chart, which
    # has no transport, gives the test chart's results bit for bit.
    from karcher.barycentric import differential_batch, hessian_batch

    lams = np.array([[0.2, 0.5, 0.3], [0.45, 0.25, 0.3]])
    disk = make_poincare_disk()
    plain = ChartManifold(2, poincare_metric, poincare_christoffel, bounds=disk.bounds)
    want = hessian_batch(disk, DISK_ROWS, lams)

    def no_transport(*args, **kwargs):
        raise AssertionError("the jets took a geodesic or a transport")

    for name in ("geodesic_from", "frame_field", "parallel_transport"):
        monkeypatch.setattr(disk, name, no_transport)
    for got, expected in zip(hessian_batch(disk, DISK_ROWS, lams), want):
        assert np.array_equal(got, expected)
    for got, expected in zip(hessian_batch(plain, DISK_ROWS, lams), want):
        assert np.array_equal(got, expected)
    for got, expected in zip(differential_batch(plain, DISK_ROWS, lams),
                             differential_batch(disk, DISK_ROWS, lams)):
        assert np.array_equal(got, expected)
    p, q = (ManifoldPoint(x) for x in DISK_ROWS[0, :2])
    V, W = (disk.tangent(q, c) for c in ([0.3, -0.1], [0.2, 0.4]))
    assert np.array_equal(plain.log(q, p).components, disk.log(q, p).components)
    assert plain.dist(q, p) == disk.dist(q, p)
    assert np.array_equal(plain.second_deriv_X(p, q, V, W).components,
                          disk.second_deriv_X(p, q, V, W).components)


def test_chart_hessian_frame_is_orthonormal_near_a_frame_column(monkeypatch):
    # The parallel frame of the fused Hessian ODE starts at q from u0 =
    # log_q(p) / tau.  Where u0 lies within 1e-6 of a column of the
    # Cholesky frame, Gram-Schmidt of {u0, frame} normalized a remainder of
    # norm 1e-6 and the frame was orthonormal only to 5.1e-10 on these
    # cases; the QR frame is orthonormal to a few eps.
    from karcher import integrate, manifolds

    starts = []

    def recording(rhs, t_span, y0, **kwargs):
        starts.append(np.array(y0))
        return integrate.solve_ode(rhs, t_span, y0, **kwargs)

    monkeypatch.setattr(manifolds, "solve_ode", recording)
    disk = make_poincare_disk()
    rng = np.random.default_rng(5)
    gaps = []
    for _ in range(40):
        q = rng.uniform(-0.4, 0.4, size=2)
        col = rng.choice([-1.0, 1.0]) * disk.tangent_frame_array(q)[:, rng.integers(2)]
        v = 0.1 * (col + 1e-6 * rng.normal(size=2))
        disk._hess_matrix(q, v)
        F = starts[-1][4:8].reshape(2, 2)
        gaps.append(np.max(np.abs(F @ disk.metric_fn(q) @ F.T - np.eye(2))))
    assert max(gaps) <= 8.0 * np.finfo(float).eps
    # The first frame vector is the initial velocity u0 itself.
    assert all(np.array_equal(y0[4:6], y0[2:4]) for y0 in starts)


def test_chart_hessian_terms_name_the_failing_row_and_vertex():
    # A flat chart declared with C0 = 1, on which a geodesic of length pi
    # reaches the conjugate bound; the second row has one.
    man = ChartManifold(2, lambda x: np.eye(2), lambda x: np.zeros((2, 2, 2)),
                        ManifoldBounds(1.0, 0.0, math.pi, math.pi / 2.0))
    q = np.array([[0.0, 0.0], [0.5, -0.5]])
    logs = np.full((2, 3, 2), 0.1)
    logs[1, 2] = [3.2, 0.0]
    with pytest.raises(JacobiError, match=r"^row 1, vertex 2: length reaches "
                                          r"the first conjugate point$"):
        man.hess_terms_array(q[:, None] + logs, q, logs, np.ones((2, 3), dtype=bool))


def _disk_pair(hyperbolic, rng):
    """Two points of the disk, both within radius 0.9 of the origin, at
    hyperbolic distance at most 3."""
    while True:
        r, a, b = rng.uniform(0.0, 0.9), *rng.uniform(0.0, 2.0 * math.pi, 2)
        x = r * np.array([math.cos(a), math.sin(a)])
        P = lift_disk(hyperbolic, x)
        u = lift_disk_differential(x, np.array([math.cos(b), math.sin(b)]))
        u = u / hyperbolic.norm(hyperbolic.tangent(P, u))
        Q = hyperbolic.exp(P, hyperbolic.tangent(P, rng.uniform(0.1, 3.0) * u))
        y = Q.coords[:2] / (1.0 + Q.coords[2])
        if np.linalg.norm(y) <= 0.9:
            return x, y


def disk_log_gap(disk, hyperbolic, x, y):
    """The norm of the disk's log_x(y) minus the hyperboloid's, carried
    over by the isometry ``lift_disk``."""
    log = disk.log(disk.point(x), disk.point(y))
    P = lift_disk(hyperbolic, x)
    want = hyperbolic.log(P, lift_disk(hyperbolic, y))
    return hyperbolic.norm(hyperbolic.tangent(
        P, lift_disk_differential(x, log.components) - want.components))


def test_long_cold_disk_logarithms_match_the_hyperboloid(hyperbolic, monkeypatch):
    # Far from the origin and over long distances the seed is poor: its
    # first step may fail, and the finite-difference Jacobian takes over.
    # Before steps were taken back and halved, the Newton iterates of the
    # first pair wandered toward the rim and the shooting did not return.
    disk = make_poincare_disk()
    requests = _record_requests(monkeypatch)
    rng = np.random.default_rng(3)
    pairs = [(np.array([0.49539472, -0.58909145]), np.array([0.02884016, -0.87088237]))]
    pairs += [_disk_pair(hyperbolic, rng) for _ in range(40)]
    for x, y in pairs:
        assert disk_log_gap(disk, hyperbolic, x, y) <= 1e-10
    assert _jacobian_refreshes(requests)


def test_verified_cold_logarithms_seed_from_both_ends():
    # A logarithm that must be verified seeds from the Christoffel jets at
    # p and q, and its first shot misses by O(|q - p|^6).  The mean's
    # first iterate keeps the one-end third-order seed, which misses by
    # O(|q - p|^4): that residual is the next iterate's guard reference.
    # Here the ratio reads 514 to 9544.
    from karcher import manifolds

    man = make_poincare_disk()
    rng = np.random.default_rng(11)
    for length in (0.02, 0.052):
        for _ in range(4):
            p = rng.uniform(-0.4, 0.4, size=2)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            q = p + length * np.array([math.cos(angle), math.sin(angle)])
            v, _ = manifolds._third_order_seed(*man._christoffel_jet(p), q - p)
            one_end = np.linalg.norm(man._shots(p[None], v[None], 1.0)[0][0] - q)
            assert man._warm_log_array(p, q)[2][4] == one_end
            assert 0.0 < 100.0 * _shoot_log(man, p, q)[2] <= one_end


def test_overflowing_two_point_seed_starts_from_the_chord(hyperbolic):
    # On this long chord toward the rim the sweeps of the two-point seed
    # overflow to 1e153 and beyond; the overflow raises no warning, and the
    # shooting starts from the chord as for any seed out of range.
    from karcher import manifolds

    disk = make_poincare_disk()
    x = np.array([-0.1706883, 0.46896714])
    y = np.array([0.42228576, 0.86411937])
    with np.errstate(over="ignore", invalid="ignore"):
        v, _ = manifolds._two_point_seed(disk._christoffel_jet(x), disk._christoffel_jet(y),
                                         y - x)
    assert not np.all(np.abs(v) < 1e150)
    assert disk_log_gap(disk, hyperbolic, x, y) <= 1e-10


def test_out_of_range_cold_seed_starts_from_the_chord(hyperbolic, ode_calls):
    # Near the rim, the third-order seed of this long logarithm lies
    # farther from the chord than the chord's own length.  Shot from the
    # seed, its first two shots ran toward the rim (1381 and 1321
    # evaluations) before the take-back rule restarted from the chord:
    # 6595 evaluations in all.
    x = np.array([-0.4675642144546439, -0.752965925406271])
    y = np.array([-0.19298312846227966, -0.24968783137236966])
    assert disk_log_gap(make_poincare_disk(), hyperbolic, x, y) <= 1e-10
    assert sum(c.nfev for c in ode_calls) <= 4000


# Logarithms that take the finite-difference fallback, and their
# components and distances as each shot was integrated on its own before
# the lockstep groups: out of range, an overflowing two-point seed, a bad
# first step.
FALLBACK_LOGS = [
    ((-0.4675642144546439, -0.752965925406271), (-0.19298312846227966, -0.24968783137236966),
     (0.11901388682150608, 0.19899483699264373), 2.1626949621584655),
    ((-0.1706883, 0.46896714), (0.42228576, 0.86411937),
     (1.3580680063426949, 0.14962840973998895), 3.638891206592901),
    ((0.49539472, -0.58909145), (0.02884016, -0.87088237),
     (-0.5300082824734466, 0.09452815728210279), 2.641957543628598),
]


def test_fallback_logarithms_keep_their_bits(monkeypatch):
    # A one-row group sends each finite-difference column as its own shot
    # from the step the previous one accepted, so log and dist keep the
    # bits they had when every shot was its own ODE.
    disk = make_poincare_disk()
    requests = _record_requests(monkeypatch)
    for x, y, log, dist in FALLBACK_LOGS:
        requests.clear()
        p, q = disk.point(x), disk.point(y)
        assert disk.log(p, q).components.tolist() == list(log)
        assert _jacobian_refreshes(requests)
        assert disk.dist(p, q) == dist


# -- lockstep shooting ------------------------------------------------------

def test_log_is_a_one_row_group_of_log_array():
    # The scalar log is log_array on one row, with or without a leading
    # axis, bit for bit.
    man = make_poincare_disk()
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, size=2)
        y = x + rng.uniform(-0.3, 0.3, size=2)
        log = man.log(man.point(x), man.point(y)).components
        assert np.array_equal(log, man.log_array(x[None], y[None])[0])
        assert np.array_equal(log, man.log_array(x, y))


def test_lockstep_rows_match_their_one_row_shootings():
    # The rows of a group (a chart's edges, a mean iterate's vertices)
    # share their integration steps and scipy's error norm, so a row is
    # bit-equal to its group's one-row call of the stack, not to its own
    # shooting.  Against that, its logarithm is within 1e-13 (2.5e-14 at
    # most on six seeds of these eight rows) and verified alike.
    man = make_poincare_disk()
    verts, lams = _disk_rows()
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    x, y = verts[:, i], verts[:, j]
    edges = man.log_array(x, y)
    a = np.einsum("ri,rid->rd", lams, verts)
    logs, exact, _ = man._warm_log_array(a[:, None], verts)
    for r in range(len(verts)):
        assert np.array_equal(edges[r], man.log_array(x[r:r + 1], y[r:r + 1])[0])
        assert np.array_equal(logs[r], man._warm_log_array(a[r:r + 1, None], verts[r:r + 1])[0][0])
        for k in range(3):
            assert np.max(np.abs(edges[r, k] - man.log_array(x[r, k], y[r, k]))) <= 1e-13
            log, verified, _ = man._warm_log_array(a[r], verts[r, k])
            assert verified == exact[r, k]
            assert np.max(np.abs(logs[r, k] - log)) <= 1e-13


def test_lockstep_errors_name_the_row_and_its_edge_or_vertex(monkeypatch):
    # In two-row stacks whose first row shoots nothing or succeeds, a
    # failure of the second names it and the edge or vertex whose
    # shooting failed, or the edges whose shots the failed system held.
    from karcher import integrate, manifolds

    man = make_poincare_disk()
    verts = _disk_rows(count=2)[0]
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    x, y = verts[:, i], verts[:, j].copy()
    y[0] = x[0]
    with monkeypatch.context() as patch:
        patch.setattr(manifolds, "MAX_SHOOTING_ITERS", 1)
        with pytest.raises(GeodesicError, match=r"^row 1, edge 0: shooting for the logarithm "
                                                r"did not converge from p = "):
            man.log_array(x, y)
    a = verts.mean(axis=1)
    _, _, state = man._warm_log_array(a[:, None], verts)
    jacs = state[2].copy()
    jacs[1, 2] = 0.0
    with pytest.raises(GeodesicError, match=r"^row 1, vertex 2: endpoint Jacobian is singular"):
        man._warm_log_array(a[:, None] + 1e-3, verts, (*state[:2], jacs, *state[3:]))
    far = verts.copy()
    far[1] = [[-0.6, 0.5], [0.55, 0.45], [0.1, -0.7]]
    monkeypatch.setattr(integrate, "ODE_MAX_NFEV", 40)
    with pytest.raises(GeodesicError, match=r"^row 1, edges \[0, 1, 2\]: ODE integration over "
                                            r"\[0\.0, 1\.0\] stopped at t = \S+ after 40 "):
        man.log_array(far[:, i], far[:, j])


def test_disk_jet_christoffel_calls(christoffel_calls):
    # 1126 when every logarithm was shot on its own: a row of a lockstep
    # group takes the group's steps, even where its own shot would take
    # fewer, and pays one call per step stage for them.
    _disk_jet()
    assert len(christoffel_calls) == 1186


def test_disk_second_derivatives_take_each_point_s_symbols_once(christoffel_calls,
                                                                 monkeypatch):
    # The stencil's logarithms, its Hessian ODEs and the symbols at q
    # share one ``_Symbols``, so outside the ODE solves no call of
    # ``second_deriv_array`` takes a point's symbols twice.  With a
    # ``_Symbols`` each, 82 of its 8930 calls repeated a point.  (Right-hand
    # sides can still meet: the first stage of a stencil shot and of the
    # Hessian ODE along it sometimes coincide bit for bit.)
    from karcher import manifolds
    from karcher.barycentric import hessian_batch

    solves, spans = [], []

    def spanning(fn, into):
        def wrapped(*args, **kwargs):
            start = len(christoffel_calls)
            out = fn(*args, **kwargs)
            into.append(range(start, len(christoffel_calls)))
            return out
        return wrapped

    monkeypatch.setattr(manifolds, "solve_ode", spanning(manifolds.solve_ode, solves))
    monkeypatch.setattr(ChartManifold, "second_deriv_array",
                        spanning(ChartManifold.second_deriv_array, spans))
    hessian_batch(make_poincare_disk(), DISK_ROWS, np.array([[0.2, 0.5, 0.3],
                                                             [0.45, 0.25, 0.3]]))
    solved = set().union(*solves)
    [span] = spans
    taken = [christoffel_calls[k].tobytes() for k in span if k not in solved]
    assert taken and len(set(taken)) == len(taken)


# -- integration steps of the chart's geodesics ------------------------------

# ``_disk_jet`` took 3765 right-hand-side evaluations over its 90
# ``solve_ode`` calls when every integration began from scipy's own
# starting-step estimate (about 0.02 for a unit shot).
DEFAULT_FIRST_STEP_JET_NFEV = 3765


def test_disk_jet_takes_at_most_half_the_default_first_step_nfev(ode_calls):
    # 90 calls before the logarithms were seeded from the Christoffel
    # symbols, updated by Broyden steps and the edge logarithms reused; 64
    # before the seeds were third-order and each Hessian map one ODE; 52
    # (0.36 of the evaluations) before each mean iterate shot each
    # vertex once; 36 (0.265) before the mean moved its iterates by a
    # retraction and its logarithms and Hessian ODEs started from the
    # first steps they last accepted; 32 (0.225) before the verified
    # logarithms were seeded from the jets at both ends; 30 (0.209) before
    # the logarithms of a chart's edges and of a mean iterate's vertices
    # were each shot as one lockstep group, one solve per Newton round.
    _disk_jet()
    assert len(ode_calls) == 14
    assert sum(c.nfev for c in ode_calls) <= 0.11 * DEFAULT_FIRST_STEP_JET_NFEV


def test_disk_jet_takes_each_point_s_symbols_once_per_call(christoffel_calls, monkeypatch):
    # Every shot of a logarithm takes its first right-hand side from the
    # symbols at p that its seed took, and every Hessian ODE of a row from
    # the jet at q, so no such solve calls ``christoffel_fn`` at the start
    # of any of its geodesics; only the initial guess's ``exp`` shot does.
    # Within one call of a stack, no point's symbols are taken twice.
    from karcher import manifolds

    spans = {}

    def spanning(name, fn):
        def wrapped(*args, **kwargs):
            start = len(christoffel_calls)
            out = fn(*args, **kwargs)
            spans.setdefault(name, []).append((start, len(christoffel_calls), args))
            return out
        return wrapped

    stacks = ("log_array", "_warm_log_array", "hess_terms_array")
    for name in stacks:
        monkeypatch.setattr(ChartManifold, name, spanning(name, getattr(ChartManifold, name)))
    monkeypatch.setattr(manifolds, "solve_ode", spanning("solve_ode", manifolds.solve_ode))
    man = _disk_jet()
    assert all(spans.get(name) for name in stacks)
    at_start = [end > start and any(np.array_equal(x, x0) for x in christoffel_calls[start:end]
                                    for x0 in (y0.reshape(-1, 4)[:, :2]
                                               if rhs == man._geodesic_rhs else [y0[:2]]))
                for start, end, (rhs, _, y0) in spans["solve_ode"]]
    assert sum(at_start) == 1 and len(at_start) == 14
    for name in stacks:
        for start, end, _ in spans[name]:
            assert len({x.tobytes() for x in christoffel_calls[start:end]}) == end - start


def test_fresh_disk_jets_take_the_same_solves(ode_calls):
    # The mean's first steps live in its own state and the Hessian ODEs'
    # in one ``hess_terms_array`` call: a second jet on a fresh chart of
    # the same manifold starts every solve as the first jet did.
    man = _disk_jet()
    first = [(c.first_step, c.nfev) for c in ode_calls]
    del ode_calls[:]
    _disk_jet(man)
    assert [(c.first_step, c.nfev) for c in ode_calls] == first


def test_disk_mean_shoots_only_its_initial_guess(monkeypatch):
    # Every later iterate moves by the second-order retraction.  The
    # fixed point does not depend on how the iterates move: against cold
    # logarithms the mean still meets its grad_tol.
    from karcher.barycentric import KarcherChart, karcher_mean
    from karcher.flat_simplex import BarycentricWeight

    man, vertices = _mean_vertices("disk")
    chart = KarcherChart(man, vertices)
    lam = BarycentricWeight([0.2, 0.5, 0.3])
    shots = []
    exp = man.exp
    monkeypatch.setattr(man, "exp", lambda p, v: shots.append(p) or exp(p, v))
    trace: list = []
    a = karcher_mean(chart, lam, trace=trace)
    assert len(shots) == 1 and len(trace) >= 3
    F = -lam.values @ man.log_array(a.coords, chart.coords)
    assert man.norm(man.tangent(a, F)) <= chart.grad_tol


# ``hessian_batch`` on ``DISK_ROWS`` at two interior weights took 6767
# right-hand-side evaluations in 263 solves when every mean iterate was
# shot by ``exp`` and every logarithm and Hessian ODE of the mean and the
# jets started from the whole interval.
WHOLE_INTERVAL_HESSIAN_BATCH_NFEV = 6767


def test_disk_hessian_batch_solves(ode_calls):
    # 255 solves (0.94 of the evaluations) before the verified
    # logarithms, the edge lengths' and the stencil's, were seeded from
    # the jets at both ends; 210 (0.799) before the logarithms of a
    # chart's edges and of a mean iterate's vertices were each shot as one
    # lockstep group.  The stencil's logarithms are one-row groups.
    from karcher.barycentric import hessian_batch

    lams = np.array([[0.2, 0.5, 0.3], [0.45, 0.25, 0.3]])
    hessian_batch(make_poincare_disk(), DISK_ROWS, lams)
    assert len(ode_calls) == 178
    assert sum(c.nfev for c in ode_calls) <= 0.7 * WHOLE_INTERVAL_HESSIAN_BATCH_NFEV


def test_disk_jet_needs_no_finite_difference_jacobian(monkeypatch):
    # The seed Jacobians and their Broyden updates carry every logarithm
    # of a small chart.
    requests = _record_requests(monkeypatch)
    _disk_jet()
    assert requests and not _jacobian_refreshes(requests)


def test_short_disk_exp_is_one_whole_interval_step(ode_calls):
    # scipy's starting-step estimate took 3 steps and 38 evaluations here.
    man = make_poincare_disk()
    p = man.point([0.1, -0.2])
    man.exp(p, man.tangent(p, [0.03, 0.04]))
    [shot] = ode_calls
    assert shot.t_span == (0.0, 1.0)
    assert np.array_equal(shot.steps, [1.0])
    assert shot.nfev == 13


@pytest.mark.parametrize("length", [0.05, 0.4, 1.2, 3.0])
@pytest.mark.parametrize("x, direction", [
    ([0.0, 0.0], [1.0, 0.0]),
    ([0.4, 0.0], [0.3, 1.0]),
    ([-0.2, 0.3], [0.6, -0.8]),
    ([0.1, -0.25], [-1.0, 0.5]),
])
def test_disk_geodesic_dense_output_matches_the_hyperboloid(hyperbolic, x, direction,
                                                            length):
    # Whole-interval steps leave few step points, so the interior of the
    # geodesic comes from DOP853's dense interpolant.
    disk = make_poincare_disk()
    x = np.array(x)
    p = disk.point(x)
    v = disk.tangent(p, direction)
    gamma = disk.geodesic_from(p, v, length)
    P = lift_disk(hyperbolic, x)
    u = lift_disk_differential(x, v.components)
    U = hyperbolic.tangent(P, u / hyperbolic.norm(hyperbolic.tangent(P, u)))
    for t in np.linspace(0.0, length, 11)[1:-1]:
        X = hyperbolic.exp(P, t * U).coords
        want = X[:2] / (1.0 + X[2])
        got = gamma.point(t).coords
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))


# A cold shooting of this pair took 774 right-hand-side evaluations over 9
# shots of 7 steps each when every shot began from scipy's own
# starting-step estimate.
DEFAULT_FIRST_STEP_LOG_NFEV = 774


def test_cold_log_shots_start_from_the_previous_accepted_step(ode_calls):
    man = make_poincare_disk()
    p, q = man.point([0.1, -0.2]), man.point([0.3, 0.1])
    log = man.log(p, q)
    shots = endpoint_shots(ode_calls, man)
    assert len(shots) == len(ode_calls)
    assert len(shots) > 1 and all(len(s.steps) > 1 for s in shots)
    assert shots[0].first_step == 1.0
    for before, after in zip(shots, shots[1:]):
        assert after.first_step == before.steps[0]
    assert sum(s.nfev for s in shots) < DEFAULT_FIRST_STEP_LOG_NFEV
    assert np.linalg.norm(man.exp(p, log).coords - q.coords) < man.shooting_tol


def test_solve_ode_rejects_a_zero_length_interval():
    from karcher.integrate import solve_ode

    with pytest.raises(KarcherError, match=r"ODE interval \[0\.5, 0\.5\] has zero length"):
        solve_ode(lambda t, y: -y, (0.5, 0.5), [1.0])


def test_solve_ode_failure_names_the_interval_and_evaluations():
    from karcher.integrate import solve_ode

    # y' = y^2, y(0) = 1 blows up at t = 1.
    with pytest.raises(GeodesicError, match=(
            r"ODE integration over \[0\.0, 2\.0\] failed after \d+ "
            r"right-hand-side evaluations: \S")):
        solve_ode(lambda t, y: y * y, (0.0, 2.0), [1.0])


def test_shot_toward_the_rim_stops_at_the_evaluation_budget():
    # The steps of this shot shrink without end as it runs toward the rim
    # of the disk; without a budget the solve did not return.
    from karcher.integrate import ODE_MAX_NFEV

    man = make_poincare_disk()
    p = man.point([0.49539472, -0.58909145])
    with pytest.raises(GeodesicError, match=(
            rf"ODE integration over \[0\.0, 1\.0\] stopped at t = \S+ after "
            rf"{ODE_MAX_NFEV} right-hand-side evaluations")):
        man.exp(p, man.tangent(p, [1e6, -1e6]))
