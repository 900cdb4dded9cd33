import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import qmc

from karcher import barycentric, harness
from karcher.barycentric import BarycentricWeight, KarcherChart, karcher_mean, sigma
from karcher.errors import (KarcherError, MeanSolverError, NonRealizableError,
                            SlopeFitError)
from karcher.flat_simplex import SimplexTangent
from karcher.harness import (INTERIOR_POINTS, QUANTITIES, DistortionSample, SimplexFamily,
                             _check_slope, _check_slopes, _fit_table, _halton_points,
                             achieved_fullness, check_edge_length_comparison,
                             edge_length_rate, equilateral_family, fit_orders, fit_slope,
                             generate_geodesic_simplex, interior_weights,
                             measure_distortion, run_distortion_sweep)
from karcher.manifolds import EuclideanSpace, HyperbolicSpace, ManifoldPoint

from conftest import strict_solver
from oracles import connection_gap_fd


@pytest.fixture(scope="module")
def sphere_family(sphere):
    return equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 5)


@pytest.fixture(scope="module")
def sphere_report(sphere_family):
    return run_distortion_sweep(sphere_family)


# -- generation ---------------------------------------------------------------

def test_generate_euclidean_theta_matches_tangent_simplex():
    man = EuclideanSpace(2)
    center = man.point([0.0, 0.0])
    family = equilateral_family(man, center, 0.3, 1)
    chart = generate_geodesic_simplex(man, center, family.directions, 0.3)
    assert chart.h == pytest.approx(0.3, rel=1e-12)
    assert achieved_fullness(chart) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)


def test_generate_sphere_theta_tends_to_equilateral(sphere, sphere_family):
    center = sphere.point([0, 0, 1.0])
    thetas = [achieved_fullness(generate_geodesic_simplex(
        sphere, center, sphere_family.directions, h)) for h in (0.2, 0.0125)]
    target = math.sqrt(3) / 2
    assert abs(thetas[1] - target) < abs(thetas[0] - target) + 1e-12
    assert thetas[1] == pytest.approx(target, abs=1e-4)


def test_generate_rejects_scale_beyond_convexity(sphere, sphere_family):
    with pytest.raises(ValueError):
        generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                  sphere_family.directions, 3.5)


def test_fullness_stability_across_ladder(sphere, sphere_family):
    thetas = [achieved_fullness(generate_geodesic_simplex(
        sphere, sphere.point([0, 0, 1.0]), sphere_family.directions, h))
        for h in sphere_family.ladder]
    assert max(thetas) / min(thetas) - 1.0 < 0.05


def test_ladder_errors_name_the_level(sphere, sphere_family):
    # At h = 2.6 the scale 1.50 is inside the convexity radius pi / 2,
    # but the geodesic edges (2.09) are not.
    center = sphere.point([0, 0, 1.0])
    match = (r"^level h=2.6: vertex separation 2.08.e\+00 exceeds the convexity "
             r"radius 1.571e\+00")
    with pytest.raises(ValueError, match=match):
        generate_geodesic_simplex(sphere, center, sphere_family.directions, 2.6)
    with pytest.raises(ValueError, match=match):
        run_distortion_sweep(equilateral_family(sphere, center, 2.6, 4))
    with pytest.raises(ValueError, match=r"^level h=3.5: requested scale"):
        generate_geodesic_simplex(sphere, center, sphere_family.directions, 3.5)


def test_ladder_names_a_non_realizable_level():
    # At d = 18 the h = 0.05 and finer triangles collapse to roundoff;
    # with a low enough target the two coarser levels are not too thin.
    family = _far_hyperbolic_family(18.0)
    match = r"^level h=0.05: generated edge lengths are not realizable"
    with pytest.raises(NonRealizableError, match=match):
        run_distortion_sweep(SimplexFamily(family.manifold, family.center,
                                           family.directions, family.ladder, 0.1))
    with pytest.raises(NonRealizableError, match=r"^level h=0.0125: generated"):
        generate_geodesic_simplex(family.manifold, family.center,
                                  family.directions, 0.0125)


@pytest.mark.parametrize("later", [2.6, 3.5])
def test_ladder_raises_for_the_first_failing_level(sphere, sphere_family, later):
    # Level 0 is below 0.9 of a fullness target of 1; the level after it
    # fails an earlier check (its edges, or its scale, beyond the
    # convexity radius), but the first failing level is reported.
    family = SimplexFamily(sphere, sphere.point([0, 0, 1.0]),
                           sphere_family.directions, (0.2, later, 0.05, 0.025), 1.0)
    with pytest.raises(NonRealizableError, match=r"^simplex at h=0.2 is too thin"):
        run_distortion_sweep(family)


@pytest.mark.parametrize("entry", ["sweep", "generate", "edge_rate"])
@pytest.mark.parametrize("count", [1, 3])
def test_ladder_rejects_directions_that_span_no_simplex(sphere, sphere_family, entry, count,
                                                       monkeypatch):
    # One direction, or the same direction three times: the directions
    # have no separation to scale by, which must be a ValueError, raised
    # before any vertex is generated.
    def no_exp(*args):
        raise AssertionError("a vertex was generated")

    monkeypatch.setattr(type(sphere), "exp", no_exp)
    dirs = (sphere_family.directions[0],) * count
    family = SimplexFamily(sphere, sphere_family.center, dirs, sphere_family.ladder,
                           sphere_family.fullness_target)
    call = {"sweep": lambda: run_distortion_sweep(family),
            "generate": lambda: generate_geodesic_simplex(sphere, family.center, dirs, 0.2),
            "edge_rate": lambda: edge_length_rate(family)}[entry]
    with pytest.raises(ValueError, match="two distinct directions"):
        call()


def test_ladder_rejects_a_zero_direction(sphere, sphere_family):
    dirs = (sphere_family.directions[0] * 0.0,) + tuple(sphere_family.directions[1:])
    with pytest.raises(ValueError, match="zero direction vector"):
        generate_geodesic_simplex(sphere, sphere_family.center, dirs, 0.2)


@pytest.mark.parametrize("entry, ladder", [
    (entry, ladder) for ladder in [(), (0.2, 0.0), (-0.2, -0.1), (0.2, math.nan), (math.inf, 0.1)]
    for entry in ["sweep", "generate", "edge_rate"] if ladder or entry != "generate"])
def test_ladder_rejects_levels_that_are_not_positive_and_finite(sphere, sphere_family, entry,
                                                                ladder, monkeypatch):
    # An empty ladder, or a level that is zero, negative (the point
    # reflection of the family) or not finite, is a ValueError raised
    # before any vertex is generated; the one-level generator takes the
    # first bad level as its h.
    def no_exp(*args):
        raise AssertionError("a vertex was generated")

    monkeypatch.setattr(type(sphere), "exp", no_exp)
    family = SimplexFamily(sphere, sphere_family.center, sphere_family.directions, ladder,
                           sphere_family.fullness_target)
    bad = next((h for h in ladder if not 0.0 < h < math.inf), None)
    match = (rf"^level h={bad}: ladder levels must be positive and finite$" if ladder
             else r"^need at least one ladder level$")
    call = {"sweep": lambda: run_distortion_sweep(family),
            "generate": lambda: generate_geodesic_simplex(sphere, family.center,
                                                          family.directions, bad),
            "edge_rate": lambda: edge_length_rate(family)}[entry]
    with pytest.raises(ValueError, match=match):
        call()


# -- weights --------------------------------------------------------------------

def test_interior_weights_structure():
    ws = interior_weights(2)
    assert INTERIOR_POINTS == 20
    assert len(ws) == 1 + 3 + INTERIOR_POINTS
    for w in ws:
        assert w.values.min() >= 0.05 - 1e-12
        assert w.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_interior_weights_are_shared_and_read_only():
    first, again = interior_weights(2), interior_weights(2)
    assert first is not again
    assert [w.values.tolist() for w in first] == [w.values.tolist() for w in again]
    with pytest.raises(ValueError):
        first[3].values[0] = 0.5
    assert again[3].values.tolist() == first[3].values.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [5, 20, 1000])
def test_halton_points_match_scipy(n, k):
    want = qmc.Halton(d=n, scramble=False).random(k)
    assert np.array_equal(_halton_points(n, k), want)


def test_halton_points_are_read_only():
    pts = _halton_points(2, 20)
    assert pts is _halton_points(2, 20)
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5


def test_measure_rejects_boundary_weights(sphere, sphere_family):
    chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                      sphere_family.directions, 0.1)
    with pytest.raises(ValueError):
        measure_distortion(chart, [BarycentricWeight([0.5, 0.5, 0.0])])


def test_measure_error_names_level_and_weights(sphere, sphere_family,
                                                monkeypatch):
    # With one iteration allowed, the initial guess must pass: near vertex
    # 0 it does (|F| = 7.2e-7), at the far weight it does not (1.3e-5).
    strict_solver(monkeypatch, grad_tol=1e-6)
    chart = generate_geodesic_simplex(
        sphere, sphere.point([0, 0, 1.0]), sphere_family.directions, 0.1)
    weights = [BarycentricWeight([0.9, 0.05, 0.05]),
               BarycentricWeight([0.05, 0.05, 0.9])]
    with pytest.raises(MeanSolverError, match=(
            rf"level h={chart.h}: no convergence .* in 1 iterations at weights "
            r"\[0\.05, 0\.05, 0\.9\]")) as info:
        measure_distortion(chart, weights)
    assert info.value.index == 1


# -- measurement -------------------------------------------------------------------

def test_measure_euclidean_all_gaps_vanish():
    man = EuclideanSpace(2)
    center = man.point([0.0, 0.0])
    family = equilateral_family(man, center, 0.2, 1)
    chart = generate_geodesic_simplex(man, center, family.directions, 0.2)
    sample = measure_distortion(chart, interior_weights(2))
    assert sample.sup_metric_gap <= 1e-9
    assert sample.sup_connection_gap <= 1e-9
    assert sample.sup_dx_sigma_gap <= 1e-9
    assert sample.sup_nabla_dx <= 1e-9


def test_measure_sphere_baseline(sphere_report):
    # Regression baseline measured at h = 0.2, theta ~ 0.866.
    coarsest = max(sphere_report.samples, key=lambda s: s.h)
    assert 0.0 < coarsest.sup_metric_gap <= 0.05
    assert coarsest.sup_metric_gap == pytest.approx(9.955e-3, rel=0.05)


def test_measure_halving_quarters_metric_gap(sphere_report):
    ordered = sorted(sphere_report.samples, key=lambda s: -s.h)
    for a, b in zip(ordered, ordered[1:]):
        ratio = b.sup_metric_gap / a.sup_metric_gap
        assert ratio == pytest.approx(0.25, rel=0.25)


def test_connection_fd_cross_check(sphere, sphere_family):
    chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                      sphere_family.directions, 0.1)
    lam = BarycentricWeight.barycenter(2)
    sample = measure_distortion(chart, [lam])
    fd = connection_gap_fd(chart, lam)
    assert abs(fd - sample.sup_connection_gap) <= 1e-5


# -- slope fitting --------------------------------------------------------------

def test_fit_slope_pure_power():
    hs = [0.2 * 2 ** -k for k in range(5)]
    fit = fit_slope(hs, [h ** 2 for h in hs])
    assert fit.slope == pytest.approx(2.0, abs=1e-9)


def test_fit_slope_mixed_orders():
    hs = [0.1, 0.05, 0.025, 0.0125]
    fit = fit_slope(hs, [3 * h + h ** 2 for h in hs])
    assert 1.0 < fit.slope < 1.3


def test_fit_slope_requires_four_levels():
    with pytest.raises(ValueError):
        fit_slope([0.1, 0.05, 0.025], [1.0, 0.5, 0.25])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1e-3])
def test_fit_slope_rejects_corrupt_values(bad):
    # A NaN, infinite or negative norm is not a flat ladder: it raises,
    # naming the first level that holds one, instead of a NaN fit.
    hs = [0.2 * 2 ** -k for k in range(5)]
    values = [h ** 2 for h in hs]
    values[2] = values[4] = bad
    with pytest.raises(SlopeFitError, match=r"^level 2 \(h = 0\.05\): value "):
        fit_slope(hs, values)


@pytest.mark.parametrize("h", [0.0, -0.1, math.nan, math.inf])
def test_fit_slope_rejects_levels_that_are_not_positive_and_finite(h):
    with pytest.raises(ValueError, match="levels must be positive and finite"):
        fit_slope([0.2, h, 0.05, 0.025], [0.04, 0.01, 0.0025, 0.000625])


def test_fit_slope_drops_an_outlying_coarsest_level():
    # An h^2 ladder whose coarsest value is inflated threefold.  The fit
    # drops no level: all eight are fitted, and the outlier tilts the
    # slope off 2.  Such a ladder is rejected by the local slopes of
    # ``_check_slope``, not by the fit.
    hs = [0.2 * 2 ** -k for k in range(8)]
    values = [h ** 2 for h in hs]
    values[0] *= 3.0
    fit = fit_slope(hs, values)
    assert fit.n_used == 8 and fit.to_dict()["dropped_coarsest"] is False
    assert fit.slope == pytest.approx(np.polyfit(np.log(hs), np.log(values), 1)[0], abs=1e-12)
    assert fit.slope > 2.1


def test_fit_slope_on_a_flat_ladder_is_nan():
    # Gaps at or below 1e-13 are flat space's: the fit is NaN, unflagged.
    hs = [0.2 * 2 ** -k for k in range(5)]
    for values in ([0.0] * 5, [1e-3, 1e-4, 1e-13, 1e-6, 0.0]):
        fit = fit_slope(hs, values)
        assert math.isnan(fit.slope) and fit.n_used == 5
        assert fit.to_dict()["dropped_coarsest"] is False


def test_fit_orders_full_pipeline(sphere_report):
    slopes = {k: f.slope for k, f in sphere_report.fitted_slopes.items()}
    assert slopes["metric_gap"] == pytest.approx(2.0, abs=0.25)
    assert slopes["connection_gap"] == pytest.approx(1.0, abs=0.25)
    assert slopes["dx_sigma_gap"] == pytest.approx(2.0, abs=0.25)
    assert slopes["nabla_dx"] == pytest.approx(1.0, abs=0.25)


def _random_table(rng, levels: int, columns: int = 4):
    """A ladder of ``levels`` roughly halving h and a (levels, columns)
    table of noisy powers of h, with orders between 0.5 and 3."""
    hs = 0.2 * 0.5 ** np.arange(levels) * np.exp(rng.uniform(-0.1, 0.1, levels))
    orders = rng.uniform(0.5, 3.0, columns)
    logs = rng.uniform(-1.0, 1.0, columns) + np.log(hs)[:, None] * orders
    return hs, np.exp(logs + rng.normal(0.0, 0.05, (levels, columns)))


def _fit_tuple(fit):
    return fit.slope, fit.intercept, fit.stderr, fit.n_used


@pytest.mark.parametrize("levels", [4, 5, 7, 8, 9])
def test_table_fit_columns_are_fit_slope_bit_for_bit(rng, levels):
    # Every sum runs over the levels in order, so a column's fit does not
    # depend on the columns beside it, from 8 levels on as well.
    for _ in range(20):
        hs, table = _random_table(rng, levels)
        fits = _fit_table(hs, table)
        for q, fit in enumerate(fits):
            assert _fit_tuple(fit) == _fit_tuple(fit_slope(hs, table[:, q]))


def test_table_fit_agrees_with_polyfit(rng):
    # The closed-form centred fit is a least-squares line.  Its intercept
    # ybar - slope xbar cancels terms of order |ybar| + |slope xbar|, so
    # it is compared on that scale.
    for _ in range(200):
        hs, table = _random_table(rng, int(rng.integers(4, 9)))
        x = np.log(hs)
        for q, fit in enumerate(_fit_table(hs, table)):
            y = np.log(table[:, q])
            slope, intercept = np.polyfit(x, y, 1)
            assert abs(fit.slope - slope) <= 1e-14 * abs(slope)
            scale = abs(y.mean()) + abs(slope * x.mean())
            assert abs(fit.intercept - intercept) <= 1e-14 * scale


def test_a_flat_column_fits_nan_and_leaves_the_others_alone(rng):
    hs, table = _random_table(rng, 5)
    flat = table.copy()
    flat[:, 1] = [1e-3, 1e-4, 1e-13, 1e-6, 0.0]
    fits = _fit_table(hs, flat)
    assert math.isnan(fits[1].slope) and math.isnan(fits[1].stderr) and fits[1].n_used == 5
    for q in (0, 2, 3):
        assert _fit_tuple(fits[q]) == _fit_tuple(_fit_table(hs, table)[q])


def test_fit_slope_rejects_one_repeated_level():
    # Through a single h every slope fits equally well; none comes back.
    with pytest.raises(ValueError, match="must not all be equal"):
        fit_slope([0.1] * 4, [0.01, 0.02, 0.01, 0.02])


def _samples(hs, table):
    return [DistortionSample(h, 0.87, *row) for h, row in zip(hs, table)]


def test_a_non_finite_value_names_the_first_quantity_at_its_first_bad_level(rng):
    # connection_gap (column 1) comes before nabla_dx (column 3) in
    # QUANTITIES, so its bad level 3 is named although nabla_dx has a bad
    # level 1 before it.
    hs, table = _random_table(rng, 5)
    table[1, 3] = math.nan
    table[3, 1] = math.inf
    table[4, 1] = -1.0
    with pytest.raises(SlopeFitError, match=rf"^level 3 \(h = {hs[3]:.6g}\): value inf is not "):
        fit_orders(_samples(hs, table))
    table[3, 1] = table[4, 1] = 0.5
    with pytest.raises(SlopeFitError, match=r"^level 1 \(h = .*\): value nan is not "):
        fit_orders(_samples(hs, table))


def test_fit_orders_fits_each_quantity_as_fit_slope(rng):
    hs, table = _random_table(rng, 5)
    report = fit_orders(_samples(hs, table))
    assert list(report.fitted_slopes) == list(QUANTITIES)
    for q, name in enumerate(QUANTITIES):
        assert _fit_tuple(report.fitted_slopes[name]) == _fit_tuple(fit_slope(hs, table[:, q]))


def _first_check_slope_error(family, hs, table):
    """The message of the first ``_check_slope`` in QUANTITIES order that
    raises, one quantity at a time, or None."""
    for q, name in enumerate(QUANTITIES):
        try:
            _check_slope(family, name, hs, table[:, q])
        except SlopeFitError as exc:
            return str(exc)
    return None


def test_table_slope_check_raises_as_the_per_quantity_checks(sphere_family, rng):
    # The local slopes of every column are taken at once; the error is
    # the one the per-quantity loop raises first: same quantity, same
    # interval, same message.
    hs = list(sphere_family.ladder)
    orders = np.array([harness.EXPECTED_SLOPES[name] for name in QUANTITIES])
    raised = 0
    for _ in range(200):
        table = np.asarray(hs)[:, None] ** orders * np.exp(rng.normal(0.0, 0.06, (len(hs), 4)))
        if rng.random() < 0.2:
            table[rng.integers(len(hs)), rng.integers(4)] = 0.0
        expected = _first_check_slope_error(sphere_family, hs, table)
        if expected is None:
            _check_slopes(sphere_family, QUANTITIES, hs, table)
            continue
        raised += 1
        with pytest.raises(SlopeFitError) as info:
            _check_slopes(sphere_family, QUANTITIES, hs, table)
        assert str(info.value) == expected
    assert 20 <= raised <= 180


def test_sweep_determinism(sphere, sphere_family):
    fam = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 4)
    r1 = run_distortion_sweep(fam)
    r2 = run_distortion_sweep(fam)
    assert r1.to_dict() == r2.to_dict()  # bit-identical


def test_sweep_measures_each_family_once(sphere_family, monkeypatch):
    # The ladder is one stack: one _edge_lengths call measures every
    # level, the jets read that measurement, and no chart is built.
    calls = []
    edge_lengths = barycentric._edge_lengths

    def counted(man, verts):
        calls.append(verts.shape)
        return edge_lengths(man, verts)

    def no_chart(*args):
        raise AssertionError("the sweep built a KarcherChart")

    for module in (barycentric, harness):
        monkeypatch.setattr(module, "_edge_lengths", counted)
    monkeypatch.setattr(KarcherChart, "__init__", no_chart)
    run_distortion_sweep(sphere_family)
    assert calls == [(5, 3, 3)]


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_sweep_levels_are_one_level_measurements(sphere, hyperbolic, space):
    # Each level of the stacked sweep is the sample that the one-level
    # public calls give at that level, bit for bit.
    man = sphere if space == "sphere" else hyperbolic
    center = man.point([0, 0, 1.0]) if space == "sphere" else man.point(
        [math.sinh(1.0), 0.0, math.cosh(1.0)])
    family = equilateral_family(man, center, 0.2, 5)
    report = run_distortion_sweep(family)
    for h, sample in zip(family.ladder, report.samples):
        chart = generate_geodesic_simplex(man, center, family.directions, h)
        assert sample == measure_distortion(chart, interior_weights(2))
        assert sample.theta == achieved_fullness(chart)


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_closed_form_ladders_keep_the_guess_logarithms(sphere, hyperbolic, space,
                                                       monkeypatch):
    # A closed-form ladder's one measurement keeps log_p0(p_j) of every
    # level bit for bit, and the sweep's means start from them: the only
    # logarithm taken from a vertex 0 is the measurement's.
    man = sphere if space == "sphere" else hyperbolic
    center = man.point([0, 0, 1.0]) if space == "sphere" else man.point(
        [math.sinh(1.0), 0.0, math.cosh(1.0)])
    family = equilateral_family(man, center, 0.2, 5)
    verts, *_, logs = harness._ladder(family)
    assert np.array_equal(logs, man.log_array(verts[:, :1], verts[:, 1:]))
    bases, log_array = [], type(man).log_array

    def counting(self, p, q):
        bases.append(np.broadcast_to(p, np.broadcast_shapes(p.shape, q.shape)))
        return log_array(self, p, q)

    monkeypatch.setattr(type(man), "log_array", counting)
    run_distortion_sweep(family)
    from_p0 = [k for k, b in enumerate(bases)
               if any((b == p0).all(axis=-1).any() for p0 in verts[:, 0])]
    assert from_p0 == [0] and bases[0].shape == (5, 2, 3)


def _far_hyperbolic_family(d: float, angle: float = 0.7, raw: bool = False):
    """The equilateral family (h0 0.2, 5 levels) centered at distance d
    from the hyperboloid's origin.  A ``raw`` center is a bare
    ManifoldPoint, since ``HyperbolicSpace.point`` rejects some of them
    (d = 12) as off the sheet."""
    hyp = HyperbolicSpace(2, curvature=1.0)
    coords = np.array([math.sinh(d) * math.cos(angle),
                       math.sinh(d) * math.sin(angle), math.cosh(d)])
    center = ManifoldPoint(coords) if raw else hyp.point(coords)
    return equilateral_family(hyp, center, h0=0.2, levels=5)


def test_too_thin_simplex_raises_a_karcher_error():
    # Far out on the hyperboloid (coordinates near 3e7) the generated
    # triangle at h = 0.2 realizes with fullness 0.146 instead of about
    # 0.87; the sweep must stop with a typed error, not a plain ValueError.
    with pytest.raises(KarcherError, match="too thin"):
        run_distortion_sweep(_far_hyperbolic_family(18.0))


def test_non_positive_slope_raises_a_karcher_error():
    # At d = 15 (coordinates near 1.6e6) the suprema stop shrinking with
    # h, and their local slopes are far off the orders (some negative);
    # a curved-space sweep must not return a slope for them.
    with pytest.raises(KarcherError, match="slope"):
        run_distortion_sweep(_far_hyperbolic_family(15.0))


def test_an_off_order_interval_raises_though_the_fit_looks_fine():
    # At d = 12 the metric gap fits a slope of 1.671 over the ladder, but
    # its finest interval reads 0.553; the edge-length gaps fit 1.101, and
    # their third interval reads 1.223.  Neither may come back as a slope.
    family = _far_hyperbolic_family(12.0, raw=True)
    with pytest.raises(SlopeFitError, match=r"^metric_gap local slope 0\.553 on "
                                            r"h = 0\.025 -> 0\.0125 is outside 2\.0\+/-0\.25"):
        run_distortion_sweep(family)
    with pytest.raises(SlopeFitError, match=r"^edge_length_gap local slope 1\.223 on "
                                            r"h = 0\.05 -> 0\.025 is outside 2\.0\+/-0\.25"):
        edge_length_rate(family)


@pytest.mark.parametrize("d", [0.0, 3.0, 10.0])
def test_every_interval_shows_its_order_nearer_the_origin(d):
    # At d = 10 the metric's finest interval reads 1.945, inside the band.
    family = _far_hyperbolic_family(d, raw=True)
    report = run_distortion_sweep(family)
    _, edge_fit = edge_length_rate(family)
    for name, fit in {**report.fitted_slopes, "edge_length_gap": edge_fit}.items():
        assert abs(fit.slope - harness.EXPECTED_SLOPES[name]) <= harness.SLOPE_TOLERANCES[name]


def test_check_slope_rejects_a_zero_value_without_a_warning(sphere_family):
    # log(0) would warn, and warnings are errors: a zero on a curved
    # ladder must raise as a bad interval.  On a flat one it is expected.
    hs = list(sphere_family.ladder)
    values = [h ** 2 for h in hs]
    values[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SlopeFitError, match=r"^metric_gap local slope inf on h = 0\.05 -> "):
            _check_slope(sphere_family, "metric_gap", hs, values)
        flat = EuclideanSpace(2)
        _check_slope(equilateral_family(flat, flat.point([0.0, 0.0])), "metric_gap", hs,
                     [0.0] * len(hs))


@given(steps=st.lists(st.floats(0.05, 2.0), min_size=4, max_size=8),
       log_values=st.lists(st.floats(-25.0, 3.0), min_size=8, max_size=8))
def test_fitted_slope_lies_between_the_local_slopes(steps, log_values):
    # The least-squares slope of a strictly monotone ladder is a convex
    # combination of its local slopes, so bounding those bounds the fit.
    hs = np.exp(-np.cumsum(steps))
    values = np.exp(log_values[:len(hs)])
    local = np.diff(np.log(values)) / np.diff(np.log(hs))
    slope = fit_slope(hs, values).slope
    assert local.min() - 1e-12 <= slope <= local.max() + 1e-12


def test_a_coarsening_ladder_fits_the_same_orders_without_a_warning(sphere_family,
                                                                   sphere_report):
    # The local slopes do not depend on which way the ladder runs, so a
    # ladder from fine to coarse passes the same check, fits the same
    # orders and warns of nothing (warnings are errors here).
    family = SimplexFamily(sphere_family.manifold, sphere_family.center,
                           sphere_family.directions, sphere_family.ladder[::-1],
                           sphere_family.fullness_target)
    report = run_distortion_sweep(family)
    for name, fit in report.fitted_slopes.items():
        assert fit.slope == pytest.approx(sphere_report.fitted_slopes[name].slope, abs=1e-9)


def test_monotone_ladder(sphere_report):
    for name in ("metric_gap", "connection_gap", "dx_sigma_gap", "nabla_dx"):
        vals = [s.to_dict()[name] for s in sphere_report.samples]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


# -- edge length comparison --------------------------------------------------------

def test_edge_length_euclidean_zero():
    man = EuclideanSpace(2)
    family = equilateral_family(man, man.point([0.0, 0.0]), 0.2, 1)
    chart = generate_geodesic_simplex(man, man.point([0.0, 0.0]),
                                      family.directions, 0.2)
    assert check_edge_length_comparison(chart).max_rel_gap <= 1e-12


def test_edge_length_sphere_bounded_by_curvature(sphere, sphere_family):
    chart = generate_geodesic_simplex(sphere, sphere.point([0, 0, 1.0]),
                                      sphere_family.directions, 0.2)
    report = check_edge_length_comparison(chart)
    assert report.max_rel_gap <= 1.0 * 0.2 ** 2  # C0 h^2 with constant <= 1


def test_edge_length_rate_slope(sphere_family):
    _, fit = edge_length_rate(sphere_family)
    assert fit.slope == pytest.approx(2.0, abs=0.25)


def test_edge_length_rate_measures_each_family_once(sphere_family, monkeypatch):
    # The rate reads the ladder's one stack: one _edge_lengths call and
    # one _batch_mean at the barycenters of all levels, and no chart.
    calls = []

    def counted(name, fn):
        return lambda man, verts, *args: calls.append((name, verts.shape)) or fn(
            man, verts, *args)

    def no_chart(*args):
        raise AssertionError("the rate built a KarcherChart")

    for name in ("_edge_lengths", "_batch_mean"):
        wrapped = counted(name, getattr(barycentric, name))
        for module in (barycentric, harness):
            monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(KarcherChart, "__init__", no_chart)
    edge_length_rate(sphere_family)
    assert calls == [("_edge_lengths", (5, 3, 3)), ("_batch_mean", (5, 3, 3))]


@pytest.mark.parametrize("space", ["sphere", "hyperbolic"])
def test_edge_length_levels_are_one_level_comparisons(sphere, hyperbolic, space):
    # Each level of the stacked rate is the report of the one-level call
    # at that level, and the scalar computation (karcher_mean at the
    # barycenter, the norm of sigma along each edge) gives its gap.
    man = sphere if space == "sphere" else hyperbolic
    center = man.point([0, 0, 1.0]) if space == "sphere" else man.point(
        [math.sinh(1.0), 0.0, math.cosh(1.0)])
    family = equilateral_family(man, center, 0.2, 5)
    reports, _ = edge_length_rate(family)
    lam = BarycentricWeight.barycenter(2)
    for h, report in zip(family.ladder, reports):
        chart = generate_geodesic_simplex(man, center, family.directions, h)
        assert report == check_edge_length_comparison(chart)
        a = karcher_mean(chart, lam)
        scalar = max(
            abs(chart.edge_lengths.lengths[i, j] - man.norm(
                sigma(chart, lam, SimplexTangent.edge(2, j, i), at=a)))
            / chart.edge_lengths.lengths[i, j]
            for i, j in ((0, 1), (0, 2), (1, 2)))
        assert report.max_rel_gap == pytest.approx(scalar, rel=1e-9, abs=0.0)


def test_edge_length_rate_rejects_a_non_positive_slope():
    # At d = 15 the gaps grow as h shrinks and fit a slope near -0.49,
    # which must not come back as a rate; the first interval already
    # reads a local slope of -0.171.
    with pytest.raises(SlopeFitError, match=r"^edge_length_gap local slope -0\.171 on "
                                            r"h = 0\.2001 -> 0\.1008 is outside 2\.0\+/-0\.25"):
        edge_length_rate(_far_hyperbolic_family(15.0))


def test_edge_length_rate_rejects_a_too_thin_simplex():
    # At d = 18 the ladder check stops the rate before any mean is taken.
    with pytest.raises(NonRealizableError, match="too thin"):
        edge_length_rate(_far_hyperbolic_family(18.0))
