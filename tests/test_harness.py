import math

import numpy as np
import pytest
from scipy.stats import qmc

from karcher.barycentric import BarycentricWeight
from karcher.errors import (KarcherError, MeanSolverError, NonRealizableError,
                            SlopeFitError)
from karcher.harness import (INTERIOR_POINTS, _halton_points,
                             achieved_fullness, check_edge_length_comparison,
                             edge_length_rate, equilateral_family, fit_slope,
                             generate_geodesic_simplex, interior_weights,
                             measure_distortion, run_distortion_sweep)
from karcher.manifolds import EuclideanSpace, HyperbolicSpace

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


def test_fit_orders_full_pipeline(sphere_report):
    slopes = {k: f.slope for k, f in sphere_report.fitted_slopes.items()}
    assert slopes["metric_gap"] == pytest.approx(2.0, abs=0.25)
    assert slopes["connection_gap"] == pytest.approx(1.0, abs=0.25)
    assert slopes["dx_sigma_gap"] == pytest.approx(2.0, abs=0.25)
    assert slopes["nabla_dx"] == pytest.approx(1.0, abs=0.25)


def test_sweep_determinism(sphere, sphere_family):
    fam = equilateral_family(sphere, sphere.point([0, 0, 1.0]), 0.2, 4)
    r1 = run_distortion_sweep(fam)
    r2 = run_distortion_sweep(fam)
    assert r1.to_dict() == r2.to_dict()  # bit-identical


def _far_hyperbolic_family(d: float, angle: float = 0.7):
    """The equilateral family (h0 0.2, 5 levels) centered at distance d
    from the hyperboloid's origin."""
    hyp = HyperbolicSpace(2, curvature=1.0)
    center = hyp.point([math.sinh(d) * math.cos(angle),
                        math.sinh(d) * math.sin(angle), math.cosh(d)])
    return equilateral_family(hyp, center, h0=0.2, levels=5)


def test_too_thin_simplex_raises_a_karcher_error():
    # Far out on the hyperboloid (coordinates near 3e7) the generated
    # triangle at h = 0.2 realizes with fullness 0.146 instead of about
    # 0.87; the sweep must stop with a typed error, not a plain ValueError.
    with pytest.raises(KarcherError, match="too thin"):
        run_distortion_sweep(_far_hyperbolic_family(18.0))


def test_non_positive_slope_raises_a_karcher_error():
    # At d = 15 (coordinates near 1.6e6) the suprema stop shrinking with
    # h and the fits come back negative or NaN; a curved-space sweep must
    # not return them as slopes.
    with pytest.raises(KarcherError, match="slope"):
        run_distortion_sweep(_far_hyperbolic_family(15.0))


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


def test_edge_length_rate_rejects_a_non_positive_slope():
    # At d = 15 the gaps fit a slope near -0.49, which must not come back
    # as a rate.
    with pytest.raises(SlopeFitError, match="edge length gap fitted slope -"):
        edge_length_rate(_far_hyperbolic_family(15.0))


def test_edge_length_rate_rejects_a_too_thin_simplex():
    # At d = 18 the ladder check stops the rate before any mean is taken.
    with pytest.raises(NonRealizableError, match="too thin"):
        edge_length_rate(_far_hyperbolic_family(18.0))
