import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from karcher.errors import NonRealizableError
from karcher.flat_simplex import (BarycentricWeight, EdgeLengthSystem,
                                  FlatMetric, SimplexTangent, _fold,
                                  flat_metric_from_lengths, fullness,
                                  gram_eigen_bounds, volume,
                                  volume_from_cayley_menger, volume_from_gram)

from oracles import compare_metrics


def lengths(table):
    return EdgeLengthSystem(np.asarray(table, dtype=float))


def equilateral(n, side=1.0):
    t = np.full((n + 1, n + 1), side)
    np.fill_diagonal(t, 0.0)
    return lengths(t)


RIGHT_TRIANGLE = lengths([[0, 1, 1], [1, 0, math.sqrt(2)], [1, math.sqrt(2), 0]])


def realize(gm):
    """One Euclidean realization of a realizable metric, G = L L^T:
    vertex 0 at the origin and vertex i >= 1 at row i - 1 of L."""
    return np.vstack([np.zeros((1, gm.n)), gm.cholesky])


# -- types --------------------------------------------------------------------

def test_barycentric_weight_validation():
    BarycentricWeight([0.2, 0.3, 0.5])
    with pytest.raises(ValueError):
        BarycentricWeight([0.5, 0.6])
    with pytest.raises(ValueError):
        BarycentricWeight([-0.1, 1.1])


def test_nan_weights_and_tangents_are_rejected():
    # NaN fails every comparison, so both rules are phrased to fail on it;
    # a single weight keeps its messages, with no row named.
    with pytest.raises(ValueError, match="^barycentric weights must be nonnegative$"):
        BarycentricWeight([math.nan, 0.5, 0.5])
    with pytest.raises(ValueError, match="^barycentric weights must sum to one$"):
        BarycentricWeight([0.5, 0.6])
    with pytest.raises(ValueError, match="must sum to zero"):
        SimplexTangent([math.nan, 1.0, -1.0])


def test_simplex_tangent_validation():
    SimplexTangent([1.0, -1.0, 0.0])
    with pytest.raises(ValueError):
        SimplexTangent([1.0, 0.0, 0.0])


def test_edge_length_system_validation():
    with pytest.raises(ValueError):
        lengths([[0, 1], [2, 0]])          # not symmetric
    with pytest.raises(ValueError):
        lengths([[0, 0], [0, 0]])          # zero off-diagonal


@pytest.mark.parametrize("gap, symmetric", [(0.5, True), (2.0, False),
                                            (math.nan, False)])
def test_edge_length_symmetry_tolerance_scales_with_lengths(gap, symmetric):
    # Entries may differ from their mirror by 1e-14 times the longest edge
    # (here 30); a NaN fails the check even when it is mirrored.
    table = equilateral(2, side=30.0).lengths.copy()
    if math.isnan(gap):
        table[0, 1] = table[1, 0] = math.nan
    else:
        table[0, 1] += gap * 1e-14 * 30.0
    if symmetric:
        lengths(table)
        return
    with pytest.raises(ValueError, match="symmetric"):
        lengths(table)


# -- flat_metric_from_lengths -------------------------------------------------

def test_equilateral_edge_direction():
    gm = flat_metric_from_lengths(equilateral(2))
    v = SimplexTangent.edge(2, 0, 1)
    assert v.v @ gm.E @ v.v == pytest.approx(1.0, abs=1e-15)


def test_right_triangle_gram_is_identity():
    gm = flat_metric_from_lengths(RIGHT_TRIANGLE)
    assert np.allclose(gm.G, np.eye(2), atol=1e-15)
    assert gm.realizable


def test_degenerate_collinear_flagged_not_rejected():
    gm = flat_metric_from_lengths(lengths([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))
    assert not gm.realizable
    with pytest.raises(NonRealizableError):
        volume(gm)


# -- the flat bilinear form E(v, w) = sum_ij E_ij v^i w^j ----------------------

def test_evaluate_equilateral_h():
    h = 0.37
    gm = flat_metric_from_lengths(equilateral(2, side=h))
    v = SimplexTangent.edge(2, 0, 1)
    assert v.v @ gm.E @ v.v == pytest.approx(h ** 2, rel=1e-14)


@given(st.floats(-5.0, 5.0))
def test_evaluate_gauge_invariance(rho):
    gm = flat_metric_from_lengths(equilateral(3, side=1.3))
    shifted = FlatMetric(n=gm.n, E=gm.E + rho, G=gm.G,
                         realizable=gm.realizable, cholesky=gm.cholesky)
    v = SimplexTangent([0.4, -0.9, 0.3, 0.2])
    w = SimplexTangent([-0.2, 0.1, 0.6, -0.5])
    assert v.v @ shifted.E @ w.v == pytest.approx(v.v @ gm.E @ w.v, abs=1e-12)


def test_evaluate_matches_realized_vertices(rng):
    # Oracle: realize vertices from the Cholesky factor and compare with the
    # ambient Euclidean norm of sum v^i p_i.
    for _ in range(10):
        pts = rng.uniform(-1, 1, (4, 3))
        gm = flat_metric_from_lengths(EdgeLengthSystem.from_points(pts))
        if not gm.realizable:
            continue
        verts = realize(gm)
        vv = rng.normal(size=4)
        vv -= vv.mean()
        v = SimplexTangent(vv)
        direct = float(np.linalg.norm(vv @ verts) ** 2)
        assert v.v @ gm.E @ v.v == pytest.approx(direct, rel=1e-10)


# -- volume ---------------------------------------------------------------------

def test_volume_unit_right_triangle():
    assert volume(flat_metric_from_lengths(RIGHT_TRIANGLE)) == \
        pytest.approx(0.5, rel=1e-14)


def test_volume_equilateral_triangle():
    assert volume(flat_metric_from_lengths(equilateral(2))) == \
        pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-14)


def test_volume_regular_tetrahedron_against_coordinates():
    # Oracle: explicit coordinates and the determinant volume.
    pts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.5, math.sqrt(3.0) / 2.0, 0.0],
        [0.5, math.sqrt(3.0) / 6.0, math.sqrt(6.0) / 3.0],
    ])
    det_vol = abs(np.linalg.det(pts[1:] - pts[0])) / 6.0
    assert det_vol == pytest.approx(math.sqrt(2.0) / 12.0, rel=1e-12)
    gm = flat_metric_from_lengths(EdgeLengthSystem.from_points(pts))
    assert volume(gm) == pytest.approx(det_vol, rel=1e-12)


def test_volume_routes_agree_on_random_systems(rng):
    good = 0
    while good < 200:
        n = int(rng.integers(2, 5))
        pts = rng.uniform(-1, 1, (n + 1, n))
        gm = flat_metric_from_lengths(EdgeLengthSystem.from_points(pts))
        if not gm.realizable:
            continue
        v1 = volume_from_cayley_menger(gm.E)
        v2 = volume_from_gram(gm.G)
        assert abs(v1 - v2) <= 1e-10 * max(v1, v2)
        good += 1


def test_realizability_matches_coordinate_volume(rng):
    for _ in range(200):
        n = int(rng.integers(2, 5))
        pts = rng.uniform(-1, 1, (n + 1, n))
        det_vol = abs(np.linalg.det(pts[1:] - pts[0])) / math.factorial(n)
        gm = flat_metric_from_lengths(EdgeLengthSystem.from_points(pts))
        if det_vol < 1e-8:
            continue  # too close to the degeneracy boundary to classify
        assert gm.realizable
        assert volume(gm) == pytest.approx(det_vol, rel=1e-9)


# -- fullness -------------------------------------------------------------------

def test_fullness_equilateral_attains_bound():
    gm = flat_metric_from_lengths(equilateral(2, side=0.7))
    theta = fullness(gm, 0.7)
    assert theta == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    # dimension bound sqrt(n+1)/2^(n/2)
    assert theta <= math.sqrt(3.0) / 2.0 + 1e-12


def test_fullness_right_triangle():
    gm = flat_metric_from_lengths(RIGHT_TRIANGLE)
    assert fullness(gm, math.sqrt(2.0)) == pytest.approx(0.5, rel=1e-12)


def test_fullness_near_degenerate_heron():
    a, b, c = 1.0, 1.0, 1.999
    gm = flat_metric_from_lengths(lengths([[0, a, b], [a, 0, c], [b, c, 0]]))
    s = 0.5 * (a + b + c)
    heron = math.sqrt(s * (s - a) * (s - b) * (s - c))
    theta = fullness(gm, c)
    assert theta == pytest.approx(2.0 * heron / c ** 2, rel=1e-9)
    assert theta < 0.07


def test_fullness_rejects_small_h():
    gm = flat_metric_from_lengths(equilateral(2))
    with pytest.raises(ValueError):
        fullness(gm, 0.5)


def test_stacked_metric_matches_single_simplices(rng):
    # One stack of tables, realizable or not, against each table alone.
    tables = []
    for k in range(40):
        pts = rng.normal(size=(4, 3))
        table = EdgeLengthSystem.from_points(pts).lengths
        if k % 5 == 0:
            table[0, 1] = table[1, 0] = 3.0 * table[0, 1]
        tables.append(table)
    stack = flat_metric_from_lengths(np.array(tables))
    assert stack.G.shape == (40, 3, 3) and stack.realizable.shape == (40,)
    single = [flat_metric_from_lengths(lengths(t)) for t in tables]
    assert list(stack.realizable) == [gm.realizable for gm in single]
    assert not stack.realizable.all()
    for k, gm in enumerate(single):
        assert np.array_equal(stack.G[k], gm.G)
        if gm.realizable:
            assert np.array_equal(stack.cholesky[k], gm.cholesky)
    with pytest.raises(NonRealizableError, match="at simplex 0"):
        volume(stack)

    good = stack.realizable
    sub = FlatMetric(n=3, E=stack.E[good], G=stack.G[good],
                     realizable=good[good], cholesky=stack.cholesky[good])
    h = np.array([t.max() for t in np.array(tables)[good]])
    kept = [gm for gm in single if gm.realizable]
    assert np.array_equal(volume(sub), [volume(gm) for gm in kept])
    assert fullness(sub, h) == pytest.approx(
        [fullness(gm, float(hk)) for gm, hk in zip(kept, h)], rel=1e-15)
    h[3] *= 0.5
    with pytest.raises(ValueError, match="below the longest edge.*at simplex 3"):
        fullness(sub, h)


def test_stacked_volume_disagreement_names_the_simplex():
    # A Gram block that does not belong to E makes the two volumes differ.
    gm = flat_metric_from_lengths(np.array([equilateral(2).lengths] * 3))
    G = gm.G.copy()
    G[2] *= 1.5
    skewed = FlatMetric(n=2, E=gm.E, G=G, realizable=gm.realizable,
                        cholesky=gm.cholesky)
    with pytest.raises(ArithmeticError, match="disagree at simplex 2"):
        volume(skewed)


# -- eigenvalue bounds ------------------------------------------------------------

def test_gram_eigen_bounds_equilateral():
    gm = flat_metric_from_lengths(equilateral(2))
    lo, hi = gram_eigen_bounds(gm, 1.0)
    evals = np.linalg.eigvalsh(gm.G)
    assert np.allclose(sorted(evals), [0.5, 1.5])
    assert lo == pytest.approx(math.sqrt(3.0) / 2.0 * 0.5, rel=1e-12)
    assert hi == 2.0
    assert lo <= math.sqrt(evals.min()) and math.sqrt(evals.max()) <= hi


def test_gram_eigen_bounds_right_triangle():
    gm = flat_metric_from_lengths(RIGHT_TRIANGLE)
    lo, hi = gram_eigen_bounds(gm, math.sqrt(2.0))
    assert lo <= 1.0 <= hi


def test_gram_eigen_bounds_random(rng):
    held = 0
    while held < 100:
        n = int(rng.integers(2, 4))
        pts = rng.uniform(-1, 1, (n + 1, n))
        system = EdgeLengthSystem.from_points(pts)
        gm = flat_metric_from_lengths(system)
        if not gm.realizable:
            continue
        gram_eigen_bounds(gm, system.max_length)  # raises on violation
        held += 1


# -- compare_metrics ---------------------------------------------------------------

def test_compare_metrics_trivial_cases():
    g1 = flat_metric_from_lengths(equilateral(2))
    assert compare_metrics(g1, g1) == pytest.approx(0.0, abs=1e-14)
    eps = 0.125
    scaled = flat_metric_from_lengths(equilateral(2, side=math.sqrt(1 + eps)))
    assert compare_metrics(g1, scaled) == pytest.approx(eps, abs=1e-12)


def test_compare_metrics_perturbation_sweep(rng):
    # One fixed relative perturbation direction scaled down by powers of
    # two: the gap is linear in the scale with constant below 10/theta^2.
    from karcher.harness import fit_slope

    pts = rng.uniform(-1, 1, (4, 3))
    system = EdgeLengthSystem.from_points(pts)
    g1 = flat_metric_from_lengths(system)
    theta = fullness(g1, system.max_length)
    direction = rng.uniform(-1, 1, system.lengths.shape)
    direction = np.triu(direction, 1)
    direction = direction + direction.T
    deltas = [1e-2 * 2 ** -k for k in range(5)]
    gaps = []
    for d in deltas:
        pert = system.lengths * (1.0 + d * direction)
        g2 = flat_metric_from_lengths(EdgeLengthSystem(pert))
        gaps.append(compare_metrics(g1, g2))
    fit = fit_slope(deltas, gaps)
    assert abs(fit.slope - 1.0) <= 0.1
    assert all(g <= 10.0 * d / theta ** 2 for g, d in zip(gaps, deltas))


def test_compare_metrics_requires_positive_definite():
    bad = flat_metric_from_lengths(lengths([[0, 1, 1], [1, 0, 2], [1, 2, 0]]))
    good = flat_metric_from_lengths(equilateral(2))
    with pytest.raises(NonRealizableError):
        compare_metrics(bad, good)


def test_polarization_extends_quadratic_bound(rng):
    # |T(v,v)| <= C g(v,v) for all v forces |T(v,w)| <= C |v| |w|.
    g1 = flat_metric_from_lengths(equilateral(2, side=1.1))
    g2 = flat_metric_from_lengths(lengths(
        [[0, 1.1, 1.04], [1.1, 0, 1.17], [1.04, 1.17, 0]]))
    C = compare_metrics(g1, g2)
    L = g1.cholesky

    def ge_norm(v):
        return math.sqrt(v.v @ g1.E @ v.v)

    for _ in range(50):
        a, b = rng.normal(size=3), rng.normal(size=3)
        v = SimplexTangent(a - a.mean())
        w = SimplexTangent(b - b.mean())
        tvw = v.v @ g1.E @ w.v - v.v @ g2.E @ w.v
        assert abs(tvw) <= C * ge_norm(v) * ge_norm(w) * (1 + 1e-9)


def test_inner_product_estimate(rng):
    # |sum v^i Y_i| <= n^n/(theta h) |v|_ge sum |Y_i| for vectors in R^3.
    for _ in range(50):
        n = 2
        pts = rng.uniform(-1, 1, (n + 1, n))
        system = EdgeLengthSystem.from_points(pts)
        gm = flat_metric_from_lengths(system)
        if not gm.realizable:
            continue
        h = system.max_length
        theta = fullness(gm, h)
        a = rng.normal(size=n + 1)
        v = SimplexTangent(a - a.mean())
        Y = rng.normal(size=(n + 1, 3))
        lhs = np.linalg.norm((v.v[:, None] * Y).sum(axis=0))
        bound = (n ** n / (theta * h)) * math.sqrt(v.v @ gm.E @ v.v) * \
            np.linalg.norm(Y, axis=1).sum()
        assert lhs <= bound * (1 + 1e-9)


# -- realization ----------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: EdgeLengthSystem(np.ones((2, 3))), ValueError, "must be square"),
    (lambda: EdgeLengthSystem(np.ones((3, 3))), ValueError, "diagonal must be zero"),
    (lambda: gram_eigen_bounds(flat_metric_from_lengths(lengths(
        [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])), 3.0),
     NonRealizableError, "need a realizable system"),
], ids=["not-square", "nonzero-diagonal", "non-realizable"])
def test_edge_length_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_realize_vertices_reproduces_lengths(rng):
    pts = rng.uniform(-1, 1, (4, 3))
    system = EdgeLengthSystem.from_points(pts)
    gm = flat_metric_from_lengths(system)
    verts = realize(gm)
    rebuilt = EdgeLengthSystem.from_points(verts)
    assert np.allclose(rebuilt.lengths, system.lengths, atol=1e-10)


# -- _fold ------------------------------------------------------------------

_MAGNITUDES = st.floats(1e-300, 1e300)
_ENTRIES = st.one_of(_MAGNITUDES, _MAGNITUDES.map(lambda x: -x),
                     st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))


@st.composite
def _stacks(draw):
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3))
    return draw(hnp.arrays(float, lead + (draw(st.integers(1, 12)),), elements=_ENTRIES))


def _tiny_tail(n):
    # 1 + 2^-53 rounds back to 1, so a fold in order reads 1.0; numpy's
    # pairwise sum adds the 2^-53 terms among themselves first.
    return np.array([[1.0] + [2.0 ** -53] * (n - 1)])


@settings(max_examples=200)
@given(_stacks())
@example(np.array([[-0.0, -0.0]]))          # a fold that starts from a_0 reads -0.0
@example(_tiny_tail(8))
@example(_tiny_tail(9))
@example(_tiny_tail(10))
@example(_tiny_tail(11))
@example(_tiny_tail(12))
def test_fold_matches_numpy_reductions_bit_for_bit(a):
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = [(_fold(np.add, a), np.sum(a, axis=-1), True),
                 (_fold(np.maximum, a), a.max(axis=-1), False),
                 (_fold(np.logical_and, a > 0.0), (a > 0.0).all(axis=-1), True)]
    for got, want, zero_sign in pairs:
        assert np.shape(got) == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # The sign of a zero maximum of mixed-sign zeros is numpy's own
        # choice, and it differs between the SIMD paths numpy dispatches
        # to (on AVX2, .max reads -0.0 where the fold reads 0.0).
        signs = zero_sign | (want != 0.0)
        assert np.array_equal(np.signbit(got) & signs, np.signbit(want) & signs)
