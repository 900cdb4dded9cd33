import math

import numpy as np
import pytest

from karcher import fem
from karcher.barycentric import (KarcherChart, differential, differential_batch,
                                 karcher_mean)
from karcher.errors import MeanSolverError, TriangulationError
from karcher.fem import (_QUAD_LAM, KarcherTriangulation, assemble,
                         build_triangulation,
                         error_norms, poisson_ladder,
                         solve_poisson)
from karcher.flat_simplex import BarycentricWeight, fullness
from karcher.manifolds import ManifoldPoint, Sphere

from conftest import strict_solver


def f_eigen(c):
    return -2.0 * c[2]


def u_eigen(c):
    return c[2]


def grad_u_eigen(c):
    return np.array([0.0, 0.0, 1.0]) - c[2] * c


def _chart(tri, t):
    """The scalar chart of triangle t, which measures its own edges."""
    return KarcherChart(tri.manifold, [ManifoldPoint(c) for c in tri.coords[tri.triangles[t]]])


@pytest.fixture(scope="module")
def tri1(sphere):
    return build_triangulation(sphere, 1)


@pytest.fixture(scope="module")
def sys1(tri1):
    return assemble(tri1, f_eigen, mode="flat")


# -- triangulation -------------------------------------------------------------

def test_icosahedron_counts(sphere):
    tri = build_triangulation(sphere, 0)
    assert tri.num_vertices == 12
    assert tri.num_triangles == 20


def test_level1_counts(tri1):
    assert tri1.num_vertices == 42
    assert tri1.num_triangles == 80


def test_h_roughly_halves_per_level(sphere, tri1):
    tri2 = build_triangulation(sphere, 2)
    assert tri2.h == pytest.approx(tri1.h / 2.0, rel=0.1)


def test_level2_fullness(sphere):
    tri = build_triangulation(sphere, 2)
    charts = [_chart(tri, t) for t in range(tri.num_triangles)]
    thetas = [fullness(chart.flat_metric, chart.h) for chart in charts]
    # measured minimum is 0.6971 at this level
    assert min(thetas) >= 0.69


def test_fullness_threshold_error(sphere, monkeypatch):
    monkeypatch.setattr(fem, "MIN_FULLNESS", 0.95)
    with pytest.raises(TriangulationError):
        build_triangulation(sphere, 1)


def test_off_sphere_vertex_is_named(sphere, monkeypatch):
    icosphere = fem.icosphere

    def bent(level, radius):
        coords, faces = icosphere(level, radius)
        coords[5] *= 1.0 + 1e-9
        coords[9] *= 1.0 + 1e-9
        return coords, faces

    monkeypatch.setattr(fem, "icosphere", bent)
    with pytest.raises(ValueError, match="vertex 5: point norm"):
        build_triangulation(sphere, 1)


def test_level_validation(sphere):
    with pytest.raises(ValueError):
        build_triangulation(sphere, -1)


def test_shared_edges_single_length(tri1):
    # Both triangles adjacent to an edge carry the same stored length.
    seen = {}
    for tri_idx, lengths in zip(tri1.triangles, tri1.edge_lengths):
        local = ((0, 1), (0, 2), (1, 2))
        for (a_loc, b_loc), val in zip(local, lengths):
            key = tuple(sorted((tri_idx[a_loc], tri_idx[b_loc])))
            if key in seen:
                assert seen[key] == val  # exact float equality
            else:
                seen[key] = val
    assert len(seen) == 120  # level-1 edge count


def _equator(*angles, z=0.0):
    """Unit-sphere coordinates (len(angles), 3) at height z before
    normalization."""
    return np.array([[math.cos(a), math.sin(a), z] for a in angles]) / math.sqrt(1.0 + z * z)


def test_triangle_checks_name_the_triangle(sphere, tri1, monkeypatch):
    pts = tri1.coords
    good = [tuple(t) for t in tri1.triangles[:2]]
    # three points on one great circle: no flat realization
    flat_pts = np.vstack([pts, _equator(0.0, 0.2, 0.4)])
    n = len(pts)
    with pytest.raises(TriangulationError, match="triangle 2 .* no flat realization"):
        KarcherTriangulation(sphere, flat_pts, good + [(n, n + 1, n + 2)])
    # a sliver: the third vertex barely off the great circle
    sliver = np.vstack([pts, _equator(0.0, 0.4), _equator(0.2, z=0.01)])
    with pytest.raises(TriangulationError, match="triangle 2 .* fullness 0.0"):
        KarcherTriangulation(sphere, sliver, good + [(n, n + 1, n + 2)])
    # a full triangle wider than the convexity radius
    wide = np.vstack([pts, _equator(0.0, 2.0 * math.pi / 3.0), [[0.0, 0.0, 1.0]]])
    monkeypatch.setattr(fem, "MIN_FULLNESS", 0.0)
    with pytest.raises(ValueError, match="triangle 2: vertex separation exceeds"):
        KarcherTriangulation(sphere, wide, good + [(n, n + 1, n + 2)])


def test_differential_batch_counts_iterations(sphere):
    tri = build_triangulation(sphere, 1)
    rows = [(t, q) for t in range(0, tri.num_triangles, 7) for q in range(3)]
    verts = np.array([tri.coords[tri.triangles[t]] for t, _ in rows])
    weights = np.array([_QUAD_LAM[q] for _, q in rows])
    counts: list = []
    differential_batch(sphere, verts, weights, iterations=counts)
    expected = []
    for t, q in rows:
        trace: list = []
        karcher_mean(_chart(tri, t), BarycentricWeight(_QUAD_LAM[q]), trace=trace)
        expected.append(len(trace))
    assert counts == expected
    assert max(counts) >= 2


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_quad_data_matches_scalar_differential(radius):
    man = Sphere(2, radius=radius)
    tri = build_triangulation(man, 2)
    points, dx = tri.quad_data()
    assert points.shape == (tri.num_triangles, 3, 3)
    assert dx.shape == (tri.num_triangles, 3, 3, 2)
    for t in range(tri.num_triangles):
        chart = _chart(tri, t)
        for q, lam in enumerate(_QUAD_LAM):
            jet = differential(chart, BarycentricWeight(lam))
            assert np.max(np.abs(points[t, q] - jet.point.coords)) <= 1e-13 * radius
            assert np.max(np.abs(dx[t, q] - jet.dx_matrix)) <= 1e-13 * radius


def test_quad_data_error_names_triangle(sphere, monkeypatch):
    strict_solver(monkeypatch)
    tri = build_triangulation(sphere, 1)
    with pytest.raises(MeanSolverError,
                       match=r"triangle 0, quadrature node 0: no convergence.*last \|F\|"):
        tri.quad_data()


# -- assembly ------------------------------------------------------------------

def test_zero_load_gives_zero_solution(tri1):
    system = assemble(tri1, lambda c: 0.0, mode="flat")
    assert np.max(np.abs(system.load)) == 0.0
    assert np.max(np.abs(solve_poisson(system))) == 0.0


def test_stiffness_row_sums_vanish(sys1):
    ones = np.ones(sys1.stiffness.shape[0])
    assert np.max(np.abs(sys1.stiffness @ ones)) <= 1e-10
    # symmetric positive semidefinite
    dense = sys1.stiffness.toarray()
    assert np.max(np.abs(dense - dense.T)) <= 1e-12
    evals = np.linalg.eigvalsh(dense)
    assert evals.min() >= -1e-10


def test_mass_matrix_total_area(sphere, sys1):
    ones = np.ones(sys1.mass.shape[0])
    # flat per-triangle measure undershoots the sphere area by O(h^2)
    area1 = float(ones @ (sys1.mass @ ones))
    assert area1 == pytest.approx(4.0 * math.pi, rel=0.05)
    tri2 = build_triangulation(sphere, 2)
    sys2 = assemble(tri2, f_eigen, mode="flat")
    area2 = float(np.ones(sys2.mass.shape[0]) @ (sys2.mass @ np.ones(sys2.mass.shape[0])))
    gap1, gap2 = 4.0 * math.pi - area1, 4.0 * math.pi - area2
    assert 0.0 < gap2 < 0.35 * gap1  # deficit shrinks at second order


def test_assembly_modes_agree_to_second_order(sphere, tri1, sys1):
    sys1p = assemble(tri1, f_eigen, mode="pulled-back")
    tri2 = build_triangulation(sphere, 2)
    sys2 = assemble(tri2, f_eigen, mode="flat")
    sys2p = assemble(tri2, f_eigen, mode="pulled-back")

    def rel_gap(a, b):
        return (np.abs((a.stiffness - b.stiffness).toarray()).max()
                / np.abs(a.stiffness.toarray()).max())

    g1 = rel_gap(sys1, sys1p)
    g2 = rel_gap(sys2, sys2p)
    assert g1 <= 1.0 * tri1.h ** 2
    assert 0.15 <= g2 / g1 <= 0.45  # quarters when h halves


def test_unknown_mode_rejected(tri1):
    with pytest.raises(ValueError):
        assemble(tri1, f_eigen, mode="exotic")


# -- solve ----------------------------------------------------------------------

def test_solution_approximates_eigenfunction(tri1, sys1):
    u = solve_poisson(sys1)
    z = tri1.coords[:, 2]
    assert np.max(np.abs(u - z)) <= 0.05


def test_galerkin_residual_orthogonality(sys1):
    u = solve_poisson(sys1)
    b = -sys1.load
    b = b - b.mean()
    assert np.linalg.norm(sys1.stiffness @ u - b) <= 1e-10 * np.linalg.norm(b)


def test_solution_rotates_with_load(sphere, tri1):
    # The mesh is invariant under the cyclic coordinate rotation
    # R(x,y,z) = (y,z,x); rotating the load rotates the solution.
    coords = tri1.coords
    u1 = solve_poisson(assemble(tri1, lambda c: -2.0 * c[2], mode="flat"))
    u2 = solve_poisson(assemble(tri1, lambda c: -2.0 * c[1], mode="flat"))
    rotated_back = coords[:, [2, 0, 1]]  # R^{-1} applied to every vertex
    perm = np.array([np.argmin(np.abs(coords - c).sum(axis=1))
                     for c in rotated_back])
    assert np.max(np.abs(coords[perm] - rotated_back)) <= 1e-12
    assert np.max(np.abs(u2 - u1[perm])) <= 1e-10


def test_dense_and_cg_paths_agree(sphere):
    # solve_poisson uses CG at every size; check it at level 2 (162 dof)
    # against a dense solve of the same system with the constants
    # penalized, normalized the same way.
    system = assemble(build_triangulation(sphere, 2), f_eigen, mode="flat")
    u = solve_poisson(system)
    S = system.stiffness.toarray()
    n = S.shape[0]
    b = -system.load
    b = b - b.mean()
    u_dense = np.linalg.solve(S + (np.trace(S) / n ** 2) * np.ones((n, n)), b)
    mass_row = system.mass @ np.ones(n)
    u_dense -= (mass_row @ u_dense) / mass_row.sum()
    assert np.max(np.abs(u - u_dense)) <= 1e-12 * np.max(np.abs(u_dense))
    assert np.linalg.norm(system.stiffness @ u - b) <= 1e-10 * np.linalg.norm(b)


# -- error norms ---------------------------------------------------------------

def test_interpolant_h1_error_first_order(sphere):
    tri = build_triangulation(sphere, 3)
    z = tri.coords[:, 2]
    l2, h1 = error_norms(tri, z, u_eigen, grad_u_eigen)
    assert h1 <= 1.0 * tri.h
    assert l2 <= h1


def test_constant_reproduced_exactly(tri1):
    vals = np.full(tri1.num_vertices, 0.7)
    l2, h1 = error_norms(tri1, vals, lambda c: 0.7, lambda c: np.zeros(3))
    assert l2 <= 1e-12
    assert h1 <= 1e-12


def test_poisson_ladder_rates(sphere):
    for mode in ("flat", "pulled-back"):
        records = poisson_ladder(sphere, (1, 2, 3, 4, 5), f_eigen, u_eigen,
                                 grad_u_eigen, mode=mode)
        log_h = np.log([r["h"] for r in records])
        l2 = [r["l2_error"] for r in records]
        h1 = [r["h1_error"] for r in records]
        assert all(b < a for a, b in zip(l2, l2[1:]))
        assert all(b < a for a, b in zip(h1, h1[1:]))
        assert abs(np.polyfit(log_h, np.log(l2), 1)[0] - 2.0) <= 0.25
        assert abs(np.polyfit(log_h, np.log(h1), 1)[0] - 1.0) <= 0.25
        # dof bookkeeping
        assert [r["dof"] for r in records] == [42, 162, 642, 2562, 10242]


def test_dirichlet_energy_increases_to_continuum(sphere):
    # Soft check: discrete energy of the solution climbs toward the
    # continuum value 8 pi / 3 under refinement.
    energies = []
    for level in (1, 2, 3):
        tri = build_triangulation(sphere, level)
        system = assemble(tri, f_eigen, mode="flat")
        u = solve_poisson(system)
        energies.append(float(u @ (system.stiffness @ u)))
    assert all(b >= a - 1e-9 for a, b in zip(energies, energies[1:]))
    assert energies[-1] <= 8.0 * math.pi / 3.0
