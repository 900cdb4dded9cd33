import math

import numpy as np
import pytest

from karcher import barycentric, fem
from karcher.barycentric import (KarcherChart, differential, differential_batch,
                                 karcher_mean)
from karcher.errors import MeanSolverError, TriangulationError
from karcher.fem import (_QUAD_LAM, KarcherTriangulation, assemble,
                         build_triangulation,
                         error_norms, poisson_ladder,
                         solve_poisson)
from karcher.flat_simplex import BarycentricWeight, fullness
from karcher.manifolds import HyperbolicSpace, ManifoldPoint, Sphere

from conftest import strict_solver
from oracles import icosphere as icosphere_oracle


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


def test_constructor_checks_its_points(sphere, monkeypatch):
    # Outside coordinates are checked where they arrive: a scaled mesh is
    # refused rather than measured by the chords of off-sphere points.
    coords, faces = fem.icosphere(1)
    with pytest.raises(ValueError,
                       match=r"^vertex 0: point norm 1\.01 is off the radius-1\.0 sphere$"):
        KarcherTriangulation(sphere, 1.01 * coords, faces)
    # build_triangulation checks its mesh once, through the constructor.
    calls = []
    check = sphere._check_points
    monkeypatch.setattr(sphere, "_check_points", lambda x: calls.append(len(x)) or check(x))
    build_triangulation(sphere, 1)
    assert calls == [42]


def test_level_validation(sphere):
    with pytest.raises(ValueError):
        build_triangulation(sphere, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        fem.icosphere(-1)


@pytest.mark.parametrize("radius", [1.0, 2.5])
@pytest.mark.parametrize("level", range(6))
def test_icosphere_matches_face_by_face_subdivision(level, radius):
    coords, faces = fem.icosphere(level, radius)
    ref_coords, ref_faces = icosphere_oracle(level, radius)
    assert np.array_equal(coords, ref_coords)
    assert np.array_equal(faces, ref_faces) and faces.dtype == ref_faces.dtype


def test_edge_lengths_measured_edge_by_edge(sphere):
    tri = build_triangulation(sphere, 3)
    lengths = {}
    for t, corners in enumerate(tri.triangles):
        for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2))):
            lo, hi = sorted((corners[a], corners[b]))
            if (lo, hi) not in lengths:
                lengths[lo, hi] = sphere.dist(ManifoldPoint(tri.coords[lo]),
                                              ManifoldPoint(tri.coords[hi]))
            assert tri.edge_lengths[t, k] == lengths[lo, hi]
    assert len(lengths) == 1920
    assert tri.h == max(lengths.values())


def test_shared_edges_single_length():
    # Both triangles adjacent to an edge carry the same stored length: each
    # triangle measures its own edges, in its own vertex order, so this
    # rests on the sphere's dist_array being symmetric to the bit.  Checked
    # on the meshes of the FEM ladders.
    local = ((0, 1), (0, 2), (1, 2))
    for radius in (1.0, 2.5):
        for level in range(5):
            tri = build_triangulation(Sphere(2, radius=radius), level)
            seen = {}
            for tri_idx, lengths in zip(tri.triangles.tolist(), tri.edge_lengths):
                for (a_loc, b_loc), val in zip(local, lengths):
                    key = tuple(sorted((tri_idx[a_loc], tri_idx[b_loc])))
                    assert seen.setdefault(key, val) == val  # exact float equality
            assert len(seen) == 30 * 4 ** level, (radius, level)


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


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_quad_data_reads_the_triangulation_measurement(radius, monkeypatch):
    # quad_data takes each triangle's grad_tol from the edge lengths the
    # triangulation measured, so it measures no edge again, and its jets
    # are those of differential_batch, which measures its own rows.
    man = Sphere(2, radius=radius)
    tri = build_triangulation(man, 3)
    rows = np.repeat(tri.coords[tri.triangles], 3, axis=0)
    points, dx = differential_batch(man, rows, np.tile(_QUAD_LAM, (tri.num_triangles, 1)))
    calls = []
    monkeypatch.setattr(barycentric, "_edge_lengths", lambda *args: calls.append(args))
    jets = tri.quad_data()
    assert calls == []
    assert np.array_equal(jets[0].reshape(points.shape), points)
    assert np.array_equal(jets[1].reshape(dx.shape), dx)


def test_quad_data_error_names_triangle(sphere, monkeypatch):
    strict_solver(monkeypatch)
    tri = build_triangulation(sphere, 1)
    with pytest.raises(MeanSolverError,
                       match=r"triangle 0, quadrature node 0: no convergence.*last \|F\|"):
        tri.quad_data()


@pytest.mark.parametrize("fill, shown", [(0.0, r"0\.000e\+00"), (math.nan, "nan")])
def test_degenerate_node_metric_names_triangle_and_node(sphere, monkeypatch, fill, shown):
    # One node's dx column replaced: its pulled-back metric has a zero or
    # NaN determinant, which the triangulation reports where it forms the
    # metric data, whichever call gets there first.
    stack_jets = fem._stack_jets

    def degenerate(*args):
        points, logs, dx, nabla = stack_jets(*args)
        dx[3 * 7 + 2, :, 1] = fill                  # triangle 7, node 2
        return points, logs, dx, nabla

    monkeypatch.setattr(fem, "_stack_jets", degenerate)
    message = (r"^triangle 7 \[.*\], quadrature node 2: pulled-back metric "
               rf"determinant {shown} is not positive and finite$")
    calls = (lambda tri: assemble(tri, f_eigen, mode="pulled-back"),
             lambda tri: error_norms(tri, tri.coords[:, 2], u_eigen, grad_u_eigen),
             lambda tri: tri.node_metrics())
    for call in calls:
        with pytest.raises(TriangulationError, match=message):
            call(build_triangulation(sphere, 1))


def test_closed_form_det_and_inverse_match_linalg():
    # SPD stacks of condition number 1 to 1e8 at scales 1e-6 to 1e6.  The
    # closed form and LAPACK's LU both lose about cond(g) eps to
    # cancellation, so they agree within 32 cond(g) eps, relative.
    rng = np.random.default_rng(7)
    n = 4000
    turn = rng.uniform(0.0, math.pi, n)
    c, s = np.cos(turn), np.sin(turn)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    spread = np.stack([np.ones(n), 10.0 ** -rng.uniform(0.0, 8.0, n)], -1)
    scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
    g = scale[:, None, None] * (rot * spread[:, None]) @ np.swapaxes(rot, 1, 2)
    g = 0.5 * (g + np.swapaxes(g, 1, 2))
    det, inverse = fem._det_inv(g)
    bound = 32.0 * np.linalg.cond(g) * np.finfo(float).eps
    want_det, want_inv = np.linalg.det(g), np.linalg.inv(g)
    assert np.all(np.abs(det - want_det) <= bound * np.abs(want_det))
    assert np.all(np.linalg.norm(inverse - want_inv, axis=(1, 2))
                  <= bound * np.linalg.norm(want_inv, axis=(1, 2)))
    assert np.linalg.cond(g).max() > 1e7


def test_pulled_back_metrics_formed_once_per_triangulation(sphere, monkeypatch):
    calls = []
    pullback = fem._pullback_metrics
    monkeypatch.setattr(fem, "_pullback_metrics",
                        lambda dx: calls.append(dx.shape) or pullback(dx))
    tri = build_triangulation(sphere, 1)
    u = solve_poisson(assemble(tri, f_eigen, mode="pulled-back"))
    first = error_norms(tri, u, u_eigen, grad_u_eigen)
    assert error_norms(tri, u, u_eigen, grad_u_eigen) == first
    assert calls == [(tri.num_triangles, 3, 3, 2)]
    root, inverse = tri.node_metrics()
    assert root.shape == (tri.num_triangles, 3)
    assert inverse.shape == (tri.num_triangles, 3, 2, 2)


def test_ladder_modes_share_one_triangulation(sphere, monkeypatch):
    built = []
    build = fem.build_triangulation
    monkeypatch.setattr(fem, "build_triangulation",
                        lambda *args: built.append(args[1]) or build(*args))
    both = poisson_ladder(sphere, (1, 2), f_eigen, u_eigen, grad_u_eigen,
                          modes=("pulled-back", "flat"))
    assert built == [1, 2]
    for mode, records in both.items():
        assert records == poisson_ladder(sphere, (1, 2), f_eigen, u_eigen,
                                         grad_u_eigen, modes=(mode,))[mode]


# -- assembly ------------------------------------------------------------------

class _Counted:
    """The eigenfunction's callbacks as bound methods that count their
    calls; each attribute access builds a new, equal method object."""

    def __init__(self):
        self.calls = {"f": 0, "u": 0, "grad": 0}

    def f(self, c):
        self.calls["f"] += 1
        return f_eigen(c)

    def u(self, c):
        self.calls["u"] += 1
        return u_eigen(c)

    def grad(self, c):
        self.calls["grad"] += 1
        return grad_u_eigen(c)


def test_callbacks_run_once_per_node_and_triangulation(sphere):
    tri = build_triangulation(sphere, 2)
    nodes = 3 * tri.num_triangles
    cb = _Counted()
    systems = {}
    for mode in ("flat", "pulled-back"):
        systems[mode] = assemble(tri, cb.f, mode=mode)
        error_norms(tri, solve_poisson(systems[mode]), cb.u, cb.grad)
    assert cb.calls == {"f": nodes, "u": nodes, "grad": nodes}
    # the stored values give the bits of a fresh evaluation
    fresh_tri = build_triangulation(sphere, 2)
    for mode, system in systems.items():
        fresh = assemble(fresh_tri, f_eigen, mode=mode)
        assert np.array_equal(system.load, fresh.load)
    # a new callable object, and a new triangulation, are evaluated afresh
    other = _Counted()
    assemble(tri, other.f)
    assert other.calls["f"] == nodes
    assemble(fresh_tri, cb.f)
    assert cb.calls["f"] == 2 * nodes
    with pytest.raises(ValueError, match="read-only"):
        tri.at_nodes(cb.f)[0, 0] = 0.0


def test_unhashable_callback_is_evaluated_each_time(tri1):
    class Height:
        __hash__ = None

        def __init__(self):
            self.calls = 0

        def __call__(self, c):
            self.calls += 1
            return c[2]

    height = Height()
    first = tri1.at_nodes(height)
    assert np.array_equal(tri1.at_nodes(height), first)
    assert height.calls == 2 * 3 * tri1.num_triangles


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


def test_triangulation_is_for_spheres_only():
    with pytest.raises(ValueError, match="spheres only"):
        build_triangulation(HyperbolicSpace(2), 1)


def test_constant_reproduced_exactly(tri1):
    vals = np.full(tri1.num_vertices, 0.7)
    l2, h1 = error_norms(tri1, vals, lambda c: 0.7, lambda c: np.zeros(3))
    assert l2 <= 1e-12
    assert h1 <= 1e-12


def test_poisson_ladder_rates(sphere):
    ladder = poisson_ladder(sphere, (1, 2, 3, 4, 5), f_eigen, u_eigen,
                            grad_u_eigen, modes=("flat", "pulled-back"))
    assert list(ladder) == ["flat", "pulled-back"]
    for records in ladder.values():
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
