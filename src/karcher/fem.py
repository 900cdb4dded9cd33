"""Piecewise-linear Galerkin Poisson solver on a center-of-mass
triangulation of the sphere.

The sphere is meshed by subdividing an icosahedron and projecting to the
surface; each triangle carries the flat metric induced by its geodesic
edge lengths together with a coordinate chart whose quadrature nodes are
weighted centers of mass.  Stiffness can be assembled either from the
constant per-triangle flat metric or from the pulled-back metric sampled
at quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Module-level on purpose, unlike the package's other scipy imports: a
# caller that imports this module runs a FEM ladder, so it pays the import
# (about 0.35 s) either way.  Deferred to the first solve, it would land
# inside the cheapest rung and make it slower than the larger rungs, which
# moves every per-rung timing taken of the ladder.
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .barycentric import differential_batch, exceeds_convexity_radius
# The scalar jet of one chart, which quad_data computes in batch for every
# quadrature node.  No code here calls it; it stays importable from this
# module because the benchmark's tracer test (perfbench/test_smoke.py)
# looks it up here.
from .barycentric import differential  # noqa: F401
from .errors import LinearSolverError, MeanSolverError, TriangulationError
from .flat_simplex import flat_metric_from_lengths, fullness
from .manifolds import Sphere

# Icosahedron vertices on the unit sphere; faces are derived from vertex
# adjacency (chord length 2 before normalization) and wound outward.
_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, 1), (-_PHI, 0, -1),
], dtype=float) / math.sqrt(1.0 + _PHI ** 2)


def _icosahedron_faces() -> np.ndarray:
    dots = _ICO_VERTS @ _ICO_VERTS.T
    adjacent = dots > 0.4  # neighbors have dot 1/sqrt(5), others <= 0
    faces = []
    for i in range(12):
        for j in range(i + 1, 12):
            if not adjacent[i, j]:
                continue
            for k in range(j + 1, 12):
                if adjacent[i, k] and adjacent[j, k]:
                    normal = np.cross(_ICO_VERTS[j] - _ICO_VERTS[i],
                                      _ICO_VERTS[k] - _ICO_VERTS[i])
                    if normal @ _ICO_VERTS[i] > 0:
                        faces.append((i, j, k))
                    else:
                        faces.append((i, k, j))
    return np.array(faces, dtype=int)


_ICO_FACES = _icosahedron_faces()

# Order-2 quadrature on the unit triangle: interior points, weights 1/3.
# The barycentric weights of a node are also the P1 shape function values
# there: phi = (1 - u - v, u, v).
_QUAD_UV = np.array([
    (2.0 / 3.0, 1.0 / 6.0),
    (1.0 / 6.0, 2.0 / 3.0),
    (1.0 / 6.0, 1.0 / 6.0),
])
_QUAD_LAM = np.column_stack([1.0 - _QUAD_UV[:, 0] - _QUAD_UV[:, 1], _QUAD_UV])
_QUAD_W = np.full(3, 1.0 / 3.0)
_REF_AREA = 0.5

# P1 shape functions on the unit triangle and their constant gradients.
_DPHI = np.array([(-1.0, -1.0), (1.0, 0.0), (0.0, 1.0)])
# Reference mass matrix: sum_q w_q phi_q phi_q^T times the reference area.
_MASS_REF = _REF_AREA * np.einsum("q,qa,qb->ab", _QUAD_W, _QUAD_LAM, _QUAD_LAM)


def icosphere(level: int, radius: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Vertex coordinates and faces of the level-times subdivided
    icosahedron projected to the sphere of the given radius."""
    verts = [row for row in _ICO_VERTS]
    faces = [tuple(f) for f in _ICO_FACES]
    for _ in range(level):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = (i, j) if i < j else (j, i)
            if key not in midpoint:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return radius * np.array(verts), np.array(faces, dtype=int)


# Local vertex pairs of a triangle's edges, in the order edge lengths are
# stored: (0, 1), (0, 2), (1, 2).
_EDGE_I = np.array([0, 0, 1])
_EDGE_J = np.array([1, 2, 2])

# Least ``flat_simplex.fullness`` a mesh triangle may have.
MIN_FULLNESS = 0.5


class KarcherTriangulation:
    """Global sphere mesh with per-triangle flat metrics and charts.

    Every mesh quantity is held as an array: the vertex coordinates
    (V, coord_dim), the triangles' vertex indices (T, 3), and over
    triangles the edge lengths, the flat Gram matrices, and (after the
    first ``quad_data`` call) the chart jets at the quadrature nodes.
    """

    def __init__(self, manifold: Sphere, coords, triangles: np.ndarray):
        self.manifold = manifold
        self.coords = np.asarray(coords, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        # Geodesic edge lengths, each undirected edge measured exactly once
        # so both adjacent triangles see the same number.
        ends = np.sort(np.stack([self.triangles[:, _EDGE_I],
                                 self.triangles[:, _EDGE_J]], axis=-1), axis=-1)
        edges, inverse = np.unique(ends.reshape(-1, 2), axis=0, return_inverse=True)
        lengths = manifold.dist_array(self.coords[edges[:, 0]], self.coords[edges[:, 1]])
        self.edge_lengths = lengths[inverse.reshape(-1)].reshape(-1, 3)  # (T, 3)
        self.h = float(lengths.max())

        tables = np.zeros((self.num_triangles, 3, 3))
        tables[:, _EDGE_I, _EDGE_J] = tables[:, _EDGE_J, _EDGE_I] = self.edge_lengths
        gm = flat_metric_from_lengths(tables)
        self.gram = gm.G                                            # (T, 2, 2)
        bad = np.flatnonzero(~gm.realizable)
        if bad.size:
            raise TriangulationError(
                f"triangle {bad[0]} {self.triangles[bad[0]]} has no flat realization")
        diam = self.edge_lengths.max(axis=1)
        theta = fullness(gm, diam)
        bad = np.flatnonzero(theta < MIN_FULLNESS)
        if bad.size:
            t = bad[0]
            raise TriangulationError(
                f"triangle {t} {self.triangles[t]} fullness {theta[t]:.3f} "
                f"below {MIN_FULLNESS}")
        bad = np.flatnonzero(exceeds_convexity_radius(manifold, diam))
        if bad.size:
            raise ValueError(
                f"triangle {bad[0]}: vertex separation exceeds the convexity "
                "radius; the center of mass may not be unique")
        self._jets: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def quad_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart jets at the quadrature nodes of every triangle (cached):
        points (T, Q, coord_dim) and dx matrices (T, Q, coord_dim, 2)."""
        if self._jets is None:
            T, Q = self.num_triangles, len(_QUAD_W)
            verts = np.repeat(self.coords[self.triangles], Q, axis=0)
            weights = np.tile(_QUAD_LAM, (T, 1))
            try:
                points, dx = differential_batch(self.manifold, verts, weights)
            except MeanSolverError as exc:
                t, q = divmod(exc.index, Q)
                raise MeanSolverError(f"triangle {t}, quadrature node {q}: {exc}",
                                      index=exc.index) from exc
            self._jets = (points.reshape(T, Q, -1), dx.reshape(T, Q, *dx.shape[1:]))
        return self._jets


def build_triangulation(manifold: Sphere, subdivision_level: int
                        ) -> KarcherTriangulation:
    """Icosahedral mesh of the sphere, subdivided 4-to-1 per level."""
    if not isinstance(manifold, Sphere):
        raise ValueError("global triangulations are provided for spheres only")
    if subdivision_level < 0:
        raise ValueError("subdivision level must be nonnegative")
    coords, faces = icosphere(subdivision_level, manifold.radius)
    # The checks of ``manifold.point``, on all vertices at once.
    if coords.shape[1] != manifold.coord_dim:
        raise ValueError(f"expected {manifold.coord_dim} coordinates, "
                         f"got {coords.shape[1:]}")
    r = np.linalg.norm(coords, axis=1)
    bad = np.flatnonzero(manifold._off_sphere(r))
    if bad.size:
        raise ValueError(f"vertex {bad[0]}: point norm {r[bad[0]]} is off the "
                         f"radius-{manifold.radius} sphere")
    return KarcherTriangulation(manifold, coords, faces)


@dataclass(frozen=True, eq=False)
class FemSystem:
    """Assembled Galerkin system for one triangulation and load."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    load: np.ndarray
    mode: str


def _pullback_metrics(dx: np.ndarray) -> np.ndarray:
    """Pulled-back metric dx^T dx at each node, in the simplex basis
    e_k - e_0; the ambient dot product is the sphere's metric."""
    return np.einsum("tqdk,tqdl->tqkl", dx, dx)


def _at_nodes(fn, points: np.ndarray) -> np.ndarray:
    """A per-point callback evaluated at every quadrature node, in
    triangle then node order."""
    flat = points.reshape(-1, points.shape[-1])
    vals = np.array([fn(c) for c in flat], dtype=float)
    return vals.reshape(points.shape[:2] + vals.shape[1:])


def assemble(tri: KarcherTriangulation, f, mode: str = "flat") -> FemSystem:
    """Assemble stiffness, mass and load.

    ``mode="flat"`` uses the constant per-triangle edge-length metric;
    ``mode="pulled-back"`` evaluates the pulled-back metric at the
    quadrature nodes.  The load integrates f composed with the chart map
    in both modes.
    """
    if mode not in ("flat", "pulled-back"):
        raise ValueError(f"unknown assembly mode {mode!r}")
    points, dx = tri.quad_data()
    fvals = _at_nodes(f, points)                                # (T, Q)
    if mode == "flat":
        G = tri.gram
        root = np.sqrt(np.linalg.det(G))                        # (T,)
        k_loc = _REF_AREA * root[:, None, None] * (_DPHI @ np.linalg.inv(G) @ _DPHI.T)
        m_loc = root[:, None, None] * _MASS_REF
        # the volume factor is constant per triangle: repeat it per node
        root = np.broadcast_to(root[:, None], fvals.shape)
    else:
        mq = _pullback_metrics(dx)                              # (T, Q, 2, 2)
        root = np.sqrt(np.linalg.det(mq))                       # (T, Q)
        wroot = _REF_AREA * _QUAD_W * root
        k_loc = np.einsum("tq,ak,tqkl,bl->tab", wroot, _DPHI,
                          np.linalg.inv(mq), _DPHI, optimize=True)
        m_loc = np.einsum("tq,qa,qb->tab", wroot, _QUAD_LAM, _QUAD_LAM)
    f_loc = _REF_AREA * np.einsum("tq,qa->ta", _QUAD_W * root * fvals, _QUAD_LAM)

    idx = tri.triangles
    nv = tri.num_vertices
    load = np.bincount(idx.ravel(), weights=f_loc.ravel(), minlength=nv)
    rows = np.repeat(idx, 3, axis=1).ravel()
    cols = np.tile(idx, (1, 3)).ravel()
    shape = (nv, nv)
    stiffness = sp.coo_matrix((k_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    return FemSystem(stiffness=stiffness, mass=mass, load=load, mode=mode)


def solve_poisson(system: FemSystem) -> np.ndarray:
    """Solve the discrete Poisson problem for the divergence-form
    Laplacian: stiffness u = -load on the complement of constants.

    The sign makes the solution of the weak problem match the strong
    equation (div grad) u = f; the returned vector has zero mass-weighted
    mean and relative residual at most 1e-10.
    """
    S = system.stiffness
    n = S.shape[0]
    ones = np.ones(n)
    b = -system.load
    b = b - ones * (b.sum() / n)      # compatibility on a closed surface

    # Jacobi-preconditioned CG, with the preconditioner projected onto the
    # complement of constants, where S is definite.
    diag = S.diagonal()

    def precondition(x):
        y = x / diag
        return y - ones * (y.sum() / n)

    M = spla.LinearOperator(S.shape, matvec=precondition)
    u, info = spla.cg(S, b, rtol=1e-12, atol=0.0, maxiter=10 * n, M=M)
    if info != 0:
        raise LinearSolverError(f"conjugate gradient stopped with info={info}")

    residual = np.linalg.norm(S @ u - b)
    scale = np.linalg.norm(b)
    if scale > 0 and residual > 1e-10 * scale:
        raise LinearSolverError(f"relative residual {residual / scale:.2e} too large")
    mass_row = system.mass @ ones
    u = u - ones * (mass_row @ u) / (mass_row @ ones)
    return u


def error_norms(tri: KarcherTriangulation, u_h: np.ndarray, u_exact,
                grad_u_exact) -> tuple[float, float]:
    """Quadrature L2 and H1 errors against a known solution.

    ``u_exact`` maps ambient coordinates to values; ``grad_u_exact`` maps
    them to the components of the surface gradient.  The H1 norm includes
    the L2 part.
    """
    points, dx = tri.quad_data()
    mq = _pullback_metrics(dx)
    wroot = _REF_AREA * _QUAD_W * np.sqrt(np.linalg.det(mq))    # (T, Q)
    u_loc = np.asarray(u_h, dtype=float)[tri.triangles]         # (T, 3)
    e_val = u_loc @ _QUAD_LAM.T - _at_nodes(u_exact, points)
    pulled = np.einsum("tqd,tqdk->tqk", _at_nodes(grad_u_exact, points), dx)
    diff = (u_loc @ _DPHI)[:, None, :] - pulled                 # (T, Q, 2)
    semi = np.einsum("tqk,tqk->tq", diff,
                     np.linalg.solve(mq, diff[..., None])[..., 0])
    l2_sq = float(np.sum(wroot * e_val ** 2))
    semi_sq = float(np.sum(wroot * semi))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + semi_sq)


def poisson_ladder(manifold: Sphere, levels, f, u_exact, grad_u_exact,
                   mode: str = "flat") -> list[dict]:
    """Solve the model problem on a sequence of refinement levels and
    report mesh size, degrees of freedom and both error norms."""
    records = []
    for level in levels:
        tri = build_triangulation(manifold, level)
        system = assemble(tri, f, mode=mode)
        u = solve_poisson(system)
        l2, h1 = error_norms(tri, u, u_exact, grad_u_exact)
        records.append({
            "level": int(level),
            "h": tri.h,
            "dof": tri.num_vertices,
            "l2_error": l2,
            "h1_error": h1,
        })
    return records
