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

from .barycentric import (_edge_lengths, _length_tables, _stack_jets,
                          exceeds_convexity_radius)
# The scalar jet of one chart, which quad_data computes in batch for every
# quadrature node.  No code here calls it; it stays importable from this
# module because the benchmark's tracer test (perfbench/test_smoke.py)
# looks it up here.
from .barycentric import differential  # noqa: F401
from .errors import LinearSolverError, MeanSolverError, TriangulationError
from .flat_simplex import _dot, _flagged, _fold, flat_metric_from_lengths, fullness
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
    icosahedron projected to the sphere of the given radius.

    Each level appends the edge midpoints in the order the faces first
    meet their edges, edges (a, b), (b, c), (c, a) of face (a, b, c), and
    splits the face into (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca).
    """
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    verts, faces = _ICO_VERTS, _ICO_FACES.copy()
    for _ in range(level):
        nv = len(verts)
        starts = faces.ravel()
        ends = faces[:, [1, 2, 0]].ravel()
        keys = np.minimum(starts, ends) * nv + np.maximum(starts, ends)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)                # midpoints by first encounter
        number = np.empty_like(order)
        number[order] = np.arange(nv, nv + len(order))
        seen = first[order]
        m = verts[starts[seen]] + verts[ends[seen]]
        # the matmul dot gives the bits of np.linalg.norm on one vector
        m = m / np.sqrt(_dot(m, m))[:, None]
        verts = np.concatenate([verts, m])
        ab, bc, ca = number[inverse.reshape(-1)].reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca],
                         axis=1).reshape(-1, 3)
    return radius * verts, faces


# Least ``flat_simplex.fullness`` a mesh triangle may have.
MIN_FULLNESS = 0.5


class KarcherTriangulation:
    """Global sphere mesh with per-triangle flat metrics and charts.

    Every mesh quantity is held as an array: the vertex coordinates
    (V, coord_dim), the triangles' vertex indices (T, 3), and over
    triangles the edge lengths, the flat Gram matrices, and (after the
    first ``quad_data`` call) the chart jets at the quadrature nodes,
    the pulled-back metric data there (``node_metrics``), and the values
    of each callback there (``at_nodes``).

    The constructor checks the vertices by the manifold's stacked point
    check, which names the first one off the sphere, and measures the
    edge lengths, each triangle's ``grad_tol`` and its means' guess
    logarithms log_p0(p_j) by one ``_edge_lengths`` pass; both triangles
    on an edge read one length, as ``dist_array`` is symmetric to the bit.
    """

    def __init__(self, manifold: Sphere, coords, triangles: np.ndarray):
        self.manifold = manifold
        self.coords = np.asarray(coords, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        manifold._check_points(self.coords)
        self.edge_lengths, self.grad_tol, self._edge_logs = _edge_lengths(
            manifold, self.coords[self.triangles])          # (T, 3), (T,), (T, 2, 3)
        self.h = float(self.edge_lengths.max())
        gm = flat_metric_from_lengths(_length_tables(self.edge_lengths, 3))
        self.gram = gm.G                                            # (T, 2, 2)
        if (t := _flagged(~gm.realizable)) is not None:
            raise TriangulationError(
                f"triangle {t[0]} {self.triangles[t]} has no flat realization")
        diam = _fold(np.maximum, self.edge_lengths)
        theta = fullness(gm, diam)
        if (t := _flagged(theta < MIN_FULLNESS)) is not None:
            raise TriangulationError(f"triangle {t[0]} {self.triangles[t]} fullness "
                                     f"{theta[t]:.3f} below {MIN_FULLNESS}")
        if (t := _flagged(exceeds_convexity_radius(manifold, diam))) is not None:
            raise ValueError(f"triangle {t[0]}: vertex separation exceeds the convexity "
                             "radius; the center of mass may not be unique")
        self._jets: tuple[np.ndarray, np.ndarray] | None = None
        self._metrics: tuple[np.ndarray, np.ndarray] | None = None
        self._node_values: dict = {}

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def quad_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart jets at the quadrature nodes of every triangle (cached):
        points (T, Q, coord_dim) and dx matrices (T, Q, coord_dim, 2), as
        ``differential_batch`` gives them, at the ``grad_tol`` of ``__init__``.
        The pulled-back metric data of ``node_metrics`` is formed with
        them, once, and a TriangulationError names the triangle and node
        of a metric whose determinant is not positive and finite."""
        if self._jets is None:
            T, Q = self.num_triangles, len(_QUAD_W)
            try:
                points, _, dx, _ = _stack_jets(
                    self.manifold, np.repeat(self.coords[self.triangles], Q, axis=0),
                    np.tile(_QUAD_LAM, (T, 1)), np.repeat(self.grad_tol, Q),
                    np.repeat(self._edge_logs, Q, axis=0), False)
            except MeanSolverError as exc:
                t, q = divmod(exc.index, Q)
                raise MeanSolverError(f"triangle {t}, quadrature node {q}: {exc}",
                                      index=exc.index) from exc
            dx = dx.reshape(T, Q, *dx.shape[1:])
            with np.errstate(divide="ignore", invalid="ignore"):    # checked next
                det, inverse = _det_inv(_pullback_metrics(dx))
            if (k := _flagged(~(np.isfinite(det) & (det > 0.0)))) is not None:
                t, q = k
                raise TriangulationError(
                    f"triangle {t} {self.triangles[t]}, quadrature node {q}: pulled-back "
                    f"metric determinant {det[k]:.3e} is not positive and finite")
            self._metrics = (np.sqrt(det), inverse)
            self._jets = (points.reshape(T, Q, -1), dx)
        return self._jets

    def node_metrics(self) -> tuple[np.ndarray, np.ndarray]:
        """The pulled-back metric g = dx^T dx at every quadrature node
        (cached with ``quad_data``): its volume factors sqrt(det g) (T, Q)
        and inverses (T, Q, 2, 2), in the simplex basis e_k - e_0."""
        if self._metrics is None:
            self.quad_data()
        return self._metrics

    def at_nodes(self, fn) -> np.ndarray:
        """A callback of position at every quadrature node, (T, Q) or
        (T, Q, k) in triangle then node order.

        A hashable callable is evaluated once per node and triangulation:
        its values are stored read-only, keyed by the callable itself
        (equal bound methods of one object share them).  An unhashable
        callable is evaluated on every call.
        """
        try:
            return self._node_values[fn]
        except KeyError:
            store = True
        except TypeError:
            store = False
        if self._jets is None:
            self.quad_data()
        points = self._jets[0]
        vals = np.array([fn(c) for c in points.reshape(-1, points.shape[-1])],
                        dtype=float)
        vals = vals.reshape(points.shape[:2] + vals.shape[1:])
        if store:
            vals.flags.writeable = False
            self._node_values[fn] = vals
        return vals


def build_triangulation(manifold: Sphere, subdivision_level: int
                        ) -> KarcherTriangulation:
    """Icosahedral mesh of the sphere, subdivided 4-to-1 per level."""
    if not isinstance(manifold, Sphere):
        raise ValueError("global triangulations are provided for spheres only")
    return KarcherTriangulation(manifold, *icosphere(subdivision_level, manifold.radius))


@dataclass(frozen=True, eq=False)
class FemSystem:
    """Assembled Galerkin system for one triangulation and load."""

    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    load: np.ndarray


def _pullback_metrics(dx: np.ndarray) -> np.ndarray:
    """Pulled-back metric dx^T dx at each node, in the simplex basis
    e_k - e_0; the ambient dot product is the sphere's metric."""
    return np.einsum("tqdk,tqdl->tqkl", dx, dx)


def _det_inv(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants (...) and inverses (..., 2, 2) of a stack of 2 x 2
    matrices in closed form, ad - bc and the adjugate over it: a
    triangle's chart has n = 2."""
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    adjugate = np.stack([g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0]],
                        axis=-1).reshape(g.shape)
    return det, adjugate / det[..., None, None]


def assemble(tri: KarcherTriangulation, f, mode: str = "flat") -> FemSystem:
    """Assemble stiffness, mass and load.

    ``mode="flat"`` uses the constant per-triangle edge-length metric;
    ``mode="pulled-back"`` reads the pulled-back metric's volume factors
    and inverses at the quadrature nodes, which the triangulation forms
    once (``tri.node_metrics``).  The load integrates f composed with the
    chart map in both modes.  ``f`` must be a function of position alone:
    it is evaluated once per node and triangulation (``tri.at_nodes``),
    so both modes read the same values.
    """
    if mode not in ("flat", "pulled-back"):
        raise ValueError(f"unknown assembly mode {mode!r}")
    fvals = tri.at_nodes(f)                                     # (T, Q)
    if mode == "flat":
        G = tri.gram
        root = np.sqrt(np.linalg.det(G))                        # (T,)
        k_loc = _REF_AREA * root[:, None, None] * (_DPHI @ np.linalg.inv(G) @ _DPHI.T)
        m_loc = root[:, None, None] * _MASS_REF
        # the volume factor is constant per triangle: repeat it per node
        root = np.broadcast_to(root[:, None], fvals.shape)
    else:
        root, inverse = tri.node_metrics()                      # (T, Q), (T, Q, 2, 2)
        wroot = _REF_AREA * _QUAD_W * root
        k_loc = np.einsum("tq,ak,tqkl,bl->tab", wroot, _DPHI,
                          inverse, _DPHI, optimize=True)
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
    return FemSystem(stiffness=stiffness, mass=mass, load=load)


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
    the L2 part.  Both must be functions of position alone: each is
    evaluated once per node and triangulation (``tri.at_nodes``), so
    later calls on the same triangulation reuse the values.  The
    quadrature measure and the H1 seminorm read the pulled-back metric
    data that the triangulation forms once (``tri.node_metrics``).
    """
    dx = tri.quad_data()[1]
    root, inverse = tri.node_metrics()
    wroot = _REF_AREA * _QUAD_W * root                          # (T, Q)
    u_loc = np.asarray(u_h, dtype=float)[tri.triangles]         # (T, 3)
    e_val = u_loc @ _QUAD_LAM.T - tri.at_nodes(u_exact)
    pulled = np.einsum("tqd,tqdk->tqk", tri.at_nodes(grad_u_exact), dx)
    diff = (u_loc @ _DPHI)[:, None, :] - pulled                 # (T, Q, 2)
    semi = np.einsum("tqk,tqkl,tql->tq", diff, inverse, diff)
    l2_sq = float(np.sum(wroot * e_val ** 2))
    semi_sq = float(np.sum(wroot * semi))
    return math.sqrt(l2_sq), math.sqrt(l2_sq + semi_sq)


def poisson_ladder(manifold: Sphere, levels, f, u_exact, grad_u_exact,
                   modes=("flat",)) -> dict[str, list[dict]]:
    """Solve the model problem on a sequence of refinement levels in each
    assembly mode and report, per mode, mesh size, degrees of freedom and
    both error norms.  The modes share each level's one triangulation:
    its jets, node values and metric data."""
    records = {mode: [] for mode in modes}
    for level in levels:
        tri = build_triangulation(manifold, level)
        for mode, rows in records.items():
            u = solve_poisson(assemble(tri, f, mode=mode))
            l2, h1 = error_norms(tri, u, u_exact, grad_u_exact)
            rows.append({
                "level": int(level),
                "h": tri.h,
                "dof": tri.num_vertices,
                "l2_error": l2,
                "h1_error": h1,
            })
    return records
