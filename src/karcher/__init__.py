"""Center-of-mass barycentric coordinates on Riemannian manifolds.

The package provides manifold models with exact geometry (sphere,
hyperbolic space, Euclidean space) and ODE-based charts, flat simplex
geometry from edge lengths, the Jacobi-field boundary value solver and
the two-point ODE bound check, the weighted center-of-mass coordinate map
with first and second derivatives, a distortion-measurement harness, and
a P1 surface FEM application: the code that ``karcher run``, ``karcher
verify`` and the benchmark execute.  Cross-checks that only the tests
use (the finite-difference connection gap, the Jacobi initial value
problem, the second variation and the comparison of two flat metrics)
live in ``tests/oracles.py``.
"""

__version__ = "0.1.0"

from .errors import KarcherError
from .manifolds import (ChartManifold, EuclideanSpace, Geodesic,
                        HyperbolicSpace, Manifold, ManifoldBounds,
                        ManifoldPoint, Sphere, TangentVector)
from .flat_simplex import (BarycentricWeight, EdgeLengthSystem, FlatMetric,
                           SimplexTangent, flat_metric_from_lengths, fullness,
                           gram_eigen_bounds, volume)
from .barycentric import (ChartJet, KarcherChart, default_grad_tol,
                          differential, differential_batch, hessian,
                          hessian_batch, karcher_mean, pullback_metric, sigma)
from .jacobi import FrameField, JacobiBVP, ode_bound_check, solve_bvp

__all__ = [name for name in dir() if not name.startswith("_")]
