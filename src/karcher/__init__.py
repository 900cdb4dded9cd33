"""Center-of-mass barycentric coordinates on Riemannian manifolds.

The package provides manifold models with exact geometry (sphere,
hyperbolic space, Euclidean space) and ODE-based charts, flat simplex
geometry from edge lengths, Jacobi-field boundary value machinery, the
weighted center-of-mass coordinate map with first and second derivatives,
a distortion-measurement harness, and a P1 surface FEM application.
"""

__version__ = "0.1.0"

from .errors import KarcherError
from .manifolds import (ChartManifold, EuclideanSpace, Geodesic,
                        HyperbolicSpace, Manifold, ManifoldBounds,
                        ManifoldPoint, Sphere, TangentVector)
from .flat_simplex import (BarycentricWeight, EdgeLengthSystem, FlatMetric,
                           SimplexTangent, compare_metrics, evaluate,
                           flat_metric_from_lengths, fullness,
                           gram_eigen_bounds, insphere_radius_unit_simplex,
                           realize_vertices, volume)
from .barycentric import (ChartJet, KarcherChart, default_grad_tol,
                          differential, differential_batch, hessian,
                          hessian_batch, karcher_mean, pullback_metric, sigma)
from .jacobi import (FrameField, JacobiBVP, boundary_derivative_estimate_check,
                     integrate_jacobi, ode_bound_check, second_variation,
                     solve_bvp)

__all__ = [name for name in dir() if not name.startswith("_")]
