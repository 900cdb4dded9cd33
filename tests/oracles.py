"""Independent oracles of the center-of-mass chart, written with the
scalar ``dist`` and ``log`` of a model rather than the stacked code the
library solves with."""

import numpy as np

from karcher.manifolds import TangentVector


def energy(chart, a, lam) -> float:
    """Weighted sum of squared geodesic distances to the vertices."""
    man = chart.manifold
    total = 0.0
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            total += li * man.dist(a, p) ** 2
    return total


def grad_field(chart, a, lam) -> TangentVector:
    """Half the gradient of the energy in its first argument, which is
    minus the lambda-weighted sum of logarithms toward the vertices."""
    man = chart.manifold
    comps = np.zeros(man.coord_dim)
    for li, p in zip(lam.values, chart.vertices):
        if li != 0.0:
            comps -= li * man.log(a, p).components
    return TangentVector(a, comps)
