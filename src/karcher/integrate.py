"""Thin wrapper around scipy's adaptive Runge-Kutta integration.

All geodesic, transport and Jacobi-field ODEs in the package go through
``solve_ode`` so they share one accuracy setting.

The first step tried is the whole interval, unless the caller passes
one.  The package's ODEs are short and smooth (geodesics of length at
most a few units, Jacobi fields along them), and one DOP853 step over the
interval usually passes the error test.  scipy's own starting-step
heuristic (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4) picks h ~
0.02 for a unit shot, and the controller grows the step at most tenfold
per step, so a shot would take three steps (38 right-hand sides) where
one (13) suffices.  When the error estimate demands it the controller
still rejects the step and shrinks it, so the rtol/atol contract is
unchanged.  A caller that integrates a run of similar ODEs passes the
first step an earlier solve of the run accepted, and so pays for a
rejected whole-interval try once per run: the shots of one logarithm,
the shots of one vertex's logarithm across the iterates of one mean, and
the Hessian ODEs of one row's vertices, as a fraction of each interval.
No step is kept beyond the call that made the run.

``scipy.integrate`` is imported inside ``solve_ode``, on its first call,
not with the package.  Only ``ChartManifold`` and the Jacobi solver
integrate ODEs; the space-form distortion sweeps and the FEM ladder never
do, and the import (with the scipy modules it pulls in) would be most of
their start-up time.  Python caches the module after the first call, so
later calls pay well under a microsecond for the lookup.
"""

import numpy as np

from .errors import GeodesicError

# Per-step tolerances for every ODE in the package.  Tighter than the
# headline 1e-10 accuracy target so that downstream finite differences
# and shooting iterations keep comfortable margins.
ODE_RTOL = 1e-12
ODE_ATOL = 1e-13

# Right-hand-side evaluations one solve may take.  The most any successful
# solve takes in the tests is 553, in 39 steps: the first shot, along the
# chord, of a long cold logarithm near the rim of the Poincare disk.
# ``karcher verify all`` takes at most 400, the example configs 73 and the
# benchmark workloads 61 (chart-ode, seeds 0-9, with the mean's retraction
# and step memory).  A solve that needs over eighteen times the most is
# running into a singularity, such as a geodesic shot toward the rim of
# the disk, whose steps shrink without end; it fails instead of hanging.
ODE_MAX_NFEV = 10_000


def solve_ode(rhs, t_span, y0, dense_output=False, first_step=None):
    """Integrate ``y' = rhs(t, y)`` over ``t_span`` and return the scipy
    solution object.  The first step tried is ``first_step`` (capped at
    the interval) or, by default, the whole interval; a caller that
    integrates a run of similar ODEs passes the first step its previous
    solve accepted, ``sol.t[1] - sol.t[0]``.

    Raises GeodesicError on a zero-length interval, once the solve takes
    more than ``ODE_MAX_NFEV`` right-hand-side evaluations, and if the
    integrator reports failure.
    """
    from scipy.integrate import solve_ivp

    t0, t1 = t_span
    span = abs(t1 - t0)
    if span == 0.0:
        raise GeodesicError(f"ODE interval [{t0}, {t1}] has zero length")
    step = span if first_step is None else min(first_step, span)
    nfev = 0

    def budgeted(t, y):
        nonlocal nfev
        nfev += 1
        if nfev > ODE_MAX_NFEV:
            raise GeodesicError(
                f"ODE integration over [{t0}, {t1}] stopped at t = {t} after "
                f"{ODE_MAX_NFEV} right-hand-side evaluations")
        return rhs(t, y)

    sol = solve_ivp(budgeted, t_span, np.asarray(y0, dtype=float), method="DOP853",
                    rtol=ODE_RTOL, atol=ODE_ATOL, first_step=step,
                    dense_output=dense_output)
    if not sol.success:
        raise GeodesicError(
            f"ODE integration over [{t0}, {t1}] failed after {sol.nfev} "
            f"right-hand-side evaluations: {sol.message}")
    return sol
