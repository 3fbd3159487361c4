"""QUADPACK over a one-dimensional family's continuous support, for the tests.

Any atom the family carries is the caller's business.
"""

import math

from expfam.core import POSITIVE_HALF_LINE
from expfam.numerics import integrate


def integrate_over_support(family, g, tol, split):
    """``numerics.integrate`` of g over the support, split at ``split``.

    A half line runs in v with x = v^2, which removes power-type endpoint
    singularities and turns stretched exponential tails into plain ones.
    """
    if family.support_domain == POSITIVE_HALF_LINE:
        return integrate(
            lambda v: 2.0 * v * g(v * v), 0.0, math.inf, tol=tol, points=[math.sqrt(split)]
        )
    return integrate(g, -math.inf, math.inf, tol=tol, points=[split])
