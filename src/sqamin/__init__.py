"""Inexact successive quadratic approximation solvers for l1-regularized
convex minimization.

The outer loop minimizes a piecewise quadratic model of the composite
objective at every iteration, stopping the inner minimization as soon as a
semi-smooth optimality residual has been reduced by a forcing factor and the
model has decreased.  Inner solvers: accelerated proximal gradients and a
two-phase orthant-based method with conjugate-gradient or compact L-BFGS
subspace steps.
"""

from . import driver, fista, io, lbfgs, model, objectives, obm, prox
from .driver import *
from .fista import *
from .io import *
from .lbfgs import *
from .model import *
from .objectives import *
from .obm import *
from .prox import *

__version__ = "0.1.0"

__all__ = (driver.__all__ + fista.__all__ + io.__all__ + lbfgs.__all__
           + model.__all__ + objectives.__all__ + obm.__all__ + prox.__all__)
