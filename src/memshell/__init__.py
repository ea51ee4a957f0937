"""Membrane shell finite elements on triangulated surfaces.

Solves the linear membrane (stretching-only) shell problem directly in global
3D coordinates using tangential derivatives on a faceted surface enriched
with a nodal normal field. Ships structured cylinder and torus benchmark
geometries with closed-form stress fields, a deflated conjugate-gradient
solver for the singular closed-surface systems, stress recovery with L2 error
measurement and convergence-rate fitting, VTK/CSV export, and a CLI.
"""

__version__ = "0.1.0"

# each module's __all__ is the one declaration of its public names
from . import assembly, element, geometry, mesh, postprocess, solver
from .assembly import *
from .element import *
from .geometry import *
from .mesh import *
from .postprocess import *
from .solver import *

__all__ = ["__version__", *mesh.__all__, *geometry.__all__, *element.__all__,
           *assembly.__all__, *solver.__all__, *postprocess.__all__]
