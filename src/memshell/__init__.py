"""Membrane shell finite elements on triangulated surfaces.

Solves the linear membrane (stretching-only) shell problem directly in global
3D coordinates using tangential derivatives on a faceted surface enriched
with a nodal normal field. Ships structured cylinder and torus benchmark
geometries with closed-form stress fields, a deflated conjugate-gradient
solver for the singular closed-surface systems, stress recovery with L2 error
measurement and convergence-rate fitting, VTK/CSV export, and a CLI.
"""

__version__ = "0.1.0"

from .assembly import (
    ConstraintError,
    LinearSystem,
    apply_constraints,
    assemble,
    cylinder_constraints,
)
from .element import (
    QUADRATURE_RULE,
    QuadraturePointData,
    QuadratureRule,
    SingularJacobianError,
    quadrature_geometry,
)
from .geometry import (
    Cylinder,
    ExactSolution,
    GeometryError,
    MaterialModel,
    Torus,
    cylinder_exact,
    torus_exact,
)
from .mesh import (
    BoundaryComponent,
    MeshError,
    SurfaceMesh,
    build_cylinder_mesh,
    build_torus_mesh,
    import_mesh,
    mesh_size,
)
from .postprocess import (
    ConvergenceRecord,
    export_vtk,
    fit_convergence,
    recover_stress,
    stress_l2_error,
    write_convergence_csv,
)
from .solver import (
    IterationLimitError,
    NegativeCurvatureError,
    SolveReport,
    SolverError,
    solve,
)

__all__ = [
    "__version__",
    # mesh
    "MeshError", "BoundaryComponent", "SurfaceMesh", "build_cylinder_mesh",
    "build_torus_mesh", "import_mesh", "mesh_size",
    # geometry
    "GeometryError", "Cylinder", "Torus", "MaterialModel", "ExactSolution",
    "cylinder_exact", "torus_exact",
    # element
    "SingularJacobianError", "QuadratureRule", "QUADRATURE_RULE",
    "QuadraturePointData", "quadrature_geometry",
    # assembly
    "ConstraintError", "LinearSystem", "assemble", "cylinder_constraints",
    "apply_constraints",
    # solver
    "SolverError", "NegativeCurvatureError", "IterationLimitError",
    "SolveReport", "solve",
    # postprocess
    "recover_stress", "stress_l2_error", "ConvergenceRecord",
    "fit_convergence", "export_vtk", "write_convergence_csv",
]
