"""boundary-lab: exact and numerical machinery for contracting rays,
Gromov products, and boundary topology on two families of geodesic spaces:
complexes glued from rays, and the unrolled plane-minus-disk with attached
rays."""

from .annulus import (
    AnnulusSpace,
    SpiralMap,
    ann_distance_coords,
    spiral_coords,
)
from .boundary import (
    BoundaryPoint,
    BoundaryProductEstimate,
    boundary_gromov_product,
    boundary_map_continuity_test,
    converges_in_gp,
    hausdorff_violation_witness,
    u_set_membership,
)
from .contraction import (
    ContractionProfile,
    EscapeTime,
    claim_check,
    contraction_profile,
    git_check,
    neighborhood_basis_check,
    project,
    ray_distance,
    t_first_escape,
)
from .dsl import compile_space, load_space, parse_space, serialize_space
from .errors import (
    BoundaryLabError,
    BuildError,
    DisconnectedError,
    DomainError,
    HorizonError,
    SpaceParseError,
)
from .mesh_oracle import mesh_oracle_distance
from .metric import gromov_product, metric_axiom_check
from .points import AnnulusPoint, AttachedRayPoint, RayComplexPoint
from .ray_complex import RayComplex
from .rays import UnitSpeedRay
from .spacezoo import ZooSpace, build_X, build_Xcat0, build_Y, build_Ycat0, get_space

__all__ = [name for name in dir() if not name.startswith("_")]
