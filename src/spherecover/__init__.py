"""Branched covering surfaces of the round sphere as combinatorial complexes.

Surfaces are face copies over an arrangement of geodesic arcs glued by an
orientation-reversing side pairing; the package computes the covering
functionals (area, boundary length, covering numbers, reduced area and its
boundary ratio), implements cut/sew/lift surgery, and normalizes a disk
covering so that all its branch values lie in the special set while never
decreasing the ratio.
"""

from .geometry import (
    DegenerateSegment,
    GeodesicSegment,
    NoContact,
    Rotation,
    segment_intersection,
    sphere_point,
)
from .arrangement import (
    BaseComplex,
    CurveInput,
    OverlappingInput,
    ScaffoldBlocked,
    SpecialSet,
    TooManySegments,
    attach_scaffold,
    build_arrangement,
)
from .surface import (
    ANNULUS,
    CLOSED,
    DISK,
    BoundaryWalk,
    FunctionalReport,
    SurfaceComplex,
    VertexSheet,
    functionals,
    is_better_than,
    is_closed_subarc,
    validate,
)
from .surgery import (
    Lift,
    LiftResult,
    SurfacePath,
    cut_interior,
    cut_to_boundary,
    lift_path,
    sew,
    sew_annulus,
)
from .normalize import (
    NegativeH,
    NoSuchPath,
    PipelineTrace,
    certify,
    normalize,
    push_interior_branch,
    remove_one_fold,
    rotate_to_touch_special,
    sink_branch_to_special,
    slide_boundary_branch,
)
from .generators import (
    generate_closed_cyclic_cover,
    generate_disk_covering,
    generate_disk_covering_filtered,
)
from .oracle import oracle_verify
from .io import load_surface, save_surface, surface_from_dict, surface_to_dict

__version__ = "0.1.0"
