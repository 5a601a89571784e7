"""annulus: exact compound-defect computations on Vec(Z/pZ) domain walls."""

from .scalars import Cyc, CycField, is_prime, kernel_backend, mod_inverse
from .walls import STAR, BimoduleLabel, all_walls, wall, wall_product
from .defects import (
    DefectLabel, enumerate_defects, idempotent, parse_defect, trivial_defect,
)
from .engine import QuotientRep, apply_idempotent, decompose
from .fusion import (
    FusionResult, associator, generate_table, horizontal_fuse, vertical_fuse,
)
from .structures import (
    CompoundDefect, DomainWallStructure, associator_compound,
    compound_from_json, horizontal_compound, vertical_compound,
)
from .levinwen import LatticePatch, defect_line_patch, hexagon_chain_patch

__all__ = [
    "Cyc", "CycField", "is_prime", "kernel_backend", "mod_inverse",
    "STAR", "BimoduleLabel", "all_walls", "wall", "wall_product",
    "DefectLabel", "enumerate_defects", "idempotent", "parse_defect",
    "trivial_defect",
    "QuotientRep", "apply_idempotent", "decompose",
    "FusionResult", "associator", "generate_table", "horizontal_fuse",
    "vertical_fuse",
    "CompoundDefect", "DomainWallStructure", "associator_compound",
    "compound_from_json", "horizontal_compound", "vertical_compound",
    "LatticePatch", "defect_line_patch", "hexagon_chain_patch",
    "__version__",
]

__version__ = "0.1.0"
