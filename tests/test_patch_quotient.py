"""A Levin-Wen patch's ground space is its compound's `QuotientRep`: the
pinned dangling edges are its pins and the faces the cavities it
symmetrizes. Checked against the dense face-projector oracle, on every
lattice builder and on face subsets, and against the closed form
p^(2n+3) of a free chain of n hexagons where the oracle is too slow."""

import pytest

from annulus.engine import QuotientRep
from annulus.levinwen import (
    LatticePatch, defect_line_patch, hexagon_chain_patch,
)
from annulus.structures import corner_multiset
from matrix_quotient import dense_ground_dim


def _traced_cavities(patch):
    """The index of each face of `patch` among its structure's traced
    cavities, matched as multisets of corners."""
    traced = [corner_multiset(c) for c in patch.compound.structure.cavities]
    return [traced.index(corner_multiset(face)) for face in patch.faces]


def _face_subsets(patch):
    """`patch`, then the same patch with its faces in reverse (out of
    traced order) and with its first face listed twice."""
    yield patch
    for faces in (patch.faces[::-1], patch.faces[:1] + patch.faces):
        yield LatticePatch(patch.p, patch.vertices, patch.edges, faces,
                           patch.pinned)


_BUILDERS = {
    **{f"chain({p},{n})": (hexagon_chain_patch, (p, n))
       for p in (2, 3, 5) for n in (1, 2, 3)},
    **{f"free chain({p},{n})": (hexagon_chain_patch, (p, n, "Xk:1", False))
       for p, n in ((2, 1), (2, 2), (3, 1))},
    **{f"defect line({p})": (defect_line_patch, (p,)) for p in (2, 3, 5)},
}


@pytest.mark.parametrize("build, args", _BUILDERS.values(), ids=_BUILDERS)
def test_the_quotient_with_pins_and_cavities_is_the_ground_space(build,
                                                                 args):
    for patch in _face_subsets(build(*args)):
        cavities = _traced_cavities(patch)
        assert patch.cavities == cavities
        qr = QuotientRep(patch.compound, pins=patch.pinned,
                         cavities=cavities)
        dim = qr.total_dim()
        assert dim == dense_ground_dim(patch) == patch.ground_space_dim()
        # a pinned patch has no stub left to grade by
        assert len(qr.grades) == 1 or not patch.pinned


def test_free_chains_have_the_closed_form_dimension():
    """With its 2n + 4 dangling edges free, a chain of n hexagons has a
    ground space of dimension p^(2n+3), graded by those edges' labels;
    with no pins given, the quotient is that of the compound."""
    for p, n in ((2, 3), (3, 2), (5, 1)):
        patch = hexagon_chain_patch(p, n, pin=False)
        want = p ** (2 * n + 3)
        qr = QuotientRep(patch.compound, pins={},
                         cavities=_traced_cavities(patch))
        assert qr.total_dim() == QuotientRep(patch.compound).total_dim()
        assert qr.total_dim() == patch.ground_space_dim() == want
        assert all(len(grade) == 2 * n + 4 for grade in qr.grades)
