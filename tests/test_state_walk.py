"""The quotient, counted by linear algebra on the solved coordinates,
against the state walk in state_walk.py, on fixed families and on drawn
ones; and checks that building it acts on no concrete local vector and
makes no per-state pass."""

import itertools
import json
import operator
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import state_walk
from annulus import cli, engine, fusion
from annulus.defects import parse_defect
from annulus.engine import QuotientRep
from annulus.levinwen import (
    LatticePatch, defect_line_patch, hexagon_chain_patch,
)
from annulus.reps import BivalentRep, TrivalentRep
from annulus.structures import (
    StructureError, associator_compound, compound_to_json,
)
from annulus.scalars import cyc_field
from annulus.walls import BimoduleLabel, all_walls
from state_walk import WalkedQuotient, loop_table
from test_engine import _associators, _verticals_p3
from test_orbit_quotient import _criterion_2_p5


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StructureError as exc:
        return str(exc)


def _one_exponent(hist, p: int):
    """The walk's character, a histogram over Z/N of the phases of the
    orbit sums a generator fixes, as `QuotientRep.character` gives it: one
    nonzero entry k of count m is (k, m), and a histogram whose trace
    sum_k hist[k] zeta_N^k is 0 is None. Any other histogram fails."""
    if hist is None or isinstance(hist, str):
        return hist
    if not cyc_field(p).root_sum(hist):
        return None
    nonzero = [(k, m) for k, m in enumerate(hist) if m]
    assert len(nonzero) == 1, f"a character of more than one phase: {hist}"
    return nonzero[0]


def _assert_walked(qr, walked, boundary: bool) -> None:
    """Dimensions, and with `boundary` every orbit map and character (or
    refusal text) of a two-stub compound, equal to the walk's, its
    character read as one exponent (`_one_exponent`)."""
    if not qr.raw_basis:
        assert walked.states == []
        assert qr.grades == {} and qr.total_dim() == 0
        return
    dims = walked.dims()
    assert qr.grades == dims
    assert qr.grade_dims() == {grade: d for grade, d in dims.items() if d}
    assert qr.total_dim() == sum(dims.values())
    if not boundary:
        return
    for grade in qr.grades:
        for g, h in itertools.product(range(qr.cd.p), repeat=2):
            assert _outcome(qr._orbit_map, grade, g, h) == _outcome(
                walked.orbit_map, grade, g, h)
            assert _outcome(qr.character, grade, g, h) == _one_exponent(
                _outcome(walked.character, grade, g, h), qr.cd.p)


# p = 5 cells whose stabilizer K = ker(g -> sum_c g_c tau_c) has dimension
# 2 (two of them with no admissible orbit), 1 and 0
_P5_CELLS = (
    ("Fq:2", "F0", "F0", {"mu1": 4, "nu1": 3}),
    ("Fq:3", "F0", "F0", {"mu1": 3, "nu1": 2}),
    ("Fq:2", "F0", "L", {"mu1": 0, "nu1": 0}),
    ("Fq:1", "F0", "L", {"mu1": 1, "nu1": 1}),
    ("Fq:3", "Xk:3", "F0", {}),
    ("Fq:2", "R", "Fq:2", {}),
    ("Xk:4", "Fq:1", "Fq:2", {}),
    ("Fq:1", "L", "Fq:4", {}),
    ("Xk:4", "Xk:3", "Xk:2", {}),
    ("Xk:2", "L", "R", {"mu1": 0, "nu1": 0}),
)


def _associators_p5():
    for *names, corners in _P5_CELLS:
        yield associator_compound(*(BimoduleLabel.parse(t, 5) for t in names),
                                  corners)


def _stabilizer_dim(qr) -> int:
    return len(qr._loops) - len(qr._orbit_space[0])


def _patches():
    for p in (2, 3, 5):
        for nf in (1, 2, 3):
            yield hexagon_chain_patch(p, nf)
        yield defect_line_patch(p)
    # every free chain whose basis is within the default ANNULUS_MAX_BASIS
    for p, nf in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        yield hexagon_chain_patch(p, nf, pin=False)


@pytest.mark.parametrize("family", ["associator-p2", "associator-p3",
                                    "vertical-p3", "criterion-2-p5",
                                    "associator-p5-sample", "patches"])
def test_quotient_equals_the_state_walk(family):
    """Every grade's dimension, and for a two-stub compound every orbit
    map and character, equal to the walk's."""
    if family == "patches":
        count = 0
        for patch in _patches():
            walked = WalkedQuotient(patch.compound, patch.pinned,
                                    patch.cavities)
            _assert_walked(patch.ground_space, walked, False)
            count += 1
        assert count == 18
        return
    compounds = {"associator-p2": lambda: _associators(2),
                 "associator-p3": lambda: _associators(3),
                 "vertical-p3": _verticals_p3,
                 "criterion-2-p5": _criterion_2_p5,
                 "associator-p5-sample": _associators_p5}[family]()
    count, stabilizers = 0, set()
    for cd in compounds:
        qr = QuotientRep(cd)
        _assert_walked(qr, WalkedQuotient(cd), True)
        if qr.raw_basis:
            stabilizers.add(_stabilizer_dim(qr))
        count += 1
    assert count == {"associator-p2": 696, "associator-p3": 2816,
                     "vertical-p3": 512, "criterion-2-p5": 19,
                     "associator-p5-sample": 10}[family]
    if family == "associator-p5-sample":
        assert stabilizers == {0, 1, 2}


@st.composite
def _associator_cells(draw):
    p = draw(st.sampled_from([2, 3]))
    walls = [draw(st.sampled_from(all_walls(p))) for _ in range(3)]
    corners = {name: draw(st.integers(0, p - 1))
               for name in associator_compound(*walls).corner_names}
    return associator_compound(*walls, corners)


@st.composite
def _pinned_chains(draw):
    """A hexagon chain with each dangling edge left free or pinned to an
    object of its wall."""
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    free = hexagon_chain_patch(p, n, pin=False)
    edges = free.compound.structure.edge_by_id
    pinned = {}
    for eid in free.compound.structure.external:
        if draw(st.booleans()):
            objects = edges[eid].wall.simple_objects()
            pinned[eid] = draw(st.sampled_from(objects))
    return LatticePatch(p, free.vertices, free.edges, free.faces, pinned)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_associator_cells())
def test_drawn_associator_cells_equal_the_state_walk(cd):
    _assert_walked(QuotientRep(cd), WalkedQuotient(cd), True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_pinned_chains())
def test_drawn_pinned_chains_equal_the_state_walk(patch):
    _assert_walked(patch.ground_space, WalkedQuotient(
        patch.compound, patch.pinned, patch.cavities), False)


class _DrawnQuotient(QuotientRep):
    """The quotient of d free labels and nothing else, its bubbles, stub
    forms and boundary generators given as solved loops and forms rather
    than read off a structure."""

    def __init__(self, p, d, bubbles, forms, boundaries):
        self.cd = SimpleNamespace(p=p)
        self.field = cyc_field(p)
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        self.raw_basis = engine.SolvedBasis(
            p, [0, d], [(0, unit) for unit in units], list(range(d)))
        self._chars, self._boundaries = {}, {}
        self._loops, self._forms = bubbles, forms
        self._shape = [operator.itemgetter(i) for i in range(len(forms))]
        self.boundaries = boundaries

    def _boundary_loop(self, g, h):
        return self.boundaries[g, h]


@st.composite
def _drawn_loops(draw, p):
    """(p, d, bubbles, stub forms, boundaries) that keep the group laws:
    ell_c = q S tau_c for one symmetric S, q = N/p, so that the bubbles
    commute, and at p = 2 kappa_c makes Bub_1^2 trivial; the stub forms
    vanish on every tau_c. A boundary's ell is q S beta plus q times a form
    that vanishes on every tau_c, so it commutes with the bubbles, or, one
    time in five, plus q times any vector. Unlike the tabulated reps, these
    give ell_c.tau_c != 0 and, at p = 2, odd kappa_c."""
    N = cyc_field(p).N
    q = N // p
    d = draw(st.integers(1, 3))
    digit = st.integers(0, p - 1)
    vector = st.tuples(*[digit] * d)
    S = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            S[i][j] = S[j][i] = draw(digit)

    def form(t, extra=(0,) * d):
        return tuple((q * (engine._dot(row, t) + x)) % N
                     for row, x in zip(S, extra))

    bubbles = []
    for _ in range(draw(st.integers(1, 3))):
        tau = draw(vector)
        ell = form(tau)
        kappa = draw(st.integers(0, N - 1))
        if p == 2:
            kappa = kappa & 2 | engine._dot(ell, tau) % 4 // 2
        bubbles.append((tau, ell, kappa))
    annihilator = list(engine._subspace(
        engine._echelon([(tau, 0) for tau, _, _ in bubbles], p), d, p)[1]
        .values())

    def vanishing():
        coef = [draw(digit) for _ in annihilator]
        return tuple(sum(c * a[i] for c, a in zip(coef, annihilator)) % p
                     for i in range(d))

    forms = [(vanishing(), draw(digit))
             for _ in range(draw(st.integers(0, 2)))]
    boundaries = {}
    for g, h in itertools.product(range(p), repeat=2):
        beta = draw(vector)
        extra = draw(vector) if draw(st.integers(0, 4)) == 0 else vanishing()
        boundaries[g, h] = (beta, form(beta, extra),
                            draw(st.integers(0, N - 1)))
    return p, d, bubbles, forms, boundaries


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_drawn_loops_equal_the_state_walk(p, data):
    """The counts by linear algebra against the walk over the loops'
    tables, on loops drawn to reach what the tabulated reps do not."""
    drawn = data.draw(_drawn_loops(p))
    _, d, bubbles, forms, boundaries = drawn
    qr = _DrawnQuotient(*drawn)
    N = qr.field.N
    grade_of = [tuple((engine._dot(ell, f) + kappa) % p
                      for ell, kappa in forms)
                for f in itertools.product(range(p), repeat=d)]
    walked = WalkedQuotient.of_tables(
        p, grade_of, [loop_table(qr.raw_basis, b, N) for b in bubbles],
        {gh: loop_table(qr.raw_basis, loop, N)
         for gh, loop in boundaries.items()})
    _assert_walked(qr, walked, True)


def test_production_makes_no_per_state_pass(monkeypatch, tmp_path):
    """With every per-state entry point refusing (listing the solutions,
    evaluating a form at every state, reading a listed state's labels,
    acting on a listed state, walking orbits), a p = 3 associator cell
    over all its corners, a p = 5 horizontal fusion, a patch's ground
    space and `annulus decompose` on a document are all computed."""

    def refuse(*args, **kwargs):
        raise AssertionError("a per-state pass")

    monkeypatch.setattr(engine.SolvedBasis, "states", property(refuse))
    monkeypatch.setattr(engine, "edge_labels_of", refuse)
    monkeypatch.setattr(engine, "_act_on_state", refuse)
    monkeypatch.setattr(state_walk, "_monomial_orbits", refuse)
    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    assert fusion.associator(*walls).outcomes
    p = 5
    assert fusion.horizontal_fuse(parse_defect("FqR(x=1;q=2)", p),
                                  parse_defect("LL(a=1,x=2)", p)).outcomes
    assert hexagon_chain_patch(3, 2).ground_space_dim() == 1
    cd = associator_compound(*walls, {"mu0": 1, "nu1": 2})
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(compound_to_json(cd)))
    assert cli.main(["decompose", str(path)]) == 0


def test_the_quotient_acts_on_symbols_only(monkeypatch):
    """Every rep's `act` refuses a local vector that is not made of the
    engine's `_Form` symbols, and a p = 3 associator cell over all its
    corners, a p = 5 horizontal fusion and a patch's ground space are
    built all the same: each action is read once, as a form."""
    calls = []
    for cls in (BivalentRep, TrivalentRep):
        def act(self, vec, args, plain=cls.act):
            if not all(isinstance(x, engine._Form) for x in vec):
                raise AssertionError(f"act on the local vector {vec!r}")
            calls.append(vec)
            return plain(self, vec, args)
        monkeypatch.setattr(cls, "act", act)
    walls = [BimoduleLabel.parse(t, 3) for t in ("R", "Fq:2", "R")]
    assert fusion.associator(*walls).outcomes
    p = 5
    assert fusion.horizontal_fuse(parse_defect("FqR(x=1;q=2)", p),
                                  parse_defect("LL(a=1,x=2)", p)).outcomes
    assert hexagon_chain_patch(3, 2).ground_space_dim() == 1
    assert calls
