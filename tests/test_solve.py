"""The consistent basis as the solutions of linear equations over F_p."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from annulus import engine
from annulus.defects import enumerate_defects, parse_defect
from annulus.engine import SizeLimitError, _symbolic_labels, enumerate_basis
from annulus.levinwen import hexagon_chain_patch
from annulus.reps import BIVALENT, TRI12, TRI21, BivalentRep, TrivalentRep
from annulus.structures import StructureError, horizontal_compound
from annulus.walls import STAR, all_walls


def _value(label, vec, p):
    """A symbolic label evaluated at one local vector."""
    if label is STAR:
        return STAR
    if isinstance(label, tuple):
        return tuple(_value(x, vec, p) for x in label)
    return (label.const + sum(a * x for a, x in zip(label.coef, vec))) % p


def _every_rep(p):
    walls = all_walls(p)
    for lower in walls:
        for upper in walls:
            for d in enumerate_defects(lower, upper):
                yield BivalentRep(d)
    for direction, table in (("tri21", TRI21), ("tri12", TRI12)):
        for first in walls:
            for second in walls:
                entry = table.get((first.ekind(), second.ekind()))
                if entry is None:
                    continue
                for corner in (range(p) if entry["mu"] else (None,)):
                    yield TrivalentRep(direction, first, second, corner)


def test_symbolic_labels_equal_the_tables_on_every_local_vector():
    """Every entry of BIVALENT, TRI21 and TRI12, at every parameter and
    corner value for p = 2, 3, 5 and 7: the labels evaluated once on symbols
    give rep.edge_labels on every local vector."""
    covered = set()
    for p in (2, 3, 5, 7):
        for rep in _every_rep(p):
            covered.add(id(rep.entry))
            symbolic = _symbolic_labels(rep, "v")
            assert set(symbolic) == set(rep.slots)
            for vec in rep.basis():
                got = {slot: _value(lab, vec, p)
                       for slot, lab in symbolic.items()}
                assert got == rep.edge_labels(vec), (rep.key, vec)
    tables = (BIVALENT, TRI21, TRI12)
    assert covered == {id(entry) for t in tables for entry in t.values()}


@pytest.mark.parametrize("edges", [
    lambda v, mu, w: (v[0], v[1], v[0] * v[1]),
    lambda v, mu, w: (v[0], v[1], v[0] if v[0] < v[1] else v[1]),
])
def test_edge_labels_that_are_not_affine_are_refused(monkeypatch, edges):
    """A product of two free labels, or a comparison, in a rep's `edges`
    entry is a structure error that names the vertex."""
    monkeypatch.setitem(TRI21[("X", "X")], "edges", edges)
    with pytest.raises(StructureError,
                       match=r"vertex h0_\w+: edge labels are not affine"):
        hexagon_chain_patch(3, 1).consistent_basis()


def test_compound_labels_that_are_not_affine_are_refused(monkeypatch):
    monkeypatch.setitem(
        BIVALENT[("L", "L", None)], "edges",
        lambda v, d, w: (v[0], d["a"] + v[0] if v[0] else v[0]))
    cd = horizontal_compound(parse_defect("FqR(x=1;q=2)", 3),
                             parse_defect("LL(a=1,x=2)", 3), {"top": 2})
    with pytest.raises(StructureError,
                       match=r"vertex d2: edge labels are not affine"):
        enumerate_basis(cd)


def test_size_limit_counts_the_solutions_before_building_any(monkeypatch):
    """ANNULUS_MAX_BASIS bounds the final p^(free variables), and trips
    before any state or table is built; partial labelings no longer
    count."""
    want = hexagon_chain_patch(3, 2).consistent_basis()
    monkeypatch.setenv("ANNULUS_MAX_BASIS", str(len(want)))
    assert hexagon_chain_patch(3, 2).consistent_basis() == want

    def build(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(engine.SolvedBasis, "states", property(build))
    monkeypatch.setenv("ANNULUS_MAX_BASIS", str(len(want) - 1))
    with pytest.raises(SizeLimitError, match=r"3\^2 consistent labelings"):
        hexagon_chain_patch(3, 2).consistent_basis()


@st.composite
def _systems(draw):
    """(p, n, k, rows): at most four equations coef.(x, mu) + const = 0
    over F_p, p in 2, 3, 5, in n <= 5 variables x_0..x_{n-1} and k <= 2
    parameters mu_1..mu_k, the variables -1..-k, that a drawn point
    solves. One time in three a last row is a combination of the others
    with its constant moved by 1, so that the system is inconsistent."""
    p = draw(st.sampled_from([2, 3, 5]))
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 2))
    vector = st.tuples(*[st.integers(0, p - 1)] * (n + k))
    point = draw(vector)
    rows = [(coef, -engine._dot(coef, point))
            for coef in draw(st.lists(vector, max_size=4))]
    if rows and draw(st.integers(0, 2)) == 0:
        scale = [draw(st.integers(0, p - 1)) for _ in rows]
        rows = rows[:3] + [(
            tuple(sum(a * row[0][i] for a, row in zip(scale, rows))
                  for i in range(n + k)),
            sum(a * c for a, (_, c) in zip(scale, rows)) + 1)]
    return p, n, k, rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(system=_systems())
def test_solve_lists_the_brute_force_solutions(system):
    """The `_add_row` echelon of a drawn system, read by `_solve`, against
    every assignment of the variables and parameters: an inconsistent
    system is refused and has no solution; a consistent one gives, over
    every z = (f, mu) whose mu meets the rows of parameters alone, exactly
    the solutions, each once. Its free variables are its non-pivots, each
    its own column of B, and a variable is free exactly when the
    solutions with the variables below it fixed take all its p values,
    the parameters being below every variable: the state order."""
    p, n, k, rows = system
    names = [*range(n), *(-1 - j for j in range(k))]
    solutions = {
        z for z in itertools.product(range(p), repeat=n + k)
        if all((engine._dot(coef, z) + c) % p == 0 for coef, c in rows)}
    pivots = {}
    if not all(engine._add_row(
            {v: a % p for v, a in zip(names, coef) if a % p}, c % p,
            pivots, p) for coef, c in rows):
        assert solutions == set()
        return
    for v, (coef, _) in pivots.items():
        assert max(coef) == v and coef[v] == 1
    conditions = [(coef, c) for v, (coef, c) in pivots.items() if v < 0]
    solved = engine._solve(pivots, n, p, k)
    free = [v for v in range(n) if v not in pivots]
    listed = []
    for f in itertools.product(range(p), repeat=len(free)):
        for mu in itertools.product(range(p), repeat=k):
            params = dict(zip(names[n:], mu))
            if any((sum(a * params[u] for u, a in coef.items()) + c) % p
                   for coef, c in conditions):
                continue
            listed.append(tuple((x0 + engine._dot(b, f + mu)) % p
                                for x0, b in solved) + mu)
    assert len(listed) == len(set(listed))
    assert set(listed) == solutions
    for j, v in enumerate(free):
        assert solved[v] == (0, tuple(int(i == j)
                                      for i in range(len(free) + k)))
    for v in range(n):
        below = [i for i, u in enumerate(names) if u < v]
        values = {}
        for z in solutions:
            values.setdefault(tuple(z[i] for i in below), set()).add(z[v])
        assert all(len(x) == (p if v in free else 1)
                   for x in values.values()), v
