"""Representation-table checks: tabulated examples, functoriality, Theta."""

import itertools
import operator
import random

import pytest

from annulus.defects import enumerate_defects, parse_defect
from annulus.engine import _Form, _affine_action
from annulus.reps import (
    TRI12, TRI21, BivalentRep, TrivalentRep, composition_phase_bivalent,
    composition_phase_trivalent, theta_exponent,
)
from annulus.scalars import CycField, mod_inverse
from annulus.walls import STAR, all_walls, wall, wall_product


def _theta(F, x, a, g):
    """The quadratic phase as a field element."""
    return F.root_pow(theta_exponent(F.p, x, a, g))


def _walls(p):
    out = [wall(p, "T"), wall(p, "L"), wall(p, "R"), wall(p, "F", 0)]
    out += [wall(p, "X", k) for k in range(1, p)]
    out += [wall(p, "F", q) for q in range(1, p)]
    return out


def _pairs(p):
    return [(a, b) for a in _walls(p) for b in _walls(p)]


def test_bivalent_rfr_action():
    # lower R, upper F_r: (g,h) gives phase w^(h(x+r(m+g))), vector m+g
    p, r, x = 5, 2, 1
    F = CycField(p)
    d = parse_defect(f"RFr(x={x};r={r})", p)
    rep = BivalentRep(d)
    for m in range(p):
        for g in range(p):
            for h in range(p):
                e, new = rep.act((m,), {"left": g, "right": h})
                assert new == ((m + g) % p,)
                assert F.root_pow(e) == F.omega_pow(h * (x + r * (m + g)))


def test_bivalent_tt_action():
    p = 3
    F = CycField(p)
    d = parse_defect("TT(a=1,b=2)", p)
    rep = BivalentRep(d)
    e, new = rep.act((1, 2), {"left": 2, "right": 1})
    assert F.root_pow(e) == F.one and new == (0, 0)
    labels = rep.edge_labels((0, 1))
    assert labels == {"lower": (0, 1), "upper": (1, 0)}


def test_identity_generator_everywhere():
    for p in (2, 3):
        F = CycField(p)
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                rep = BivalentRep(d)
                for vec in rep.basis():
                    e, new = rep.act(vec, {})
                    assert F.root_pow(e) == F.one and new == vec


def test_bivalent_grade_dims_partition():
    # Edge labels of distinct basis vectors are distinct (all spaces <= 1-dim
    # except the all-star grades, which carry the internal alpha).
    for p in (2, 3, 5):
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                dims = d.grade_dims()
                assert sum(dims.values()) == d.total_dim()
                for (glo, gup), dim in dims.items():
                    if dim > 1:
                        assert glo is STAR and gup is STAR


def test_theta_examples():
    F2 = CycField(2)
    assert _theta(F2, 1, 1, 1) == -F2.root_pow(1)  # -i
    for p in (2, 3, 5):
        F = CycField(p)
        assert _theta(F, 3, 1, 0) == F.one
    F5 = CycField(5)
    assert _theta(F5, 0, 2, 1) == F5.omega_pow(2 * mod_inverse(2, 5))
    assert _theta(F5, 0, 2, 1) == F5.omega_pow(1)


def test_theta_exponent_gives_the_theta_phase():
    """zeta_N^theta_exponent against the closed forms (-1)^(g x) i^(a g) at
    p = 2, on x, a, g reduced mod 2, and omega^(g x + a g^2 / 2) at p = 3,
    on arguments in and out of 0..p-1."""
    for p in (2, 3):
        F = CycField(p)
        for x, a, g in itertools.product(range(-p, 2 * p), repeat=3):
            e = theta_exponent(p, x, a, g)
            assert 0 <= e < F.N
            if p == 2:
                want = (F.omega_pow((g % 2) * (x % 2))
                        * F.root_pow((a % 2) * (g % 2)))
            else:
                want = F.omega_pow(g * x + a * g * g * mod_inverse(2, p))
            assert F.root_pow(e) == want


def test_theta_cocycle():
    for p in (2, 3, 5):
        F = CycField(p)
        for x in range(p):
            for a in range(p):
                for g in range(p):
                    for h in range(p):
                        lhs = _theta(F, x, a, g) * _theta(F, x, a, h) * F.omega_pow(
                            a * g * h)
                        assert lhs == _theta(F, x, a, (g + h) % p)


def test_bivalent_functoriality_with_category_phase():
    """Acting by (g,h) then (g',h') equals the category composition phase
    (a wall-catalogue datum, identical across families on the pair) times the
    action of the summed arguments."""
    rng = random.Random(20)
    for p in (2, 3, 5):
        F = CycField(p)
        for lo, up in _pairs(p):
            for d in enumerate_defects(lo, up):
                rep = BivalentRep(d)
                basis = rep.basis()
                for _ in range(12):
                    g, h, g2, h2 = (rng.randrange(p) for _ in range(4))
                    vec = basis[rng.randrange(len(basis))]
                    e1, v1 = rep.act(vec, {"left": g, "right": h})
                    e2, v2 = rep.act(v1, {"left": g2, "right": h2})
                    es, vs = rep.act(vec, {"left": g + g2, "right": h + h2})
                    ph1, ph2, phs = (F.root_pow(e) for e in (e1, e2, es))
                    assert v2 == vs
                    expected = composition_phase_bivalent(lo, up, (g, h), (g2, h2), F)
                    assert ph1 * ph2 == expected * phs
                    # literal additivity whenever no F_q (q != 0) wall is involved
                    if lo.q == up.q:
                        assert ph1 * ph2 == phs


def test_trivalent_21_examples():
    p = 5
    F = CycField(p)
    # R (x) L -> T with corner mu: phase w^(-c mu), vector (a+m, b+n)
    mu = 3
    rep = TrivalentRep("tri21", wall(p, "R"), wall(p, "L"), corner=mu)
    assert rep.third == wall(p, "T")
    for (m, n, a, b, c) in itertools.product(range(2), repeat=5):
        e, new = rep.act((m, n), {"left": a, "right": b, "mid": c})
        assert F.root_pow(e) == F.omega_pow(-c * mu)
        assert new == ((a + m) % p, (b + n) % p)
    # F_q (x) F_r -> X_x, x = q^{-1} r
    q, r = 2, 3
    rep = TrivalentRep("tri21", wall(p, "F", q), wall(p, "F", r))
    assert rep.third == wall(p, "X", mod_inverse(q, p) * r % p)
    for m in range(p):
        for (a, b, c) in itertools.product(range(p), repeat=3):
            e, new = rep.act((m,), {"left": a, "right": b, "mid": c})
            assert F.root_pow(e) == F.omega_pow(-c * (q * (a + m) + b * r))
            assert new == ((a + m + mod_inverse(q, p) * r * b) % p,)
    # T (x) T -> T with mu
    mu = 2
    rep = TrivalentRep("tri21", wall(p, "T"), wall(p, "T"), corner=mu)
    e, new = rep.act((1, 2, 3), {"left": 1, "right": 2, "mid": 4})
    assert F.root_pow(e) == F.one
    assert new == (2, (2 + 4) % p, (3 + 2) % p)
    labels = rep.edge_labels(new)
    assert labels["bl"] == (2, 1) and labels["br"] == ((mu - 6) % p, 0)
    assert labels["top"] == (2, 0)


def test_trivalent_12_examples():
    p = 5
    F = CycField(p)
    # R (x) L over T with mu
    mu = 1
    rep = TrivalentRep("tri12", wall(p, "R"), wall(p, "L"), corner=mu)
    e, new = rep.act((2, 3), {"left": 1, "right": 2, "mid": 3})
    assert F.root_pow(e) == F.omega_pow(-3 * mu)
    assert new == (3, 0)
    # F_q (x) X_l over F_y, y = q l: phase w^(a n q), vector n + c + b l
    q, l = 2, 3
    rep = TrivalentRep("tri12", wall(p, "F", q), wall(p, "X", l))
    assert rep.third == wall(p, "F", q * l % p)
    for n in range(p):
        for (a, b, c) in itertools.product(range(p), repeat=3):
            e, new = rep.act((n,), {"left": a, "right": b, "mid": c})
            assert F.root_pow(e) == F.omega_pow(a * n * q)
            assert new == ((c + b * l + n) % p,)


def test_trivalent_identity_and_corner_validation():
    p = 3
    F = CycField(p)
    for direction in ("tri21", "tri12"):
        for w1 in _walls(p):
            for w2 in _walls(p):
                rep = TrivalentRep(direction, w1, w2,
                                   corner=1 if _needs_corner(direction, w1, w2) else None)
                for vec in rep.basis():
                    e, new = rep.act(vec, {})
                    assert F.root_pow(e) == F.one and new == vec
                    labels = rep.edge_labels(vec)
                    assert set(labels) == set(rep.slots)
    with pytest.raises(ValueError):
        TrivalentRep("tri21", wall(p, "R"), wall(p, "L"))  # needs mu
    with pytest.raises(ValueError):
        TrivalentRep("tri21", wall(p, "R"), wall(p, "R"), corner=1)


def test_trivalent_direction_is_checked():
    """An unknown direction is a ValueError, not an assert that `python -O`
    would drop and let the rep take the 1:2 table."""
    with pytest.raises(ValueError, match="unknown trivalent direction"):
        TrivalentRep("bogus", wall(3, "X", 1), wall(3, "X", 1))


def _needs_corner(direction, w1, w2):
    from annulus.reps import TRI12, TRI21
    table = TRI21 if direction == "tri21" else TRI12
    return table[(w1.ekind(), w2.ekind())]["mu"]


def test_trivalent_functoriality_with_category_phase():
    rng = random.Random(77)
    for p in (2, 3, 5):
        F = CycField(p)
        for direction in ("tri21", "tri12"):
            for w1 in _walls(p):
                for w2 in _walls(p):
                    corner = rng.randrange(p) if _needs_corner(direction, w1, w2) else None
                    rep = TrivalentRep(direction, w1, w2, corner=corner)
                    basis = rep.basis()
                    for _ in range(10):
                        args1 = tuple(rng.randrange(p) for _ in range(3))
                        args2 = tuple(rng.randrange(p) for _ in range(3))
                        vec = basis[rng.randrange(len(basis))]
                        d1 = dict(zip(("left", "right", "mid"), args1))
                        d2 = dict(zip(("left", "right", "mid"), args2))
                        ds = {k: d1[k] + d2[k] for k in d1}
                        e1, v1 = rep.act(vec, d1)
                        e2, v2 = rep.act(v1, d2)
                        es, vs = rep.act(vec, ds)
                        ph1, ph2, phs = (F.root_pow(e) for e in (e1, e2, es))
                        assert v2 == vs
                        expected = composition_phase_trivalent(
                            direction, rep, args1, args2, F)
                        assert ph1 * ph2 == expected * phs


def test_trivalent_locality_of_region_slots():
    """A generator with a single nonzero region argument only relabels the two
    edges bounding that region (the face-operator locality the lattice model
    relies on)."""
    region_edges = {
        "tri21": {"left": ("bl", "top"), "right": ("br", "top"), "mid": ("bl", "br")},
        "tri12": {"left": ("bottom", "tl"), "right": ("bottom", "tr"),
                  "mid": ("tl", "tr")},
    }
    for p in (2, 3):
        F = CycField(p)
        for direction in ("tri21", "tri12"):
            for w1 in _walls(p):
                for w2 in _walls(p):
                    corner = 1 if _needs_corner(direction, w1, w2) else None
                    rep = TrivalentRep(direction, w1, w2, corner=corner)
                    for vec in rep.basis():
                        before = rep.edge_labels(vec)
                        for region, kept in region_edges[direction].items():
                            for g in range(p):
                                _, new = rep.act(vec, {region: g})
                                after = rep.edge_labels(new)
                                for slot in rep.slots:
                                    if slot not in kept:
                                        assert after[slot] == before[slot]


def test_act_on_named_generators():
    p = 3
    F = CycField(p)
    d = parse_defect("RFr(x=1;r=2)", p)
    e, new = BivalentRep(d).act((1,), {"left": 1, "right": 1})
    assert new == ((2) % p,)
    rep21 = TrivalentRep("tri21", wall(p, "R"), wall(p, "L"), corner=0)
    e, new = rep21.act((0, 0), {"left": 1, "right": 1, "mid": 1})
    assert new == (1, 1)
    rep12 = TrivalentRep("tri12", wall(p, "F", 1), wall(p, "X", 1))
    e, new = rep12.act((0,), {"left": 1, "right": 0, "mid": 0})
    assert F.root_pow(e) == F.one  # a*n*q with n = 0


def test_all_products_have_rows():
    for p in (2, 3, 5):
        for w1 in _walls(p):
            for w2 in _walls(p):
                for direction in ("tri21", "tri12"):
                    corner = 1 if _needs_corner(direction, w1, w2) else None
                    rep = TrivalentRep(direction, w1, w2, corner=corner)
                    assert rep.third == wall_product(w1, w2)


def _every_rep(p):
    """(rep, its regions) for every defect of every wall pair and every
    trivalent pair in both directions at every corner value."""
    walls = all_walls(p)
    for lo, up in itertools.product(walls, repeat=2):
        for d in enumerate_defects(lo, up):
            yield BivalentRep(d), ("left", "right")
    for direction, table in (("tri21", TRI21), ("tri12", TRI12)):
        for w1, w2 in itertools.product(walls, repeat=2):
            corners = range(p) if table[(w1.ekind(), w2.ekind())]["mu"] else [None]
            for corner in corners:
                yield (TrivalentRep(direction, w1, w2, corner=corner),
                       ("left", "right", "mid"))


def test_every_action_is_a_translation_with_an_affine_phase():
    """Every act entry, evaluated on one `_Form` symbol per free label for
    every args tuple, is affine (a non-affine use of a label would raise
    TypeError), sends each free label v_j to v_j + t_j, and at p = 2 has an
    exponent whose coefficient of every v_j is even (a sign, not i)."""
    reps = actions = 0
    for p in (2, 3, 5):
        for rep, regions in _every_rep(p):
            reps += 1
            n = len(rep.free_names)
            units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            symbols = tuple(_Form(u) for u in units)
            for values in itertools.product(range(p), repeat=len(regions)):
                actions += 1
                e, new = rep.act(symbols, dict(zip(regions, values)))
                assert [form.coef for form in new] == units, rep.key
                if isinstance(e, _Form):
                    assert all(0 <= a < rep.N for a in e.coef)
                    if p == 2:
                        assert all(a % 2 == 0 for a in e.coef), rep.key
                else:
                    assert 0 <= e < rep.N
    assert (reps, actions) == (1584, 69040)


def test_every_affine_form_gives_act_on_every_local_vector():
    """The engine's reading of an action, (t, L, c) from one evaluation on
    symbols, sends every local vector x to x + t with exponent L.x + c,
    as `act` does on x itself, for every rep and args tuple at p = 2, 3."""
    actions = 0
    for p in (2, 3):
        for rep, regions in _every_rep(p):
            for values in itertools.product(range(p), repeat=len(regions)):
                args = dict(zip(regions, values))
                t, linear, c = _affine_action(rep, "v", args)
                actions += 1
                for x in rep.basis():
                    assert rep.act(x, args) == (
                        (sum(map(operator.mul, linear, x)) + c) % rep.N,
                        tuple((a + b) % p for a, b in zip(x, t))), rep.key
    assert actions == 7040
