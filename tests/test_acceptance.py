"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with -v (or -s for the PASS lines) to see one line per criterion.
"""

import itertools
import os
import random
import time

import pytest

from annulus.defects import enumerate_defects, idempotent, parse_defect
from annulus.engine import QuotientRep, decompose, verify_completeness
from annulus.fusion import (
    associator, check_associator_against_golden, horizontal_fuse,
    load_golden_associators, vertical_fuse,
)
from annulus.levinwen import defect_line_patch, hexagon_chain_patch
from annulus.linalg import ExactMatrix
from annulus.reps import (
    TRI12, TRI21, BivalentRep, TrivalentRep, composition_phase_bivalent,
    composition_phase_trivalent,
)
from annulus.scalars import CycField, mod_inverse
from annulus.structures import horizontal_compound
from annulus.walls import all_walls


def _report(n, text, t0):
    print(f"ACCEPTANCE {n}: PASS ({time.perf_counter() - t0:.1f}s) {text}")


def test_criterion_1_vertical_fusion_reproduction():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        tp = time.perf_counter()
        for r in range(1, p):
            for x in range(p):
                for z in range(p):
                    fr = vertical_fuse(parse_defect(f"RFr(x={x};r={r})", p),
                                       parse_defect(f"FrR(z={z};r={r})", p))
                    want = {f"RR(a={a},x={(x + z - r * a) % p})": 1
                            for a in range(p)}
                    assert fr.single() == want, (p, r, x, z)
        assert time.perf_counter() - tp < 10, f"p={p} exceeded 10 s"
    _report(1, "RFr(x) o FrR(z) = sum_a RR(a, x+z-ra), p in {2,3,5}, all x,z,r", t0)


def test_criterion_2_horizontal_fusion_reproduction():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        tp = time.perf_counter()
        units = range(1, p)
        for q in units:
            for x in range(p):
                for z in range(p):
                    for c in range(p):
                        fr = horizontal_fuse(
                            parse_defect(f"FqR(x={x};q={q})", p),
                            parse_defect(f"LL(a={c},x={z})", p))
                        assert fr.corner_names == ("top",)
                        for (nu,), out in fr.outcomes:
                            alpha = mod_inverse(q, p) * (x + z - nu) % p
                            assert dict(out) == {f"TT(a={alpha},b={c})": 1}
        for k in units:
            for l in units:
                if k == l:
                    continue
                for z in range(p):
                    fr = horizontal_fuse(parse_defect(f"XkXl(;k={k},l={l})", p),
                                         parse_defect(f"F0R(x={z})", p))
                    assert fr.single() == {f"F0R(x={z})": p}
        for r in units:
            for t in units:
                fr = horizontal_fuse(parse_defect(f"F0Fr(;r={r})", p),
                                     parse_defect(f"TFr(;r={t})", p))
                lx = mod_inverse(r, p) * t % p
                assert fr.single() == {f"LXl(;l={lx})": p}
        assert time.perf_counter() - tp < 60, f"p={p} exceeded 60 s"
    _report(2, "all three horizontal examples exact for p in {2,3,5}", t0)


def test_criterion_3_associator_golden_table():
    t0 = time.perf_counter()
    golden = load_golden_associators()
    for p in (2, 3):
        tp = time.perf_counter()
        walls = all_walls(p)
        for m in walls:
            for n in walls:
                for pw in walls:
                    result = associator(m, n, pw)
                    check_associator_against_golden(result, golden)
        assert time.perf_counter() - tp < 600, f"p={p} exceeded 10 min"
    _report(3, "generated associator tables match the golden transcription, p in {2,3}", t0)


def test_criterion_3_associator_golden_table_p5_to_p13():
    """Opt-in (ANNULUS_EXHAUSTIVE=1): the whole p=5 table, 1728 cells, the
    whole p=7 table, 4096 cells, the whole p=11 table, 13824 cells, and the
    whole p=13 table, 21952 cells, against the golden transcription, each
    within criterion 3's bound. The golden table is symbolic in p, so p=7,
    p=11 and p=13, which the paper does not tabulate, are checked by the
    same rules."""
    if os.environ.get("ANNULUS_EXHAUSTIVE") != "1":
        pytest.skip("set ANNULUS_EXHAUSTIVE=1 to run")
    t0 = time.perf_counter()
    golden = load_golden_associators()
    for p in (5, 7, 11, 13):
        tp = time.perf_counter()
        for m, n, pw in itertools.product(all_walls(p), repeat=3):
            check_associator_against_golden(associator(m, n, pw), golden)
        elapsed = time.perf_counter() - tp
        print(f"criterion 3, p={p}: {elapsed:.1f}s")
        assert elapsed < 600, f"p={p} exceeded 10 min"
    _report(3, "generated associator tables match the golden transcription, "
               "p in {5,7,11,13}", t0)


def test_criterion_4_idempotent_algebra():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        field = CycField(p)
        for lo in all_walls(p):
            for up in all_walls(p):
                defects = enumerate_defects(lo, up)
                by_source = {}
                for d in defects:
                    # formal i o i = i, with the category composition phase
                    expr = idempotent(d, field)
                    composed = {}
                    for c1, g1 in expr.terms:
                        for c2, g2 in expr.terms:
                            ph = composition_phase_bivalent(lo, up, g1, g2, field)
                            key = ((g1[0] + g2[0]) % p, (g1[1] + g2[1]) % p)
                            composed[key] = composed.get(key, field.zero) + c1 * c2 * ph
                    original = {}
                    for c, gh in expr.terms:
                        original[gh] = original.get(gh, field.zero) + c
                    assert ({k: v for k, v in composed.items() if v}
                            == {k: v for k, v in original.items() if v}), d.name()
                    # identity of the labeled copy on its own irrep
                    own = _idem_matrix(field, d, d)
                    if own.nrows == 1:
                        assert own == ExactMatrix.identity(field, 1), d.name()
                    else:
                        assert (own @ own) == own and own.rank() == 1, d.name()
                    by_source.setdefault(d.source_object(), []).append(d)
                for group in by_source.values():
                    for d1, d2 in itertools.permutations(group, 2):
                        cross = _idem_matrix(field, d1, d2)
                        assert cross.is_zero(), (d1.name(), d2.name())
    _report(4, "i o i = i, same-pair orthogonality, identity on own irrep; p in {2,3,5}", t0)


def _idem_matrix(field, applied, rep_defect):
    rep = BivalentRep(rep_defect)
    expr = idempotent(applied, field)
    block = [vec for vec in rep.basis()
             if (rep.edge_labels(vec)["lower"], rep.edge_labels(vec)["upper"])
             == expr.source]
    index = {vec: i for i, vec in enumerate(block)}
    mat = ExactMatrix(field, len(block), len(block))
    for coeff, (g, h) in expr.terms:
        for j, vec in enumerate(block):
            e, new = rep.act(vec, {"left": g, "right": h})
            mat.add_to(index[new], j, field.root_pow(e) * coeff)
    return mat


def test_criterion_5_representation_functoriality():
    """Composed actions equal the summed-argument action for every tabulated
    family, phases included, with the composition phase of the annular
    category itself (a wall datum: omega^((q_low-q_up) h g') for bivalent
    annuli and its trivalent analogues; identically 1 unless an F_{q!=0}
    string is involved, in which case literal phase-free additivity is
    contradicted by the tables and the category phase is the exact law)."""
    t0 = time.perf_counter()
    rng = random.Random(1234)
    for p in (2, 3, 5):
        field = CycField(p)
        walls = all_walls(p)
        # bivalent: every family via every wall pair
        for lo in walls:
            for up in walls:
                defects = enumerate_defects(lo, up)
                d = defects[rng.randrange(len(defects))]
                rep = BivalentRep(d)
                basis = rep.basis()
                for _ in range(100):
                    vec = basis[rng.randrange(len(basis))]
                    g, h, g2, h2 = (rng.randrange(p) for _ in range(4))
                    e1, v1 = rep.act(vec, {"left": g, "right": h})
                    e2, v2 = rep.act(v1, {"left": g2, "right": h2})
                    es, vs = rep.act(vec, {"left": g + g2, "right": h + h2})
                    p1, p2, ps = (field.root_pow(e) for e in (e1, e2, es))
                    phi = composition_phase_bivalent(lo, up, (g, h), (g2, h2), field)
                    assert v2 == vs and p1 * p2 == phi * ps, d.name()
                    if lo.q == up.q:
                        assert phi == field.one
        # trivalent: every table row in both directions
        for direction, table in (("tri21", TRI21), ("tri12", TRI12)):
            for w1 in walls:
                for w2 in walls:
                    needs = table[(w1.ekind(), w2.ekind())]["mu"]
                    rep = TrivalentRep(direction, w1, w2,
                                       corner=rng.randrange(p) if needs else None)
                    basis = rep.basis()
                    for _ in range(100):
                        vec = basis[rng.randrange(len(basis))]
                        a1 = tuple(rng.randrange(p) for _ in range(3))
                        a2 = tuple(rng.randrange(p) for _ in range(3))
                        keys = ("left", "right", "mid")
                        e1, v1 = rep.act(vec, dict(zip(keys, a1)))
                        e2, v2 = rep.act(v1, dict(zip(keys, a2)))
                        es, vs = rep.act(
                            vec, {k: x + y for k, x, y in zip(keys, a1, a2)})
                        p1, p2, ps = (field.root_pow(e) for e in (e1, e2, es))
                        phi = composition_phase_trivalent(direction, rep, a1, a2, field)
                        assert v2 == vs and p1 * p2 == phi * ps
    _report(5, "functoriality with the category composition phase, 100 random pairs per family", t0)


def test_criterion_6_quotient_correctness():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        q, x, z, c, nu = (p - 1, 1 % p, 2 % p, 1 % p, (p + 1) // 2)
        cd = horizontal_compound(parse_defect(f"FqR(x={x};q={q})", p),
                                 parse_defect(f"LL(a={c},x={z})", p),
                                 {"top": nu})
        qr = QuotientRep(cd)
        assert qr.total_dim() == p * p
        shift = mod_inverse(q, p) * (x + z - nu) % p
        for grade, dim in qr.grades.items():
            (m, n), (tt, _) = grade
            assert dim == (1 if tt == (shift + m) % p else 0)
        if p > 2:
            cd = horizontal_compound(parse_defect(f"XkXl(;k=1,l=2)", p),
                                     parse_defect("F0R(x=1)", p))
            qr = QuotientRep(cd)
            assert len(qr.raw_basis) == p ** 3 and qr.total_dim() == p * p
            # quotient basis (m, t) with m arbitrary: every top grade is p-dim
            dims = qr.grade_dims()
            assert len(dims) == p and set(dims.values()) == {p}
        cd = horizontal_compound(parse_defect(f"F0Fr(;r=1)", p),
                                 parse_defect(f"TFr(;r={p - 1})", p))
        qr = QuotientRep(cd)
        assert len(qr.raw_basis) == p ** 4 and qr.total_dim() == p ** 3
    _report(6, "worked diamond quotients: image dims and surviving labels exact", t0)


def test_criterion_7_decomposition_completeness():
    t0 = time.perf_counter()
    rng = random.Random(7)
    checked = 0
    for p in (2, 3):
        walls = all_walls(p)
        for _ in range(20):
            a, b, c = (walls[rng.randrange(len(walls))] for _ in range(3))
            d1s, d2s = enumerate_defects(a, b), enumerate_defects(b, c)
            d1 = d1s[rng.randrange(len(d1s))]
            d2 = d2s[rng.randrange(len(d2s))]
            from annulus.structures import vertical_compound

            qr = QuotientRep(vertical_compound(d1, d2))
            out = decompose(qr)
            verify_completeness(qr, out)
            checked += 1
        for _ in range(6):
            m, n, pw = (walls[rng.randrange(len(walls))] for _ in range(3))
            from annulus.structures import associator_compound

            names = associator_compound(m, n, pw).corner_names
            corners = {nm: rng.randrange(p) for nm in names}
            qr = QuotientRep(associator_compound(m, n, pw, corners))
            out = decompose(qr)
            verify_completeness(qr, out)
            checked += 1
    _report(7, f"sum_d mult*dim(grade) == quotient dim on every grade ({checked} random structures; also enforced inside every decompose above)", t0)


def test_criterion_8_levin_wen_suite():
    t0 = time.perf_counter()
    from matrix_quotient import face_projector
    from test_levinwen import dense_ground_dim

    for p in (2, 3):
        for nf in (1, 2, 3):
            patch = hexagon_chain_patch(p, nf)
            for f in range(nf):
                proj = face_projector(patch, f)
                assert (proj @ proj) == proj
            assert patch.check_commutation()["ok"]
            assert patch.ground_space_dim() == dense_ground_dim(patch)
        patch = defect_line_patch(p)
        for f in range(len(patch.faces)):
            proj = face_projector(patch, f)
            assert (proj @ proj) == proj
        assert patch.check_commutation()["ok"]
        assert patch.ground_space_dim() == dense_ground_dim(patch)
    assert time.perf_counter() - t0 < 300, "exceeded 5 min"
    _report(8, "projectors, commutation, ground dims vs dense oracle; defect-line config included", t0)


def test_criterion_9_p2_brute_force_cross_check():
    t0 = time.perf_counter()
    from tube_oracle import check_pair_algebra, vertical_fuse_oracle

    p = 2
    field = CycField(p)
    walls = all_walls(p)
    for a in walls:
        for b in walls:
            check_pair_algebra(field, a, b)
    count = 0
    for a in walls:
        for b in walls:
            d1s = enumerate_defects(a, b)
            for c in walls:
                d2s = enumerate_defects(b, c)
                for d1 in d1s:
                    for d2 in d2s:
                        want = {d.name(): m for d, m in
                                vertical_fuse_oracle(field, d1, d2).items()}
                        got = dict(vertical_fuse(d1, d2).single())
                        assert got == want, (d1.name(), d2.name())
                        count += 1
    _report(9, f"full p=2 vertical table ({count} pairs) equals the tube-algebra oracle", t0)
