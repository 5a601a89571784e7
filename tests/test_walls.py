import pytest

from annulus.scalars import CycField
from annulus.walls import (
    STAR, BimoduleLabel, associator_phase, left_act, right_act, simple_objects,
    wall, wall_product,
)


def _all_walls(p):
    out = [wall(p, "T"), wall(p, "L"), wall(p, "R"), wall(p, "F", 0)]
    out += [wall(p, "X", k) for k in range(1, p)]
    out += [wall(p, "F", q) for q in range(1, p)]
    return out


def test_object_counts():
    t = wall(2, "T")
    assert simple_objects(t) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert simple_objects(wall(5, "F", 2)) == [STAR]
    assert simple_objects(wall(3, "F", 0)) == [STAR]
    assert simple_objects(wall(3, "X", 2)) == [0, 1, 2]
    for p in (2, 3, 5):
        assert len(simple_objects(wall(p, "L"))) == p


def test_validation():
    with pytest.raises(ValueError):
        wall(3, "X", 0)
    with pytest.raises(ValueError):
        wall(3, "T", 1)
    with pytest.raises(ValueError):
        wall(4, "T")
    wall(3, "F", 0)  # F_0 is fine


def test_invertibility():
    assert wall(3, "X", 1).invertible()
    assert wall(3, "F", 2).invertible()
    assert not wall(3, "F", 0).invertible()
    for k in ("T", "L", "R"):
        assert not wall(3, k).invertible()


def test_action_examples():
    assert left_act(wall(5, "L"), 1, 0) == 0
    assert left_act(wall(5, "R"), 2, 1) == 3
    assert left_act(wall(3, "X", 2), 1, 1) == 2
    assert right_act(wall(2, "T"), (0, 1), 1) == (0, 0)
    assert right_act(wall(5, "R"), 4, 3) == 4
    assert right_act(wall(5, "X", 2), 0, 1) == 2
    with pytest.raises(ValueError):
        left_act(wall(3, "L"), 1, (0, 0))


def test_actions_commute_and_compose():
    for p in (2, 3, 5):
        for w in _all_walls(p):
            objs = simple_objects(w)
            for g in range(p):
                for h in range(p):
                    for o in objs:
                        assert w.left_act(g, w.left_act(h, o)) == w.left_act(g + h, o)
                        assert w.right_act(w.right_act(o, g), h) == w.right_act(o, g + h)
                        assert w.left_act(g, w.right_act(o, h)) == w.right_act(
                            w.left_act(g, o), h)
                # bijectivity
                imgs = {w.left_act(g, o) for o in objs}
                assert len(imgs) == len(objs)


def test_associator_phases():
    F5 = CycField(5)
    assert associator_phase(wall(5, "F", 2), 1, 1, STAR, F5) == F5.omega_pow(2)
    assert associator_phase(wall(5, "F", 0), 3, 4, STAR, F5) == F5.one
    F3 = CycField(3)
    assert associator_phase(wall(3, "X", 2), 1, 2, 0, F3) == F3.one


def test_associator_cocycle():
    for p in (2, 3, 5):
        F = CycField(p)
        for q in range(1, p):
            w = wall(p, "F", q)
            for g in range(p):
                for h in range(p):
                    for k in range(p):
                        lhs = w.associator_phase(g, h, STAR, F) * w.associator_phase(
                            g + h, k, STAR, F)
                        rhs = w.associator_phase(g, h + k, STAR, F) * w.associator_phase(
                            h, k, STAR, F)
                        assert lhs == rhs


def test_names_round_trip():
    for p in (2, 3, 5):
        for w in _all_walls(p):
            assert BimoduleLabel.parse(w.name(), p) == w
    assert BimoduleLabel.parse("Fq:3", 5) == wall(5, "F", 3)
    assert BimoduleLabel.parse("Xk:2", 5) == wall(5, "X", 2)
    assert BimoduleLabel.parse("F0", 5) == wall(5, "F", 0)


def test_wall_product_associative():
    for p in (2, 3):
        ws = _all_walls(p)
        for a in ws:
            for b in ws:
                ab = wall_product(a, b)
                for c in ws:
                    assert wall_product(ab, c) == wall_product(a, wall_product(b, c))


def test_wall_product_unit():
    for p in (2, 3, 5):
        x1 = wall(p, "X", 1)
        for w in _all_walls(p):
            assert wall_product(w, x1) == w
            assert wall_product(x1, w) == w


def test_interpretations_exist():
    for w in _all_walls(3):
        assert isinstance(w.interpretation(), str) and w.interpretation()


def test_parse_gives_the_constructors_reason():
    """Only a parameter that is no integer is unparseable; a label that
    parses but names no wall says why, as the constructor does."""
    with pytest.raises(ValueError, match="X_k requires k nonzero"):
        BimoduleLabel.parse("Xk:0", 3)
    for text in ("Xk:1", "T", "F0", "Fq:2"):
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            BimoduleLabel.parse(text, 4)
    for text in ("Xk:one", "Fq:", "Q"):
        with pytest.raises(ValueError, match="cannot parse wall label"):
            BimoduleLabel.parse(text, 3)
    assert BimoduleLabel.parse("Xk:4", 3) == wall(3, "X", 1)
