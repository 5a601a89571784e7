"""The Vec(Z/pZ) domain wall catalogue: labels, objects, actions, phases.

Five families of walls between a Z/p phase and itself: T, L, R, F_q (q in
Z/p, F_0 allowed) and X_k (k nonzero). Only F_q carries a nontrivial center
associator phase; left/right associators are gauged trivial throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import Cyc, CycField, is_prime, mod_inverse

STAR = "*"

_INTERPRETATIONS = {
    "T": "Condenses e on both sides",
    "L": "Condenses m on left and e on right",
    "R": "Condenses e on left and m on right",
    "F0": "Condenses m on both sides",
    "X": "X_k: e^a m^b -> e^(k a) m^(b/k)",
    "F": "F_q = F_1 X_q; F_1: e^a m^b -> e^b m^a",
}


@dataclass(frozen=True)
class BimoduleLabel:
    """A domain wall: kind in {T, L, R, F, X}, with k (X) or q (F) parameter."""

    kind: str
    param: int | None
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.kind in ("T", "L", "R"):
            if self.param is not None:
                raise ValueError(f"{self.kind} wall takes no parameter")
        elif self.kind == "F":
            object.__setattr__(self, "param", self.param % self.p)
        elif self.kind == "X":
            k = self.param % self.p
            if k == 0:
                raise ValueError("X_k requires k nonzero")
            object.__setattr__(self, "param", k)
        else:
            raise ValueError(f"unknown wall kind {self.kind!r}")

    @property
    def q(self) -> int:
        """Center-associator exponent: q for F_q, else 0."""
        return self.param if self.kind == "F" else 0

    def ekind(self) -> str:
        """Dispatch key: distinguishes F0 from F_{q!=0}."""
        if self.kind == "F":
            return "F0" if self.param == 0 else "F"
        return self.kind

    def invertible(self) -> bool:
        return self.kind == "X" or (self.kind == "F" and self.param != 0)

    def name(self) -> str:
        if self.kind in ("T", "L", "R"):
            return self.kind
        if self.kind == "F":
            return "F0" if self.param == 0 else f"Fq:{self.param}"
        return f"Xk:{self.param}"

    @staticmethod
    def parse(text: str, p: int) -> "BimoduleLabel":
        text = text.strip()
        if text in ("T", "L", "R"):
            return BimoduleLabel(text, None, p)
        if text == "F0":
            return BimoduleLabel("F", 0, p)
        for prefix, kind in (("Fq:", "F"), ("Xk:", "X"), ("F", "F"), ("X", "X")):
            if text.startswith(prefix):
                try:
                    param = int(text[len(prefix):])
                except ValueError:
                    break
                return BimoduleLabel(kind, param, p)
        raise ValueError(f"cannot parse wall label {text!r}")

    def simple_objects(self) -> list:
        if self.kind == "T":
            return [(a, b) for a in range(self.p) for b in range(self.p)]
        if self.kind == "F":
            return [STAR]
        return list(range(self.p))

    def left_act(self, g: int, obj):
        p = self.p
        g %= p
        if self.kind == "T":
            return ((obj[0] + g) % p, obj[1])
        if self.kind == "L":
            return obj
        if self.kind == "R":
            return (g + obj) % p
        if self.kind == "F":
            return STAR
        return (obj + g) % p  # X_k

    def right_act(self, obj, g: int):
        p = self.p
        g %= p
        if self.kind == "T":
            return (obj[0], (obj[1] + g) % p)
        if self.kind == "L":
            return (obj + g) % p
        if self.kind == "R":
            return obj
        if self.kind == "F":
            return STAR
        return (obj + self.param * g) % p  # X_k

    def associator_phase(self, g: int, h: int, obj, field: CycField) -> Cyc:
        """Center associator: omega^(q g h) on F_q, trivial elsewhere."""
        if self.kind == "F" and self.param:
            return field.omega_pow(self.param * g * h)
        return field.one

    def interpretation(self) -> str:
        """Physical reading of the wall (documentation only, never computed on)."""
        return _INTERPRETATIONS[self.ekind()]

    def __repr__(self):
        return f"<wall {self.name()} p={self.p}>"


def wall(p: int, kind: str, param: int | None = None) -> BimoduleLabel:
    return BimoduleLabel(kind, param, p)


def all_walls(p: int) -> list[BimoduleLabel]:
    """Every wall for the prime p, in canonical order (T, L, R, F0, X_k, F_q)."""
    out = [wall(p, "T"), wall(p, "L"), wall(p, "R"), wall(p, "F", 0)]
    out += [wall(p, "X", k) for k in range(1, p)]
    out += [wall(p, "F", q) for q in range(1, p)]
    return out


# wall_product's kind for every pair of kinds but those of two invertible
# walls, whose product takes its parameter from both.
_PRODUCTS = {
    ("T", "T"): "T", ("T", "L"): "T", ("T", "R"): "R", ("T", "F0"): "R",
    ("T", "X"): "T", ("T", "F"): "R",
    ("L", "T"): "L", ("L", "L"): "L", ("L", "R"): "F0", ("L", "F0"): "F0",
    ("L", "X"): "L", ("L", "F"): "F0",
    ("R", "T"): "T", ("R", "L"): "T", ("R", "R"): "R", ("R", "F0"): "R",
    ("R", "X"): "R", ("R", "F"): "T",
    ("F0", "T"): "L", ("F0", "L"): "L", ("F0", "R"): "F0", ("F0", "F0"): "F0",
    ("F0", "X"): "F0", ("F0", "F"): "L",
    ("X", "T"): "T", ("X", "L"): "L", ("X", "R"): "R", ("X", "F0"): "F0",
    ("F", "T"): "L", ("F", "L"): "T", ("F", "R"): "F0", ("F", "F0"): "R",
}


def wall_product(a: BimoduleLabel, b: BimoduleLabel) -> BimoduleLabel:
    """The unique wall appearing in a (x) b (multiplicity is a corner matter)."""
    if a.p != b.p:
        raise ValueError("mixed moduli")
    p = a.p
    ka, kb = a.ekind(), b.ekind()
    key = (ka, kb)
    out = _PRODUCTS.get(key)
    if out is not None:
        if out == "F0":
            return BimoduleLabel("F", 0, p)
        return BimoduleLabel(out, None, p)
    if key == ("X", "X"):
        return BimoduleLabel("X", a.param * b.param % p, p)
    if key == ("F", "F"):
        return BimoduleLabel("X", mod_inverse(a.param, p) * b.param % p, p)
    if key == ("X", "F"):
        return BimoduleLabel("F", mod_inverse(a.param, p) * b.param % p, p)
    # (F, X)
    return BimoduleLabel("F", a.param * b.param % p, p)


def simple_objects(label: BimoduleLabel) -> list:
    return label.simple_objects()


def left_act(label: BimoduleLabel, g: int, obj):
    if obj not in label.simple_objects():
        raise ValueError(f"object {obj!r} does not belong to wall {label.name()}")
    return label.left_act(g, obj)


def right_act(label: BimoduleLabel, obj, g: int):
    if obj not in label.simple_objects():
        raise ValueError(f"object {obj!r} does not belong to wall {label.name()}")
    return label.right_act(obj, g)


def associator_phase(label: BimoduleLabel, g: int, h: int, obj, field: CycField) -> Cyc:
    return label.associator_phase(g, h, obj, field)
