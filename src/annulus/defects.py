"""Point defect labels on 2-string annuli and their indecomposable idempotents.

A defect label names an irreducible representation of the annular category of
a wall pair: the family is determined by the pair's kinds, the parameters by
the tabulated classification. `idempotent` returns the exact formal sum of
annular generators that projects onto that representation; `phase_terms`
gives the same sum with each coefficient as exponents, p^-j zeta_N^e.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .reps import BIVALENT, BivalentRep, _Walls, _biv_key, _norm
from .scalars import CycField, root_order
from .walls import BimoduleLabel

_LOWER_PIECES = {"T": "T", "L": "L", "R": "R", "F0": "F0", "F": "Fq", "X": "Xk"}
_UPPER_PIECES = {"T": "T", "L": "L", "R": "R", "F0": "F0", "F": "Fr", "X": "Xl"}


@dataclass(frozen=True)
class DefectLabel:
    """An irreducible point defect at the interface of (lower, upper) walls."""

    lower: BimoduleLabel
    upper: BimoduleLabel
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.lower.p != self.upper.p:
            raise ValueError("mixed moduli")
        entry = BIVALENT.get(_biv_key(self.lower, self.upper))
        if entry is None:
            raise ValueError(
                f"no defect family on pair ({self.lower.name()}, {self.upper.name()})")
        names = entry["params"]
        if len(self.params) != len(names):
            raise ValueError(
                f"{self.family_name()} takes parameters {names}, got {self.params}")
        object.__setattr__(
            self, "params", tuple(x % self.lower.p for x in self.params))

    @property
    def p(self) -> int:
        return self.lower.p

    def entry(self):
        return BIVALENT[_biv_key(self.lower, self.upper)]

    def param_names(self) -> tuple[str, ...]:
        return self.entry()["params"]

    def family_name(self) -> str:
        kl, ku = self.lower.ekind(), self.upper.ekind()
        if kl == "X" and ku == "X":
            return "XkXk" if self.lower.param == self.upper.param else "XkXl"
        if kl == "F" and ku == "F":
            return "FqFq" if self.lower.param == self.upper.param else "FqFr"
        return _LOWER_PIECES[kl] + _UPPER_PIECES[ku]

    def name(self) -> str:
        """Canonical label text, e.g. 'RFr(x=1;r=2)' or 'TT(a=0,b=1)'."""
        inner = ",".join(
            f"{n}={v}" for n, v in zip(self.param_names(), self.params))
        wp = self._wall_params()
        if wp:
            inner += ";" + ",".join(f"{n}={v}" for n, v in wp)
        return f"{self.family_name()}({inner})"

    def _wall_params(self):
        fam = self.family_name()
        out = []
        if fam in ("XkXk", "FqFq"):
            sym = "k" if fam == "XkXk" else "q"
            out.append((sym, self.lower.param))
            return out
        if self.lower.ekind() == "X":
            out.append(("k", self.lower.param))
        elif self.lower.ekind() == "F":
            out.append(("q", self.lower.param))
        if self.upper.ekind() == "X":
            out.append(("l", self.upper.param))
        elif self.upper.ekind() == "F":
            out.append(("r", self.upper.param))
        return out

    def rep(self) -> BivalentRep:
        return BivalentRep(self)

    def source_object(self):
        entry = self.entry()
        w = _Walls(self.p, self.lower, self.upper)
        lo, up = entry["src"](dict(zip(entry["params"], self.params)), w)
        return (_norm(self.p, lo), _norm(self.p, up))

    def grade_dims(self) -> dict:
        """dim V_(m,n) for every object pair with a nonzero space."""
        rep = self.rep()
        dims: dict = {}
        for vec in rep.basis():
            lab = rep.edge_labels(vec)
            key = (lab["lower"], lab["upper"])
            dims[key] = dims.get(key, 0) + 1
        return dims

    def total_dim(self) -> int:
        return len(self.rep().basis())

    def __repr__(self):
        return f"<defect {self.name()} p={self.p}>"


@dataclass(frozen=True)
class IdempotentExpr:
    """Formal sum of annular generators at a fixed source object. Its terms
    are d's `phase_terms` in order, each coefficient p^-j zeta_N^e made a
    field element."""

    defect: DefectLabel
    source: tuple
    terms: tuple  # ((Cyc coefficient, (g, h)), ...)


@functools.cache
def phase_terms(d: DefectLabel) -> tuple:
    """d's idempotent as ((j, e, g, h), ...), the sum of the terms
    p^-j zeta_N^e gen(g, h), with e in Z/N and g, h in Z/p. A frozen label
    fixes them, so they are built once per process."""
    entry = d.entry()
    w = _Walls(d.p, d.lower, d.upper)
    prm = dict(zip(entry["params"], d.params))
    n = root_order(d.p)
    return tuple((j, e % n, g % d.p, h % d.p)
                 for (j, e), (g, h) in entry["idem"](prm, w))


def idempotent(d: DefectLabel, field: CycField) -> IdempotentExpr:
    terms = tuple((field.root_pow(e) * Fraction(1, d.p ** j), (g, h))
                  for j, e, g, h in phase_terms(d))
    return IdempotentExpr(d, d.source_object(), terms)


def enumerate_defects(lower: BimoduleLabel, upper: BimoduleLabel) -> list[DefectLabel]:
    """Every irreducible defect on the pair, parameters in lexicographic order."""
    n = len(BIVALENT[_biv_key(lower, upper)]["params"])
    return [DefectLabel(lower, upper, params)
            for params in itertools.product(range(lower.p), repeat=n)]


def parse_defect(text: str, p: int) -> DefectLabel:
    label, corners = parse_annotated_defect(text, p)
    if corners:
        raise ValueError(f"unexpected corner annotation in {text!r}")
    return label


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got "
                         f"{text.strip()!r}") from None


def _named_ints(pieces, what: str) -> dict:
    """{name: integer} of the "name=value" `pieces`, each a `what`
    (parameter, wall parameter or corner): a name given twice, an empty
    one or a value that is no integer is a ValueError naming it."""
    values = {}
    for piece in pieces:
        k, _, v = piece.partition("=")
        k = k.strip()
        if not k:
            raise ValueError(f"bad {what} assignment {piece!r}")
        if k in values:
            raise ValueError(f"{what} {k} named twice")
        values[k] = _int(v, f"{what} {k}")
    return values


def _pieces(text: str) -> list:
    return [s for s in (s.strip() for s in text.split(",")) if s]


def parse_annotated_defect(text: str, p: int):
    """Parse 'NAME(params;wallparams)[corners]' -> (DefectLabel, corners dict)."""
    text = text.strip()
    corners = {}
    if text.endswith("]"):
        base, _, ann = text.partition("[")
        corners = {k: v % p
                   for k, v in _named_ints(_pieces(ann[:-1]), "corner").items()}
        text = base.strip()
    if text.endswith(")"):
        name, _, rest = text.partition("(")
        rest = rest[:-1]
    else:
        name, rest = text, ""
    name = name.strip()
    pieces = []
    i = 0
    while i < len(name):
        for cand in ("F0", "Fq", "Fr", "Xk", "Xl", "T", "L", "R"):
            if name.startswith(cand, i):
                pieces.append(cand)
                i += len(cand)
                break
        else:
            raise ValueError(f"cannot parse defect family in {text!r}")
    if len(pieces) != 2:
        raise ValueError(f"defect name {name!r} must name a wall pair")
    par_part, _, wall_part = rest.partition(";")
    wall_params = _named_ints(_pieces(wall_part), "wall parameter")

    def build_wall(piece):
        if piece in ("T", "L", "R"):
            return BimoduleLabel(piece, None, p)
        if piece == "F0":
            return BimoduleLabel("F", 0, p)
        sym = {"Fq": "q", "Fr": "r", "Xk": "k", "Xl": "l"}[piece]
        if name in ("XkXk", "FqFq"):
            sym = "k" if piece in ("Xk", "Xl") else "q"
        if sym not in wall_params:
            raise ValueError(f"{text!r}: missing wall parameter {sym!r}")
        kind = "F" if piece in ("Fq", "Fr") else "X"
        value = wall_params[sym]
        if kind == "F" and value % p == 0:
            raise ValueError(f"{text!r}: {piece} requires a nonzero parameter")
        return BimoduleLabel(kind, value, p)

    lower = build_wall(pieces[0])
    upper = build_wall(pieces[1])
    allowed = {"Fq": "q", "Fr": "r", "Xk": "k", "Xl": "l"}
    used = {allowed[piece] for piece in pieces if piece in allowed}
    if set(wall_params) - used:
        raise ValueError(
            f"{text!r}: unexpected wall parameters {sorted(set(wall_params) - used)}")
    if name == "XkXl" and lower.param == upper.param:
        raise ValueError("XkXl requires distinct k, l")
    if name == "FqFr" and lower.param == upper.param:
        raise ValueError("FqFr requires distinct q, r")
    entry = BIVALENT[_biv_key(lower, upper)]
    pnames = entry["params"]
    pieces = _pieces(par_part)
    values = _named_ints([s for s in pieces if "=" in s], "parameter")
    positional = [_int(s, f"parameter {i + 1}")
                  for i, s in enumerate(pieces) if "=" not in s]
    if positional and values:
        raise ValueError(f"{text!r}: mix of positional and keyword parameters")
    if positional:
        if len(positional) != len(pnames):
            raise ValueError(f"{text!r}: expected parameters {pnames}")
        params = tuple(positional)
    elif set(values) == set(pnames):
        params = tuple(values[n] for n in pnames)
    elif len(values) == len(pnames) == 1:
        # single-parameter families accept any letter, e.g. FrR(z=3;r=2)
        params = (next(iter(values.values())),)
    else:
        raise ValueError(f"{text!r}: expected parameters {pnames}")
    return DefectLabel(lower, upper, params), corners


def trivial_defect(wall: BimoduleLabel) -> DefectLabel:
    """The vertical-fusion identity defect on a wall (all name parameters 0)."""
    entry = BIVALENT[_biv_key(wall, wall)]
    return DefectLabel(wall, wall, (0,) * len(entry["params"]))
