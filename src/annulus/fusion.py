"""High-level drivers: vertical/horizontal defect fusion and wall associators.

Corner parameters (one per F-type corner of the underlying trivalent
vertices) are named by the compound's builder (`CompoundDefect.corner_names`,
in vertex order), which also refuses given values that do not name exactly
those corners. Left unknowns of the compound's one basis solve, they are
the quotient's corners in the same order: every driver builds one compound
and one quotient per call (`_fuse`), and reads every corner assignment off
it, listing those outside the quotient's support as empty without any work
for them; given corner values build the compound at that point.
Associator results are additionally compressed to exact delta constraints
and diffed against the golden table shipped in data/associator_table.json.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from importlib import resources

from .defects import DefectLabel, enumerate_defects, trivial_defect
from .engine import QuotientRep, decompose
from .scalars import mod_inverse
from .structures import (
    CornerError, associator_compound, horizontal_compound, vertical_compound,
)
from .walls import BimoduleLabel, all_walls, wall_product


@dataclass(frozen=True)
class FusionResult:
    """Decomposition of a fusion/associator, per corner-parameter assignment.

    outcomes maps each assignment (tuple aligned with corner_names) to a
    sorted tuple of (defect name, multiplicity); constraints, when present,
    are (mu_name, nu_name, coeff) with the exact meaning mu = coeff * nu.
    """

    kind: str
    p: int
    inputs: tuple[str, ...]
    corner_names: tuple[str, ...]
    outcomes: tuple  # ((corner values), ((defect name, mult), ...)), sorted
    constraints: tuple | None = None

    def outcome_map(self) -> dict:
        return {corners: dict(out) for corners, out in self.outcomes}

    def single(self) -> dict:
        """The decomposition when there are no corner parameters."""
        if self.corner_names:
            raise ValueError("result is parameterized by corners")
        return dict(self.outcomes[0][1])

    def support(self) -> set:
        return {corners for corners, out in self.outcomes if out}

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "p": self.p,
            "inputs": list(self.inputs),
            "corner_names": list(self.corner_names),
            "outcomes": [
                {"corners": list(corners),
                 "defects": [[name, mult] for name, mult in out]}
                for corners, out in self.outcomes
            ],
            "constraints": (
                None if self.constraints is None
                else [[m, n, c] for m, n, c in self.constraints]),
        }

    @staticmethod
    def from_json(doc: dict) -> "FusionResult":
        return FusionResult(
            kind=doc["kind"],
            p=doc["p"],
            inputs=tuple(doc["inputs"]),
            corner_names=tuple(doc["corner_names"]),
            outcomes=tuple(
                (tuple(o["corners"]),
                 tuple((name, mult) for name, mult in o["defects"]))
                for o in doc["outcomes"]),
            constraints=(
                None if doc.get("constraints") is None
                else tuple((m, n, c) for m, n, c in doc["constraints"])),
        )


def _decomposition(qr, mu=()) -> tuple:
    out = decompose(qr, mu)
    return tuple(sorted((d.name(), mult) for d, mult in out))


def vertical_fuse(d1: DefectLabel, d2: DefectLabel) -> FusionResult:
    """Stack d1 below d2 and decompose (no corner parameters arise)."""
    return _fuse("vertical", vertical_compound(d1, d2), (d1, d2))


def horizontal_fuse(d1: DefectLabel, d2: DefectLabel,
                    corners: dict | None = None) -> FusionResult:
    """Fuse side by side, at the corner values given, or at every corner
    assignment (`_fuse`)."""
    return _fuse("horizontal", horizontal_compound(d1, d2, corners),
                 (d1, d2), corners)


def associator(m: BimoduleLabel, n: BimoduleLabel, pw: BimoduleLabel,
               corners: dict | None = None) -> FusionResult:
    """The compound defect of the [M,N,P] triangle, at the corner values
    given, or at every corner assignment (`_fuse`) with delta
    compression."""
    result = _fuse("associator", associator_compound(m, n, pw, corners),
                   (m, n, pw), corners)
    if corners is not None:
        return result
    return replace(result, constraints=infer_delta_constraints(
        result.corner_names, result.outcomes, result.p))


def _fuse(kind: str, cd, inputs, corners=None) -> FusionResult:
    """The result of the compound cd, built at the given `corners`: one
    decomposition at that point; or built with none, its corners unknowns:
    its one quotient (`QuotientRep`) read at every assignment of
    `cd.corner_names`, which are the quotient's corners in its order. An
    assignment outside the quotient's support has an empty decomposition,
    and nothing is computed for it."""
    names, p = cd.corner_names, cd.p
    qr = QuotientRep(cd)
    if corners is not None:
        point = tuple(corners[nm] % p for nm in names)
        outcomes = ((point, _decomposition(qr)),)
    else:
        support = qr.support()
        outcomes = tuple(
            (t, _decomposition(qr, t) if t in support else ())
            for t in itertools.product(range(p), repeat=len(names)))
    return FusionResult(kind, p, tuple(x.name() for x in inputs), names,
                        outcomes)


def infer_delta_constraints(names, outcomes, p):
    """Exact constraint summary of the support set, or None if no conjunction
    of pairwise mu = c*nu deltas reproduces it."""
    support = {corners for corners, out in outcomes if out}
    mus = [i for i, nm in enumerate(names) if nm.startswith("mu")]
    nus = [i for i, nm in enumerate(names) if nm.startswith("nu")]
    full = {t for t, _ in outcomes}
    kept = []
    for i in mus:
        for j in nus:
            for c in range(p):
                if all(t[i] == (c * t[j]) % p for t in support):
                    kept.append((i, j, c))
                    break  # at most one coefficient can work unless support is thin
    chosen = []
    defined = set(full)
    for (i, j, c) in kept:
        narrowed = {t for t in defined if t[i] == (c * t[j]) % p}
        if narrowed != defined:
            chosen.append((i, j, c))
            defined = narrowed
        if defined == support:
            break
    if defined != support:
        return None
    return tuple((names[i], names[j], c) for i, j, c in chosen)


# --------------------------------------------------------------------------
# Tables and golden comparison
# --------------------------------------------------------------------------


def load_golden_associators() -> dict:
    text = resources.files("annulus.data").joinpath(
        "associator_table.json").read_text()
    return json.loads(text)


def _eval_wall_param(expr: str, a, n, pz, p) -> int:
    """Evaluate a wall-parameter formula over tokens a, n, pz and inv()."""
    value = 1
    for factor in expr.split("*"):
        factor = factor.strip()
        invert = factor.startswith("inv(")
        if invert:
            factor = factor[4:].rstrip(")")
        token = {"a": a, "n": n, "pz": pz}.get(factor)
        if token is None:
            raise ValueError(f"bad token {factor!r} in {expr!r}")
        value = value * (mod_inverse(token, p) if invert else token) % p
    return value


def _expected_cell(golden, m, n, pw):
    """Expected (trivial defect, delta list) for concrete walls from golden data."""
    p = m.p
    key = "|".join((m.ekind(), n.ekind(), pw.ekind()))
    cells = golden.get("cells") if isinstance(golden, dict) else None
    if not isinstance(cells, dict) or not cells:
        raise ValueError("the golden document has no cells")
    cell = cells.get(key)
    if cell is None:
        raise AssertionError(f"[{m.name()},{n.name()},{pw.name()}]: "
                             f"no golden cell {key}")
    spec = cell["defect"]
    w4 = wall_product(wall_product(m, n), pw)
    if spec.startswith("wall:"):
        _, kind, expr = spec.split(":")
        expected_param = _eval_wall_param(expr, m.param, n.param, pw.param, p)
        if w4.kind != kind or w4.param != expected_param:
            raise AssertionError(
                f"[{m.name()},{n.name()},{pw.name()}]: product wall "
                f"{w4.name()} != golden {kind}:{expected_param}")
    else:
        names = {"TT": "T", "LL": "L", "RR": "R", "F0F0": "F0"}
        if w4.ekind() != names[spec]:
            raise AssertionError(
                f"[{m.name()},{n.name()},{pw.name()}]: product wall "
                f"{w4.name()} != golden {spec}")
    deltas = [(mu, nu, coeff) for mu, nu, coeff in cell["deltas"]]
    return trivial_defect(w4), deltas


def _expected_support(names, deltas, n_param, p):
    idx = {nm: i for i, nm in enumerate(names)}
    support = set()
    for t in itertools.product(range(p), repeat=len(names)):
        ok = True
        for mu, nu, coeff in deltas:
            c = 1 if coeff == "1" else (
                n_param if coeff == "n" else mod_inverse(n_param, p))
            if t[idx[mu]] != (c * t[idx[nu]]) % p:
                ok = False
                break
        if ok:
            support.add(t)
    return support


def check_associator_against_golden(result: FusionResult, golden=None) -> None:
    """Exact cell comparison against `golden` (the built-in table if None);
    raises AssertionError on any mismatch, a cell missing from the document
    included, and ValueError if the document has no cells."""
    if golden is None:
        golden = load_golden_associators()
    p = result.p
    m, n, pw = (BimoduleLabel.parse(t, p) for t in result.inputs)
    expected_defect, deltas = _expected_cell(golden, m, n, pw)
    delta_names = {nm for d in deltas for nm in d[:2]}
    if not delta_names <= set(result.corner_names):
        raise AssertionError(
            f"[{m.name()},{n.name()},{pw.name()}]: golden deltas use corners "
            f"{sorted(delta_names)} but the structure has {result.corner_names}")
    want_support = _expected_support(result.corner_names, deltas, n.param, p)
    got = result.outcome_map()
    for corners, out in got.items():
        if corners in want_support:
            if out != {expected_defect.name(): 1}:
                raise AssertionError(
                    f"[{m.name()},{n.name()},{pw.name()}] at {corners}: got "
                    f"{out}, want trivial {expected_defect.name()}")
        elif out:
            raise AssertionError(
                f"[{m.name()},{n.name()},{pw.name()}] at {corners}: expected "
                f"zero, got {out}")


def generate_table(kind: str, p: int) -> dict:
    """Machine-readable fusion/associator table with deterministic ordering.
    An associator table says "golden_checked": false; the CLI diffs it
    against a golden table afterwards."""
    if kind == "associator":
        return _associator_table(p)
    if kind == "vertical":
        return _vertical_table(p)
    if kind == "horizontal":
        return _horizontal_table(p)
    raise ValueError(f"unknown table kind {kind!r}")


def _associator_table(p: int) -> dict:
    walls = all_walls(p)
    entries = [associator(m, n, pw).to_json()
               for m in walls for n in walls for pw in walls]
    return {"kind": "associator", "p": p, "entries": entries,
            "golden_checked": False}


def _vertical_table(p: int) -> dict:
    entries = []
    walls = all_walls(p)
    for a in walls:
        for b in walls:
            lowers = enumerate_defects(a, b)
            for c in walls:
                uppers = enumerate_defects(b, c)
                for d1 in lowers:
                    for d2 in uppers:
                        entries.append(vertical_fuse(d1, d2).to_json())
    return {"kind": "vertical", "p": p, "entries": entries}


def _horizontal_table(p: int) -> dict:
    entries = []
    walls = all_walls(p)
    pairs = []
    for a in walls:
        for b in walls:
            pairs.extend(enumerate_defects(a, b))
    for d1 in pairs:
        for d2 in pairs:
            entries.append(horizontal_fuse(d1, d2).to_json())
    return {"kind": "horizontal", "p": p, "entries": entries}

