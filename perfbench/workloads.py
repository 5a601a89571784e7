"""The benchmark's four named workloads.

A workload turns a seed into a job: a list of calls into the library, each
with the canonical JSON it must produce. Expected outputs are worked out here
from the closed forms of acceptance criterion 2, from the golden associator
file read as plain JSON, and from the known Levin-Wen ground-space
dimensions; none of them comes from the code under test. The only recorded
datum is `corner_names.json`, the corner parameters each associator cell
carried at the commit that added this benchmark; it pins the layout of the
JSON output, which must stay byte-identical.

The library is imported lazily, inside functions, so that the set-up probe
can time `import annulus` itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = ROOT / "src" / "annulus" / "data" / "associator_table.json"
CORNER_NAMES_PATH = HERE / "corner_names.json"


def canonical(doc) -> str:
    """The byte form compared between runs and against expectations."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Call:
    """One public library call; `run` returns its JSON output."""

    key: str
    run: Callable[[], object]
    expected: str  # canonical JSON the call must return


def _inv(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


# --------------------------------------------------------------------------
# Walls, named as the CLI names them, and their golden-table kinds
# --------------------------------------------------------------------------


def wall_names(p: int) -> list[str]:
    """Every wall for p, in the library's table order."""
    return (["T", "L", "R", "F0"] + [f"Xk:{k}" for k in range(1, p)]
            + [f"Fq:{q}" for q in range(1, p)])


def _kind_and_param(name: str):
    if name in ("T", "L", "R", "F0"):
        return name, None
    kind, _, param = name.partition(":")
    return kind[0], int(param)


class Golden:
    """Expected associator outputs, from data/associator_table.json."""

    def __init__(self):
        self.cells = json.loads(GOLDEN_PATH.read_text())["cells"]
        self.corner_names = json.loads(CORNER_NAMES_PATH.read_text())

    def cell(self, walls):
        key = "|".join(_kind_and_param(w)[0] for w in walls)
        return self.corner_names[key], self.cells[key]

    def trivial_defect(self, walls, p: int) -> str:
        """Name of the trivial defect on the product wall of the cell."""
        _, cell = self.cell(walls)
        spec = cell["defect"]
        fixed = {"TT": "TT(a=0,b=0)", "LL": "LL(a=0,x=0)",
                 "RR": "RR(a=0,x=0)", "F0F0": "F0F0(x=0,y=0)"}
        if spec in fixed:
            return fixed[spec]
        _, kind, expr = spec.split(":")
        tokens = dict(zip(("a", "n", "pz"),
                          (_kind_and_param(w)[1] for w in walls)))
        value = 1
        for factor in expr.split("*"):
            if factor.startswith("inv("):
                value *= _inv(tokens[factor[4:-1]], p)
            else:
                value *= tokens[factor]
        value %= p
        return (f"XkXk(a=0,x=0;k={value})" if kind == "X"
                else f"FqFq(x=0,y=0;q={value})")

    def deltas(self, walls, p: int):
        """Golden corner deltas as (mu, nu, c): mu = c * nu mod p."""
        _, cell = self.cell(walls)
        n = _kind_and_param(walls[1])[1]

        def value(c):
            return 1 if c == "1" else n if c == "n" else _inv(n, p)

        return [(mu, nu, value(c)) for mu, nu, c in cell["deltas"]]


def _holds(deltas, names, values, p):
    """Which golden deltas an assignment satisfies, in delta order."""
    at = dict(zip(names, values))
    return tuple(at[mu] == c * at[nu] % p for mu, nu, c in deltas)


def _fusion_doc(kind, p, inputs, names, outcomes, constraints=None):
    """FusionResult.to_json() of the expected result."""
    return {"kind": kind, "p": p, "inputs": list(inputs),
            "corner_names": list(names),
            "outcomes": [{"corners": list(t), "defects": d}
                         for t, d in outcomes],
            "constraints": constraints}


@dataclass
class Context:
    """What every call of a job shares."""

    golden: Golden  # expected answers
    table: dict  # the library's own golden table, for its golden check


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Context], list[Call]]
    warmup: Callable[[Context], Call]


# --------------------------------------------------------------------------
# horizontal-p5: one cavity with grades up to p^2; quotient-bound
# --------------------------------------------------------------------------

HORIZONTAL_P = 5
FQR_PER_Q = 6  # with every XkXl x F0R and F0Fr x TFr pair: 100 calls


def _horizontal_call(a: str, b: str, names, outcomes) -> Call:
    import annulus

    p = HORIZONTAL_P

    def run():
        return annulus.horizontal_fuse(annulus.parse_defect(a, p),
                                       annulus.parse_defect(b, p)).to_json()

    doc = _fusion_doc("horizontal", p, [a, b], names, outcomes)
    return Call(f"{a}*{b}", run, canonical(doc))


def _fqr_ll_call(x: int, q: int, c: int, z: int) -> Call:
    """FqR(x) x LL(c, z) = TT(q^-1 (x + z - nu), c) at top corner nu."""
    p = HORIZONTAL_P
    outcomes = [([nu], [[f"TT(a={_inv(q, p) * (x + z - nu) % p},b={c})", 1]])
                for nu in range(p)]
    return _horizontal_call(f"FqR(x={x};q={q})", f"LL(a={c},x={z})",
                            ["top"], outcomes)


def horizontal_p5(rng: random.Random, ctx: Context) -> list[Call]:
    """Criterion 2 at p=5: a sample of FqR x LL, stratified by q so that
    every seed does the same mix of work, plus every XkXl x F0R and
    F0Fr x TFr pair."""
    p = HORIZONTAL_P
    grid = list(itertools.product(range(p), repeat=3))
    calls = [_fqr_ll_call(x, q, c, z)
             for q in range(1, p) for x, c, z in rng.sample(grid, FQR_PER_Q)]
    for k, l in itertools.permutations(range(1, p), 2):
        for z in range(p):
            calls.append(_horizontal_call(
                f"XkXl(;k={k},l={l})", f"F0R(x={z})", [],
                [([], [[f"F0R(x={z})", p]])]))
    for r in range(1, p):
        for t in range(1, p):
            calls.append(_horizontal_call(
                f"F0Fr(;r={r})", f"TFr(;r={t})", [],
                [([], [[f"LXl(;l={_inv(r, p) * t % p})", p]])]))
    rng.shuffle(calls)
    return calls


# --------------------------------------------------------------------------
# associator-p3-table: many small structures; decomposition and quotient
# --------------------------------------------------------------------------


def _table_cell_call(walls, p: int, ctx: Context) -> Call:
    """One cell over its whole corner grid, with the library's golden check."""
    import annulus
    from annulus import fusion

    names, _ = ctx.golden.cell(walls)
    deltas = ctx.golden.deltas(walls, p)
    trivial = ctx.golden.trivial_defect(walls, p)
    outcomes = [(t, [[trivial, 1]] if all(_holds(deltas, names, t, p)) else [])
                for t in itertools.product(range(p), repeat=len(names))]
    doc = _fusion_doc("associator", p, walls, names, outcomes,
                      [[mu, nu, c] for mu, nu, c in deltas])

    def run():
        result = fusion.associator(
            *(annulus.BimoduleLabel.parse(w, p) for w in walls))
        fusion.check_associator_against_golden(result, ctx.table)
        return result.to_json()

    return Call("[" + ",".join(walls) + "]", run, canonical(doc))


def associator_p3_table(rng: random.Random, ctx: Context) -> list[Call]:
    """The whole p=3 table with the golden check, the work of
    `annulus associator -p 3 --table --golden`; the seed shuffles the order
    of the 512 cells."""
    walls = wall_names(3)
    calls = [_table_cell_call(cell, 3, ctx)
             for cell in itertools.product(walls, repeat=3)]
    rng.shuffle(calls)
    return calls


# --------------------------------------------------------------------------
# associator-p5-corners: single corner assignments; enumeration-bound
# --------------------------------------------------------------------------

CORNERS_P = 5
# Calls per cell by which of its two golden deltas hold, in the proportions
# of the full 5^4 grid: 1 in 25 assignments is on the support.
CORNER_STRATA = {(True, True): 1, (False, True): 4, (True, False): 4,
                 (False, False): 16}
# Copies of those 25 calls per cell. [T,T,T], whose enumeration takes a
# minute over the full grid, gets three, which puts the p90 call in the
# middle of its 48 off-support calls; the three cheapest cells get two,
# which puts the p50 call in the middle of the 4-5 ms cells rather than at
# the edge of a jump in cost.
CORNER_CELL_WEIGHT = {("T", "T", "T"): 3, ("T", "R", "F0"): 2,
                      ("R", "L", "R"): 2, ("F0", "L", "T"): 2}


def _four_corner_cells(golden: Golden):
    cells = [cell for cell in itertools.product(["T", "L", "R", "F0"], repeat=3)
             if len(golden.cell(cell)[0]) == 4]
    for cell in cells:
        if len(golden.deltas(cell, CORNERS_P)) != 2:
            raise ValueError(f"cell {cell} does not have two golden deltas")
    return cells


def _corner_call(walls, values, ctx: Context) -> Call:
    import annulus
    from annulus import fusion

    p = CORNERS_P
    names, _ = ctx.golden.cell(walls)
    on_support = all(_holds(ctx.golden.deltas(walls, p), names, values, p))
    defects = [[ctx.golden.trivial_defect(walls, p), 1]] if on_support else []
    doc = _fusion_doc("associator", p, walls, names, [(values, defects)])
    corners = dict(zip(names, values))

    def run():
        return fusion.associator(
            *(annulus.BimoduleLabel.parse(w, p) for w in walls),
            corners=corners).to_json()

    key = "[" + ",".join(walls) + "]" + str(list(values))
    return Call(key, run, canonical(doc))


def associator_p5_corners(rng: random.Random, ctx: Context) -> list[Call]:
    """25 corner assignments, times CORNER_CELL_WEIGHT, for each of the 16
    four-corner p=5 cells, drawn per stratum of CORNER_STRATA and shuffled
    across cells, so that a per-cell cache finds little reuse."""
    p = CORNERS_P
    calls = []
    for walls in _four_corner_cells(ctx.golden):
        names, _ = ctx.golden.cell(walls)
        deltas = ctx.golden.deltas(walls, p)
        for stratum, count in CORNER_STRATA.items():
            drawn = 0
            while drawn < count * CORNER_CELL_WEIGHT.get(walls, 1):
                values = tuple(rng.randrange(p) for _ in names)
                if _holds(deltas, names, values, p) == stratum:
                    calls.append(_corner_call(walls, values, ctx))
                    drawn += 1
    rng.shuffle(calls)
    return calls


# --------------------------------------------------------------------------
# lattice-chain: the Levin-Wen chain; the engine is idle
# --------------------------------------------------------------------------

# (p, hexagons, pinned) -> copies per job; 197 calls, about 18 s. The
# copies put the p50 call in the middle of the 72 p=2 four-hexagon chains and
# the p90 call in the middle of the 24 p=5 defect lines: each is a run of
# equal patches whose neighbours in cost differ by 25% or more, so that
# timing noise does not move either percentile from one kind of patch to
# another. The five costliest patches, one or two copies each, are kept to
# a quarter of the job, because the time of a call that lasts seconds is
# the one the speed probes correct least well.
LATTICE_CHAINS = {
    (2, 1, True): 8, (2, 2, True): 8, (2, 3, True): 6, (2, 4, True): 72,
    (3, 1, True): 8, (3, 2, True): 6, (3, 3, True): 16, (3, 4, True): 1,
    (5, 1, True): 8, (5, 2, True): 16, (5, 3, True): 1,
    (2, 1, False): 6, (2, 2, False): 2, (3, 1, False): 1,
}
LATTICE_DEFECT_LINES = {2: 8, 3: 6, 5: 24}


def _chain_call(p: int, n: int, pinned: bool) -> Call:
    from annulus import levinwen

    key = f"chain(p={p},n={n},{'pinned' if pinned else 'free'})"

    def run():
        patch = levinwen.hexagon_chain_patch(p, n, pin=pinned)
        return _lattice_doc(key, patch)

    # A pinned chain has a unique ground state; with its 2n + 4 dangling
    # edges free the ground space has dimension p^(2n+3).
    dim = 1 if pinned else p ** (2 * n + 3)
    return Call(key, run, canonical(_expected_lattice_doc(key, n, n - 1, dim)))


def _defect_line_call(p: int) -> Call:
    from annulus import levinwen

    key = f"defect_line(p={p})"

    def run():
        return _lattice_doc(key, levinwen.defect_line_patch(p))

    return Call(key, run, canonical(_expected_lattice_doc(key, 2, 1, 1)))


def _lattice_doc(key: str, patch) -> dict:
    commutation = patch.check_commutation()
    return {"patch": key, "dim": patch.ground_space_dim(),
            "commutation": commutation}


def _expected_lattice_doc(key, faces, face_pairs, dim) -> dict:
    return {"patch": key, "dim": dim,
            "commutation": {"faces": faces, "face_pairs": face_pairs,
                            "ok": True}}


def lattice_chain(rng: random.Random, ctx: Context) -> list[Call]:
    """Fresh hexagon chains and defect-line patches, each checked for
    commuting terms and its ground-space dimension; the seed shuffles the
    order."""
    calls = [_chain_call(*args)
             for args, copies in LATTICE_CHAINS.items() for _ in range(copies)]
    calls += [_defect_line_call(p)
              for p, copies in LATTICE_DEFECT_LINES.items()
              for _ in range(copies)]
    rng.shuffle(calls)
    return calls


WORKLOADS = {w.name: w for w in (
    Workload("horizontal-p5", horizontal_p5,
             lambda ctx: _fqr_ll_call(0, 1, 0, 0)),
    Workload("associator-p3-table", associator_p3_table,
             lambda ctx: _table_cell_call(("R", "F0", "L"), 3, ctx)),
    Workload("associator-p5-corners", associator_p5_corners,
             lambda ctx: _corner_call(("T", "T", "T"), (0, 1, 2, 3), ctx)),
    Workload("lattice-chain", lattice_chain,
             lambda ctx: _chain_call(3, 2, True)),
)}
