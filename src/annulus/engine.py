"""The domain wall structure algorithm.

Pipeline: solve for the compound basis (consistent edge labelings), grade it
by the external labels, and let the bubbles of the internal cavities
generate a group G = (Z/p)^C acting monomially on it (one basis vector to a
root of unity times one basis vector). A phase is held as its exponent e in
Z/N of zeta_N from the rep tables to the trace: a rep's `act` returns e, a
loop's exponent is the sum over its vertices, and only `root_sum`,
`root_pow` and the matrix references make field elements. Every rep's edge
labels are affine in its free labels, so the consistent labelings, of a
compound or of a Levin-Wen patch with pins, are the solutions of linear
equations over F_p, solved as x = x0 + B f over the free variables f
(`enumerate_basis`); state i is the f whose base-p digits spell i, and no
state is listed. A corner parameter may be left an unknown
(`reps.VARIABLE`): the tabulated labels and phases are affine in the
corner mu too, and no translation reads it, so the corners join the free
labels in the same solve, numbered below every label, and the rows left
with only corners in them are the corner values that have a labeling. The
forms below are then read on z = (f, mu), and one quotient serves every
corner assignment: an assignment only picks the points it has among the
admissible states. Every vertex action translates the free labels with a phase
affine in them, and each is read once, on symbols, as a translation t and a
phase form L.x + c (`_affine_action`). Composed with B, a loop (a bubble
through its cavity's corners, a boundary generator or a lattice face)
translates f digit by digit with a phase affine in f (`SolvedBasis.loop`),
and a stub label is an affine form in f, which grades the states. The group
laws are decided on the forms: a bubble generates a strict Z/p action when
Bub_u = Bub_1^u (`_strict_cyclic`), which holds when each vertex's own
actions obey that law, decided once per rep key and args, since a loop's
form is the sum of its vertices'; only otherwise are the powers compared
in the solved coordinates. Two loops commute up to the phase
L_a.t_b - L_b.t_a (`_bracket`), summed over the vertices for lattice faces
(`_commutator`). A Levin-Wen patch's ground space is the `QuotientRep` of
its compound, its pinned dangling edges the pins and its faces the
cavities. The product of the cavity symmetrizers averages over G, so the
quotient has one orbit sum per orbit whose stabilizer acts trivially (an
admissible orbit), and a grade's dimension is its number of admissible
orbits. Boundary generators commute with G and map orbit sums to roots of
unity times orbit sums, so a generator's trace (character) on a grade is
m zeta_N^k when it fixes all m of the grade's orbit sums with one phase
zeta_N^k, and 0 otherwise: then it fixes none, or its phase takes each of
its p values on as many orbit sums. All of it is counted by linear algebra
over F_p on the forms, by the elimination that solved the basis (`_add_row`,
read by `_solve`), with no state listed and no orbit walked: G's stabilizer
is the kernel of its translations, the states where it acts trivially form
an affine subspace, every grade it reaches has the same number of
admissible orbits, and a character's exponent is an affine form on them
(see `QuotientRep`). The multiplicity of a candidate defect is the trace
of its idempotent on the quotient. Every idempotent coefficient is
p^-j zeta_N^e (`defects.phase_terms`), so p^J times that trace, J the
largest j, is an integer coefficient per exponent in Z/N, one added per
term, read as an integer with no field element (`rational_trace`).
`apply_idempotent` gives an idempotent as an exact matrix on the orbit
sums (`QuotientRep._orbit_map`), and `bubble_action` and `boundary_action`
act on listed states by `act`; `decompose` uses none of them.

Structures and compound defects are immutable once validated; the basis
solve, the bubble loops and per-defect characters are pure and independent
per grade.

Every computation at p shares one field, `scalars.cyc_field(p)`, and so its
cached roots. The process keeps, keyed by `rep.key`, each rep's symbolic
labels, the affine form of each of its actions and each vertex's cyclic
verdict, which the rep holds once read, and the templates' trivalent reps
are one per walls and corner (`reps.trivalent_rep`); per wall pair, the
candidate defects with their source grades; and per defect its grade
dimensions, while `defects.phase_terms` caches each defect's terms. The
per-vertex args of every bubble and boundary generator, and the edge plan
the basis solve walks (`_edge_plan`), are read once per structure
topology: they are kept on the `structures.Shape` that every compound and
patch of that topology shares, whatever its walls and reps.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
from collections.abc import Sequence

from .defects import DefectLabel, enumerate_defects, idempotent, phase_terms
from .linalg import ExactMatrix
from .reps import VARIABLE
from .scalars import CycField, cyc_field
from .structures import (
    BUBBLE_SIGN, TEMPLATE_SLOTS, CompoundDefect, StructureError,
)
from .walls import STAR


# for the life of the process, as equal rep keys mean equal tables
_SYMBOLIC: dict = {}  # rep key -> its labels
_AFFINE: dict = {}  # rep key -> {sorted args: `_affine_action`}
# and as frozen walls and defect labels fix their defects' data
_CANDIDATES: dict = {}  # (lower, upper) walls -> ((defect, source grade), ...)
_GRADE_DIMS: dict = {}  # defect -> `DefectLabel.grade_dims`, only read


class SizeLimitError(RuntimeError):
    pass


def max_basis() -> int:
    """ANNULUS_MAX_BASIS, the most consistent labelings a compound or patch
    may have (200000 when unset); a value that is no non-negative integer
    is a ValueError that names the variable."""
    text = os.environ.get("ANNULUS_MAX_BASIS", "200000")
    try:
        limit = int(text)
    except ValueError:
        limit = -1
    if limit < 0:
        raise ValueError(
            f"ANNULUS_MAX_BASIS must be a non-negative integer, got {text!r}")
    return limit


class _Form:
    """c + sum_j a_j v_j: an affine form in the free labels v of one local
    vector, with integer coefficients. It is the symbol that
    `_symbolic_labels` passes to a rep's `edges` entry and `_affine_action`
    to its `act` entry, so it defines only
    +, -, multiplication by an integer and % p; any other use of a free
    label (a product of two labels, a comparison, a truth test, an index)
    raises TypeError."""

    __slots__ = ("coef", "const")

    def __init__(self, coef: tuple, const: int = 0):
        self.coef = coef
        self.const = const

    def __add__(self, other):
        if isinstance(other, _Form):
            return _Form(tuple(map(operator.add, self.coef, other.coef)),
                         self.const + other.const)
        if isinstance(other, int):
            return _Form(self.coef, self.const + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Form(tuple([a * other for a in self.coef]),
                         self.const * other)
        return NotImplemented

    __rmul__ = __mul__

    def __mod__(self, p):
        if isinstance(p, int):
            return _Form(tuple([a % p for a in self.coef]), self.const % p)
        return NotImplemented

    def _refuse(self, *args):
        raise TypeError("a free label is used other than affinely")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __bool__ = __index__ = __int__ = _refuse
    __hash__ = None


def _symbolic_labels(rep, vid) -> dict:
    """rep's edge labels as functions of its free labels: {slot: STAR, a
    form reduced mod p, or a tuple of forms}. The `edges` entry is evaluated
    once, on one symbol per free label."""
    n = len(rep.free_names)
    symbols = tuple(_Form(tuple(int(i == j) for i in range(n)))
                    for j in range(n))
    p = rep.p

    def form(lab):
        if lab is STAR:
            return STAR
        if isinstance(lab, tuple):
            return tuple(form(x) for x in lab)
        if isinstance(lab, _Form):
            return lab
        if isinstance(lab, int):
            return _Form((0,) * n, lab % p)
        raise TypeError(f"label {lab!r} is no object")

    try:
        labels = rep.label_map(symbols)
        return {slot: form(lab) for slot, lab in labels.items()}
    except TypeError as exc:
        raise StructureError(
            f"vertex {vid}: edge labels are not affine in the free labels "
            f"({exc})") from None


def enumerate_basis(cd: CompoundDefect, pins: dict | None = None,
                    what: str = "compound") -> "SolvedBasis":
    """All consistent labelings of cd, solved (`SolvedBasis`): one local
    basis vector per vertex, such that both ends of every edge carry the
    same object and every stub in `pins` {stub id: object} its pinned
    object; `what` names the basis in the size-limit refusal.

    The labelings solve linear equations over F_p in the free labels of all
    vertices, numbered in vertex order, one per edge end after the first,
    in the order of the structure's `_edge_plan`. Each is eliminated with
    its pivot on its highest variable (`_add_row`), so each pivot is a
    function of the free variables f: x = x0 + B f (`_solve`).
    ANNULUS_MAX_BASIS bounds the solutions, p^(free variables), before any
    state or table is built.

    A vertex whose corner is `VARIABLE` adds its corner mu to the unknowns:
    corner j, in vertex order, is variable -1 - j, below every label, so an
    equation keeps its pivot on a label while it has one. The label
    pivots, the free labels and the state order are those of the solve at
    any consistent corner values, and x = x0 + B f + M mu. The rows left
    with only corners in them are the consistent corner values."""
    order, reps, pins = cd.vertex_order, cd.reps, pins or {}
    limit = max_basis()
    p = cd.p
    labels: dict = {}           # vertex -> (its symbolic labels, variables)
    offsets = []                # vertex position -> its first label
    corner_at = []              # corner j -> its vertex position
    n = 0
    for i, vid in enumerate(order):
        rep = reps[vid]
        symbolic = rep.symbolic
        if symbolic is None:
            symbolic = _SYMBOLIC.get(rep.key)
            if symbolic is None:
                symbolic = _SYMBOLIC[rep.key] = _symbolic_labels(rep, vid)
            rep.symbolic = symbolic
        m = len(rep.free_names) - (rep.corner is VARIABLE)
        variables = range(n, n + m)
        if rep.corner is VARIABLE:      # the last entry of its local vector
            variables = [*variables, -1 - len(corner_at)]
            corner_at.append(i)
        labels[vid] = symbolic, variables
        offsets.append(n)
        n += m
    offsets.append(n)
    pivots: dict = {}
    for eid, ends in _edge_plan(cd.structure):
        sides = [(labels[v][0][s], labels[v][1]) for v, s in ends]
        if eid in pins:
            sides.append((_constant(pins[eid]), ()))
        for other in sides[1:]:
            if not _equate(*sides[0], *other, pivots, p):
                return SolvedBasis(p, offsets, None, [], corner_at)
    free = [v for v in range(n) if v not in pivots]
    if p ** len(free) > limit:
        raise SizeLimitError(
            f"{what} basis exceeds ANNULUS_MAX_BASIS={limit}: "
            f"{p}^{len(free)} consistent labelings")
    k = len(corner_at)
    rows = _solve(pivots, n, p, k)
    conditions = [(tuple([coef.get(-1 - j, 0) for j in range(k)]), const)
                  for v, (coef, const) in pivots.items() if v < 0] if k else []
    return SolvedBasis(p, offsets, rows, free, corner_at, conditions)


def _edge_plan(structure) -> list:
    """[(edge id, its attached ends)] for every edge of `structure`, in the
    order its vertices, and their slots in template order, first meet the
    edges. Kept in the structure's `Shape.edge_plan` for every structure
    of its topology, as nothing in it reads a wall."""
    shape = structure.shape
    if shape.edge_plan is None:
        plan, seen = [], set()
        for vid, template in structure.vertices.items():
            for slot in TEMPLATE_SLOTS[template]:
                eid = shape.slot_eid[vid, slot]
                if eid not in seen:
                    seen.add(eid)
                    plan.append((eid, tuple(filter(
                        None, structure.edge_by_id[eid].ends))))
        shape.edge_plan = plan
    return shape.edge_plan


class SolvedBasis(Sequence):
    """The consistent labelings as x = x0 + B f over the free variables
    `free`: rows[v] is (x0_v, B_v), vertex i holds the variables
    offsets[i]..offsets[i+1]-1, and state i is the f whose base-p digits,
    first free variable first, spell i. `rows` is None when the equations
    are inconsistent: there is no state. As a sequence, it is its states
    listed as one local vector per vertex, on first read only.

    With corner variables (`enumerate_basis`), the solved coordinates are
    z = (f, mu), `width` of them: B_v has one more column per corner, after
    those of f. `corners` lists the position of each corner's vertex, whose
    local vector it ends, in the order of mu. `conditions` [(a, c)] cut out
    the corner values that have a labeling: a.mu + c = 0 mod p for each.
    Only a basis without corners is listed."""

    def __init__(self, p: int, offsets: list, rows, free: list,
                 corners=(), conditions=()):
        self.p, self.offsets, self.rows, self.free = p, offsets, rows, free
        self.corners, self.conditions = list(corners), list(conditions)
        d = len(free)
        self.width = d + len(self.corners)
        self.size = 0 if rows is None else p ** d
        self.vertex_rows = [list(zip(range(a, b), (rows or [])[a:b]))
                            for a, b in zip(offsets, offsets[1:])]
        zeros = (0,) * self.width
        for j, pos in enumerate(self.corners if rows is not None else ()):
            self.vertex_rows[pos].append(
                (None, (0, zeros[:d + j] + (1,) + zeros[d + j + 1:])))
        self.pivot_rows = [(v, b) for v, (_, b) in enumerate(rows or [])
                           if v not in free]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        return self.states[i]

    def __eq__(self, other):
        if isinstance(other, (list, SolvedBasis)):
            return self.states == list(other)
        return NotImplemented

    @functools.cached_property
    def states(self) -> list[tuple]:
        """Every state as one local vector per vertex, in state order."""
        if not self.size:
            return []
        spans = list(zip(self.offsets, self.offsets[1:]))
        return [tuple(x[a:b] for a, b in spans) for x in _affine_points(
            [x0 for x0, _ in self.rows], zip(*[b for _, b in self.rows]),
            self.p)]

    def loop(self, forms: dict, modulus: int) -> tuple:
        """(tau, ell, kappa) of a loop given per vertex position as (t, L, c)
        (`_loop_forms`): z = (f, mu) goes to (z + tau) mod p digit by digit
        with exponent ell.z + kappa mod `modulus`, exact where that is p,
        and at p = 2 for even L; a form L.x + c is a loop with t = 0. A
        corner is never translated, so tau is 0 on mu. tau is None when the
        translation leaves the solutions: at some pivot row it is not
        B tau."""
        shift = {}
        ell, kappa = [0] * self.width, 0
        for pos, (t, lin, c) in forms.items():
            kappa += c
            for (v, (x0, b)), s, a in zip(self.vertex_rows[pos], t, lin):
                if s:
                    shift[v] = s
                if a:
                    kappa += a * x0
                    ell = [y + a * z for y, z in zip(ell, b)]
        tau = tuple([shift.get(v, 0) for v in self.free]
                    + [0] * (self.width - len(self.free)))
        for v, b in self.pivot_rows if shift else ():
            if (_dot(b, tau) - shift.get(v, 0)) % self.p:
                tau = None
                break
        return tau, tuple([y % modulus for y in ell]), kappa % modulus


def _constant(obj):
    """A pinned object as a label with no free variables."""
    if obj is STAR:
        return STAR
    if isinstance(obj, tuple):
        return tuple(_constant(x) for x in obj)
    return _Form((), obj)


def _equate(left, lo: list, right, ro: list, pivots: dict, p: int) -> bool:
    """Add the equations left = right to the echelon rows `pivots`, the
    labels' local variables being numbered lo and ro. False when the
    system has become inconsistent: 0 = c with c != 0, or objects of
    different shapes."""
    if left is STAR or right is STAR:
        return left is right
    if isinstance(left, tuple) or isinstance(right, tuple):
        return (isinstance(left, tuple) and isinstance(right, tuple)
                and len(left) == len(right)
                and all(_equate(a, lo, b, ro, pivots, p)
                        for a, b in zip(left, right)))
    eq = {lo[j]: a for j, a in enumerate(left.coef) if a}
    for j, a in enumerate(right.coef):
        if a:
            c = (eq.get(ro[j], 0) - a) % p
            if c:
                eq[ro[j]] = c
            else:
                del eq[ro[j]]
    return _add_row(eq, (left.const - right.const) % p, pivots, p)


def _add_row(eq: dict, const: int, pivots: dict, p: int) -> bool:
    """Reduce sum_v eq[v] x_v + const = 0, eq holding no zero coefficient,
    by the rows in `pivots` and keep it as the row of its highest
    variable, scaled to coefficient 1 there. Every row's variables are at
    most its pivot. False if it reduces to a nonzero constant. The engine's
    one elimination over F_p: of the labels (`enumerate_basis`) and of the
    quotient's systems (`_echelon`); `_solve` reads solutions off it."""
    while eq:
        h = max(eq)
        row = pivots.get(h)
        if row is None:
            inv = pow(eq[h], -1, p)
            pivots[h] = ({v: a * inv % p for v, a in eq.items()},
                         const * inv % p)
            return True
        a = eq[h]
        coef, rconst = row
        for v, b in coef.items():
            c = (eq.get(v, 0) - a * b) % p
            if c:
                eq[v] = c
            else:
                eq.pop(v, None)
        const = (const - a * rconst) % p
    return const == 0


def _solve(pivots: dict, n: int, p: int, k: int = 0) -> list:
    """The solutions of the consistent `_add_row` rows `pivots` in the
    variables 0..n-1 and the parameters -1..-k, as x = x0 + B z: [(x0_v,
    B_v)] for v in 0..n-1, z being the free variables (those with no row)
    in increasing order, then the parameters; rows with a parameter for
    pivot are not read. Back-substitution, pivot by pivot upwards."""
    d = n - sum(v >= 0 for v in pivots)
    zeros = (0,) * (d + k)
    rows = []                   # variable -> (x0, B row)
    c = 0                       # the next free variable's column
    for v in range(n):
        row = pivots.get(v)
        if row is None:
            rows.append((0, zeros[:c] + (1,) + zeros[c + 1:]))
            c += 1
            continue
        coef, const = row
        x0, b = -const, [0] * (d + k)
        for u, a in coef.items():
            if u < 0:
                b[d - 1 - u] -= a
            elif u != v:
                ux0, ub = rows[u]
                x0 -= a * ux0
                b = [y - a * z for y, z in zip(b, ub)]
        rows.append((x0 % p, tuple(y % p for y in b)))
    return rows


def edge_labels_of(cd: CompoundDefect, vec: tuple) -> dict:
    """Object label of every edge for a compound basis vector."""
    labels = {}
    for vid, vvec in zip(cd.vertex_order, vec):
        rep = cd.reps[vid]
        for slot, lab in rep.edge_labels(vvec).items():
            e = cd.structure._edge_at(vid, slot)
            prev = labels.get(e.eid)
            if prev is not None and prev != lab:
                raise StructureError(f"inconsistent labeling on edge {e.eid}")
            labels[e.eid] = lab
    return labels


def _affine_action(rep, vid, args: dict) -> tuple:
    """act(., args) of rep at vertex vid as (t, L, c): the local vector x
    goes to x + t (mod p) with exponent L.x + c (mod N). `act` is evaluated
    once, on one `_Form` per free label. An image that is no translation,
    or a use of a label that is not affine, is a StructureError naming the
    vertex and args; so is, at p = 2, an odd coefficient in L: L.x mod 4
    then depends on x's representative, and commutator phases on the
    state."""
    n = len(rep.free_names)
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    try:
        e, new = rep.act(tuple(_Form(u) for u in units), args)
    except TypeError:
        new = ()
    if len(new) != n or not all(isinstance(x, _Form) and x.coef == u
                                for x, u in zip(new, units)):
        raise StructureError(f"vertex {vid}: action {args} is not a "
                             "translation with an affine phase")
    linear, const = (e.coef, e.const) if isinstance(e, _Form) else (
        (0,) * n, e)
    if rep.p == 2 and any(a % 2 for a in linear):
        raise StructureError(
            f"vertex {vid}: action {args} has a phase i^v at p = 2, a "
            "state-dependent commutator phase")
    return tuple(x.const for x in new), linear, const


def _affine_table(rep) -> dict:
    """rep's key's part of `_AFFINE`, which the rep holds once read."""
    table = rep.affine_forms
    if table is None:
        table = rep.affine_forms = _AFFINE.setdefault(rep.key, {})
    return table


def _vertex_form(rep, vid, args: dict, key: tuple) -> tuple:
    """(t, L, c) of rep's action at args, as `_affine_action` gives it,
    once per process per rep key and args, looked up by the sorted args
    `key` that `_vertex_args` keeps."""
    table = _affine_table(rep)
    form = table.get(key)
    if form is None:
        form = table[key] = _affine_action(rep, vid, args)
    return form


def _loop_forms(vertex_args: list, reps: dict) -> dict:
    """{position: (t, L, c)} of every vertex a loop acts on
    (`_vertex_form`)."""
    return {i: _vertex_form(reps[vid], vid, args, key)
            for i, vid, args, key in vertex_args}


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _bracket(a: tuple, b: tuple) -> int:
    """L_a.t_b - L_b.t_a for two actions on the same free labels given as
    (t, L, c): translations commute, A after B adds L_a.t_b to the phase
    and B after A adds L_b.t_a."""
    return _dot(a[1], b[0]) - _dot(b[1], a[0])


def _commutator(a: dict, b: dict, N: int) -> int:
    """The k in Z/N with A B = zeta_N^k B A for loops given by their
    `_loop_forms`: the `_bracket`s of the vertices both act on, summed."""
    k = 0
    for i, form in a.items():
        other = b.get(i)
        if other is not None:
            k += _bracket(form, other)
    return k % N


def _echelon(rows, p: int, pivots: dict | None = None):
    """The `_add_row` rows of the equations a.z + c = 0, given as (a, c),
    z_j numbered len(a) - 1 - j so that a row's pivot, its highest variable,
    is its first nonzero entry in z, added to the rows `pivots` when given;
    None when they are inconsistent."""
    pivots = {} if pivots is None else pivots
    for a, c in rows:
        eq = {len(a) - 1 - j: x % p for j, x in enumerate(a) if x % p}
        if not _add_row(eq, c % p, pivots, p):
            return None
    return pivots


def _leading(pivots: dict, n: int) -> list:
    """The rows of an `_echelon` over n coordinates in z order, by pivot:
    [(j, row)], row 1 at j and 0 before it."""
    return sorted((n - 1 - h, [coef.get(n - 1 - j, 0) for j in range(n)])
                  for h, (coef, _) in pivots.items())


def _subspace(pivots: dict, n: int, p: int) -> tuple:
    """(x0, {j: basis_j}): the solutions z of an `_echelon` over n
    coordinates, x0 + sum_j z_j basis_j over the coordinates j with no row,
    in increasing order (`_solve`)."""
    rows = _solve(pivots, n, p)[::-1]
    free = [j for j in range(n) if n - 1 - j not in pivots]
    return (tuple([x0 for x0, _ in rows]),
            dict(zip(free, list(zip(*[b for _, b in rows]))[::-1])))


def _affine_points(x0, steps, p: int) -> list:
    """x0 + sum_i a_i steps_i mod p for every a, the last a_i fastest."""
    points = [tuple(x0)]
    for step in steps:
        points = [tuple([(x + a * y) % p for x, y in zip(f, step)])
                  for f in points for a in range(p)]
    return points


def _cyclic_law(forms: list, p: int, N: int) -> bool:
    """Whether forms[u % p] = forms[1]^u for u in 0..p, each an action
    (t, L, c) that translates by t mod p with exponent L.x + c mod N: the
    power (t, L, c)^u is (u t, u L, u c + L.t u(u-1)/2), forms[0] standing
    for forms[1]^p."""
    t, lin, c = forms[1]
    s = _dot(lin, t)
    return all(forms[u % p] == (
        tuple([u * x % p for x in t]), tuple([u * a % N for a in lin]),
        (u * c + s * (u * (u - 1) // 2)) % N) for u in range(p + 1))


def _vertex_cyclic(entries: tuple, reps: dict, N: int) -> bool:
    """Whether one vertex's own forms obey the cyclic law (`_cyclic_law`):
    entries[u] is its `_vertex_args` entry in T_u. The verdict is kept in
    its rep's `_AFFINE` table under its args in T_1, whose multiples are
    the args of every T_u (`_bubble_args`)."""
    _, vid, _, key = entries[1]
    rep = reps[vid]
    table = _affine_table(rep)
    verdict = table.get(("cyclic", key))
    if verdict is None:
        verdict = table["cyclic", key] = _cyclic_law(
            [_vertex_form(rep, v, args, k) for _, v, args, k in entries],
            len(entries), N)
    return verdict


def _strict_cyclic(solved: SolvedBasis, one: tuple, acts: list, reps: dict,
                   N: int) -> bool:
    """Whether T_u = T_1^u, phases included, for every u in 0..p-1, and
    T_1^p is the identity, on the solutions `solved`; then (1/p) sum_u T_u
    is an idempotent. acts[u] holds the vertex args of T_u, u times those
    of T_1 (`_bubble_args`), and T_1 keeps the solutions; `one` is T_1 read
    in the solved coordinates (`SolvedBasis.loop`).

    Each vertex is asked first whether its own forms obey the law
    (`_vertex_cyclic`, once per process per rep key and args). When every
    vertex does, so does the loop, and no T_u with u != 1 is read:
    `SolvedBasis.loop` is additive over vertices, so T_u, a sum of the
    vertices' (u t, u L, u c + L.t u(u-1)/2), is (u tau, u ell, u kappa +
    u(u-1)/2 sum_v L_v.t_v), with tau left in the solutions as u times T_1's
    is; T_1 keeps the solutions (`_bubble_loops` has checked it), so B_w.tau
    = t_w mod p at every variable w, and ell.tau, the sum over variables of
    L_w B_w.tau, is sum_v L_v.t_v mod N: at odd p N = p, and at p = 2 every
    L is even (`_affine_action`). That is T_1^u.

    Otherwise every T_u is read in the solved coordinates, where T_1 =
    (tau, ell, kappa) has the power T_1^u = (u tau, u ell, u kappa +
    ell.tau u(u-1)/2), T_0 standing for T_1^p; phase defects of single
    vertices that cancel in the sum over a loop cancel there too."""
    p = len(acts)
    if all(_vertex_cyclic(entries, reps, N) for entries in zip(*acts)):
        return True
    return _cyclic_law(
        [one if u == 1 else solved.loop(_loop_forms(vertex_args, reps), N)
         for u, vertex_args in enumerate(acts)], p, N)


def _region_args(terms) -> dict:
    """{vertex: {region: arg}} of a loop, from its (vertex, region, arg)
    terms, args at one corner summed."""
    args: dict[str, dict[str, int]] = {}
    for vid, region, x in terms:
        slot_args = args.setdefault(vid, {})
        slot_args[region] = slot_args.get(region, 0) + x
    return args


def _vertex_args(order, args_by_vertex: dict) -> list[tuple]:
    """(position in `order`, vertex, args, sorted args) for every vertex
    that acts; the sorted args key the action's form on its rep."""
    out = []
    for i, vid in enumerate(order):
        args = args_by_vertex.get(vid)
        if args:
            out.append((i, vid, args, tuple(sorted(args.items()))))
    return out


def _boundary_args(cd: CompoundDefect, g: int, h: int) -> list[tuple]:
    """A g string along the left external region and h along the right.
    Kept in the structure's `Shape.generator_args`, as ("boundary", g, h),
    for every structure of its topology."""
    shared = cd.structure.shape.generator_args
    out = shared.get(("boundary", g, h))
    if out is None:
        structure = cd.structure
        out = shared["boundary", g, h] = _vertex_args(
            cd.vertex_order, _region_args(
                [(vid, region, g) for vid, region in structure.left_face or ()]
                + [(vid, region, h)
                   for vid, region in structure.right_face or ()]))
    return out


def _bubble_args(cd: CompoundDefect, cavity: int, g: int) -> list[tuple]:
    """A g-labeled loop through the cavity's corners: each corner adds
    BUBBLE_SIGN * g to its region, the sign read at its vertex's template.
    A lattice face's loop is the bubble of its cavity. Kept in the
    structure's `Shape.generator_args`, as ("bubble", cavity, g)."""
    shared = cd.structure.shape.generator_args
    out = shared.get(("bubble", cavity, g))
    if out is None:
        structure = cd.structure
        try:
            corners = structure.cavities[cavity]
        except IndexError:
            raise StructureError(f"no cavity {cavity}") from None
        out = shared["bubble", cavity, g] = _vertex_args(
            cd.vertex_order, _region_args(
                (vid, region,
                 BUBBLE_SIGN[(structure.vertices[vid], region)] * g)
                for vid, region in corners))
    return out


def _act_on_state(cd: CompoundDefect, vec: tuple, vertex_args: list,
                  field: CycField):
    """A loop, given by its `_vertex_args`, on one state by the plain path,
    which reads no form: the exponents of the vertices' `act` summed, then
    made a root."""
    k, out = 0, list(vec)
    for pos, vid, args, _ in vertex_args:
        e, out[pos] = cd.reps[vid].act(vec[pos], args)
        k += e
    return field.root_pow(k), tuple(out)


def boundary_action(cd: CompoundDefect, vec: tuple, g: int, h: int,
                    field: CycField):
    """Absorb a g string along the left external region and h along the
    right (`_act_on_state`)."""
    return _act_on_state(cd, vec, _boundary_args(cd, g, h), field)


def bubble_action(cd: CompoundDefect, cavity: int, g: int, vec: tuple,
                  field: CycField):
    """Insert a g-labeled loop in the given internal cavity and absorb it
    (`_act_on_state`)."""
    return _act_on_state(cd, vec, _bubble_args(cd, cavity, g), field)


class QuotientRep:
    """Bubble-invariant compound representation, graded by stub labels.

    The bubbles Bub_{c,1} of the listed cavities (indices into the traced
    ones, all by default) generate G = (Z/p)^C, which acts monomially on the
    raw basis and keeps every grade; the product of the cavity symmetrizers
    is G's averaging projector P. At each grade, im P has one basis vector
    per admissible orbit of G, the orbit sum, and a boundary generator,
    which commutes with G, sends each orbit sum to a root of unity times an
    orbit sum. `pins` {stub id: object} fixes stubs, and the grade is the
    labels of the others. The raw basis is the `SolvedBasis`, never listed.

    All of it is linear algebra over F_p in the solved coordinates z: the
    free labels f, and after them the compound's corner variables mu, if
    any (`enumerate_basis`). Bub_{c,1} translates z by tau_c, which is 0 on
    mu, with a phase ell_c.z + kappa_c, so g in G moves z by
    sum_c g_c tau_c, and its stabilizer is K = ker(g -> sum_c g_c tau_c),
    the same at every state and every corner value. An orbit is admissible
    when K acts trivially on it: for each basis vector k of K, the phase of
    k, composed from the loops (`_group_loop`), is one affine condition on
    z, exact mod N (at p = 2 it is even, as k^2 = 1). Together with the
    corner values that have a labeling (`SolvedBasis.conditions`) they cut
    out S_adm, an affine subspace of z. Read at one corner value mu, each
    grade that the stub forms take on S_adm has
    p^(dim S_adm - rank of the stub forms and mu on S_adm - rank tau)
    admissible orbits (`_orbit_space`), and the corner values where S_adm
    has a point are the `support`. A boundary generator with translation
    beta fixes orbit sums only when beta = sum_c s_c tau_c, and then its
    eigenvalue on the orbit sum at z is zeta_N^(psi(z) - phi_s(z)), psi its
    phase and phi_s that of s, an affine form in z. When that form is
    constant along the directions that keep the grade, the trace on a grade
    of m admissible orbits is m zeta_N^k (`character`); otherwise the
    exponent takes each of its p values on m/p of them, and the trace is 0.
    Each system is eliminated as the basis was, z numbered from its end
    (`_echelon`): a pivot is its row's first nonzero entry in z, and an
    orbit's state of least index is 0 at G's translations' pivots.

    So one quotient serves every corner value: the loops, the laws and G
    are read once, and a corner value only picks the points of S_adm, at
    which the forms are evaluated. The methods that count take the corner
    values `mu`, one per vertex in `corners` and in that order, () when z
    has none; any other length is a ValueError. `grades` and `_orbit_map`
    are for a quotient without corner variables.

    Refusals name a loop by its position in `cavities`, worded by the class
    attributes below; G's orbits are counted when first read."""

    basis_name = "compound"
    left_grade = ("cavity {}: bubble action left the external grade; "
                  "cavity declaration is inconsistent")
    not_cyclic = ("cavity {}: cavity symmetrizer is not idempotent; "
                  "slot conventions violated for this structure")
    not_commuting = "bubbles of distinct cavities do not commute"

    def __init__(self, cd: CompoundDefect, pins: dict | None = None,
                 cavities=None):
        self.cd = cd
        self.field = cyc_field(cd.p)
        self.cavities = list(range(len(cd.structure.cavities))
                             if cavities is None else cavities)
        self.raw_basis = enumerate_basis(cd, pins, self.basis_name)
        self._chars: dict = {}
        self._boundaries: dict = {}
        self._shape, self._forms, self._loops = [], [], []
        if self.raw_basis.rows is not None:
            self._grading(pins or ())
            self._loops = self._bubble_loops()
        else:
            # no consistent labeling: nothing to grade, act on or count, and
            # the structure has already validated what those steps read
            self.grades, self._orbit_space = {}, ([], {}, [], 0)

    @functools.cached_property
    def corners(self) -> tuple:
        """The vertices whose corner values mu lists, in that order."""
        return tuple(self.cd.vertex_order[i] for i in self.raw_basis.corners)

    def _grading(self, pins) -> None:
        """A grade is the labels of the unpinned stubs, each a form in z:
        `_forms` [(ell, kappa)] mod p, whose values `_shape` places in the
        grade, one getter per stub (`_grade_at`)."""
        cd, solved, p = self.cd, self.raw_basis, self.cd.p
        position = {vid: i for i, vid in enumerate(cd.vertex_order)}

        def shape(label, pos):
            if label is STAR:
                return lambda values: STAR
            if isinstance(label, tuple):
                parts = [shape(x, pos) for x in label]
                return lambda values: tuple([get(values) for get in parts])
            _, ell, kappa = solved.loop(
                {pos: ((0,) * len(label.coef), label.coef, label.const)}, p)
            self._forms.append((ell, kappa))
            return operator.itemgetter(len(self._forms) - 1)

        for eid in cd.structure.external:
            if eid not in pins:
                (vid, slot), = filter(None, cd.structure.edge_by_id[eid].ends)
                self._shape.append(shape(cd.reps[vid].symbolic[slot],
                                         position[vid]))

    def _grade(self, values) -> tuple:
        """The grade whose stub forms take the values `values`."""
        return tuple([get(values) for get in self._shape])

    def _grade_at(self, f) -> tuple:
        """The grade of the state with solved coordinates f."""
        p = self.cd.p
        return self._grade([(_dot(ell, f) + kappa) % p
                            for ell, kappa in self._forms])

    def _stub_image(self, rows: list):
        """(points, fibre) of S, the z where the equations `rows` [(a, c)],
        a.z + c = 0, hold, or None when there is none: points {mu: {grade:
        one z in S}} for each corner value and grade taken on S, and fibre
        a basis of the directions in S along which both are constant.

        The fibre solves S's equations made homogeneous, the stub forms and
        the corner coordinates, eliminated onto S's own rows, so a form
        not constant on S pivots at a free coordinate of S: each such is a
        step of the points. S with no equation is every z: x0 = 0 and the
        steps are unit vectors. Each point carries its stub-form values
        after its n coordinates, stepped with it."""
        p, d, n = self.cd.p, len(self.raw_basis.free), self.raw_basis.width
        space = _echelon(rows, p)
        if space is None:
            return None
        held = _echelon([(ell, 0) for ell, _ in self._forms] + [
            ([int(i == j) for i in range(n)], 0) for j in range(d, n)], p,
            {h: (coef, 0) for h, (coef, _) in space.items()})
        steps = sorted(held.keys() - space.keys(), reverse=True)
        if space:
            x0, basis = _subspace(space, n, p)
            steps = [basis[n - 1 - h] for h in steps]
        else:
            x0 = (0,) * n
            steps = [tuple([int(i == n - 1 - h) for i in range(n)])
                     for h in steps]
        forms = self._forms
        points = _affine_points(
            x0 + tuple([(_dot(ell, x0) + kappa) % p for ell, kappa in forms]),
            [step + tuple([_dot(ell, step) for ell, _ in forms])
             for step in steps], p)
        fibre = list(_subspace(held, n, p)[1].values())
        image: dict = {}
        for f in points:
            image.setdefault(f[d:n], {})[self._grade(f[n:])] = f[:n]
        return image, fibre

    def _bubble_loops(self) -> list:
        """Bub_{c,1} of the c-th listed cavity as its `SolvedBasis.loop`. A
        translation that leaves the solutions or moves a stub label raises
        `left_grade`, and Bub_{c,u} != Bub_{c,1}^u (`_strict_cyclic`)
        `not_cyclic`, each naming c."""
        cd, N, solved = self.cd, self.field.N, self.raw_basis
        loops = []
        for c, cavity in enumerate(self.cavities):
            acts = [_bubble_args(cd, cavity, u) for u in range(cd.p)]
            loop = solved.loop(_loop_forms(acts[1], cd.reps), N)
            tau = loop[0]
            if tau is None or any(_dot(ell, tau) % cd.p
                                  for ell, _ in self._forms):
                raise StructureError(self.left_grade.format(c))
            if not _strict_cyclic(solved, loop, acts, cd.reps, N):
                raise StructureError(self.not_cyclic.format(c))
            loops.append(loop)
        return loops

    def _group_loop(self, s) -> tuple:
        """(ell, q) of g = (s_c) in G, applied as Bub_1^s_1 first: g sends
        z to zeta_N^(ell.z + q) times z + sum_c s_c tau_c."""
        N = self.field.N
        ell = shift = [0] * self.raw_basis.width
        q = 0
        for (tau, lin, kappa), u in zip(self._loops, s):
            if u:
                q += (u * kappa + _dot(lin, tau) * (u * (u - 1) // 2)
                      + u * _dot(lin, shift))
                ell = [a + u * b for a, b in zip(ell, lin)]
                shift = [a + u * t for a, t in zip(shift, tau)]
        return [a % N for a in ell], q % N

    @functools.cached_property
    def _orbit_space(self) -> tuple:
        """(span, points, fibre, m), once G's generators are checked to
        commute (`_bracket`). span: the `_echelon` rows of the (tau_c, e_c)
        with their pivot in tau, by pivot, [(pivot, t + g)] with g in G
        moving z by t, a basis of G's translations. points: {mu: {grade:
        one admissible z}} for each corner value and grade that admissible
        states have. fibre: a basis of the translations that keep S_adm,
        the grade and mu. m: each such grade's number of admissible orbits."""
        p, N = self.cd.p, self.field.N
        if any(_bracket(a, b) % N
               for a, b in itertools.combinations(self._loops, 2)):
            raise StructureError(self.not_commuting)
        solved = self.raw_basis
        n, C = solved.width, len(self._loops)
        echelon = _leading(_echelon(
            [(tau + tuple([int(i == c) for i in range(C)]), 0)
             for c, (tau, _, _) in enumerate(self._loops)], p), n + C)
        span = [(piv, row) for piv, row in echelon if piv < n]
        # S_adm: the corner values have a labeling, and each k in K, a row
        # of `echelon` with its pivot past tau, acts trivially. At p = 2,
        # k^2 = 1 makes k act on the states it fixes by a sign, so its
        # exponents, read mod N = 4, are even and halve exactly.
        q = N // p
        image = self._stub_image(
            [((0,) * len(solved.free) + a, c) for a, c in solved.conditions]
            + [([a // q for a in ell], const // q)
               for ell, const in (self._group_loop(k[n:])
                                  for _, k in echelon[len(span):])])
        if image is None:
            return span, {}, [], 0
        points, fibre = image
        return span, points, fibre, p ** (len(fibre) - len(span))

    @functools.cached_property
    def grades(self) -> dict:
        """{grade: its number of admissible orbits} for every grade that
        some consistent labeling has, of a quotient with no corner
        variable; with corner variables it is empty."""
        if self.corners:
            return {}
        _, points, _, m = self._orbit_space
        admissible = points.get((), {})
        every, _ = self._stub_image([])
        return {grade: m if grade in admissible else 0
                for grade in every.get((), {})}

    def support(self) -> set:
        """The corner values with an admissible orbit: S_adm's projection
        onto mu."""
        return set(self._orbit_space[1])

    def _at(self, mu) -> tuple:
        """({grade: one admissible z}, m) at the corner values mu, which
        must give one value per corner (else ValueError)."""
        if len(mu) != len(self.corners):
            raise ValueError(
                f"{len(self.corners)} corner values wanted for corners "
                f"{list(self.corners)}, got {tuple(mu)}")
        _, points, _, m = self._orbit_space
        return points.get(tuple(mu), {}), m

    def grade_dim(self, grade, mu=()) -> int:
        points, m = self._at(mu)
        return m if grade in points else 0

    def grade_dims(self, mu=()) -> dict:
        points, m = self._at(mu)
        return dict.fromkeys(points, m)

    def total_dim(self, mu=None) -> int:
        """The quotient's dimension at the corner values mu, summed over
        all of them when mu is None."""
        if mu is None:
            _, points, _, m = self._orbit_space
            return sum(map(len, points.values())) * m
        points, m = self._at(mu)
        return len(points) * m

    def _boundary_loop(self, g: int, h: int) -> tuple:
        """Boundary (g, h) read in the solved coordinates."""
        return self.raw_basis.loop(_loop_forms(
            _boundary_args(self.cd, g, h), self.cd.reps), self.field.N)

    def _boundary(self, g: int, h: int) -> tuple:
        """(loop, moved, eigen): boundary (g, h) as its `SolvedBasis.loop`,
        which must keep the solutions and commute with every Bub_{c,1},
        phases included (`_bracket`); moved, whether it changes the grade;
        eigen is (lin, const) when its translation beta is some g' in G's
        and lin vanishes on the fibre: its eigenvalue on the orbit sum at
        admissible f is then zeta_N^(lin.f + const), the same on all of a
        grade's admissible orbits. Otherwise eigen is None, and so is the
        trace on every grade: no orbit sum is fixed, or the exponent takes
        each of its p values on as many orbits, and the p-th roots of unity
        sum to 0.

        Commuting is enough for the boundary to preserve the quotient. For
        k in K, the phase of k at f + beta less that at f is ell_k.beta =
        sum_c k_c ell_c.beta, which commuting makes ell_B.(sum_c k_c tau_c)
        = 0: the boundary keeps S_adm, and every orbit of G has |G/K|
        states. And the states of one grade share their stub labels, which
        beta shifts by the same constants at every state, so a grade's
        orbit sums go to orbit sums of one grade."""
        key = (g, h)
        out = self._boundaries.get(key)
        if out is not None:
            return out
        p, N = self.cd.p, self.field.N
        loop = self._boundary_loop(g, h)
        beta, ell, kappa = loop
        if beta is None:
            raise StructureError("boundary action left the compound basis")
        if any(_bracket(loop, bubble) % N for bubble in self._loops):
            raise StructureError(
                "boundary action does not preserve the bubble quotient")
        fibre = self._orbit_space[2]
        moved = any(_dot(lin, beta) % p for lin, _ in self._forms)
        eigen = None
        if not any(beta):
            eigen = ell, kappa
        elif not moved:
            # beta is sum_c s_c tau_c when its orbit's root is 0
            rest, s = self._root(beta)
            if not any(rest):
                ell_s, q_s = self._group_loop(s)
                eigen = (tuple([(a - b) % N for a, b in zip(ell, ell_s)]),
                         kappa - q_s)
        if eigen is not None and any(_dot(eigen[0], w) % N for w in fibre):
            eigen = None
        out = self._boundaries[key] = loop, moved, eigen
        return out

    def character(self, grade, g: int, h: int, mu=()):
        """tr of boundary (g, h) on the quotient at `grade` and corner
        values mu, which it must keep, as (k, m): the trace is
        m zeta_N^k, the eigenvalue exponent k being the same on all m
        admissible orbits of the grade. None when the trace is 0 (see
        `_boundary`)."""
        key = (mu, grade, g, h)
        if key not in self._chars:
            points, m = self._at(mu)
            f = points.get(grade)
            if f is None:
                if not mu and grade not in self.grades:
                    raise KeyError(f"no such grade {grade!r}")
                self._chars[key] = None
                return None
            _, moved, eigen = self._boundary(g, h)
            if moved:
                raise StructureError(
                    "idempotent generator moved the source grade")
            char = None
            if eigen is not None:
                lin, const = eigen
                char = (_dot(lin, f) + const) % self.field.N, m
            self._chars[key] = char
        return self._chars[key]

    # -- the boundary on the orbit sums, of a quotient with no corner
    # -- variable (`_at(())` refuses one with them): for `apply_idempotent`

    def _root(self, f) -> tuple:
        """(root, s): the state of least index in f's orbit, and the g in G
        that moves it to f. The root is 0 at each pivot of G's translations'
        `_echelon`, whose rows, taken by pivot, lead at their pivots."""
        p, n = self.cd.p, len(f)
        f, s = list(f), [0] * len(self._loops)
        for piv, row in self._orbit_space[0]:
            a = f[piv]
            if a:
                f = [(x - a * y) % p for x, y in zip(f, row)]
                s = [(x + a * y) % p for x, y in zip(s, row[n:])]
        return tuple(f), s

    def _roots(self, grade) -> list:
        """The roots of `grade`'s admissible orbits, in increasing index: the
        root of its representative plus each translation of the fibre that
        is 0 at the pivots of G's translations."""
        p = self.cd.p
        grades, _ = self._at(())
        fibre = self._orbit_space[2]
        if grade not in grades:
            return []
        root, _ = self._root(grades[grade])
        steps = [row for _, row in _leading(_echelon(
            [(self._root(w)[0], 0) for w in fibre], p), len(root))]
        return sorted(_affine_points(root, steps, p))

    def _orbit_map(self, grade, g: int, h: int):
        """Boundary (g, h) on the orbit sums of `grade`: (target grade,
        [(target position, k)] per source orbit), meaning that the orbit sum
        goes to zeta_N^k times the target grade's orbit sum at that position,
        both in `_roots` order. The checks are `_boundary`'s."""
        roots = self._roots(grade)
        if not roots:
            return grade, []
        p, N = self.cd.p, self.field.N
        (beta, ell, kappa), _, _ = self._boundary(g, h)
        images = [tuple((x + t) % p for x, t in zip(f, beta)) for f in roots]
        target = self._grade_at(images[0])
        position = {f: i for i, f in enumerate(self._roots(target))}
        entries = []
        for f, image in zip(roots, images):
            troot, s = self._root(image)
            ell_s, q_s = self._group_loop(s)
            entries.append((position[troot], (_dot(ell, f) + kappa
                                              - _dot(ell_s, troot) - q_s) % N))
        return target, entries


def apply_idempotent(qr: QuotientRep, d: DefectLabel) -> ExactMatrix:
    """Matrix of d's idempotent on the quotient at d's source grade, in
    orbit-sum coordinates: each term adds its coefficient times the root of
    unity of every entry of its `_orbit_map`. A grade absent from the
    quotient gives the empty (rank 0) matrix."""
    field = qr.field
    expr = idempotent(d, field)
    grade = expr.source
    n = qr.grade_dim(grade)
    total = ExactMatrix(field, n, n)
    for coeff, (g, h) in expr.terms:
        target, entries = qr._orbit_map(grade, g, h)
        if target != grade:
            raise StructureError("idempotent generator moved the source grade")
        for col, (row, k) in enumerate(entries):
            total.add_to(row, col, coeff * field.root_pow(k))
    return total


def rational_trace(hist, p: int):
    """sum_k hist[k] zeta_N^k, for integers hist over Z/N, as an integer
    when it is rational, else None; N = p for odd p and 4 for p = 2.

    For odd p, 1, zeta, ..., zeta^(p-2) is a basis of Q(zeta_p), and
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)), so the sum is
    hist[0] - hist[p-1] plus sum_{k=1}^{p-2} (hist[k] - hist[p-1]) zeta^k:
    rational exactly when hist[1] = ... = hist[p-1], and then
    hist[0] - hist[1]. At p = 2 it is hist[0] - hist[2] + (hist[1] -
    hist[3]) i."""
    if p == 2:
        return hist[0] - hist[2] if hist[1] == hist[3] else None
    first = hist[1]
    if any(x != first for x in hist[2:]):
        return None
    return hist[0] - first


def decompose(qr: QuotientRep, mu=()):
    """Isotypic decomposition of a 2-string quotient representation, at the
    corner values mu (() when it has none).

    The multiplicity of a defect d is the trace of its idempotent
    e = sum_t p^-j_t zeta_N^e_t B_t on the quotient at d's source grade,
    which is the rank of e. Each tr(B_t) is m_t zeta_N^k_t or 0
    (`character`), so p^J tr(e), J the largest j_t, is
    sum_k acc[k] zeta_N^k, each term adding p^(J - j_t) m_t to the one
    acc[k_t + e_t]. `rational_trace` reads it as an integer; a field
    element is made only for the refusal of a trace that is no
    multiplicity. The candidates of a wall pair, with their source grades,
    are built once per process, and so are their terms (`phase_terms`).
    Returns [(DefectLabel, multiplicity)] with positive multiplicities,
    checked by `verify_completeness`; for external boundaries with more or
    fewer strings the quotient itself is returned unchanged (unsupported,
    per contract).
    """
    if len(qr.cd.structure.external) != 2:
        return qr
    field = qr.field
    p, N = field.p, field.N
    out = []
    # a quotient with no admissible orbit has no candidate to try
    candidates = ()
    if qr.total_dim(mu):
        walls = qr.cd.structure.external_walls()
        candidates = _CANDIDATES.get(walls)
        if candidates is None:
            candidates = _CANDIDATES[walls] = tuple(
                (d, d.source_object()) for d in enumerate_defects(*walls))
    for d, grade in candidates:
        if not qr.grade_dim(grade, mu):
            continue
        terms = phase_terms(d)
        top = max(t[0] for t in terms)
        acc = [0] * N
        for j, e, g, h in terms:
            char = qr.character(grade, g, h, mu)
            if char is not None:
                k, m = char
                acc[(k + e) % N] += p ** (top - j) * m
        value, den = rational_trace(acc, p), p ** top
        if value is None or value % den or value < 0:
            raise StructureError(
                f"{d.name()}: trace of the idempotent is "
                f"{field.root_sum(acc, den).symbolic()}, not a multiplicity")
        if value:
            out.append((d, value // den))
    verify_completeness(qr, out, mu)
    return out


def verify_completeness(qr: QuotientRep, decomposition, mu=()) -> None:
    """Assert sum_d mult_d * dim V^d(grade) == quotient dim at every grade,
    at the corner values mu. Each defect's grade dimensions are built once
    per process."""
    want = qr.grade_dims(mu)
    got: dict = {}
    for d, mult in decomposition:
        dims = _GRADE_DIMS.get(d)
        if dims is None:
            dims = _GRADE_DIMS[d] = d.grade_dims()
        for grade, dim in dims.items():
            got[grade] = got.get(grade, 0) + mult * dim
    got = {g: v for g, v in got.items() if v}
    if got != want:
        raise StructureError(
            f"decomposition incomplete: got {got}, quotient has {want}")
