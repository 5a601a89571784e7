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
equations over F_p, which `enumerate_basis` eliminates and then lists one
column (variable) at a time (`_list_solutions`). When the equations are
inconsistent there is no labeling, and the quotient ends at the solve. A
bubble is a loop through its cavity's corners (`_loop_args`). Every vertex
action translates the free labels with a phase affine in them, and each is
read once, on symbols, as a translation t and a phase form L.x + c
(`_affine_action`). The group laws are decided on these forms: a bubble
generates a strict Z/p action when Bub_u = Bub_1^u (`_strict_cyclic`), and
two loops commute up to the phase sum_v L_a.t_b - L_b.t_a (`_commutator`),
for bubbles, boundary generators and lattice faces alike. A Levin-Wen
patch's ground space is the `QuotientRep` of its compound, its pinned
dangling edges the pins and its faces the cavities. The product of the
cavity symmetrizers averages over G, so the quotient has one orbit sum per
orbit whose stabilizer acts trivially (an admissible orbit), and a grade's
dimension is its number of admissible orbits. Boundary generators commute
with G and map orbit sums to roots of unity times orbit sums, so a
generator's trace (character) is the histogram over Z/N of the phases of the
orbit sums it fixes. The multiplicity of a candidate defect is the trace of
its idempotent on the quotient. Every idempotent coefficient is p^-j
zeta_N^e (`defects.phase_terms`), so that trace is one integer histogram
over Z/N divided by p^J, J the largest j, and it becomes a field element
only once per defect, to be read as a rational.
`QuotientRep.boundary_matrix` and `apply_idempotent` give the same boundary
operators as exact matrices from the `Cyc` idempotent; `decompose` does not
use them.

Structures and compound defects are immutable once validated; basis
enumeration, bubble application and per-defect characters are pure and
independent per grade.

Every computation at p shares one field, `scalars.cyc_field(p)`, and so its
cached roots. Two results depend only on a rep's labels, and the process
keeps them in module-level tables keyed by `rep.key`: its symbolic labels
and the affine form of each of its actions. Likewise `decompose` keeps, per
wall pair, the candidate defects with their source grades and, per defect,
its grade dimensions, and `defects.phase_terms` caches each defect's terms.
Each vertex rep carries a memo of its actions (`act`'s exponent and image
per args and local vector), shared by every compound or lattice patch that
holds the rep. A driver's corner sweep builds one structure and one rep per
(vertex, corner value) for all its corner assignments, so the compounds of
one sweep share the per-vertex args of every bubble and boundary generator,
kept on the structure, and the memos of every vertex whose corner they
agree on. A sweep lives for one driver call.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os

from .defects import DefectLabel, enumerate_defects, idempotent, phase_terms
from .linalg import ExactMatrix
from .scalars import CycField, cyc_field
from .structures import BUBBLE_SIGN, CompoundDefect, StructureError
from .walls import STAR


# for the life of the process, as equal rep keys mean equal tables
_SYMBOLIC: dict = {}  # rep key -> `_symbolic_labels`
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
                    what: str = "compound") -> list[tuple]:
    """All consistent labelings of cd: one local basis vector per vertex,
    such that both ends of every edge carry the same object and every stub
    named in `pins` {stub id: object} carries its pinned object; `what`
    names the basis in the size-limit refusal.

    Every rep's edge labels are affine in its free labels, so the
    consistent labelings are the solutions of linear equations over F_p in
    the free labels of all vertices, numbered in vertex order. Each
    equation is eliminated with its pivot on its highest variable, so a
    pivot variable is a function of lower variables only, and
    `_list_solutions` lists the solutions one variable (column) at a time.
    ANNULUS_MAX_BASIS bounds the number of solutions, p^(free variables),
    before any is built."""
    order, reps, pins = cd.vertex_order, cd.reps, pins or {}
    limit = max_basis()
    if not order:
        return [()]
    p = reps[order[0]].p
    labels: dict = {}           # vertex -> (its symbolic labels, offset)
    bases = []                  # vertex position -> its local basis
    n = 0
    for vid in order:
        rep = reps[vid]
        symbolic = _SYMBOLIC.get(rep.key)
        if symbolic is None:
            symbolic = _SYMBOLIC[rep.key] = _symbolic_labels(rep, vid)
        labels[vid] = symbolic, n
        bases.append(rep.basis())
        n += len(rep.free_names)
    pivots: dict = {}
    seen = set()
    for vid in order:
        for slot in reps[vid].slots:
            e = cd.structure._edge_at(vid, slot)
            if e.eid in seen:
                continue
            seen.add(e.eid)
            sides = [(labels[v][0][s], labels[v][1])
                     for v, s in (end for end in e.ends if end is not None)]
            if e.eid in pins:
                sides.append((_constant(pins[e.eid]), 0))
            for other in sides[1:]:
                if not _equate(*sides[0], *other, pivots, p):
                    return []
    free = n - len(pivots)
    if p ** free > limit:
        raise SizeLimitError(
            f"{what} basis exceeds ANNULUS_MAX_BASIS={limit}: "
            f"{p}^{free} consistent labelings")
    return _list_solutions(bases, pivots, p)


def _list_solutions(bases: list, pivots: dict, p: int) -> list[tuple]:
    """Every solution of the echelon rows `pivots` over F_p, as one local
    vector per vertex: vertex i holds the next len(bases[i][0]) variables
    and lists its local vectors in bases[i].

    The solutions are built as one column per variable, in variable order.
    A free variable's column is 0..p-1, repeated; a pivot's column is
    (-const - sum a*column_u) mod p over its row. The first free variable
    runs slowest, so two solutions first differ at a free variable and
    their order is the product order of the local bases. A column depends
    only on the free variables up to it: it is kept at length p^(those
    variables) and stretched (each entry repeated) when a longer column
    reads it. A vertex's local vectors are its columns zipped, each looked
    up in bases[i] so that equal ones are one shared tuple, and a column is
    dropped once its vertex and every pivot that reads it are built."""
    last = {}  # variable -> the last pivot that reads its column
    for v, (coef, _) in pivots.items():
        for u in coef:
            last[u] = max(last.get(u, u), v)
    columns: dict = {}
    per_vertex = []
    size = 1

    def column(u):
        if len(columns[u]) < size:
            columns[u] = list(_stretch(columns[u], size))
        return columns[u]

    start = 0
    for local in bases:
        stop = start + len(local[0])
        for v in range(start, stop):
            row = pivots.get(v)
            if row is None:
                columns[v] = list(range(p)) * size
                size *= p
                continue
            coef, const = row
            col = [-const % p] * size
            for u, a in coef.items():
                if u != v:
                    col = [(y - a * x) % p for y, x in zip(col, column(u))]
            columns[v] = col
        table = {x: x for x in local}
        per_vertex.append(
            list(map(table.__getitem__,
                     zip(*[column(u) for u in range(start, stop)])))
            if stop > start else [()] * size)
        start = stop
        for u in [u for u in columns if last.get(u, u) < start]:
            del columns[u]
    return list(zip(*(_stretch(vecs, size) for vecs in per_vertex)))


def _stretch(col: list, size: int):
    """An iterator over col with each entry repeated size // len(col)
    times."""
    r = size // len(col)
    if r == 1:
        return iter(col)
    return itertools.chain.from_iterable(itertools.repeat(x, r) for x in col)


def _constant(obj):
    """A pinned object as a label with no free variables."""
    if obj is STAR:
        return STAR
    if isinstance(obj, tuple):
        return tuple(_constant(x) for x in obj)
    return _Form((), obj)


def _equate(left, lo: int, right, ro: int, pivots: dict, p: int) -> bool:
    """Add the equations left = right to the echelon rows `pivots`, the
    labels' free variables being numbered from lo and ro. False when the
    system has become inconsistent: 0 = c with c != 0, or objects of
    different shapes."""
    if left is STAR or right is STAR:
        return left is right
    if isinstance(left, tuple) or isinstance(right, tuple):
        return (isinstance(left, tuple) and isinstance(right, tuple)
                and len(left) == len(right)
                and all(_equate(a, lo, b, ro, pivots, p)
                        for a, b in zip(left, right)))
    eq = {lo + j: a for j, a in enumerate(left.coef) if a}
    for j, a in enumerate(right.coef):
        if a:
            c = (eq.get(ro + j, 0) - a) % p
            if c:
                eq[ro + j] = c
            else:
                del eq[ro + j]
    return _add_row(eq, (left.const - right.const) % p, pivots, p)


def _add_row(eq: dict, const: int, pivots: dict, p: int) -> bool:
    """Reduce sum_v eq[v] x_v + const = 0 by the rows in `pivots` and keep
    it as the row of its highest variable, scaled to coefficient 1 there.
    Every row's variables are at most its pivot. False if it reduces to a
    nonzero constant."""
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


def _external_grades(cd: CompoundDefect, basis: list,
                     stubs: list) -> list[tuple]:
    """Tuple of the labels of the stubs `stubs` of every basis vector, in
    the order given. Each stub's one vertex end is found once, and its label
    read once per local vector that occurs there; the enumerator already
    made the labeling consistent."""
    position = {vid: i for i, vid in enumerate(cd.vertex_order)}
    columns = []
    for eid in stubs:
        (vid, slot), = [end for end in cd.structure.edge_by_id[eid].ends
                        if end is not None]
        pos, rep = position[vid], cd.reps[vid]
        local = [vec[pos] for vec in basis]
        label = {x: rep.edge_labels(x)[slot] for x in set(local)}
        columns.append(list(map(label.__getitem__, local)))
    return list(zip(*columns)) if columns else [()] * len(basis)


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


def _loop_forms(vertex_args: list, reps: dict) -> dict:
    """{position: (t, L, c)} of every vertex a loop acts on, as
    `_affine_action` gives it, once per process per rep key and args. A rep
    holds its key's part of `_AFFINE`, so a lookup hashes only the args."""
    out = {}
    for i, vid, args, _ in vertex_args:
        rep = reps[vid]
        table = rep.affine_forms
        if table is None:
            table = rep.affine_forms = _AFFINE.setdefault(rep.key, {})
        key = tuple(sorted(args.items()))
        form = table.get(key)
        if form is None:
            form = table[key] = _affine_action(rep, vid, args)
        out[i] = form
    return out


def _dot(a, b) -> int:
    return sum(map(operator.mul, a, b))


def _commutator(a: dict, b: dict, N: int) -> int:
    """The k in Z/N with A B = zeta_N^k B A for loops given by their
    `_loop_forms`: translations commute, and at a vertex both act on, A
    after B adds L_a.t_b to the phase and B after A adds L_b.t_a."""
    k = 0
    for i, (ta, la, _) in a.items():
        other = b.get(i)
        if other is not None:
            k += _dot(la, other[0]) - _dot(other[1], ta)
    return k % N


@functools.cache
def _powers(form: tuple, p: int, N: int) -> tuple:
    """The forms of T^0, ..., T^p at a vertex where T has `form` (t, L, c):
    T^u translates by u t with exponent u (L.x + c) + L.t u(u-1)/2."""
    t, lin, c = form
    s = _dot(lin, t)
    return tuple((tuple(u * a % p for a in t), tuple(u * a % N for a in lin),
                  (u * c + s * (u * (u - 1) // 2)) % N) for u in range(p + 1))


def _strict_cyclic(basis: list, acts: list, reps: dict, N: int) -> bool:
    """Whether T_u = T_1^u, phases included, for every u in 0..p-1, and
    T_1^p is the identity, on `basis`; then (1/p) sum_u T_u is an
    idempotent. acts[u] holds the vertex args of T_u, a loop through the
    vertices of T_1.

    Each vertex action is a translation with an affine phase
    (`_loop_forms`), so, with T_p for T_0, T_u = T_1^u for u = 0..p when
    at every vertex T_u translates as T_1^u (`_powers`) does and the
    differences of their phase forms, summed over the vertices, vanish on
    the basis. The differences may cancel between vertices; they are
    evaluated state by state only when a linear part is nonzero."""
    p = len(acts)
    forms = [_loop_forms(vertex_args, reps) for vertex_args in acts]
    consts, linear = [0] * (p + 1), []
    for pos, one in forms[1].items():
        for u, want in enumerate(_powers(one, p, N)):
            got = forms[u % p][pos]
            if got == want:
                continue
            if got[0] != want[0]:
                return False
            consts[u] += got[2] - want[2]
            lin = tuple((a - b) % N for a, b in zip(got[1], want[1]))
            if any(lin):
                linear.append((u, pos, lin))
    for vec in basis if linear else basis[:1]:
        total = list(consts)
        for u, pos, lin in linear:
            total[u] += _dot(lin, vec[pos])
        if any(c % N for c in total):
            return False
    return True


def _monomial_orbits(n: int, gens: list, N: int):
    """Orbits of the group generated by commuting monomial tables
    gens[c][i] = (k, j) on basis vectors 0..n-1.

    Returns (orbit, members): orbit[i] = (root, a) with root the orbit's
    first index and some group element sending root to zeta_N^a times
    vector i; members maps the root of every admissible orbit, in
    increasing order, to its indices. An orbit is admissible when the phases
    agree along every generator edge, that is when its stabilizer acts
    trivially; the averaging projector of the group then has one image
    vector per admissible orbit, sum_i zeta_N^a(i) e_i, and kills the rest.
    Cost O(n * len(gens))."""
    orbit: list = [None] * n
    admissible = {}
    for root in range(n):
        if orbit[root] is not None:
            continue
        orbit[root] = (root, 0)
        ok = True
        stack = [root]
        while stack:
            i = stack.pop()
            a = orbit[i][1]
            for gen in gens:
                k, j = gen[i]
                b = (a + k) % N
                seen = orbit[j]
                if seen is None:
                    orbit[j] = (root, b)
                    stack.append(j)
                elif seen[1] != b:
                    ok = False
        admissible[root] = ok
    members: dict = {}
    for i, (root, _) in enumerate(orbit):
        if admissible[root]:
            members.setdefault(root, []).append(i)
    return orbit, members


def _loop_args(corners, template_of, g: int) -> dict:
    """{vertex: {region: arg}} of a g-labeled loop through `corners`
    [(vertex, region), ...]: each corner adds BUBBLE_SIGN * g to its region,
    the sign read at the template template_of[vertex]. A cavity's bubble
    and a lattice face's loop are both such loops."""
    args: dict[str, dict[str, int]] = {}
    for vid, region in corners:
        slot_args = args.setdefault(vid, {})
        slot_args[region] = (slot_args.get(region, 0)
                             + BUBBLE_SIGN[(template_of[vid], region)] * g)
    return args


def _vertex_args(order, args_by_vertex: dict) -> list[tuple]:
    """(position in `order`, vertex, args, memo key) for every vertex that
    acts; the key, the sorted args, names the action's memo on a rep."""
    out = []
    for i, vid in enumerate(order):
        args = args_by_vertex.get(vid)
        if args:
            out.append((i, vid, args, tuple(sorted(args.items()))))
    return out


def _with_memos(vertex_args: list, reps: dict) -> list[tuple]:
    """`_vertex_args` with each memo key replaced by that memo on the
    vertex's rep, {local vector: (k in Z/N, new local vector)} as rep.act
    gives them, which every compound or patch that holds the rep shares."""
    return [(i, vid, args, reps[vid].action_memo.setdefault(key, {}))
            for i, vid, args, key in vertex_args]


def _apply_args(reps: dict, vec: tuple, vertex_args: list, N: int):
    """Act on every listed vertex: (exponent k in Z/N, new vector), the phase
    being zeta_N^k. Each vertex's action is memoised on its rep."""
    exp = 0
    out = list(vec)
    for i, vid, args, memo in vertex_args:
        hit = memo.get(vec[i])
        if hit is None:
            hit = memo[vec[i]] = reps[vid].act(vec[i], args)
        exp += hit[0]
        out[i] = hit[1]
    return exp % N, tuple(out)


def _generator_args(cd: CompoundDefect, key, build) -> list[tuple]:
    """The `_vertex_args` of one bubble or boundary generator, keyed by
    `key`, with the action memos of cd's reps. The per-vertex args, from
    build() -> {vertex: args}, are built once per structure, so the
    compounds of a corner sweep share them; each compound keeps its own
    list of memos."""
    cache = cd.__dict__.setdefault("_generator_args", {})
    out = cache.get(key)
    if out is None:
        shared = cd.structure.__dict__.setdefault("_generator_args", {})
        vertex_args = shared.get(key)
        if vertex_args is None:
            vertex_args = shared[key] = _vertex_args(cd.vertex_order, build())
        out = cache[key] = _with_memos(vertex_args, cd.reps)
    return out


def _boundary_args(cd: CompoundDefect, g: int, h: int) -> list[tuple]:
    structure = cd.structure

    def build():
        args: dict[str, dict[str, int]] = {}
        for vid, region in structure.left_face or ():
            slot_args = args.setdefault(vid, {})
            slot_args[region] = slot_args.get(region, 0) + g
        for vid, region in structure.right_face or ():
            slot_args = args.setdefault(vid, {})
            slot_args[region] = slot_args.get(region, 0) + h
        return args

    return _generator_args(cd, ("boundary", g, h), build)


def boundary_action(cd: CompoundDefect, vec: tuple, g: int, h: int,
                    field: CycField):
    """Absorb a g string along the left external region and h along the right."""
    k, new = _apply_args(cd.reps, vec, _boundary_args(cd, g, h), field.N)
    return field.root_pow(k), new


def _bubble_args(cd: CompoundDefect, cavity: int, g: int) -> list[tuple]:
    structure = cd.structure

    def build():
        try:
            corners = structure.cavities[cavity]
        except IndexError:
            raise StructureError(f"no cavity {cavity}") from None
        return _loop_args(corners, structure.vertices, g)

    return _generator_args(cd, ("bubble", cavity, g), build)


def bubble_action(cd: CompoundDefect, cavity: int, g: int, vec: tuple,
                  field: CycField):
    """Insert a g-labeled loop in the given internal cavity and absorb it."""
    k, new = _apply_args(cd.reps, vec, _bubble_args(cd, cavity, g),
                         field.N)
    return field.root_pow(k), new


class QuotientRep:
    """Bubble-invariant compound representation, graded by stub labels.

    The bubbles Bub_{c,1} of the listed cavities (indices into the traced
    ones, all by default) generate G = (Z/p)^C, which acts monomially on the
    raw basis and keeps every grade; the product of the cavity symmetrizers
    is G's averaging projector P. At each grade, im P has one basis vector
    per admissible orbit of G: the orbit sum, which `image` holds as a
    column {local index: zeta_N^a}. A boundary generator commutes with G,
    so it sends each orbit sum to a root of unity times an orbit sum.
    `pins` {stub id: object} fixes stubs, and the grade is the labels of the
    others. Refusals name a loop by its position in `cavities`, worded by
    the class attributes below; G's orbits are counted when first read."""

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
        self.raw_index = {v: i for i, v in enumerate(self.raw_basis)}
        self.grades: dict = {}
        self._chars: dict = {}
        if not self.raw_basis:
            # no consistent labeling: every step below is vacuous, and the
            # structure has already validated what they would read
            self._orbits = [], {}, {}, {}
            return
        self._grade_of = _external_grades(
            cd, self.raw_basis,
            [eid for eid in cd.structure.external if eid not in (pins or ())])
        for i, grade in enumerate(self._grade_of):
            self.grades.setdefault(grade, []).append(i)
        self._gens = self._bubble_generators()

    def _bubble_generators(self) -> list:
        """The monomial table [(k, j)] of Bub_{c,1} on the raw basis for the
        c-th listed cavity: it sends state i to zeta_N^k times state j. An
        image that is no basis state or lies in another grade raises
        `left_grade`, and Bub_{c,u} != Bub_{c,1}^u (`_strict_cyclic`)
        `not_cyclic`, each naming c. Each Bub_{c,1}'s `_loop_forms` are read
        first, and kept."""
        cd, N = self.cd, self.field.N
        index, grade_of = self.raw_index, self._grade_of
        tables, self._forms = [], []
        for c, cavity in enumerate(self.cavities):
            acts = [_bubble_args(cd, cavity, u) for u in range(cd.p)]
            self._forms.append(_loop_forms(acts[1], cd.reps))
            gen = []
            for i, vec in enumerate(self.raw_basis):
                k, new = _apply_args(cd.reps, vec, acts[1], N)
                j = index.get(new)
                if j is None or grade_of[j] != grade_of[i]:
                    raise StructureError(self.left_grade.format(c))
                gen.append((k, j))
            if not _strict_cyclic(self.raw_basis, acts, cd.reps, N):
                raise StructureError(self.not_cyclic.format(c))
            tables.append(gen)
        return tables

    @functools.cached_property
    def _orbits(self) -> tuple:
        """(orbit, members, roots, position): `_monomial_orbits`' orbit and
        members, once G's generators are checked to commute (`_commutator`),
        the admissible orbit roots of every grade, in raw order, and the
        position of each root among those of its grade."""
        N = self.field.N
        if any(_commutator(a, b, N)
               for a, b in itertools.combinations(self._forms, 2)):
            raise StructureError(self.not_commuting)
        orbit, members = _monomial_orbits(len(self.raw_basis), self._gens, N)
        roots = {grade: [] for grade in self.grades}
        for root in members:
            roots[self._grade_of[root]].append(root)
        position = {root: pos for rs in roots.values()
                    for pos, root in enumerate(rs)}
        return orbit, members, roots, position

    @functools.cached_property
    def image(self) -> dict:
        """Per grade, one orbit-sum column {local index: zeta_N^a} for every
        admissible orbit, in the order of the orbits' first raw indices."""
        orbit, members, roots, _ = self._orbits
        root_pow = self.field.root_pow
        out = {}
        for grade, idxs in self.grades.items():
            local = {raw: j for j, raw in enumerate(idxs)}
            out[grade] = [
                {local[i]: root_pow(orbit[i][1]) for i in members[root]}
                for root in roots[grade]]
        return out

    def grade_dim(self, grade) -> int:
        return len(self._orbits[2].get(grade, ()))

    def grade_dims(self) -> dict:
        return {g: len(roots) for g, roots in self._orbits[2].items() if roots}

    def total_dim(self) -> int:
        return len(self._orbits[1])

    def _orbit_map(self, grade, g: int, h: int):
        """Boundary (g, h) on the orbit sums of `grade`: (target grade,
        [(target position, k)] per source orbit), meaning that the orbit sum
        goes to zeta_N^k times the target grade's orbit sum at that position.

        The generator must map each admissible orbit onto an admissible
        orbit of the same size and commute with every Bub_{c,1}, phases
        included (`_commutator`, once per call); then it preserves im P."""
        cd, N = self.cd, self.field.N
        orbit, members, roots, position = self._orbits
        args = _boundary_args(cd, g, h)
        forms = _loop_forms(args, cd.reps) if roots[grade] else {}
        commutes = not any(_commutator(forms, bubble, N)
                           for bubble in self._forms)
        target = None
        entries = []
        for root in roots[grade]:
            image = {}
            for i in members[root]:
                k, new = _apply_args(cd.reps, self.raw_basis[i], args, N)
                j = self.raw_index.get(new)
                if j is None:
                    raise StructureError(
                        "boundary action left the compound basis")
                image[i] = (k, j)
            k, j = image[root]
            if target is None:
                target = self._grade_of[j]
            elif target != self._grade_of[j]:
                raise StructureError("boundary action split a grade")
            troot, a = orbit[j]
            if (not commutes or troot not in members
                    or len(members[troot]) != len(image)):
                raise StructureError(
                    "boundary action does not preserve the bubble quotient")
            entries.append((position[troot], (k - a) % N))
        return (grade if target is None else target), entries

    def boundary_matrix(self, grade, g: int, h: int):
        """Boundary (g, h) on the quotient, from `grade` to its image grade:
        (target grade, matrix in orbit-sum coordinates)."""
        if grade not in self.grades:
            raise KeyError(f"no such grade {grade!r}")
        field = self.field
        target, entries = self._orbit_map(grade, g, h)
        mat = ExactMatrix(field, self.grade_dim(target), len(entries))
        for col, (row, k) in enumerate(entries):
            mat.rows[row][col] = field.root_pow(k)
        return target, mat

    def character(self, grade, g: int, h: int):
        """tr of boundary (g, h) on the quotient at `grade`, which it must
        keep, as the histogram over Z/N of the phases of the orbit sums it
        fixes: the trace is sum_k hist[k] zeta_N^k. None when no orbit sum
        is fixed."""
        key = (grade, g, h)
        if key not in self._chars:
            target, entries = self._orbit_map(grade, g, h)
            if target != grade:
                raise StructureError(
                    "idempotent generator moved the source grade")
            hist = [0] * self.field.N
            for col, (row, k) in enumerate(entries):
                if row == col:
                    hist[k] += 1
            self._chars[key] = tuple(hist) if any(hist) else None
        return self._chars[key]


def apply_idempotent(qr: QuotientRep, d: DefectLabel) -> ExactMatrix:
    """Matrix of d's idempotent on the quotient at d's source grade: the sum
    of its terms' monomial boundary matrices.

    A grade absent from the quotient gives the empty (rank 0) matrix.
    """
    field = qr.field
    expr = idempotent(d, field)
    grade = expr.source
    if qr.grade_dim(grade) == 0:
        return ExactMatrix(field, 0, 0)
    n = qr.grade_dim(grade)
    total = ExactMatrix(field, n, n)
    for coeff, (g, h) in expr.terms:
        target, mat = qr.boundary_matrix(grade, g, h)
        if target != grade:
            raise StructureError("idempotent generator moved the source grade")
        total = total + mat.scale(coeff)
    return total


def decompose(qr: QuotientRep):
    """Isotypic decomposition of a 2-string quotient representation.

    The multiplicity of a defect d is the trace of its idempotent
    e = sum_t p^-j_t zeta_N^e_t B_t on the quotient at d's source grade,
    which is the rank of e. Each tr(B_t) is a histogram over Z/N
    (`character`), so p^J tr(e), J the largest j_t, is the integer
    histogram acc[k + e_t] += p^(J - j_t) hist_t[k], made a field element
    once, by `root_sum`. The candidates of a wall pair, with their source
    grades, are built once per process, and so are their terms
    (`phase_terms`). Returns [(DefectLabel, multiplicity)] with positive
    multiplicities, checked by `verify_completeness`; for external
    boundaries with more or fewer strings the quotient itself is returned
    unchanged (unsupported, per contract).
    """
    if len(qr.cd.structure.external) != 2:
        return qr
    field = qr.field
    p, N = field.p, field.N
    out = []
    # a quotient with no admissible orbit has no candidate to try
    candidates = ()
    if qr.total_dim():
        walls = qr.cd.structure.external_walls()
        candidates = _CANDIDATES.get(walls)
        if candidates is None:
            candidates = _CANDIDATES[walls] = tuple(
                (d, d.source_object()) for d in enumerate_defects(*walls))
    for d, grade in candidates:
        if not qr.grade_dim(grade):
            continue
        terms = phase_terms(d)
        top = max(t[0] for t in terms)
        acc = [0] * N
        for j, e, g, h in terms:
            hist = qr.character(grade, g, h)
            if hist is not None:
                scale = p ** (top - j)
                for k, c in enumerate(hist):
                    if c:
                        acc[(k + e) % N] += scale * c
        total = field.root_sum(acc, p ** top)
        mult = total.as_rational()
        if mult is None or mult.denominator != 1 or mult < 0:
            raise StructureError(
                f"{d.name()}: trace of the idempotent is "
                f"{total.symbolic()}, not a multiplicity")
        if mult:
            out.append((d, int(mult)))
    verify_completeness(qr, out)
    return out


def verify_completeness(qr: QuotientRep, decomposition) -> None:
    """Assert sum_d mult_d * dim V^d(grade) == quotient dim at every grade.
    Each defect's grade dimensions are built once per process."""
    want = qr.grade_dims()
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
