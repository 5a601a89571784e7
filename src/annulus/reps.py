"""Irreducible annular-category representations on 2- and 3-string annuli.

Each family is an explicit labeled basis plus the action of the generating
annular morphisms: (g,h) for bivalent annuli (g in the left region, h in the
right), (a,b,c) for trivalent ones (a left, b right, c middle). The entries
are transcriptions of the representation tables; every sign convention is
inherited from them, nothing is re-derived.

Registry value conventions (all integer arithmetic is raw, reduced mod p by
the Rep classes):
  free   -- names of the basis labels, iterated over Z/p each
  edges  -- free tuple -> object labels per string; each label must be
            affine in the free labels (+, -, integer multiples, % p), since
            the engine evaluates it once on symbols and solves the
            consistent labelings as linear equations over F_p
  act    -- (free, args...) -> (e, new free tuple): the generator sends the
            vector to zeta_N^e times the new one, e an integer that the
            Rep classes reduce mod N (`scalars.root_order`); each free
            label must go to itself plus a constant, and e must be affine
            in the free labels (at p = 2 with even coefficients, a sign per
            label), so that the engine evaluates the entry once per args on
            its symbols, as `edges`, and reads it as a translation with a
            phase form
  mu     -- whether the family carries a corner parameter (multiplicity p);
            edge labels and phases must be affine in it too, and no
            translation may read it, so that a corner can be an unknown of
            the same solve (`VARIABLE`)
"""

from __future__ import annotations

import itertools

from .scalars import Cyc, CycField, mod_inverse, root_order
from .walls import STAR, BimoduleLabel, wall_product


def theta_exponent(p: int, x: int, a: int, g: int) -> int:
    """The e in Z/N with theta = zeta_N^e, the quadratic phase of the
    invertible-wall idempotents.

    p = 2: (-1)^(g x) * i^(a g) on canonical representatives; odd p:
    omega^(g x + a g^2 / 2).
    """
    if p == 2:
        x, a, g = x % 2, a % 2, g % 2
        return (2 * g * x + a * g) % 4  # -1 = i^2
    return (g * x + a * g * g * mod_inverse(2, p)) % p


class _CornerVariable:
    """The corner of a vertex whose corner value is left an unknown of the
    engine's basis solve rather than given: the rep's local vector then ends
    with its corner, which every action keeps."""

    def __repr__(self):
        return "VARIABLE"


VARIABLE = _CornerVariable()


class _Walls:
    """Parameter bundle for one family instance: p plus the wall parameters."""

    def __init__(self, p: int, *walls: BimoduleLabel):
        self.p = p
        self.params = tuple(w.param for w in walls)

    def inv(self, value: int) -> int:
        return mod_inverse(value, self.p)

    def omega(self, k: int) -> int:
        """The e in Z/N with omega^k = zeta_N^e."""
        n = root_order(self.p)
        return k * (n // self.p) % n


def _norm(p: int, obj):
    if obj is STAR:
        return STAR
    if isinstance(obj, tuple):
        return (obj[0] % p, obj[1] % p)
    return obj % p


# --------------------------------------------------------------------------
# Bivalent families (lower wall = row, upper wall = column).
# Key: (ekind(lower), ekind(upper), same) with same = whether the two wall
# parameters coincide; only X/X and F/F pairs use the flag.
# Value: dict(params, free, edges, act, src, idem).
#   edges(v, d, w) -> (lower object, upper object)
#   act(v, d, w, g, h) -> (e, new free), the phase being zeta_N^e
#   src(d, w) -> idempotent source object (lower, upper)
#   idem(d, w) -> [((j, e), (g, h))], the idempotent expression
#                 sum p^-j zeta_N^e gen(g, h): each coefficient as exponents
# --------------------------------------------------------------------------

BIVALENT: dict = {}


def _biv(lo, up, same=None, params=(), free=(), edges=None, act=None, src=None,
         idem=None):
    BIVALENT[(lo, up, same)] = {
        "params": params, "free": free, "edges": edges, "act": act,
        "src": src, "idem": idem,
    }


def _idem_identity(d, w):
    return [((0, 0), (0, 0))]


def _idem_left(xkey):
    # (1/p) sum_g omega^(g x) gen(g, 0)
    def mk(d, w):
        x = d[xkey]
        return [((1, w.omega(g * x)), (g, 0)) for g in range(w.p)]
    return mk


def _idem_right(xkey):
    # (1/p) sum_g omega^(g x) gen(0, -g)
    def mk(d, w):
        x = d[xkey]
        return [((1, w.omega(g * x)), (0, -g)) for g in range(w.p)]
    return mk


_biv("T", "T", params=("a", "b"), free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), (d["a"] + v[0], d["b"] + v[1])),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), (d["a"], d["b"])),
     idem=_idem_identity)

_biv("T", "L", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), d["a"] + v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), d["a"]),
     idem=_idem_identity)

_biv("T", "R", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), d["a"] + v[0]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), d["a"]),
     idem=_idem_identity)

_biv("T", "F0", free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), STAR),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), STAR),
     idem=_idem_identity)

_biv("T", "X", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), d["a"] + v[0] + w.params[1] * v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), d["a"]),
     idem=_idem_identity)

_biv("T", "F", free=("m", "n"),
     edges=lambda v, d, w: ((v[0], v[1]), STAR),
     act=lambda v, d, w, g, h: (
         w.omega(-w.params[1] * g * v[1]), (v[0] + g, v[1] + h)),
     src=lambda d, w: ((0, 0), STAR),
     idem=_idem_identity)

_biv("L", "T", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: (v[1], (v[0], d["a"] + v[1])),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, (0, d["a"])),
     idem=_idem_identity)

_biv("L", "L", params=("a", "x"), free=("m",),
     edges=lambda v, d, w: (v[0], d["a"] + v[0]),
     act=lambda v, d, w, g, h: (w.omega(-g * d["x"]), (v[0] + h,)),
     src=lambda d, w: (0, d["a"]),
     idem=_idem_left("x"))

_biv("L", "R", free=("m", "n"),
     edges=lambda v, d, w: (v[1], v[0]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("L", "F0", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (w.omega(-g * d["x"]), (v[0] + h,)),
     src=lambda d, w: (0, STAR),
     idem=_idem_left("x"))

_biv("L", "X", free=("m", "n"),
     edges=lambda v, d, w: (v[1], v[0] + w.params[1] * v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("L", "F", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (
         w.omega(-g * (d["x"] + v[0] * w.params[1])), (v[0] + h,)),
     src=lambda d, w: (0, STAR),
     idem=_idem_left("x"))

_biv("R", "T", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: (v[0], (d["a"] + v[0], v[1])),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, (d["a"], 0)),
     idem=_idem_identity)

_biv("R", "L", free=("m", "n"),
     edges=lambda v, d, w: (v[0], v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("R", "R", params=("a", "x"), free=("m",),
     edges=lambda v, d, w: (v[0], d["a"] + v[0]),
     act=lambda v, d, w, g, h: (w.omega(h * d["x"]), (v[0] + g,)),
     src=lambda d, w: (0, d["a"]),
     idem=_idem_right("x"))

_biv("R", "F0", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (w.omega(h * d["x"]), (v[0] + g,)),
     src=lambda d, w: (0, STAR),
     idem=_idem_right("x"))

_biv("R", "X", free=("m", "n"),
     edges=lambda v, d, w: (v[0], v[0] + w.params[1] * v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("R", "F", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (
         w.omega(h * (d["x"] + w.params[1] * (v[0] + g))), (v[0] + g,)),
     src=lambda d, w: (0, STAR),
     idem=_idem_right("x"))

_biv("F0", "T", free=("m", "n"),
     edges=lambda v, d, w: (STAR, (v[0], v[1])),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (STAR, (0, 0)),
     idem=_idem_identity)

_biv("F0", "L", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (w.omega(-g * d["x"]), (v[0] + h,)),
     src=lambda d, w: (STAR, 0),
     idem=_idem_left("x"))

_biv("F0", "R", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (w.omega(h * d["x"]), (v[0] + g,)),
     src=lambda d, w: (STAR, 0),
     idem=_idem_right("x"))

_biv("F0", "F0", params=("x", "y"), free=(),
     edges=lambda v, d, w: (STAR, STAR),
     act=lambda v, d, w, g, h: (w.omega(-g * d["x"] + h * d["y"]), ()),
     src=lambda d, w: (STAR, STAR),
     idem=lambda d, w: [
         ((2, w.omega(g * d["x"] + h * d["y"])), (g, -h))
         for g in range(w.p) for h in range(w.p)])

_biv("F0", "X", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (
         w.omega(-g * d["x"]), (v[0] + g + w.params[1] * h,)),
     src=lambda d, w: (STAR, 0),
     idem=lambda d, w: [
         ((1, w.omega(g * d["x"])), (g, -w.inv(w.params[1]) * g))
         for g in range(w.p)])

_biv("F0", "F", free=("alpha",),
     edges=lambda v, d, w: (STAR, STAR),
     act=lambda v, d, w, g, h: (
         w.omega(h * w.params[1] * (v[0] + g)), (v[0] + g,)),
     src=lambda d, w: (STAR, STAR),
     idem=lambda d, w: [((1, 0), (0, -g)) for g in range(w.p)])

_biv("X", "T", params=("a",), free=("m", "n"),
     edges=lambda v, d, w: (v[0] + w.params[0] * v[1], (d["a"] + v[0], v[1])),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, (d["a"], 0)),
     idem=_idem_identity)

_biv("X", "L", free=("m", "n"),
     edges=lambda v, d, w: (v[0] + w.params[0] * v[1], v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("X", "R", free=("m", "n"),
     edges=lambda v, d, w: (v[0] + w.params[0] * v[1], v[0]),
     act=lambda v, d, w, g, h: (0, (v[0] + g, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("X", "F0", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (
         w.omega(-g * d["x"]), (v[0] + g + w.params[0] * h,)),
     src=lambda d, w: (0, STAR),
     idem=lambda d, w: [
         ((1, w.omega(g * d["x"])), (g, -w.inv(w.params[0]) * g))
         for g in range(w.p)])

_biv("X", "X", same=True, params=("a", "x"), free=("m",),
     edges=lambda v, d, w: (v[0], d["a"] + v[0]),
     act=lambda v, d, w, g, h: (
         w.omega(h * d["x"]), (v[0] + g + w.params[0] * h,)),
     src=lambda d, w: (0, d["a"]),
     idem=lambda d, w: [
         ((1, w.omega(g * d["x"])), (w.params[0] * g, -g))
         for g in range(w.p)])

_biv("X", "X", same=False, free=("m", "n"),
     edges=lambda v, d, w: (v[0], v[0] + (w.params[1] - w.params[0]) * v[1]),
     act=lambda v, d, w, g, h: (0, (v[0] + g + w.params[0] * h, v[1] + h)),
     src=lambda d, w: (0, 0),
     idem=_idem_identity)

_biv("X", "F", params=("x",), free=("m",),
     edges=lambda v, d, w: (v[0], STAR),
     act=lambda v, d, w, g, h: (
         theta_exponent(w.p, d["x"], w.params[0] * w.params[1], h)
         + w.omega(h * w.params[1] * (g + v[0])),
         (v[0] + g + w.params[0] * h,)),
     src=lambda d, w: (0, STAR),
     idem=lambda d, w: [
         ((1, theta_exponent(w.p, d["x"], w.params[0] * w.params[1], g)),
          (w.params[0] * g, -g))
         for g in range(w.p)])

_biv("F", "T", free=("m", "n"),
     edges=lambda v, d, w: (STAR, (v[0], v[1])),
     act=lambda v, d, w, g, h: (
         w.omega(w.params[0] * g * v[1]), (v[0] + g, v[1] + h)),
     src=lambda d, w: (STAR, (0, 0)),
     idem=_idem_identity)

_biv("F", "L", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (
         w.omega(g * (v[0] * w.params[0] - d["x"])), (v[0] + h,)),
     src=lambda d, w: (STAR, 0),
     idem=_idem_left("x"))

_biv("F", "R", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (
         w.omega(h * (d["x"] - w.params[0] * (v[0] + g))), (v[0] + g,)),
     src=lambda d, w: (STAR, 0),
     idem=_idem_right("x"))

_biv("F", "F0", free=("alpha",),
     edges=lambda v, d, w: (STAR, STAR),
     act=lambda v, d, w, g, h: (
         w.omega(-w.params[0] * h * (v[0] + g)), (v[0] + g,)),
     src=lambda d, w: (STAR, STAR),
     idem=lambda d, w: [((1, 0), (0, -g)) for g in range(w.p)])

_biv("F", "X", params=("x",), free=("m",),
     edges=lambda v, d, w: (STAR, v[0]),
     act=lambda v, d, w, g, h: (
         theta_exponent(w.p, d["x"], -w.params[0] * w.params[1], h)
         + w.omega(-w.params[0] * h * (g + v[0])),
         (v[0] + g + w.params[1] * h,)),
     src=lambda d, w: (STAR, 0),
     idem=lambda d, w: [
         ((1, theta_exponent(w.p, d["x"], -w.params[0] * w.params[1], g)),
          (w.params[1] * g, -g))
         for g in range(w.p)])

_biv("F", "F", same=True, params=("x", "y"), free=(),
     edges=lambda v, d, w: (STAR, STAR),
     act=lambda v, d, w, g, h: (w.omega(-g * d["x"] + h * d["y"]), ()),
     src=lambda d, w: (STAR, STAR),
     idem=lambda d, w: [
         ((2, w.omega(g * d["x"] + h * d["y"])), (g, -h))
         for g in range(w.p) for h in range(w.p)])

_biv("F", "F", same=False, free=("alpha",),
     edges=lambda v, d, w: (STAR, STAR),
     act=lambda v, d, w, g, h: (
         w.omega(h * (w.params[1] - w.params[0]) * (v[0] + g)), (v[0] + g,)),
     src=lambda d, w: (STAR, STAR),
     idem=lambda d, w: [((1, 0), (0, -g)) for g in range(w.p)])


# --------------------------------------------------------------------------
# 2:1 trivalent families (two strings below, one above).
# Key: (ekind(bottom-left), ekind(bottom-right)); the top wall is the unique
# wall product. edges(v, mu, w) -> (bl, br, top); act(v, mu, w, a, b, c)
# -> (e, new free) as above, with args (a, b, c) = (left region, right
# region, middle region).
# --------------------------------------------------------------------------

TRI21: dict = {}


def _t21(k1, k2, mu=False, free=(), edges=None, act=None):
    TRI21[(k1, k2)] = {"mu": mu, "free": free, "edges": edges, "act": act}


_t21("T", "T", mu=True, free=("m", "s", "n"),
     edges=lambda v, mu, w: ((v[0], v[1]), (mu - v[1], v[2]), (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c, v[2] + b)))

_t21("T", "L", free=("m", "s", "n"),
     edges=lambda v, mu, w: ((v[0], v[1]), v[2], (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c, v[2] + b)))

_t21("T", "X", free=("m", "s", "n"),
     edges=lambda v, mu, w: (
         (v[0], w.params[1] * v[1] - v[2]), v[2], (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a, v[1] + b, v[2] + w.params[1] * b - c)))

_t21("R", "T", free=("m", "s", "n"),
     edges=lambda v, mu, w: (v[0], (v[1], v[2]), (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c, v[2] + b)))

_t21("R", "L", mu=True, free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * mu), (v[0] + a, v[1] + b)))

_t21("R", "F", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], STAR, (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[1] * (b + v[1])), (v[0] + a, v[1] + b)))

_t21("X", "T", free=("m", "s", "n"),
     edges=lambda v, mu, w: (
         v[0], (v[1], v[2]), (w.params[0] * v[1] + v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a + c * w.params[0], v[1] - c, v[2] + b)))

_t21("F", "L", free=("m", "n"),
     edges=lambda v, mu, w: (STAR, v[1], (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[0] * (a + v[0])), (v[0] + a, v[1] + b)))

_t21("L", "T", mu=True, free=("s", "n"),
     edges=lambda v, mu, w: (v[0], (mu - v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c, v[1] + b)))

_t21("L", "L", free=("s", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c, v[1] + b)))

_t21("L", "X", free=("s", "n"),
     edges=lambda v, mu, w: (w.params[1] * v[0] - v[1], v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + b, v[1] + w.params[1] * b - c)))

_t21("F0", "T", free=("s", "n"),
     edges=lambda v, mu, w: (STAR, (v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c, v[1] + b)))

_t21("F0", "L", mu=True, free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], v[0]),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), (v[0] + b,)))

_t21("F0", "F", free=("n",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[1] * (b + v[0])), (v[0] + b,)))

_t21("X", "L", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[1]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a + c * w.params[0], v[1] + b)))

_t21("F", "T", free=("s", "n"),
     edges=lambda v, mu, w: (STAR, (v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-a * w.params[0] * v[0]), (v[0] - c, v[1] + b)))

_t21("T", "R", mu=True, free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), mu - v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c)))

_t21("T", "F0", free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c)))

_t21("T", "F", free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(b * w.params[1] * v[1]), (v[0] + a, v[1] + c)))

_t21("R", "R", free=("m", "s"),
     edges=lambda v, mu, w: (v[0], v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c)))

_t21("R", "F0", mu=True, free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), (v[0] + a,)))

_t21("R", "X", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a, v[1] + w.params[1] * b - c)))

_t21("X", "R", free=("m", "s"),
     edges=lambda v, mu, w: (v[0], v[1], w.params[0] * v[1] + v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a + c * w.params[0], v[1] - c)))

_t21("F", "F0", free=("m",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[0] * (a + v[0])), (v[0] + a,)))

_t21("L", "R", mu=True, free=("s",),
     edges=lambda v, mu, w: (v[0], mu - v[0], STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c,)))

_t21("L", "F0", free=("s",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c,)))

_t21("L", "F", free=("s",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(b * w.params[1] * v[0]), (v[0] + c,)))

_t21("F0", "R", free=("s",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c,)))

_t21("F0", "F0", mu=True, free=(),
     edges=lambda v, mu, w: (STAR, STAR, STAR),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), ()))

_t21("F0", "X", free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + w.params[1] * b - c,)))

_t21("X", "F0", free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a + c * w.params[0],)))

_t21("F", "R", free=("s",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-a * w.params[0] * v[0]), (v[0] - c,)))

_t21("X", "X", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], w.params[0] * v[1] + v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a + c * w.params[0], v[1] + w.params[1] * b - c)))

_t21("F", "F", free=("m",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * (w.params[0] * (a + v[0]) + b * w.params[1])),
         (v[0] + a + w.inv(w.params[0]) * w.params[1] * b,)))

_t21("X", "F", free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(w.inv(w.params[0]) * b * w.params[1] * (a + v[0])),
         (v[0] + a + c * w.params[0],)))

_t21("F", "X", free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-a * v[0] * w.params[0]),
         (v[0] + w.params[1] * b - c,)))


# --------------------------------------------------------------------------
# 1:2 trivalent families (one string below, two above).
# Key: (ekind(top-left), ekind(top-right)); the bottom wall is the product.
# edges(v, mu, w) -> (tl, tr, bottom); act as for 2:1, args (a, b, c).
# --------------------------------------------------------------------------

TRI12: dict = {}


def _t12(k1, k2, mu=False, free=(), edges=None, act=None):
    TRI12[(k1, k2)] = {"mu": mu, "free": free, "edges": edges, "act": act}


_t12("T", "T", mu=True, free=("m", "s", "n"),
     edges=lambda v, mu, w: ((v[0], v[1]), (mu - v[1], v[2]), (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c, v[2] + b)))

_t12("T", "L", free=("m", "s", "n"),
     edges=lambda v, mu, w: ((v[0], v[1]), v[2], (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c, v[2] + b)))

_t12("T", "X", free=("m", "s", "n"),
     edges=lambda v, mu, w: (
         (v[0], v[1]), v[2],
         (v[0], w.inv(w.params[1]) * (v[2] + v[1]))),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a, v[1] - c, v[2] + w.params[1] * b + c)))

_t12("R", "T", free=("m", "s", "n"),
     edges=lambda v, mu, w: (v[0], (v[1], v[2]), (v[0], v[2])),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c, v[2] + b)))

_t12("R", "L", mu=True, free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * mu), (v[0] + a, v[1] + b)))

_t12("R", "F", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], STAR, (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[1] * (b + v[1])), (v[0] + a, v[1] + b)))

_t12("X", "T", free=("m", "s", "n"),
     edges=lambda v, mu, w: (
         v[0], (w.inv(w.params[0]) * (v[1] - v[0]), v[2]), (v[1], v[2])),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a - c * w.params[0], v[1] + a, v[2] + b)))

_t12("F", "L", free=("m", "n"),
     edges=lambda v, mu, w: (STAR, v[1], (v[0], v[1])),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[0] * (a + v[0])), (v[0] + a, v[1] + b)))

_t12("L", "T", mu=True, free=("s", "n"),
     edges=lambda v, mu, w: (v[0], (mu - v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c, v[1] + b)))

_t12("L", "L", free=("s", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c, v[1] + b)))

_t12("L", "X", free=("s", "n"),
     edges=lambda v, mu, w: (
         v[0], v[1], w.inv(w.params[1]) * (v[1] + v[0])),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] - c, v[1] + w.params[1] * b + c)))

_t12("F0", "T", free=("s", "n"),
     edges=lambda v, mu, w: (STAR, (v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c, v[1] + b)))

_t12("F0", "L", mu=True, free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], v[0]),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), (v[0] + b,)))

_t12("F0", "F", free=("n",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[1] * (b + v[0])), (v[0] + b,)))

_t12("X", "L", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[1]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a - c * w.params[0], v[1] + b)))

_t12("F", "T", free=("s", "n"),
     edges=lambda v, mu, w: (STAR, (v[0], v[1]), v[1]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(a * w.params[0] * v[0]), (v[0] + c, v[1] + b)))

_t12("T", "R", mu=True, free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), mu - v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c)))

_t12("T", "F0", free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] - c)))

_t12("T", "F", free=("m", "s"),
     edges=lambda v, mu, w: ((v[0], v[1]), STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-b * w.params[1] * v[1]), (v[0] + a, v[1] - c)))

_t12("R", "R", free=("m", "s"),
     edges=lambda v, mu, w: (v[0], v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + a, v[1] + c)))

_t12("R", "F0", mu=True, free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), (v[0] + a,)))

_t12("R", "X", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a, v[1] + w.params[1] * b + c)))

_t12("X", "R", free=("m", "s"),
     edges=lambda v, mu, w: (
         v[0], w.inv(w.params[0]) * (v[1] - v[0]), v[1]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a - c * w.params[0], v[1] + a)))

_t12("F", "F0", free=("m",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * w.params[0] * (a + v[0])), (v[0] + a,)))

_t12("L", "R", mu=True, free=("s",),
     edges=lambda v, mu, w: (v[0], mu - v[0], STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c,)))

_t12("L", "F0", free=("s",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] - c,)))

_t12("L", "F", free=("s",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-b * w.params[1] * v[0]), (v[0] - c,)))

_t12("F0", "R", free=("s",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (0, (v[0] + c,)))

_t12("F0", "F0", mu=True, free=(),
     edges=lambda v, mu, w: (STAR, STAR, STAR),
     act=lambda v, mu, w, a, b, c: (w.omega(-c * mu), ()))

_t12("F0", "X", free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + w.params[1] * b + c,)))

_t12("X", "F0", free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a - c * w.params[0],)))

_t12("F", "R", free=("s",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(a * w.params[0] * v[0]), (v[0] + c,)))

_t12("X", "X", free=("m", "n"),
     edges=lambda v, mu, w: (v[0], v[1], w.params[0] * v[1] + v[0]),
     act=lambda v, mu, w, a, b, c: (
         0, (v[0] + a - c * w.params[0], v[1] + w.params[1] * b + c)))

_t12("F", "F", free=("m",),
     edges=lambda v, mu, w: (STAR, STAR, v[0]),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-c * (w.params[0] * (a + v[0]) + b * w.params[1])),
         (v[0] + a + w.inv(w.params[0]) * w.params[1] * b,)))

_t12("X", "F", free=("m",),
     edges=lambda v, mu, w: (v[0], STAR, STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(-w.inv(w.params[0]) * b * w.params[1] * (a + v[0])),
         (v[0] + a - c * w.params[0],)))

_t12("F", "X", free=("n",),
     edges=lambda v, mu, w: (STAR, v[0], STAR),
     act=lambda v, mu, w, a, b, c: (
         w.omega(a * v[0] * w.params[0]),
         (v[0] + w.params[1] * b + c,)))


# --------------------------------------------------------------------------
# Representation instances
# --------------------------------------------------------------------------


def _biv_key(lower: BimoduleLabel, upper: BimoduleLabel):
    kl, ku = lower.ekind(), upper.ekind()
    same = None
    if (kl, ku) in (("X", "X"), ("F", "F")):
        same = lower.param == upper.param
    return (kl, ku, same)


class _TableRep:
    """What the bivalent and trivalent reps share: the local basis, Z/p per
    free label in product order, the edge labels of each local vector,
    cached, and the engine's affine forms of its actions."""

    corner = None

    def __init__(self, p: int, entry: dict, key):
        self.p = p
        self.N = root_order(p)
        self.entry = entry
        # equal keys mean equal tables: basis, edge labels and actions
        self.key = key
        self.free_names = entry["free"]
        self._basis = None
        self._labels: dict = {}
        # the engine's affine reading of this key's actions,
        # `engine._AFFINE[key]`, attached on first use
        self.affine_forms: dict | None = None

    def basis(self):
        if self._basis is None:
            self._basis = list(itertools.product(
                range(self.p), repeat=len(self.free_names)))
        return self._basis

    def edge_labels(self, vec):
        cached = self._labels.get(vec)
        if cached is None:
            cached = self._labels[vec] = self.label_map(vec)
        return cached


class BivalentRep(_TableRep):
    """The irreducible 2-string representation of one defect label."""

    def __init__(self, defect):
        self.defect = defect
        self.lower = defect.lower
        self.upper = defect.upper
        super().__init__(defect.lower.p,
                         BIVALENT[_biv_key(self.lower, self.upper)], defect)
        self.params = dict(zip(self.entry["params"], defect.params))
        self.walls = _Walls(self.p, self.lower, self.upper)
        self.slots = ("lower", "upper")

    def wall_of_slot(self, slot: str) -> BimoduleLabel:
        return self.lower if slot == "lower" else self.upper

    def label_map(self, vec) -> dict:
        """{slot: object} of one local vector, from the table entry."""
        lo, up = self.entry["edges"](vec, self.params, self.walls)
        return {"lower": _norm(self.p, lo), "upper": _norm(self.p, up)}

    def act(self, vec, args):
        """(e, new vector): generator (g, h) = args' left and right sends vec
        to zeta_N^e times new, e in Z/N."""
        e, new = self.entry["act"](vec, self.params, self.walls,
                                   args.get("left", 0), args.get("right", 0))
        return e % self.N, tuple([x % self.p for x in new])


class TrivalentRep(_TableRep):
    """A tabulated trivalent vertex representation.

    direction 'tri21': first/second are the lower-left/lower-right walls and
    the product wall sits on top; 'tri12': first/second on top, product below.
    A family with a corner parameter takes its value, reduced mod p, or
    `VARIABLE`: then the corner is the last entry of the local vector,
    named "mu", and the engine solves for it with the free labels; a family
    without one ignores `VARIABLE`.
    """

    def __init__(self, direction: str, first: BimoduleLabel,
                 second: BimoduleLabel, corner: int | None = None):
        if direction not in ("tri21", "tri12"):
            raise ValueError(f"unknown trivalent direction {direction!r}")
        self.direction = direction
        self.first = first
        self.second = second
        self.third = wall_product(first, second)
        table = TRI21 if direction == "tri21" else TRI12
        entry = table[(first.ekind(), second.ekind())]
        if entry["mu"]:
            if corner is None:
                raise ValueError(
                    f"{direction} vertex {first.name()}x{second.name()} needs a corner parameter")
            if corner is not VARIABLE:
                corner %= first.p
        elif corner is not VARIABLE and corner not in (None, 0):
            raise ValueError(
                f"{direction} vertex {first.name()}x{second.name()} takes no corner parameter")
        self.corner = corner if entry["mu"] else None
        super().__init__(first.p, entry,
                         (direction, first, second, self.corner))
        if self.corner is VARIABLE:
            self.free_names = self.free_names + ("mu",)
        self.walls = _Walls(self.p, first, second, self.third)
        if direction == "tri21":
            self.slots = ("bl", "br", "top")
            self._pair_slots = ("bl", "br", "top")
        else:
            self.slots = ("bottom", "tl", "tr")
            self._pair_slots = ("tl", "tr", "bottom")

    @property
    def has_corner(self) -> bool:
        return self.entry["mu"]

    def wall_of_slot(self, slot: str) -> BimoduleLabel:
        if slot == self._pair_slots[0]:
            return self.first
        if slot == self._pair_slots[1]:
            return self.second
        return self.third

    def _split(self, vec) -> tuple:
        """(free labels, corner) of a local vector."""
        if self.corner is VARIABLE:
            return vec[:-1], vec[-1]
        return vec, self.corner

    def label_map(self, vec) -> dict:
        """{slot: object} of one local vector, from the table entry."""
        labels = self.entry["edges"](*self._split(vec), self.walls)
        return {slot: _norm(self.p, lab)
                for slot, lab in zip(self._pair_slots, labels)}

    def act(self, vec, args):
        """(e, new vector): generator (a, b, c) = args' left, right and mid
        sends vec to zeta_N^e times new, e in Z/N; a corner variable is
        kept."""
        free, corner = self._split(vec)
        e, new = self.entry["act"](free, corner, self.walls,
                                   args.get("left", 0), args.get("right", 0),
                                   args.get("mid", 0))
        if self.corner is VARIABLE:
            new = (*new, corner)
        return e % self.N, tuple([x % self.p for x in new])


def composition_phase_bivalent(lower, upper, first, second, field: CycField) -> Cyc:
    """Category composition phase: acting by `first`=(g,h) then `second`=(g',h')
    equals this phase times the (g+g', h+h') generator. Depends only on the
    walls' center associators."""
    (_, h), (g2, _) = first, second
    return field.omega_pow((lower.q - upper.q) * h * g2)


def composition_phase_trivalent(direction, rep: TrivalentRep, first, second,
                                field: CycField) -> Cyc:
    (_, b, c), (a2, b2, _) = first, second
    q1, q2 = rep.first.q, rep.second.q
    q3 = rep.third.q
    if direction == "tri21":
        return field.omega_pow(q1 * c * a2 + q2 * c * b2 - q3 * b * a2)
    return field.omega_pow(q1 * c * a2 + q2 * c * b2 + q3 * b * a2)
