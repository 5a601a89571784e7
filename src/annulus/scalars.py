"""Exact scalars: inverses mod a prime and the cyclotomic field Q(zeta_N).

N = p for odd p and N = 4 for p = 2 (the quadratic Theta phase needs i),
`root_order(p)`. The engine holds every phase, from the rep tables to a
trace, as an exponent in Z/N of zeta_N; a `Cyc`, an element of Q(zeta_N)
with exact rational coefficients in the power basis, is made only where a
field element is the output: a defect's multiplicity (`root_sum`), a
generator's action on one state and an orbit sum's coefficients
(`root_pow`), and the exact matrices of the references. Equality is exact
coefficient equality; there is no tolerance anywhere. The library holds one
field per p, `cyc_field(p)`, so every computation at p shares its cached
roots.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd


def kernel_backend() -> str:
    """Name of the scalar arithmetic: always 'pure', the functions below."""
    return "pure"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def root_order(p: int) -> int:
    """N, the order of the roots of unity at p: p for odd p, 4 for p = 2."""
    return 4 if p == 2 else p


def mod_inverse(a: int, p: int) -> int:
    """Inverse of a mod p; raises ValueError("not invertible") on zero input."""
    a %= p
    if a == 0:
        raise ValueError("not invertible")
    return pow(a, p - 2, p)


def _mul_nums(a, b, n):
    """Coefficient tuple of a*b reduced modulo the N-th cyclotomic polynomial."""
    if n == 4:
        a0, a1 = a
        b0, b1 = b
        return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)
    d = n - 1
    acc = [0] * d
    extra = 0  # multiple of zeta^(n-1) = -(1 + zeta + ... + zeta^(d-1))
    for i in range(d):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(d):
            bj = b[j]
            if bj == 0:
                continue
            e = i + j
            if e >= n:
                e -= n
            if e < d:
                acc[e] += ai * bj
            else:
                extra += ai * bj
    if extra:
        for e in range(d):
            acc[e] -= extra
    return tuple(acc)


def _canonical(nums, den):
    """Canonical form: den > 0 and gcd(content, den) = 1; zero is ((0,..),1)."""
    g = 0
    for c in nums:
        g = gcd(g, c)
        if g == 1:
            break
    if g == 0:
        return (0,) * len(nums), 1
    g = gcd(g, den)
    if den < 0:
        g = -g
    if g != 1:
        nums = tuple(c // g for c in nums)
        den = den // g
    return nums, den


def _add_frac(anum, aden, bnum, bden):
    if aden == bden:
        return _canonical(tuple(x + y for x, y in zip(anum, bnum)), aden)
    return _canonical(
        tuple(x * bden + y * aden for x, y in zip(anum, bnum)), aden * bden
    )


def _sub_mul(anum, aden, fnum, fden, bnum, bden, n):
    """a - f*b, normalized. The elimination inner loop."""
    prod = _mul_nums(fnum, bnum, n)
    pden = fden * bden
    return _canonical(
        tuple(x * pden - y * aden for x, y in zip(anum, prod)), aden * pden
    )


class Cyc:
    """Element of Q(zeta_N), held as integer numerators over one denominator:
    a coefficient tuple in the power basis (length N-1 for odd prime N,
    length 2 for N = 4) over a positive denominator, in lowest terms."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "CycField", nums, den=1, _normalized=False):
        if not _normalized:
            nums, den = _canonical(tuple(nums), den)
        self.field = field
        self.nums = nums
        self.den = den

    def _check(self, other: "Cyc"):
        if other.field.N != self.field.N:
            raise ValueError("mixed cyclotomic orders")

    def __add__(self, other: "Cyc") -> "Cyc":
        self._check(other)
        nums, den = _add_frac(self.nums, self.den, other.nums, other.den)
        return Cyc(self.field, nums, den, _normalized=True)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self + (-other)

    def __neg__(self) -> "Cyc":
        return Cyc(self.field, tuple(-c for c in self.nums), self.den, _normalized=True)

    def __mul__(self, other):
        if isinstance(other, Cyc):
            self._check(other)
            nums = _mul_nums(self.nums, other.nums, self.field.N)
            nums, den = _canonical(nums, self.den * other.den)
            return Cyc(self.field, nums, den, _normalized=True)
        if isinstance(other, int):
            return Cyc(self.field, tuple(c * other for c in self.nums), self.den)
        if isinstance(other, Fraction):
            return Cyc(
                self.field,
                tuple(c * other.numerator for c in self.nums),
                self.den * other.denominator,
            )
        return NotImplemented

    __rmul__ = __mul__

    def sub_mul(self, f: "Cyc", b: "Cyc") -> "Cyc":
        """self - f*b, normalized once."""
        nums, den = _sub_mul(
            self.nums, self.den, f.nums, f.den, b.nums, b.den, self.field.N
        )
        return Cyc(self.field, nums, den, _normalized=True)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.nums)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Cyc)
            and self.field.N == other.field.N
            and self.nums == other.nums
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.field.N, self.nums, self.den))

    def inverse(self) -> "Cyc":
        """Field inverse by the Galois norm: x^-1 = prod_{k != 1} sigma_k(x)
        / N(x), over the units k of Z/N, where sigma_k sends zeta_N^e to
        zeta_N^(ke) and N(x), the product of all conjugates, is rational."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse in Q(zeta_N)")
        F = self.field
        conj = F.one
        for k in range(2, F.N):
            if gcd(k, F.N) == 1:
                hist = [0] * F.N
                for e, c in enumerate(self.nums):
                    hist[k * e % F.N] += c
                conj = conj * F.root_sum(hist, self.den)
        norm = (self * conj).as_rational()
        return conj * Fraction(norm.denominator, norm.numerator)

    def as_rational(self) -> Fraction | None:
        """The value as a rational if it lies in Q, else None."""
        if any(c != 0 for c in self.nums[1:]):
            return None
        return Fraction(self.nums[0], self.den)

    def __repr__(self):
        return f"Cyc({self.symbolic()})"

    def symbolic(self) -> str:
        """Render like '(1 - 2*w^2)/3', with 'i' for the extra p=2 root."""
        sym = self.field.root_symbol
        terms = []
        for e, c in enumerate(self.nums):
            if c == 0:
                continue
            if e == 0:
                base = str(abs(c))
            else:
                pw = sym if e == 1 else f"{sym}^{e}"
                base = pw if abs(c) == 1 else f"{abs(c)}*{pw}"
            terms.append(("- " if c < 0 else "+ ") + base)
        if not terms:
            return "0"
        body = " ".join(terms)
        body = body[2:] if body.startswith("+ ") else "-" + body[2:]
        if self.den != 1:
            body = f"({body})/{self.den}" if len(terms) > 1 else f"{body}/{self.den}"
        return body


class CycField:
    """Q(zeta_N) for the engine's prime p: N = p (odd p) or N = 4 (p = 2).

    All scalars of one computation share a field instance, the library's
    being `cyc_field(p)`; mixing orders is rejected by the arithmetic.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.N = root_order(p)
        self.dim = 2 if p == 2 else p - 1
        self.root_symbol = "i" if p == 2 else "w"
        self._basis_nums = [
            tuple(1 if i == j else 0 for i in range(self.dim)) for j in range(self.dim)
        ]
        self.zero = Cyc(self, (0,) * self.dim, 1, _normalized=True)
        self.one = Cyc(self, self._basis_nums[0], 1, _normalized=True)
        self._basis_cyc = [
            Cyc(self, nums, 1, _normalized=True) for nums in self._basis_nums
        ]
        self._roots = [self._make_root(k) for k in range(self.N)]
        self._omega_cache = self._roots[::self.N // p]
        self.inv_p = self.rational(Fraction(1, p))

    def _make_root(self, k: int) -> Cyc:
        if k < self.dim:
            return self._basis_cyc[k]
        if self.p == 2:
            return -self._basis_cyc[k - 2]
        return Cyc(self, (-1,) * self.dim, 1, _normalized=True)

    def omega_pow(self, k: int) -> Cyc:
        """omega^k with omega = exp(2 pi i / p)."""
        return self._omega_cache[k % self.p]

    def root_pow(self, k: int) -> Cyc:
        """zeta_N^k; for p = 2 this is i^k (k taken as an integer)."""
        return self._roots[k % self.N]

    def root_sum(self, counts, den: int = 1) -> Cyc:
        """(sum_k counts[k] zeta_N^k) / den, for a histogram counts over Z/N."""
        nums = [0] * self.dim
        for k, c in enumerate(counts):
            if c:
                for i, x in enumerate(self._roots[k].nums):
                    nums[i] += c * x
        return Cyc(self, nums, den)

    def integer(self, n: int) -> Cyc:
        return Cyc(self, (n,) + (0,) * (self.dim - 1))

    def rational(self, q: Fraction) -> Cyc:
        return Cyc(self, (q.numerator,) + (0,) * (self.dim - 1), q.denominator)


@functools.cache
def cyc_field(p: int) -> CycField:
    """The one CycField of the prime p, shared by every computation at p."""
    return CycField(p)
