"""Parabolic 2x2 matrix representations, exact mod a prime and in floats.

The generators map to a -> [[1, 1], [0, 1]] and b -> [[1, 0], [w, 1]]
with w an indeterminate.  For the relator u = a uhat b uhat^-1 of an
even-numerator slope q/p, the (2,2) entry of rho(uhat) is an integer
polynomial g of degree (p - 1)/2 with constant term 1 whose roots are
exactly the parabolic representations (Riley, Proc. LMS 24, 1972): the
Riley polynomial.  It divides every entry of rho(u) - I in Z[w].

The exact layer (modular_rep) takes a root alpha of g mod a prime l,
found by Cantor-Zassenhaus (Math. Comp. 36, 1981) with Kronecker-
substitution polynomial products.  Then w -> alpha is a homomorphism
from the knot group to SL2(F_l), checked on the relator, so a word whose
image there is not I is proven nontrivial.  The matrix scan rests on it.

The float layer (numeric_reps) finds all roots by simultaneous
Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) that evaluates
the polynomial and its derivative through the product of generator
matrices, never through the monomial coefficients, which are
ill-conditioned once p is large.  Conjugate roots are made exact
conjugates, so a word's images at the two are exact conjugates too.
Every root is checked against the relator in double precision, by the
same right-multiplication column operations as the exact layer; the
residuals are margins, not proofs.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

from .presentation import Relator, relator
from .slope import Frac

Poly = tuple[int, ...]  # integer coefficients, low degree first


def _trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class RileyData:
    fraction: Frac             # even-numerator representative actually used
    poly: Poly                 # Riley polynomial, positive leading coefficient
    relator: Relator           # relator of fraction, built once for every reader


def even_slope_rep(f: Frac) -> Frac:
    """Even-numerator slope of the same knot up to mirror image.

    The relator recipe produces a group relator exactly when the
    numerator is even (all double-twist slopes are); for an odd
    numerator q the mirror slope (p - q)/p is used instead, which has an
    isomorphic group and conjugate parabolic representations.
    """
    if f.num % 2:
        return Frac(f.den - f.num, f.den)
    return f


def riley_polynomials(f: Frac) -> RileyData:
    """Riley polynomial of slope f: the (2,2) entry of rho(uhat).

    Right-multiplying by a^e adds e * column 0 to column 1, and by b^e
    adds e * w * column 1 to column 0, so only the bottom row
    (x, y) = (rho(uhat)[1][0], rho(uhat)[1][1]) is carried.  The entry's
    constant term is 1, so it is primitive as it stands; only its sign is
    normalised.
    """
    f = even_slope_rep(f)
    rel = relator(f)
    x: list[int] = []
    y: list[int] = [1]
    for letter in rel.u_hat:
        e = 1 if letter > 0 else -1
        if abs(letter) == 1:
            y.extend([0] * (len(x) - len(y)))
            for i, c in enumerate(x):
                y[i] += e * c
        else:
            x.extend([0] * (len(y) + 1 - len(x)))
            for i, c in enumerate(y):
                x[i + 1] += e * c
    poly = _trim(y)
    if poly[-1] < 0:
        poly = tuple(-c for c in poly)
    return RileyData(f, poly, rel)


@dataclass(frozen=True)
class NumericRep:
    omega: complex
    residual: float     # largest entry of |rho(u) - I| at omega


def _float_image(word, w: complex) -> tuple[complex, complex, complex, complex]:
    """Image of a word at w in floats (left-to-right product, row-major):
    the column operations of modular_image on complex numbers."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    for letter in word:
        if letter == 1:
            b += a
            d += c
        elif letter == -1:
            b -= a
            d -= c
        elif letter == 2:
            a += w * b
            c += w * d
        else:
            a -= w * b
            c -= w * d
    return a, b, c, d


def _riley_value(u_hat, w: complex) -> tuple[complex, complex]:
    """(2,2) entry of rho(uhat) at w and its derivative in w.

    The column operations of riley_polynomials on complex numbers, with
    the derivative carried alongside (forward mode).
    """
    x = dx = dy = 0j
    y = 1 + 0j
    for letter in u_hat:
        if letter == 1:
            y += x
            dy += dx
        elif letter == -1:
            y -= x
            dy -= dx
        elif letter == 2:
            dx += y + w * dy
            x += w * y
        else:
            dx -= y + w * dy
            x -= w * y
    return y, dy


_MAX_ITER = 200
# a correction below a few ulps of max(|z|, 1): near w = 0 the product's
# rounding error is absolute, as the polynomial's constant term is +-1
_STOP = 4 * sys.float_info.epsilon


def _all_roots(u_hat, poly: Poly) -> list[complex]:
    """All roots of the Riley polynomial of uhat by Aberth-Ehrlich iteration.

    The n = deg(poly) starting points lie on the circle around the mean
    root -a(n-1) / (n a(n)) whose radius is the geometric mean distance
    from that centre to the roots, |g(centre) / a(n)|^(1/n); the angular
    offset keeps every start off the real axis.  Each sweep updates the
    roots in turn (Gauss-Seidel); a root whose correction falls below
    _STOP is frozen, and the sweeps stop when every root is frozen or
    after _MAX_ITER (every slope with p <= 151 needs at most 41 sweeps).
    Unconverged iterates are returned as they are, for the caller's
    residual check to reject.
    """
    n = len(poly) - 1
    lead = poly[-1]
    centre = -poly[-2] / (n * lead)
    radius = abs(_riley_value(u_hat, centre)[0] / lead) ** (1 / n)
    if not 0 < radius < math.inf:
        radius = 1.0
    zs = [centre + radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    active = range(n)
    for _ in range(_MAX_ITER):
        moving = []
        for k in active:
            z = zs[k]
            g, dg = _riley_value(u_hat, z)
            s = 0j
            for other in zs:
                if other != z:
                    s += 1 / (z - other)
            try:
                ratio = g / dg
                z_new = z - ratio / (1 - ratio * s)
            except ZeroDivisionError:
                z_new = complex("nan")
            if not cmath.isfinite(z_new):
                # keep z rather than spread inf/nan into every other sum
                moving.append(k)
                continue
            zs[k] = z_new
            if not abs(z_new - z) <= _STOP * max(abs(z_new), 1.0):
                moving.append(k)
        if not moving:
            break
        active = moving
    return zs


# conjugate roots and near-real roots are matched within this relative distance
_PAIR_TOL = 1e-8


def _conjugate_pairs(zs: list[complex]) -> list[complex]:
    """zs with the conjugate symmetry of a real polynomial's roots made exact.

    For each finite root z_k let j be the finite root nearest conj(z_k).
    If j = k and |Im z_k| <= _PAIR_TOL max(1, |z_k|), z_k becomes real
    with imaginary part 0.0.  If j != k, k is also j's nearest and
    |z_k - conj z_j| <= _PAIR_TOL max(1, |z_k|), the upper root u of the
    two is kept and its partner becomes exactly u.conjugate().  Every
    other root, non-finite iterates and unconverged roots included, is
    left as it is.
    """
    out = list(zs)
    finite = [k for k, z in enumerate(zs) if cmath.isfinite(z)]
    nearest = {
        k: min(finite, key=lambda j: abs(zs[j] - zs[k].conjugate())) for k in finite
    }
    for k, j in nearest.items():
        z = zs[k]
        bound = _PAIR_TOL * max(1.0, abs(z))
        if j == k:
            if abs(z.imag) <= bound:
                out[k] = complex(z.real, 0.0)
        elif k < j and nearest[j] == k and abs(z - zs[j].conjugate()) <= bound:
            upper, lower = (k, j) if z.imag >= zs[j].imag else (j, k)
            out[lower] = zs[upper].conjugate()
    return out


class NumericReps(list):
    """The kept representations, as a list; dropped holds (omega, residual)
    for each root the residual gate rejected, in the order found."""

    def __init__(self, reps=(), dropped=()):
        super().__init__(reps)
        self.dropped: list[tuple[complex, float]] = list(dropped)


def numeric_reps(data: RileyData, tol: float = 1e-9) -> NumericReps:
    """All distinct parabolic representations at the roots of data.poly.

    The polynomial has integer coefficients, so its non-real roots come
    in conjugate pairs; _conjugate_pairs makes each pair that the
    iteration found exact conjugates and each real root exactly real.
    Each root is then packaged with its relator residual, the largest
    entry of |rho(u) - I| by _float_image, and nan when an entry is not
    finite.  At conj(w) the image of every word is the entrywise
    conjugate of the one at w, bit for bit (IEEE rounding is symmetric in
    sign), so the residual is computed at the root in the upper
    half-plane and shared by its conjugate.  A root whose residual is not
    at most tol (nan included) is dropped with a warning and listed in
    the result's dropped.  The kept roots are deduplicated to 1e-8.  A
    kept non-real root whose conjugate the iteration lost (at 24/577 two
    do) gets that conjugate added, with the same residual, unless a kept
    root lies within 1e-8 of it.  The roots are ordered by (real, imag).
    """
    if len(data.poly) < 2:
        warnings.warn(f"slope {data.fraction} has a constant defining polynomial; no roots")
        return NumericReps()
    rel = data.relator
    reps = NumericReps()
    residuals: dict[complex, float] = {}  # by the root in the upper half-plane
    for omega in _conjugate_pairs(_all_roots(rel.u_hat, data.poly)):
        upper = omega if omega.imag >= 0 else omega.conjugate()
        residual = residuals.get(upper)
        if residual is None:
            a, b, c, d = _float_image(rel.u, upper)
            # tested first: max() drops a nan that is not its first argument
            if all(map(cmath.isfinite, (a, b, c, d))):
                residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
            else:
                residual = math.nan
            residuals[upper] = residual
        if not residual <= tol:
            warnings.warn(
                f"dropping root {omega} with relator residual {residual:.3e}"
            )
            reps.dropped.append((omega, residual))
            continue
        if all(abs(omega - kept.omega) > 1e-8 for kept in reps):
            reps.append(NumericRep(omega, residual))
    omegas = {rep.omega for rep in reps}
    for rep in list(reps):
        twin = rep.omega.conjugate()
        if twin != rep.omega and twin not in omegas and all(
            abs(twin - kept.omega) > 1e-8 for kept in reps
        ):
            reps.append(NumericRep(twin, rep.residual))
            omegas.add(twin)
    reps.sort(key=lambda rep: (rep.omega.real, rep.omega.imag))
    if not reps:
        warnings.warn(f"no representation root of {data.fraction} met tolerance {tol}")
    return reps


# ------------------------------------------------ exact representations mod a prime

# Primes are taken downward from here, so every matrix entry of the scan
# is below 2^30, a one-digit CPython int.
PRIME_START = 1 << 30
# primes tried for a root of g before giving up
_PRIMES_TRIED = 200
# Cantor-Zassenhaus shifts w + 1, w + 2, ... tried per split before the
# prime is given up
_SHIFTS = 64


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5, 7, deterministic below 3.2e9."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _kmul(f: list[int], g: list[int], prime: int) -> list[int]:
    """f * g mod prime for coefficient lists in [0, prime), low degree
    first, by Kronecker substitution: each list is packed into one int
    with a byte slot per coefficient wide enough for every coefficient of
    the product, so one int product does the whole polynomial product."""
    width = (2 * prime.bit_length() + min(len(f), len(g)).bit_length() + 7) // 8
    packed_f = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in f), "little")
    packed_g = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in g), "little")
    raw = (packed_f * packed_g).to_bytes(width * (len(f) + len(g) - 1), "little")
    return [int.from_bytes(raw[i:i + width], "little") % prime for i in range(0, len(raw), width)]


def _gcd_mod(f: list[int], g: list[int], prime: int) -> list[int]:
    """Monic gcd of f and g over F_prime (coefficient lists in [0, prime),
    low degree first, f nonzero); [1] when they are coprime."""
    a, b = list(_trim(f)), list(_trim(g))
    while b:
        inv = pow(b[-1], -1, prime)
        b = [c * inv % prime for c in b]
        while len(a) >= len(b):
            lead = a[-1]
            if lead:
                shift = len(a) - len(b)
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - lead * c) % prime
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


class _QuotientRing:
    """F_prime[w]/(f) for a monic f of degree n >= 1.  Elements are lists
    of n coefficients in [0, prime), low degree first.

    A product of two elements (degree <= 2n - 2) is reduced by its
    quotient q = c div f, read off the reversed polynomials: with rev_k
    the reversal as a polynomial of degree k, rev_{n-2}(q) =
    rev_{2n-2}(c) * rev_n(f)^-1 mod w^(n-1), and rev_n(f) has constant
    term 1.  So a product mod f costs three Kronecker products."""

    def __init__(self, f: list[int], prime: int):
        self.f = f
        self.n = n = len(f) - 1
        self.prime = prime
        rev = f[::-1]
        # rev^-1 mod w^(n-1) by Newton's iteration g <- g (2 - rev g)
        inv, k = [1], 1
        while k < n - 1:
            k = min(2 * k, n - 1)
            err = _kmul(rev[:k], inv, prime)[:k]
            err = [(-c) % prime for c in err]
            err[0] = (err[0] + 2) % prime
            inv = _kmul(inv, err, prime)[:k]
        self.rev_inv = inv[: n - 1]

    def reduce(self, c: list[int]) -> list[int]:
        """c mod f for len(c) <= 2n - 1."""
        n, prime = self.n, self.prime
        if len(c) <= n:
            return c + [0] * (n - len(c))
        c = c + [0] * (2 * n - 1 - len(c))
        q = _kmul(c[: n - 1 : -1], self.rev_inv, prime)[: n - 1][::-1]
        qf = _kmul(q, self.f[:n], prime)
        return [(x - y) % prime for x, y in zip(c[:n], qf)]

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        return self.reduce(_kmul(a, b, self.prime))

    def mul_linear(self, a: list[int], s: int) -> list[int]:
        """a * (w + s) mod f."""
        prime, f = self.prime, self.f
        top = a[-1]
        out = [s * a[0] % prime] + [(a[i - 1] + s * a[i]) % prime for i in range(1, self.n)]
        # w^n = -(f_0 + ... + f_{n-1} w^(n-1)), f monic
        return [(x - top * c) % prime for x, c in zip(out, f)]

    def pow_linear(self, s: int, e: int) -> list[int]:
        """(w + s)^e mod f, by squaring from the top bit of e."""
        acc = [1] + [0] * (self.n - 1)
        for bit in bin(e)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul_linear(acc, s)
        return acc


def _root_mod(poly: Poly, prime: int) -> int | None:
    """A root of poly mod prime (prime odd, not dividing the leading
    coefficient), or None when it has none or no split was found.

    r = gcd(w^prime - w, poly) is the product of w - alpha over the
    distinct roots alpha in F_prime.  Cantor-Zassenhaus (Math. Comp. 36,
    1981) splits it: for the shifts s = 1, 2, ..., gcd((w + s)^((prime -
    1)/2) - 1, r) collects the roots alpha with alpha + s a nonzero
    square.  A proper factor replaces r, down to degree 1."""
    inv = pow(poly[-1], -1, prime)
    f = [c * inv % prime for c in poly]
    if len(f) == 2:
        return -f[0] % prime
    frob = _QuotientRing(f, prime).pow_linear(0, prime)
    frob[1] = (frob[1] - 1) % prime
    r = _gcd_mod(f, frob, prime)
    half = (prime - 1) // 2
    while len(r) > 2:
        ring = _QuotientRing(r, prime)
        for s in range(1, _SHIFTS + 1):
            t = ring.pow_linear(s, half)
            t[0] = (t[0] - 1) % prime
            d = _gcd_mod(r, t, prime)
            if 1 < len(d) < len(r):
                r = d
                break
        else:
            return None
    return -r[0] % prime if len(r) == 2 else None


@dataclass(frozen=True)
class ModularRep:
    """The representation a -> [[1, 1], [0, 1]], b -> [[1, 0], [alpha, 1]]
    over F_prime, alpha a root of the Riley polynomial mod prime."""

    prime: int
    alpha: int


def modular_image(word, rep: ModularRep) -> tuple[int, int, int, int]:
    """Image of a word over F_prime (left-to-right product, row-major)."""
    prime, alpha = rep.prime, rep.alpha
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        if letter == 1:
            b, d = (a + b) % prime, (c + d) % prime
        elif letter == -1:
            b, d = (b - a) % prime, (d - c) % prime
        elif letter == 2:
            a, c = (a + alpha * b) % prime, (c + alpha * d) % prime
        else:
            a, c = (a - alpha * b) % prime, (c - alpha * d) % prime
    return a, b, c, d


def modular_rep(data: RileyData, below: int = PRIME_START) -> ModularRep:
    """The exact representation at the largest prime below `below` that
    does not divide the leading coefficient of data.poly and mod which it
    has a root alpha.

    The Riley polynomial g divides every entry of rho(u) - I in Z[w], so
    w -> alpha is a homomorphism from the knot group to SL2(F_prime): a
    word whose image is not I is nontrivial in the group.  That is
    checked here on the relator itself before the pair is returned.
    Raises RuntimeError when no root turns up in _PRIMES_TRIED primes, or
    when the relator's image is not I.
    """
    poly = data.poly
    if len(poly) < 2:
        raise RuntimeError(f"slope {data.fraction} has a constant Riley polynomial; no roots")
    prime, tried = below, 0
    while tried < _PRIMES_TRIED:
        prime -= 1
        if prime < 3:
            break
        if not _is_prime(prime) or poly[-1] % prime == 0:
            continue
        tried += 1
        alpha = _root_mod(poly, prime)
        if alpha is None:
            continue
        rep = ModularRep(prime, alpha)
        if modular_image(data.relator.u, rep) != (1, 0, 0, 1):
            raise RuntimeError(
                f"relator of {data.fraction} is not I at w = {alpha} mod {prime}"
            )
        return rep
    raise RuntimeError(
        f"no root of the Riley polynomial of {data.fraction} modulo "
        f"{tried} primes below {below}"
    )
