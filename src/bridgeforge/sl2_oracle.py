"""Parabolic 2x2 matrix representations, exact mod l^k and in floats.

The generators map to a -> [[1, 1], [0, 1]] and b -> [[1, 0], [w, 1]]
with w an indeterminate.  For the relator u = a uhat b uhat^-1 of an
even-numerator slope q/p, the (2,2) entry of rho(uhat) is an integer
polynomial g of degree (p - 1)/2 with constant term 1 whose roots are
exactly the parabolic representations (Riley, Proc. LMS 24, 1972): the
Riley polynomial.  It divides every entry of rho(u) - I in Z[w].

The exact layer (modular_rep) takes the least simple root of g mod a
small odd prime l, found by trying every residue, and lifts it by
Newton's iteration (Hensel) to a root alpha mod N = l^k, the largest
power of l at most 2^30.  Then w -> alpha is a homomorphism from the
knot group to SL2(Z/N), checked on the relator, so a word whose image
there is not I is proven nontrivial.  The matrix scan rests on it.

The float layer (numeric_reps) finds all roots by simultaneous
Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973).  It reads the
top three monomial coefficients, exactly, for the starting points, but
evaluates the polynomial and its derivative only through the product of
generator matrices, never through the coefficients, which are
ill-conditioned once p is large.  Since uhat = v swap(v)^-1 for its
first half v (swap exchanges a and b), that product runs over v alone:
g = y^2 - w xi^2 from the bottom row (w xi, y) of rho(v), see
_riley_value.  Each iterate is folded into the upper half-plane and
checked once against the relator in double precision, by the same
right-multiplication column operations as the exact layer; a kept
non-real root comes with its exact conjugate, so a word's images at the
two are exact conjugates too.  The residuals are margins, not proofs.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from typing import NamedTuple

from .presentation import Relator, relator
from .slope import Frac

Poly = tuple[int, ...]  # integer coefficients, low degree first


def _trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class RileyData(NamedTuple):
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


class NumericRep(NamedTuple):
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
    """(2,2) entry of rho(uhat) at w and its derivative in w, from the
    first half v of uhat alone.

    q is even, so e(p-i) = -e(i), and the letter at position p - i is the
    other generator: uhat = v swap(v)^-1, where swap exchanges a and b.
    With A = rho(a), B = rho(b) and M = rho(v):
    - P = [[0, 1], [1, 0]] gives P A^T P = A and P B^T P = B, so
      rho(reverse v) = P M^T P;
    - D = diag(1, w) gives D A^T D^-1 = B and D B^T D^-1 = A, so
      rho(swap v) = D rho(reverse v)^T D^-1 = D P M P D^-1.
    Hence rho(uhat) = M D P M^-1 P D^-1, whose (2,2) entry is
    m22^2 - m21^2 / w.  The column operations of riley_polynomials keep
    m21 a multiple of w, so the walk carries the bottom row (w xi, y) of M
    as (xi, y), with the derivatives alongside (forward mode), and returns
    g = y^2 - w xi^2 and g' = 2 (y y' - w xi xi') - xi^2: the same
    polynomial from (p - 1)/2 letters instead of p - 1.
    """
    xi = dxi = dy = 0j
    y = 1 + 0j
    for letter in u_hat[:len(u_hat) // 2]:
        if letter == 1:
            dy += xi + w * dxi
            y += w * xi
        elif letter == -1:
            dy -= xi + w * dxi
            y -= w * xi
        elif letter == 2:
            xi += y
            dxi += dy
        else:
            xi -= y
            dxi -= dy
    return y * y - w * xi * xi, 2 * (y * dy - w * xi * dxi) - xi * xi


_MAX_ITER = 200
# a correction below a few ulps of max(|z|, 1): near w = 0 the product's
# rounding error is absolute, as the polynomial's constant term is +-1
_STOP = 4 * sys.float_info.epsilon
# a correction below this that is no smaller than the one before it is
# rounding noise: from here a converging Aberth step (cubic) falls below
# _STOP at once
_NOISE = math.sqrt(_STOP)


def _spread(poly: Poly) -> float:
    """Mean of (w - mu)^2 over the n roots w of poly, mu their mean.

    By Newton's identities the roots' sum is -a(n-1)/a(n) and the sum of
    their squares is (a(n-1)^2 - 2 a(n) a(n-2)) / a(n)^2, so the mean is
    ((n - 1) a(n-1)^2 - 2n a(n) a(n-2)) / (n a(n))^2: exact integer
    arithmetic up to one division, real because poly is, and 0 when n = 1.
    """
    n = len(poly) - 1
    below = poly[-3] if n > 1 else 0
    return ((n - 1) * poly[-2] ** 2 - 2 * n * poly[-1] * below) / (n * poly[-1]) ** 2


def _semi_axes(spread: float, radius: float) -> tuple[float, float]:
    """Semi-axes (a, b), along the real and the imaginary axis, of the
    ellipse with a^2 - b^2 = 2 spread and ab = radius^2.

    With h = sqrt(spread^2 + radius^4) they are sqrt(h + spread) and
    sqrt(h - spread); the smaller one is taken as radius^2 over the larger,
    which loses no digits to h - |spread| on a thin ellipse.  spread = 0
    gives a = b = radius exactly.
    """
    major = math.sqrt(math.hypot(spread, radius * radius) + abs(spread))
    minor = radius * (radius / major)
    return (major, minor) if spread >= 0 else (minor, major)


def _all_roots(u_hat, poly: Poly) -> list[complex]:
    """All roots of the Riley polynomial of uhat by Aberth-Ehrlich iteration.

    The n = deg(poly) starting points lie on the ellipse around the mean
    root mu = -a(n-1) / (n a(n)) that matches the roots' first two
    moments: its semi-axes a (real) and b (imaginary) have a^2 - b^2 = 2S,
    S = _spread(poly) the roots' mean of (w - mu)^2, so that for n >= 3
    the starts' own mean of (z - mu)^2 is S; and ab = r^2, r the geometric
    mean distance from mu to the roots, |g(mu) / a(n)|^(1/n).  Riley roots
    lie along thin curves (at 24/577 near [-4, 0], at 66/67 all real), so
    a circle of radius r puts most starts far from any root.  The angular
    offset keeps every start off the real axis.  Each sweep updates the
    roots in turn (Gauss-Seidel); a root is frozen when its correction
    falls below _STOP, or when it is below _NOISE and no smaller than the
    root's correction in the sweep before, and the sweeps stop when every
    root is frozen or after max(_MAX_ITER, n) sweeps.  The second rule
    stops an iterate that jitters in the rounding noise of g above _STOP:
    at 144/151 the iterate at one real root swings between two floats 5
    ulp apart, and under _STOP alone it would run to the cap of 200
    sweeps, where every other slope with p <= 151 stops by sweep 27.  At
    32/1025 (n = 512) one iterate never converges, where the float walk
    overflows; numeric_reps still keeps all 512 roots, as the conjugates
    of the kept ones include the one that no iterate reached.
    Unconverged iterates are returned as they are, for the caller's
    residual check to reject.
    """
    n = len(poly) - 1
    lead = poly[-1]
    centre = -poly[-2] / (n * lead)
    radius = abs(_riley_value(u_hat, centre)[0] / lead) ** (1 / n)
    if not 0 < radius < math.inf:
        radius = 1.0
    a, b = _semi_axes(_spread(poly), radius)
    angles = [2 * math.pi * k / n + 0.4 for k in range(n)]
    zs = [centre + complex(a * math.cos(t), b * math.sin(t)) for t in angles]
    active = range(n)
    last = [math.inf] * n  # each root's correction in the sweep before
    for _ in range(max(_MAX_ITER, n)):
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
            step, scale = abs(z_new - z), max(abs(z_new), 1.0)
            if not (step <= _STOP * scale or last[k] <= step <= _NOISE * scale):
                moving.append(k)
            last[k] = step
        if not moving:
            break
        active = moving
    return zs


# iterates this close are one root, and a root this close to the real
# axis, relative to max(1, |w|), is real
_PAIR_TOL = 1e-8


class NumericReps(list):
    """The kept representations, as a list; dropped holds (omega, residual)
    for each root the residual gate rejected, in the order gated."""

    def __init__(self, reps=(), dropped=()):
        super().__init__(reps)
        self.dropped: list[tuple[complex, float]] = list(dropped)


def numeric_reps(data: RileyData, tol: float = 1e-9) -> NumericReps:
    """All distinct parabolic representations at the roots of data.poly.

    The polynomial has integer coefficients, so its non-real roots come
    in conjugate pairs, and the image of every word at conj(w) is the
    entrywise conjugate of the one at w, bit for bit (IEEE rounding is
    symmetric in sign).  So each iterate z is folded to u = z, or to
    conj(z) when Im z < 0, the upper iterates taken first so that a pair
    keeps its upper iterate.  u is made exactly real when
    |Im u| <= _PAIR_TOL max(1, |u|), and skipped when it lies within
    _PAIR_TOL of a u already gated.  Every other u is gated once by its
    relator residual, the largest entry of |rho(u) - I| by _float_image,
    and nan when an entry is not finite.  A root whose residual is not at
    most tol (nan included) is dropped with a warning and listed, as the
    iterate z, in the result's dropped.  A kept non-real u is kept with
    its exact conjugate and the same residual, so a root the iteration
    found in one half-plane only (at 32/1025 one is) comes back in both.
    The roots are ordered by (real, imag).
    """
    if len(data.poly) < 2:
        warnings.warn(f"slope {data.fraction} has a constant defining polynomial; no roots")
        return NumericReps()
    rel = data.relator
    reps = NumericReps()
    gated: list[complex] = []
    for z in sorted(_all_roots(rel.u_hat, data.poly), key=lambda z: z.imag < 0):
        u = z.conjugate() if z.imag < 0 else z
        if abs(u.imag) <= _PAIR_TOL * max(1.0, abs(u)):
            u = complex(u.real, 0.0)
        if any(abs(u - seen) <= _PAIR_TOL for seen in gated):
            continue
        gated.append(u)
        a, b, c, d = _float_image(rel.u, u)
        # tested first: max() drops a nan that is not its first argument
        if all(map(cmath.isfinite, (a, b, c, d))):
            residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
        else:
            residual = math.nan
        if not residual <= tol:
            warnings.warn(f"dropping root {z} with relator residual {residual:.3e}")
            reps.dropped.append((z, residual))
            continue
        reps.append(NumericRep(u, residual))
        if u.imag:
            reps.append(NumericRep(u.conjugate(), residual))
    reps.sort(key=lambda rep: (rep.omega.real, rep.omega.imag))
    if not reps:
        warnings.warn(f"no representation root of {data.fraction} met tolerance {tol}")
    return reps


# ------------------------------------------------ exact representations mod l^k

# every matrix entry of the scan stays below this, a one-digit CPython int
MODULUS_BOUND = 1 << 30
# primes tried for a simple root of g before giving up
_PRIMES_TRIED = 200


def _horner(poly: Poly, x: int, modulus: int) -> tuple[int, int]:
    """poly(x) and poly'(x) mod modulus."""
    g = dg = 0
    for c in reversed(poly):
        dg = (dg * x + g) % modulus
        g = (g * x + c) % modulus
    return g, dg


def _lifted_root(poly: Poly, prime: int, modulus: int) -> int | None:
    """The least alpha in F_prime with poly(alpha) = 0 and poly'(alpha) != 0,
    lifted to the root of poly mod modulus = prime^k; None when there is none.

    The lift is unique (Hensel): poly'(alpha) stays a unit, and each Newton
    step doubles the power of prime that divides poly(alpha).
    """
    for alpha in range(prime):
        g, dg = _horner(poly, alpha, prime)
        if not g and dg:
            break
    else:
        return None
    while True:
        g, dg = _horner(poly, alpha, modulus)
        if not g:
            return alpha
        alpha = (alpha - g * pow(dg, -1, modulus)) % modulus


class ModularRep(NamedTuple):
    """a -> [[1, 1], [0, 1]], b -> [[1, 0], [alpha, 1]] over Z/modulus, modulus
    a power of the odd prime and alpha a root of the Riley polynomial."""

    prime: int
    modulus: int
    alpha: int


def modular_image(word, rep: ModularRep) -> tuple[int, int, int, int]:
    """Image of a word over Z/modulus (left-to-right product, row-major)."""
    modulus, alpha = rep.modulus, rep.alpha
    a, b, c, d = 1, 0, 0, 1
    for letter in word:
        if letter == 1:
            b, d = (a + b) % modulus, (c + d) % modulus
        elif letter == -1:
            b, d = (b - a) % modulus, (d - c) % modulus
        elif letter == 2:
            a, c = (a + alpha * b) % modulus, (c + alpha * d) % modulus
        else:
            a, c = (a - alpha * b) % modulus, (c - alpha * d) % modulus
    return a, b, c, d


def modular_rep(data: RileyData) -> ModularRep:
    """The exact pair mod the largest power of a prime at most MODULUS_BOUND,
    for the least odd prime that spares the leading coefficient of
    data.poly and mod which it has a simple root.

    The Riley polynomial g divides every entry of rho(u) - I in Z[w], so
    w -> alpha is a homomorphism from the knot group to SL2(Z/modulus): a
    word whose image is not I is nontrivial in the group.  That is checked
    on the relator before the pair is returned.  Raises RuntimeError when
    no simple root turns up in _PRIMES_TRIED primes, or when the check fails.
    """
    poly = data.poly
    prime, tried = 2, 0
    while tried < _PRIMES_TRIED:
        prime += 1
        if poly[-1] % prime == 0 or any(prime % d == 0 for d in range(2, math.isqrt(prime) + 1)):
            continue
        tried += 1
        modulus = prime
        while modulus * prime <= MODULUS_BOUND:
            modulus *= prime
        alpha = _lifted_root(poly, prime, modulus)
        if alpha is None:
            continue
        rep = ModularRep(prime, modulus, alpha)
        if modular_image(data.relator.u, rep) != (1, 0, 0, 1):
            raise RuntimeError(f"relator of {data.fraction} is not I at w = {alpha} mod {modulus}")
        return rep
    raise RuntimeError(f"no simple root of the Riley polynomial of {data.fraction} "
                       f"modulo {tried} primes above 2")
