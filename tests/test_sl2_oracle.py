import cmath
import functools
import itertools
import math
import random
import warnings
from fractions import Fraction

import mpmath
import pytest

from bridgeforge import presentation, sl2_oracle
from bridgeforge.meridians import long_meridian_words
from bridgeforge.sl2_oracle import even_slope_rep, numeric_reps
from bridgeforge.slope import Frac, GenusOneKnot
from bridgeforge.words import parse_word

from grids import aberth_iterates, even_fractions, relator, riley_polynomials


def dist_pm_identity(mat) -> float:
    """Entrywise max distance from +-I, normalized by max(1, max entry)."""
    scale = max(1.0, max(abs(e) for e in mat))
    plus = max(abs(mat[0] - 1), abs(mat[1]), abs(mat[2]), abs(mat[3] - 1))
    minus = max(abs(mat[0] + 1), abs(mat[1]), abs(mat[2]), abs(mat[3] + 1))
    return min(plus, minus) / scale


# Complex 2x2 matrices as 4-tuples row-major, multiplied generically: the
# float image of a word at w, independent of the column operations of
# sl2_oracle._float_image.

def mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def mat_inv(x):
    # determinant 1 throughout
    return (x[3], -x[1], -x[2], x[0])


def float_image(word, omega):
    """Image of a word at w = omega (left-to-right product)."""
    a = (1 + 0j, 1 + 0j, 0j, 1 + 0j)
    b = (1 + 0j, 0j, omega, 1 + 0j)
    gens = {1: a, -1: mat_inv(a), 2: b, -2: mat_inv(b)}
    out = (1 + 0j, 0j, 0j, 1 + 0j)
    for letter in word:
        out = mat_mul(out, gens[letter])
    return out


def relator_residual(img):
    return max(abs(img[0] - 1), abs(img[1]), abs(img[2]), abs(img[3] - 1))


# Integer polynomials (coefficient tuples, low degree first) and 2x2
# matrices over them, stored as 4-tuples row-major: the exact image of a
# word under a -> [[1, 1], [0, 1]], b -> [[1, 0], [w, 1]].

def poly_add(f, g):
    n = max(len(f), len(g))
    return sl2_oracle._trim(
        (f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)
    )


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return sl2_oracle._trim(out)


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


_ONE = (1,)
_W = (0, 1)
_PGEN = {
    1: (_ONE, _ONE, (), _ONE),           # a
    -1: (_ONE, (-1,), (), _ONE),         # a^-1
    2: (_ONE, (), _W, _ONE),             # b
    -2: (_ONE, (), (0, -1), _ONE),       # b^-1
}


def poly_mat_mul(x, y):
    return (
        poly_add(poly_mul(x[0], y[0]), poly_mul(x[1], y[2])),
        poly_add(poly_mul(x[0], y[1]), poly_mul(x[1], y[3])),
        poly_add(poly_mul(x[2], y[0]), poly_mul(x[3], y[2])),
        poly_add(poly_mul(x[2], y[1]), poly_mul(x[3], y[3])),
    )


def poly_evaluate_word(word):
    out = (_ONE, (), (), _ONE)
    for letter in word:
        out = poly_mat_mul(out, _PGEN[letter])
    return out


def poly_det(mat):
    return poly_add(
        poly_mul(mat[0], mat[3]), tuple(-c for c in poly_mul(mat[1], mat[2]))
    )


# Reference oracle: the defining polynomial as the gcd of the four entries
# of rho(u) - I, by Euclid over the rationals.

def _primitive(fracs):
    """Integer polynomial: denominators cleared, content 1, positive lead."""
    fracs = [Fraction(c) for c in fracs]
    if not fracs:
        return ()
    denom = math.lcm(*(c.denominator for c in fracs))
    ints = [int(c * denom) for c in fracs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _poly_gcd_pair(f, g):
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while b:
        while len(a) >= len(b) and a:  # a mod b
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i in range(len(b)):
                a[shift + i] -= factor * b[i]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return _primitive(a)


def poly_gcd(*polys):
    acc = ()
    for f in polys:
        f = sl2_oracle._trim(f)
        acc = f if not acc else _poly_gcd_pair(acc, f)
    return _primitive(acc)


def relator_entries(f):
    """The four entry polynomials of rho(u) - I for the relator u of f."""
    img = poly_evaluate_word(relator(f).u)
    return (poly_add(img[0], (-1,)), img[1], img[2], poly_add(img[3], (-1,)))


def reps_of(f, tol=1e-9):
    return numeric_reps(riley_polynomials(f), tol=tol)


def test_poly_gcd_basics():
    # (x - 1)(x + 2) and (x - 1)(x - 3) share x - 1
    assert poly_gcd((-2, 1, 1), (3, -4, 1)) == (-1, 1)
    assert poly_gcd((2, 2), (4,)) == (1,)
    assert poly_gcd((), (0, 2)) == (0, 1)


def test_generator_determinants():
    for word in ("a", "b", "A", "B", "abAB"):
        det = poly_det(poly_evaluate_word(parse_word(word)))
        assert det == (1,)


def test_even_slope_rep():
    assert even_slope_rep(Frac(3, 5)) == Frac(2, 5)
    assert even_slope_rep(Frac(2, 5)) == Frac(2, 5)


def test_riley_data_small_slopes():
    fig8 = riley_polynomials(Frac(2, 5))
    assert len(fig8.poly) - 1 == 2
    trefoil = riley_polynomials(Frac(2, 3))
    assert len(trefoil.poly) - 1 == 1


def test_riley_data_carries_its_relator(monkeypatch):
    # built once by riley_polynomials, for the mirror slope it used; the
    # float roots and the exact pair read it instead of rebuilding it
    data = sl2_oracle.riley_polynomials(Frac(9, 13))
    assert data.relator == presentation.relator(Frac(4, 13)) == presentation.relator(data.fraction)

    def rebuilt(f):
        raise AssertionError(f"relator of {f} rebuilt")

    monkeypatch.setattr(sl2_oracle, "relator", rebuilt)
    assert len(numeric_reps(data)) == 6
    assert sl2_oracle.modular_rep(data).modulus <= sl2_oracle.MODULUS_BOUND


def test_numeric_reps_residuals_and_count():
    for q, p in ((2, 5), (2, 3), (2, 7), (4, 7), (2, 15)):
        reps = reps_of(Frac(q, p))
        assert len(reps) == (p - 1) // 2
        assert all(rep.residual < 1e-9 for rep in reps)
        assert reps.dropped == []
    # figure-eight has non-real parabolic representations
    assert any(abs(rep.omega.imag) > 0.1 for rep in reps_of(Frac(2, 5)))
    # trefoil root is real with tiny residual
    trefoil = reps_of(Frac(2, 3))
    assert len(trefoil) == 1 and trefoil[0].residual < 1e-12


def test_reps_sorted_deterministically():
    reps = reps_of(Frac(6, 25))
    keys = [(rep.omega.real, rep.omega.imag) for rep in reps]
    assert keys == sorted(keys)


def test_roots_annihilate_defining_polynomial():
    for q, p in ((2, 5), (2, 7), (6, 25)):
        f = Frac(q, p)
        data = riley_polynomials(f)
        scale = sum(abs(c) for c in data.poly)
        for rep in reps_of(f):
            assert abs(poly_eval(data.poly, rep.omega)) < 1e-10 * scale
            # the entry polynomials of rho(u) - I vanish at each root
            for entry in relator_entries(f):
                assert abs(poly_eval(entry, rep.omega)) < 1e-8 * (
                    1 + sum(abs(c) for c in entry)
                )


def test_riley_entry_is_gcd_of_relator_entries():
    # Riley's one-entry polynomial against the gcd oracle, every slope p < 60
    slopes = even_fractions(59)
    assert len(slopes) == 364
    for f in slopes:
        data = riley_polynomials(f)
        assert data.poly == poly_gcd(*relator_entries(f)), f
        assert len(data.poly) - 1 == (f.den - 1) // 2
        assert abs(data.poly[0]) == 1


def full_word_value(u_hat, w):
    """(2,2) entry of rho(uhat) at w and its derivative in w, by the
    column operations of riley_polynomials over the whole word (forward
    mode): the walk that sl2_oracle._riley_value halves."""
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


def half_word_poly(u_hat):
    """y^2 - w xi^2 in Z[w], with (w xi, y) the bottom row of rho(v) for
    the first half v of uhat, by integer column operations."""
    xi, y = [], [1]
    for letter in u_hat[:len(u_hat) // 2]:
        e = 1 if letter > 0 else -1
        if abs(letter) == 1:  # y += e w xi
            y.extend([0] * (len(xi) + 1 - len(y)))
            for i, c in enumerate(xi):
                y[i + 1] += e * c
        else:  # xi += e y
            xi.extend([0] * (len(y) - len(xi)))
            for i, c in enumerate(y):
                xi[i] += e * c
    w_xi2 = poly_mul(_W, poly_mul(xi, xi))
    return poly_add(poly_mul(y, y), tuple(-c for c in w_xi2))


def test_half_word_value_matches_the_full_word_walk():
    # g and g' from half of uhat against the walk over all of it, at three
    # random points per slope, on every even slope with p < 200
    rng = random.Random(22)
    slopes = even_fractions(199)
    assert len(slopes) == 4075
    for f in slopes:
        u_hat = relator(f).u_hat
        for _ in range(3):
            w = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            g, dg = sl2_oracle._riley_value(u_hat, w)
            g_full, dg_full = full_word_value(u_hat, w)
            assert abs(g - g_full) <= 1e-12 * abs(g_full), (f, w)
            assert abs(dg - dg_full) <= 1e-12 * abs(dg_full), (f, w)


def test_half_word_identity_is_exact():
    # uhat = v swap(v)^-1 makes y^2 - w xi^2 the Riley polynomial in Z[w],
    # up to the sign riley_polynomials normalises, on every even slope
    # with p < 150
    slopes = even_fractions(149)
    assert len(slopes) == 2275
    for f in slopes:
        data = riley_polynomials(f)
        half = half_word_poly(data.relator.u_hat)
        assert half in (data.poly, tuple(-c for c in data.poly)), f


def poly_exact_quotient(f, g):
    """f / g in Z[w], or None when g does not divide f there."""
    rem = [Fraction(c) for c in f]
    quot = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g):
        shift = len(rem) - len(g)
        quot[shift] = factor = rem[-1] / g[-1]
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    if rem or any(c.denominator != 1 for c in quot):
        return None
    return sl2_oracle._trim(int(c) for c in quot)


def test_riley_polynomials_follow_a_chebyshev_recurrence_in_n():
    # g_n, the Riley polynomial of (m, n, sign), with g_0 = sign: for each
    # m <= 8, z_m = (g_2 + sign)/g_1 is a polynomial, the same for both
    # signs, and g_n = z_m g_(n-1) - g_(n-2) for 3 <= n <= 16.  For m <= 4,
    # z_m - 2 = w^2 c_m^2 with the c_m below
    c = {1: (1,), 2: (2, 1), 3: (3, 4, 1), 4: (4, 10, 6, 1)}
    checked = 0
    for m in range(1, 9):
        zs = set()
        for sign in (1, -1):
            g = [(sign,)] + [riley_polynomials(GenusOneKnot(m, n, sign).fraction).poly
                             for n in range(1, 17)]
            z = poly_exact_quotient(poly_add(g[2], (sign,)), g[1])
            assert z is not None, (m, sign)
            zs.add(z)
            for n in range(3, 17):
                assert g[n] == poly_add(poly_mul(z, g[n - 1]), tuple(-x for x in g[n - 2])), (m, n, sign)
                checked += 1
        (z,) = zs
        if m in c:
            assert poly_add(z, (-2,)) == poly_mul(poly_mul(_W, _W), poly_mul(c[m], c[m])), m
    assert checked == 224
    # the quotient is exact or None
    assert poly_exact_quotient((-1, 0, 1), (1, 1)) == (-1, 1)
    assert poly_exact_quotient((1, 0, 1), (1, 1)) is None
    assert poly_exact_quotient((1, 2), (2,)) is None


@functools.lru_cache(maxsize=None)
def _mpmath_roots(poly):
    """The roots of poly to 60 digits, as mpmath numbers."""
    with mpmath.workdps(60):
        return tuple(mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(poly)], maxsteps=200, extraprec=200
        ))


@pytest.mark.parametrize(
    "f", even_fractions(25) + [Frac(16, 65), Frac(34, 67)], ids=str
)
def test_roots_match_mpmath_reference(f):
    reference = [complex(z) for z in _mpmath_roots(riley_polynomials(f).poly)]
    reps = reps_of(f)
    assert len(reps) == len(reference) == (f.den - 1) // 2
    for rep in reps:
        assert min(abs(rep.omega - z) for z in reference) < 1e-9
    for z in reference:
        assert min(abs(rep.omega - z) for rep in reps) < 1e-9
    # conjugate pairs are exact conjugates, and a real root is exactly real
    omegas = {rep.omega for rep in reps}
    assert all(rep.omega.conjugate() in omegas for rep in reps)
    real = sum(abs(z.imag) < 1e-9 for z in reference)
    assert sum(rep.omega.imag == 0.0 for rep in reps) == real
    assert sum(rep.omega.conjugate() == rep.omega for rep in reps) == real


@pytest.mark.parametrize(
    "f", even_fractions(31) + [Frac(16, 65), Frac(34, 67)], ids=str
)
def test_spread_is_the_roots_mean_square_deviation(f):
    # Newton's identities: the exact S is the mean of (w - mu)^2 over the
    # roots, mu their mean
    poly = riley_polynomials(f).poly
    roots = _mpmath_roots(poly)
    with mpmath.workdps(60):
        mu = mpmath.fsum(roots) / len(roots)
        reference = complex(mpmath.fsum((w - mu) ** 2 for w in roots) / len(roots))
    spread = sl2_oracle._spread(poly)
    assert abs(spread - reference) <= 1e-9 * abs(reference), f
    assert (spread == 0) == (f.den == 3)


def test_semi_axes_match_the_spread_and_radius():
    # S = 0 gives the circle of radius r, bit for bit
    for r in (0.3, 1.0, 1.0487997164572285, 7.5):
        assert sl2_oracle._semi_axes(0.0, r) == (r, r)
    # a^2 - b^2 = 2S and ab = r^2, the real axis the longer one when S > 0,
    # also on thin ellipses either way round
    for spread in (1.9566, -0.75, 3.0, -40.0, 1e9, -1e9, 1e-9, -1e-9):
        for r in (0.01, 1.0, 2.5):
            a, b = sl2_oracle._semi_axes(spread, r)
            assert abs(a * a - b * b - 2 * spread) <= 1e-12 * (a * a + b * b), (spread, r)
            assert math.isclose(a * b, r * r, rel_tol=1e-12), (spread, r)
            assert (a > b) == (spread > 0) and b > 0, (spread, r)


@pytest.mark.parametrize("f", [Frac(2, 7), Frac(34, 67), Frac(66, 67), Frac(144, 151)], ids=str)
def test_starts_share_the_roots_first_two_moments(monkeypatch, f):
    # the first n + 1 evaluations are at the centre and at the n starts,
    # each still unmoved when the first sweep reaches it
    value = sl2_oracle._riley_value
    points = []

    def recorded(u_hat, w):
        points.append(w)
        return value(u_hat, w)

    monkeypatch.setattr(sl2_oracle, "_riley_value", recorded)
    data = riley_polynomials(f)
    poly, n = data.poly, len(data.poly) - 1
    sl2_oracle._all_roots(data.relator.u_hat, poly)
    mu, *starts = points[:n + 1]
    assert mu == -poly[-2] / (n * poly[-1])
    assert abs(sum(starts) / n - mu) <= 1e-12 * max(1.0, abs(mu))
    spread = sum((z - mu) ** 2 for z in starts) / n
    scale = sum(abs(z - mu) ** 2 for z in starts) / n
    assert abs(spread - sl2_oracle._spread(poly)) <= 1e-12 * scale, f
    # on the ellipse with those semi-axes and off the real axis
    r = abs(value(data.relator.u_hat, mu)[0] / poly[-1]) ** (1 / n)
    a, b = sl2_oracle._semi_axes(sl2_oracle._spread(poly), r)
    for z in starts:
        assert math.isclose(((z.real - mu) / a) ** 2 + (z.imag / b) ** 2, 1.0, rel_tol=1e-12)
        assert z.imag


def test_jittering_iterate_is_frozen_far_below_the_cap(monkeypatch):
    # at 144/151 the iterate at the real root w ~ 1.136915 swings between
    # two floats 5 ulp apart, each correction just above _STOP; it is
    # frozen once its correction stops shrinking, where under _STOP alone
    # (_NOISE = 0) it is evaluated in every sweep up to the cap of 200
    data = riley_polynomials(Frac(144, 151))
    value = sl2_oracle._riley_value
    points = []

    def recorded(u_hat, w):
        points.append(w)
        return value(u_hat, w)

    monkeypatch.setattr(sl2_oracle, "_riley_value", recorded)
    frozen = sl2_oracle._all_roots(data.relator.u_hat, data.poly)
    at_root = [w for w in points if abs(w - 1.136915322) < 1e-9]
    points.clear()
    monkeypatch.setattr(sl2_oracle, "_NOISE", 0.0)
    capped = sl2_oracle._all_roots(data.relator.u_hat, data.poly)
    assert len(at_root) <= 4
    assert sum(abs(w - 1.136915322) < 1e-9 for w in points) > 180
    assert len(frozen) == len(capped) == 75
    assert all(abs(a - b) <= 1e-12 for a, b in zip(frozen, capped))


def test_numeric_reps_never_keeps_nan_residual(monkeypatch):
    found = sl2_oracle._all_roots
    nan, inf = float("nan"), float("inf")

    def with_bad_iterates(u_hat, poly):
        return [complex(nan, nan), complex(inf, 0)] + found(u_hat, poly)

    monkeypatch.setattr(sl2_oracle, "_all_roots", with_bad_iterates)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reps = reps_of(Frac(2, 7))
    assert len(reps) == 3
    assert all(rep.residual <= 1e-9 for rep in reps)
    assert sum("dropping root" in str(w.message) for w in caught) == 2
    # the result lists both iterates, each with its non-finite residual
    assert len(reps.dropped) == 2
    (nan_root, nan_res), (inf_root, inf_res) = reps.dropped
    assert cmath.isnan(nan_root) and inf_root == complex(inf, 0)
    assert not math.isfinite(nan_res) and not math.isfinite(inf_res)


def folded(monkeypatch, iterates):
    """numeric_reps of 2/7 on the given iterates, with tol = inf so that
    every finite root passes the gate: its kept omegas and dropped list."""
    monkeypatch.setattr(sl2_oracle, "_all_roots", lambda u_hat, poly: list(iterates))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reps = reps_of(Frac(2, 7), tol=math.inf)
    by_omega = {rep.omega: rep.residual for rep in reps}
    assert all(by_omega[rep.omega.conjugate()] == rep.residual for rep in reps)
    return [rep.omega for rep in reps], reps.dropped


def test_fold_rule(monkeypatch):
    # a pair keeps its upper iterate and that iterate's exact conjugate,
    # whichever of the two comes first
    upper, lower = 1 + 2j, 1 + 1e-9 - 2j
    for iterates in ([lower, upper], [upper, lower]):
        assert folded(monkeypatch, iterates) == ([upper.conjugate(), upper], [])
    # a root found only in the lower half comes back as conj(z) and z
    z = 3 - 1j
    assert folded(monkeypatch, [z]) == ([z, z.conjugate()], [])
    # a near-real root becomes real, with imaginary part +0.0, within
    # 1e-8 max(1, |z|)
    for z in (3 - 1e-12j, -2 + 1e-12j, 1e4 - 5e-5j, complex(-0.5, -0.0)):
        (omega,), dropped = folded(monkeypatch, [z])
        assert omega == z.real and math.copysign(1.0, omega.imag) == 1.0 and not dropped
    assert folded(monkeypatch, [3 - 1e-7j])[0] == [3 - 1e-7j, 3 + 1e-7j]
    # two iterates within 1e-8 give one root, in either half-plane; 1e-6
    # apart they give two
    for twin in (2 + 1j + 5e-9, 2 - 1j + 5e-9j):
        assert folded(monkeypatch, [2 + 1j, twin])[0] == [2 - 1j, 2 + 1j]
    assert len(folded(monkeypatch, [2 + 1j, 2 + 1j + 1e-6])[0]) == 4
    # each nan or inf iterate is listed in dropped, as it was found
    nan, inf = complex("nan"), complex("inf")
    omegas, dropped = folded(monkeypatch, [nan, inf, 1 + 2j, nan, complex(inf, -1)])
    assert omegas == [1 - 2j, 1 + 2j]
    assert len(dropped) == 4 and all(math.isnan(residual) for _, residual in dropped)
    roots = [z for z, _ in dropped]
    assert cmath.isnan(roots[0]) and roots[1] == inf and cmath.isnan(roots[2])
    assert roots[3] == complex(inf, -1)


# The conjugate pairing that the fold replaced, kept as its reference:
# mutual-nearest pairs before the gate, a residual cache keyed by the upper
# root, and the restoration of lost conjugates after it.

def conjugate_pairs(zs):
    """zs with each mutual-nearest conjugate pair within 1e-8 max(1, |z|)
    made exact conjugates of its upper root, and each root that is its
    own nearest conjugate and that close to the real axis made real."""
    out = list(zs)
    finite = [k for k, z in enumerate(zs) if cmath.isfinite(z)]
    nearest = {
        k: min(finite, key=lambda j: abs(zs[j] - zs[k].conjugate())) for k in finite
    }
    for k, j in nearest.items():
        z = zs[k]
        bound = 1e-8 * max(1.0, abs(z))
        if j == k:
            if abs(z.imag) <= bound:
                out[k] = complex(z.real, 0.0)
        elif k < j and nearest[j] == k and abs(z - zs[j].conjugate()) <= bound:
            upper, lower = (k, j) if z.imag >= zs[j].imag else (j, k)
            out[lower] = zs[upper].conjugate()
    return out


def paired_reps(data, zs, tol=1e-9):
    """numeric_reps by the pairing rule on the iterates zs: kept
    (omega, residual) pairs and the dropped list."""
    reps, dropped = [], []
    residuals = {}  # by the root in the upper half-plane
    for omega in conjugate_pairs(zs):
        upper = omega if omega.imag >= 0 else omega.conjugate()
        residual = residuals.get(upper)
        if residual is None:
            img = sl2_oracle._float_image(data.relator.u, upper)
            residual = relator_residual(img) if all(map(cmath.isfinite, img)) else math.nan
            residuals[upper] = residual
        if not residual <= tol:
            dropped.append((omega, residual))
        elif all(abs(omega - kept) > 1e-8 for kept, _ in reps):
            reps.append((omega, residual))
    omegas = {omega for omega, _ in reps}
    for omega, residual in list(reps):
        twin = omega.conjugate()
        if twin != omega and twin not in omegas and all(
            abs(twin - kept) > 1e-8 for kept, _ in reps
        ):
            reps.append((twin, residual))
            omegas.add(twin)
    reps.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    return reps, dropped


def test_fold_matches_the_pairing_rule(monkeypatch):
    # on the same iterates, every even slope with p <= 61, 80/269 and
    # 24/577, where the iteration once lost a conjugate, and 32/1025, where
    # it still loses one: the iterate stuck where the float walk overflows
    iterates = []
    monkeypatch.setattr(sl2_oracle, "_all_roots", lambda u_hat, poly: list(iterates))
    lost = 0
    for f in even_fractions(61) + [Frac(80, 269), Frac(24, 577), Frac(32, 1025)]:
        data = riley_polynomials(f)
        iterates[:] = aberth_iterates(f)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reps = numeric_reps(data)
        expected, dropped = paired_reps(data, iterates)
        assert [(rep.omega, rep.residual) for rep in reps] == expected, f
        assert repr(reps.dropped) == repr(dropped), f
        # a kept root that no iterate came near is a conjugate put back
        lost += sum(all(abs(omega - z) > 1e-8 for z in iterates) for omega, _ in expected)
    # so the restoration is compared on real iterates, not on patched ones only
    assert lost


def test_conjugate_residuals_are_equal_bit_for_bit():
    # every word's image at conj(w) is the entrywise conjugate of its image
    # at w, so the relator residual of a conjugate pair is one number
    for f in (Frac(2, 9), Frac(4, 15), Frac(16, 65)):
        reps = reps_of(f)
        by_omega = {rep.omega: rep for rep in reps}
        u = relator(f).u
        for rep in reps:
            twin = by_omega[rep.omega.conjugate()]
            assert twin.residual == rep.residual
            img, twin_img = float_image(u, rep.omega), float_image(u, twin.omega)
            assert all(x.conjugate() == y for x, y in zip(img, twin_img))


def test_residual_matches_the_generic_product_bit_for_bit():
    # the column operations give the generic product's residual exactly,
    # on every kept root and every finite dropped one
    checked = 0
    for f in even_fractions(41) + [Frac(80, 269), Frac(204, 239)]:
        u = riley_polynomials(f).relator.u
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reps = reps_of(f)
        roots = [(rep.omega, rep.residual) for rep in reps] + reps.dropped
        for omega, residual in roots:
            img = float_image(u, omega)
            if math.isfinite(residual):
                assert residual == relator_residual(img), (f, omega)
                checked += 1
            else:
                assert not all(map(cmath.isfinite, img)), (f, omega)
    assert checked > 1000


@pytest.mark.parametrize("entry", range(4))
def test_residual_gate_drops_a_nan_in_any_entry(monkeypatch, entry):
    # max() keeps a nan only as its first argument; a nan in any entry of
    # the relator image must still give a nan residual and drop the root.
    # Each root is gated once: the dropped one is listed once, and its
    # conjugate iterate is neither kept nor listed
    image = sl2_oracle._float_image
    calls = []

    def nan_at_first_pair(word, w):
        img = list(image(word, w))
        if not any(z.imag for z in calls) and w.imag:
            img[entry] = complex("nan")
        calls.append(w)
        return tuple(img)

    monkeypatch.setattr(sl2_oracle, "_float_image", nan_at_first_pair)
    with pytest.warns(UserWarning, match="dropping root") as caught:
        reps = reps_of(Frac(2, 7))
    assert len(caught) == 1
    (dropped, residual), = reps.dropped
    assert math.isnan(residual)
    # 2/7 has one real root and one pair: two roots, each gated once
    assert len(calls) == 2 and calls[0].imag == 0 < calls[1].imag
    assert dropped == calls[1]
    assert [rep.omega for rep in reps] == [calls[0]]
    assert reps[0].residual <= 1e-9


def test_relator_image_is_identity():
    for q, p in ((2, 5), (2, 7), (4, 7)):
        f = Frac(q, p)
        u = relator(f).u
        for rep in reps_of(f):
            assert relator_residual(float_image(u, rep.omega)) < 1e-9


def test_long_meridians_are_parabolic():
    for params in ((1, 1, 1), (2, 1, 1), (1, 2, -1)):
        knot = GenusOneKnot(*params)
        mw = long_meridian_words(knot)
        for rep in reps_of(knot.fraction):
            for w in (mw.x_l, mw.y_l):
                img = float_image(w, rep.omega)
                tr = img[0] + img[3]
                assert min(abs(tr - 2), abs(tr + 2)) < 1e-8


# ------------------------------------------------ exact representations mod l^k

def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def poly_derivative(f):
    return tuple(k * c for k, c in enumerate(f))[1:]


def largest_power_at_most(prime, bound):
    power = prime
    while power * prime <= bound:
        power *= prime
    return power


def test_root_mod_matches_brute_force():
    # every odd prime below 200 that spares the leading coefficient: the
    # search finds a simple root exactly when brute force over F_l does,
    # and it lifts the least one
    for f in even_fractions(21):
        poly = riley_polynomials(f).poly
        dpoly = poly_derivative(poly)
        for prime in range(3, 200, 2):
            if not is_prime(prime) or poly[-1] % prime == 0:
                continue
            simple = [
                x for x in range(prime)
                if poly_eval(poly, x) % prime == 0 and poly_eval(dpoly, x) % prime
            ]
            modulus = largest_power_at_most(prime, 1 << 30)
            alpha = sl2_oracle._lifted_root(poly, prime, modulus)
            assert (alpha is None) == (not simple), (f, prime)
            if alpha is not None:
                assert alpha % prime == simple[0], (f, prime)
                assert poly_eval(poly, alpha) % modulus == 0, (f, prime)


def test_modular_rep_is_a_root_with_the_relator_at_identity():
    for f in even_fractions(31) + [Frac(16, 63), Frac(8, 127)]:
        data = riley_polynomials(f)
        rep = sl2_oracle.modular_rep(data)
        prime, modulus = rep.prime, rep.modulus
        assert is_prime(prime) and prime % 2 and data.poly[-1] % prime
        assert modulus == largest_power_at_most(prime, sl2_oracle.MODULUS_BOUND) <= 1 << 30
        assert 0 <= rep.alpha < modulus and poly_eval(data.poly, rep.alpha) % modulus == 0
        assert sl2_oracle.modular_image(relator(f).u, rep) == (1, 0, 0, 1)
        assert sl2_oracle.modular_rep(data) == rep
        # the least odd prime that spares the leading coefficient with a simple root
        for smaller in range(3, prime, 2):
            if is_prime(smaller) and data.poly[-1] % smaller:
                assert sl2_oracle._lifted_root(data.poly, smaller, smaller) is None, (f, smaller)


def test_modular_image_matches_the_integer_matrices():
    rng = random.Random(23)
    f = Frac(4, 13)
    rep = sl2_oracle.modular_rep(riley_polynomials(f))
    for _ in range(50):
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 15)))
        exact = poly_evaluate_word(word)
        expected = tuple(poly_eval(e, rep.alpha) % rep.modulus for e in exact)
        assert sl2_oracle.modular_image(word, rep) == expected


def test_modular_rep_skips_a_prime_dividing_the_leading_coefficient():
    # g times the prime of its pair vanishes mod that prime only
    f = Frac(2, 5)
    data = riley_polynomials(f)
    first = sl2_oracle.modular_rep(data).prime
    scaled = data._replace(poly=tuple(c * first for c in data.poly))
    rep = sl2_oracle.modular_rep(scaled)
    # the least prime above it with a simple root of g, lifted as for g
    prime = next(p for p in itertools.count(first + 1)
                 if is_prime(p) and data.poly[-1] % p
                 and sl2_oracle._lifted_root(data.poly, p, p) is not None)
    modulus = largest_power_at_most(prime, sl2_oracle.MODULUS_BOUND)
    assert rep == sl2_oracle.ModularRep(prime, modulus, sl2_oracle._lifted_root(data.poly, prime, modulus))


def test_modular_rep_raises_without_a_root(monkeypatch):
    data = riley_polynomials(Frac(2, 5))
    monkeypatch.setattr(sl2_oracle, "_lifted_root", lambda poly, prime, modulus: None)
    with pytest.raises(RuntimeError, match="no simple root of the Riley polynomial of 2/5 modulo 200 primes"):
        sl2_oracle.modular_rep(data)
    # alpha = 1 is no root of w^2 - w + 1 mod any prime: the relator check
    monkeypatch.setattr(sl2_oracle, "_lifted_root", lambda poly, prime, modulus: 1)
    with pytest.raises(RuntimeError, match="relator of 2/5 is not I at w = 1 mod 387420489"):
        sl2_oracle.modular_rep(data)


def test_numeric_reps_restores_a_lost_conjugate(monkeypatch):
    # the iteration loses the upper root of one pair (a nan iterate takes
    # its place): the lower iterate z_l is kept with its exact conjugate,
    # both with the residual of the relator at conj(z_l); the nan iterate
    # stays dropped and every other root is the full run's, bit for bit
    found = sl2_oracle._all_roots
    iterates = []

    def lose_upper_root(u_hat, poly):
        zs = found(u_hat, poly)
        iterates[:] = zs
        zs[max(range(len(zs)), key=lambda k: zs[k].imag)] = complex("nan")
        return zs

    f = Frac(6, 25)
    full = reps_of(f)
    monkeypatch.setattr(sl2_oracle, "_all_roots", lose_upper_root)
    with pytest.warns(UserWarning, match="dropping root"):
        reps = reps_of(f)
    upper = max(iterates, key=lambda z: z.imag)
    lower = min(iterates, key=lambda z: abs(z - upper.conjugate()))
    # the full run keeps the upper iterate and its exact conjugate
    assert {upper, upper.conjugate()} <= {rep.omega for rep in full}
    residual = relator_residual(sl2_oracle._float_image(relator(f).u, lower.conjugate()))
    assert residual <= 1e-9
    expected = [
        (rep.omega, rep.residual) for rep in full
        if rep.omega not in (upper, upper.conjugate())
    ] + [(lower, residual), (lower.conjugate(), residual)]
    expected.sort(key=lambda pair: (pair[0].real, pair[0].imag))
    assert [(rep.omega, rep.residual) for rep in reps] == expected
    (dropped, nan_residual), = reps.dropped
    assert cmath.isnan(dropped) and math.isnan(nan_residual)


def reps_at_found_iterates(monkeypatch, f):
    """reps_of(f), its Aberth iterates read from aberth_iterates, which
    test_fold_matches_the_pairing_rule computes too."""
    data = riley_polynomials(f)

    def found(u_hat, poly):
        assert u_hat is data.relator.u_hat and poly is data.poly
        return list(aberth_iterates(f))

    monkeypatch.setattr(sl2_oracle, "_all_roots", found)
    return reps_of(f)


def keeps_every_root(monkeypatch, f):
    """numeric_reps of f with no warning: all (p - 1)/2 roots kept, none
    dropped, and each conjugate pair with one residual."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = reps_at_found_iterates(monkeypatch, f)
    assert len(reps) == (f.den - 1) // 2 and reps.dropped == []
    by_omega = {rep.omega: rep for rep in reps}
    assert all(by_omega[rep.omega.conjugate()].residual == rep.residual for rep in reps)


def test_numeric_reps_keeps_every_root_at_80_269(monkeypatch):
    # started on a circle, the iteration left one iterate stuck where the
    # float walk overflows (residual nan) and reached one root only as the
    # conjugate of a kept one
    keeps_every_root(monkeypatch, Frac(80, 269))


def test_numeric_reps_keeps_every_root_at_24_577(monkeypatch):
    # started on a circle, two iterates were stuck where the float walk
    # overflows; the roots lie near [-4, 0] with |Im| <= 0.19
    keeps_every_root(monkeypatch, Frac(24, 577))


def test_numeric_reps_keeps_every_root_at_32_1025(monkeypatch):
    # 512 roots: the sweep cap grows with the degree (a fixed 200 sweeps
    # kept 380); one iterate still fails, where the float walk overflows,
    # and its root comes back as the conjugate of a kept one
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reps = reps_at_found_iterates(monkeypatch, Frac(32, 1025))
    assert len(reps) == 512
    assert all(rep.residual <= 1e-9 for rep in reps)
