"""Farey tessellation reflections and the exact epimorphism orbit test.

Two extended rationals span a Farey edge when |q1 p2 - q2 p1| = 1.  The
reflection in that edge is an integral Mobius involution of determinant
-1 fixing both endpoints.  The group Gamma_r generated by the reflections
in all edges with an endpoint at infinity or at a slope r classifies,
through its orbit of {r, infinity}, which two-bridge knot groups surject
onto the group of K(r).  Gamma_r has a fundamental domain bounded by four
Farey edges, so orbit membership is decided exactly by a descent onto
that domain: "yes" with a witness chain of reflections, or "no".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .slope import INFINITY, Frac, GenusOneKnot, r_prime


def is_farey_edge(s: Frac, t: Frac) -> bool:
    """Farey adjacency: |q_s p_t - q_t p_s| = 1 (infinity is 1/0)."""
    if s == t:
        raise ValueError("edge endpoints must differ")
    return abs(s.num * t.den - t.num * s.den) == 1


@dataclass(frozen=True)
class Reflection:
    """Reflection in a Farey edge, as an integer matrix of determinant -1
    acting by x -> (a x + b) / (c x + d)."""

    a: int
    b: int
    c: int
    d: int
    edge: tuple[Frac, Frac]

    def apply(self, x: Frac) -> Frac:
        return Frac(self.a * x.num + self.b * x.den, self.c * x.num + self.d * x.den)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


def reflection_in_edge(s: Frac, t: Frac) -> Reflection:
    """The reflection fixing both endpoints of the Farey edge (s, t)."""
    if not is_farey_edge(s, t):
        raise ValueError(f"({s}, {t}) is not a Farey edge")
    q1, p1 = s.num, s.den
    q2, p2 = t.num, t.den
    tr = q1 * p2 + q2 * p1
    refl = Reflection(tr, -2 * q1 * q2, 2 * p1 * p2, -tr, (s, t))
    if refl.det != -1:
        raise AssertionError(f"reflection in ({s}, {t}) has determinant {refl.det}")
    return refl


def _left_parent(r: Frac) -> tuple[int, int]:
    """(a, b) with b = q^-1 mod p and qb - pa = 1: for p >= 2, a/b is the
    left Farey parent of r = q/p, with 0 < b < p."""
    q, p = r.num, r.den
    b = pow(q, -1, p)
    return (q * b - 1) // p, b


def reflection_generators(r: Frac, neighbor_bound: int) -> list[Reflection]:
    """Bounded generating slice of the edge-reflection group of r.

    Edges (infinity, k) for |k| <= neighbor_bound, and edges (r, s_j)
    over the Farey neighbors s_j = (q0 + j q)/(p0 + j p) of r for
    |j| <= neighbor_bound, from the left parent q0/p0 of r.
    """
    if r.den == 0:
        raise ValueError("r must be rational")
    gens = [
        reflection_in_edge(INFINITY, Frac(k, 1))
        for k in range(-neighbor_bound, neighbor_bound + 1)
    ]
    q0, p0 = _left_parent(r)
    seen = {g.edge for g in gens}
    for j in range(-neighbor_bound, neighbor_bound + 1):
        s = Frac(q0 + j * r.num, p0 + j * r.den)
        edge = (r, s)
        if edge not in seen:
            seen.add(edge)
            gens.append(reflection_in_edge(r, s))
    return gens


@dataclass
class OrbitSearch:
    """Outcome of one descent: ``found`` when the target lies in the orbit
    of {r, infinity} under Gamma_r.  ``visited`` counts the reflections
    applied, ``landing`` is where the descent stopped (r or infinity on a
    yes, a point of the free sides [k, r1] and [r2, k + 1] on a no), and
    ``witness`` is the chain of reflections from r or infinity to the
    target (empty on a no, and when the target is r or infinity)."""

    found: bool
    r: Frac
    target: Frac
    visited: int
    landing: Frac
    witness: list[dict] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "yes" if self.found else "no"


def orbit_contains(r: Frac, target: Frac) -> OrbitSearch:
    """Decide whether target lies in the orbit of {r, infinity} under the
    group generated by the reflections in the Farey edges with an
    endpoint at infinity or at r.

    With k = floor(r), that group has the fundamental domain bounded by
    the edges <inf, k>, <inf, k + 1>, <r1, r> and <r, r2>, where r1 < r < r2
    are the Farey parents of r.  Each step reflects the point across the
    fan of edges at infinity into [k, k + 1], or across the fan at r into
    the arc from r2 through infinity to r1.  The point lands on r or
    infinity exactly when it is in their orbit; otherwise it lands on
    the domain's free sides [k, r1] and [r2, k + 1].  In the fan
    coordinate phi(X/Y) = (bX - aY)/(qY - pX) the neighbours
    n_j = (a + jq)/(b + jp) of r = q/p sit at the integers j, r at
    infinity, and the reflection in <r, n_j> is phi -> 2j - phi.
    """
    q, p = r.num, r.den
    if p < 2:
        raise ValueError(f"r must be a non-integer rational, got {r}")
    k = q // p
    a, b = _left_parent(r)  # r1 = n_0 = a/b
    x, y = target.num, target.den
    edges = []  # the reflections applied, from the target down

    def step(edge, x2, y2):
        nonlocal x, y
        edges.append(edge)
        x, y = (-x2, -y2) if y2 < 0 else (x2, y2)

    # An image in (k + 1, k + 2), or with phi in (-2, -1), is sent on by
    # the next pass through <inf, k + 1>, or <r, n_-1> = <r, r2>.
    while y and (x, y) != (q, p):
        t = x - k * y  # x/y - k = t/y
        if not 0 <= t <= y:
            m = -(-t // (2 * y))  # ceil(t / 2y): 2m - t/y lands in [0, 2)
            step((INFINITY, Frac(k + m)), 2 * (k + m) * y - x, y)
            continue
        u, v = b * x - a * y, q * y - p * x
        if v < 0:
            u, v = -u, -v
        if -v <= u <= 0:
            break  # phi in [-1, 0]: the free sides [k, r1] and [r2, k + 1]
        j = u // (2 * v)  # 2j - phi lands in (-2, 0]
        u = 2 * j * v - u
        step((r, Frac(a + j * q, b + j * p)), q * u + a * v, p * u + b * v)

    landing = Frac(x, y)
    found = landing in (r, INFINITY)
    witness = []
    if found:
        # replay the reflections backwards from the landing point, exactly
        at = landing
        for edge in reversed(edges):
            image = reflection_in_edge(*edge).apply(at)
            witness.append(
                {"edge": [str(e) for e in edge], "from": str(at), "to": str(image)}
            )
            at = image
        if at != target:
            raise RuntimeError(f"witness ends at {at}, not at the target {target}")
    return OrbitSearch(found, r, target, len(edges), landing, witness)


# What turns a "no" of the orbit test into "no epimorphism".
EPI_BASIS = (
    "classification of epimorphisms onto genus-one hyperbolic 2-bridge "
    "knot groups (arXiv:1508.03793, Parabolic generating pairs of "
    "genus-one 2-bridge knot groups): G(K(r~)) surjects onto G(K(r)) iff "
    "r~ or r~+1 lies in the Gamma_r-orbit of r or infinity or in the "
    "Gamma_r'-orbit of r' or infinity; orbits decided on the fundamental "
    "domain of Gamma_r (Lee-Sakuma, Proc. LMS 104, 2012)"
)


@dataclass
class EpiResult:
    source: Frac
    target: Frac
    verdict: str
    route: str | None
    searches: dict[str, OrbitSearch]
    witness: list[dict]


def epimorphism_exists(r_tilde: Frac, r: Frac) -> EpiResult:
    """Decide whether the group of K(r_tilde) surjects onto that of K(r).

    The target slope r must be a hyperbolic genus-one slope 2n/(4mn +- 1)
    and the source a two-bridge knot slope (odd denominator >= 3).
    "yes" when r_tilde or r_tilde + 1 (taken mod 1) lies in the orbit of
    {r, infinity} or of {r', infinity} with q q' = 1 mod p, and "no"
    otherwise; the "no" rests on the classification in EPI_BASIS.
    ``searches`` maps each route tried to its descent, in order.
    """
    knot = GenusOneKnot.from_fraction(r)
    if not knot.is_hyperbolic:
        raise ValueError(
            "slope 2/3 is the torus knot; the classification needs a "
            "hyperbolic target"
        )
    if r_tilde.den < 3 or r_tilde.den % 2 == 0:
        raise ValueError(
            f"source slope {r_tilde} is not a two-bridge knot (need odd "
            "denominator >= 3)"
        )
    rt = Frac(r_tilde.num % r_tilde.den, r_tilde.den)
    searches = {}
    for base, base_name in ((r, "r"), (r_prime(r), "r'")):
        for t, t_name in ((rt, "rt"), (rt + 1, "rt+1")):
            route = f"{t_name} in orbit of {base_name}"
            res = searches[route] = orbit_contains(base, t)
            if res.found:
                return EpiResult(r_tilde, r, "yes", route, searches, res.witness)
    return EpiResult(r_tilde, r, "no", None, searches, [])
