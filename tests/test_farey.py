import importlib.util
import random
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from bridgeforge.farey import (
    _left_parent,
    epimorphism_exists,
    is_farey_edge,
    orbit_contains,
    reflection_generators,
    reflection_in_edge,
)
from bridgeforge.slope import INFINITY, Frac, parse_fraction, r_prime

from grids import genus_one_fractions


def bfs_orbit(r, depth, neighbor_bound):
    """Brute-force oracle: every point reached from r or infinity by at
    most ``depth`` reflections from ``reflection_generators(r, bound)``."""
    gens = reflection_generators(r, neighbor_bound)
    seen = {r, INFINITY}
    frontier = list(seen)
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for g in gens:
                image = g.apply(node)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


def replay(r, target, witness):
    """Re-apply a witness chain independently; it must run from r or
    infinity to the target through edges with an endpoint at r or infinity."""
    if not witness:
        return target in (r, INFINITY)
    at = parse_fraction(witness[0]["from"])
    if at not in (r, INFINITY):
        return False
    for step in witness:
        edge = [parse_fraction(e) for e in step["edge"]]
        if r not in edge and INFINITY not in edge:
            return False
        if parse_fraction(step["from"]) != at:
            return False
        at = reflection_in_edge(*edge).apply(at)
        if str(at) != step["to"]:
            return False
    return at == target


def free_sides(r):
    """[k, r1] and [r2, k + 1] with k = floor(r) and r1 < r < r2 the Farey
    parents of r: where a descent stops on a "no"."""
    q, p = r.num, r.den
    k = q // p
    b = pow(q, -1, p)
    a = (q * b - 1) // p
    return (Fraction(k), Fraction(a, b)), (Fraction(q - a, p - b), Fraction(k + 1))


def on_free_sides(x, r):
    return x != INFINITY and any(
        lo <= Fraction(x.num, x.den) <= hi for lo, hi in free_sides(r)
    )


def test_is_farey_edge():
    assert is_farey_edge(INFINITY, Frac(0, 1))
    assert is_farey_edge(Frac(1, 2), Frac(1, 3))
    assert not is_farey_edge(Frac(1, 2), Frac(1, 4))
    with pytest.raises(ValueError):
        is_farey_edge(Frac(1, 2), Frac(1, 2))


def test_reflection_matrices():
    g = reflection_in_edge(INFINITY, Frac(0, 1))
    assert g.apply(Frac(2, 5)) == Frac(-2, 5)
    g = reflection_in_edge(INFINITY, Frac(3, 1))
    assert g.apply(Frac(1, 1)) == Frac(5, 1)  # x -> 6 - x
    g = reflection_in_edge(Frac(0, 1), Frac(1, 1))
    assert (g.a, g.b, g.c, g.d) == (1, 0, 2, -1)
    assert g.apply(Frac(0, 1)) == Frac(0, 1)
    assert g.apply(Frac(1, 1)) == Frac(1, 1)
    with pytest.raises(ValueError):
        reflection_in_edge(Frac(1, 2), Frac(1, 4))


def test_reflections_are_involutions():
    rng = random.Random(3)
    edges = [
        (INFINITY, Frac(k, 1)) for k in range(-3, 4)
    ] + [(Frac(2, 5), Frac(1, 2)), (Frac(2, 5), Frac(1, 3)), (Frac(1, 3), Frac(1, 4))]
    for s, t in edges:
        g = reflection_in_edge(s, t)
        assert g.det == -1
        assert g.apply(s) == s and g.apply(t) == t
        for _ in range(20):
            x = Frac(rng.randint(-50, 50), rng.randint(0, 20))
            assert g.apply(g.apply(x)) == x


def test_generator_family():
    gens = reflection_generators(Frac(2, 5), 1)
    assert len(gens) == 6
    for g in gens:
        endpoints = g.edge
        assert INFINITY in endpoints or Frac(2, 5) in endpoints
        if Frac(2, 5) in endpoints:
            other = endpoints[0] if endpoints[1] == Frac(2, 5) else endpoints[1]
            assert is_farey_edge(Frac(2, 5), other)
    with pytest.raises(ValueError):
        reflection_generators(INFINITY, 1)


def _benchmark_workloads():
    """perfbench/workloads.py, which imports nothing of bridgeforge."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_left_parent_is_the_benchmark_neighbour_rule():
    # orbit_contains and reflection_generators start from _left_parent;
    # the epi workload builds its sources from farey_neighbour, so the
    # two rules must agree on every slope (here 2 <= p < 60, |q| < 70)
    farey_neighbour = _benchmark_workloads().farey_neighbour
    slopes = 0
    for p in range(2, 60):
        for q in range(-69, 70):
            if gcd(q, p) == 1:
                a, b = _left_parent(Frac(q, p))
                assert (a, b) == farey_neighbour(q, p), (q, p)
                assert q * b - p * a == 1 and 0 < b < p
                slopes += 1
    assert slopes > 2_000


def test_orbit_seeds_and_depth_one():
    r = Frac(2, 5)
    for seed in (r, INFINITY):
        res = orbit_contains(r, seed)
        assert res.found and res.visited == 0 and res.witness == []
        assert res.landing == seed and res.verdict == "yes"
    res = orbit_contains(r, Frac(-2, 5))
    assert res.found and len(res.witness) == 1
    # every one-reflection image of a seed is undone by one reflection
    for g in reflection_generators(r, 6):
        for seed in (r, INFINITY):
            x = g.apply(seed)
            if x != seed:
                res = orbit_contains(r, x)
                assert res.found and res.visited == 1 and replay(r, x, res.witness)
    with pytest.raises(ValueError):
        orbit_contains(Frac(3, 1), Frac(1, 2))  # r must not be an integer


def test_orbit_recovers_forward_constructions():
    """Random words of up to 12 reflections from a wide generator slice,
    also for slopes outside (0, 1), are all found, with witnesses that
    replay."""
    rng = random.Random(19)
    for r in (Frac(2, 5), Frac(2, 7), Frac(4, 9), Frac(6, 25), Frac(7, 5), Frac(-3, 8)):
        gens = reflection_generators(r, 8)
        for _ in range(150):
            x = rng.choice([r, INFINITY])
            for _ in range(rng.randint(1, 12)):
                x = gens[rng.randrange(len(gens))].apply(x)
            res = orbit_contains(r, x)
            assert res.found and res.landing in (r, INFINITY)
            assert res.visited == len(res.witness) <= 2 * 12
            assert all(set(step) == {"edge", "from", "to"} for step in res.witness)
            assert replay(r, x, res.witness)


def test_descent_lands_free_side_points_on_themselves():
    """The images of a point of the free sides [k, r1] and [r2, k + 1]
    under random words are exact negatives, and the descent undoes the
    word back to that very point."""
    rng = random.Random(23)
    for r in (Frac(2, 5), Frac(4, 9), Frac(10, 19), Frac(7, 5), Frac(-3, 8)):
        gens = reflection_generators(r, 8)
        for lo, hi in free_sides(r):
            for i in range(60):
                v = lo + (hi - lo) * Fraction(i % 41, 40)  # ends included
                y = x = Frac(v.numerator, v.denominator)
                for _ in range(rng.randint(0, 12)):
                    x = gens[rng.randrange(len(gens))].apply(x)
                res = orbit_contains(r, x)
                assert not res.found and res.verdict == "no" and res.witness == []
                assert res.landing == y


def test_orbit_monotone_in_depth_and_bound():
    """The brute-force oracle grows with depth and neighbour bound, and
    the descent finds everything it reaches."""
    r = Frac(2, 5)
    base = bfs_orbit(r, 2, 2)
    deeper = bfs_orbit(r, 3, 2)
    wider = bfs_orbit(r, 2, 4)
    assert base < deeper and base < wider
    for x in deeper | wider:
        assert orbit_contains(r, x).found


def test_descent_against_bfs_on_grid():
    """Cross-check over every hyperbolic genus-one target with p <= 25 and
    every source q/p' with odd p' <= 61, each also shifted by 1: a
    depth-3, bound-3 BFS "yes" implies a descent "yes"; every descent
    "yes" replays and has a denominator divisible by p (Gamma_r lies in
    Gamma_0(p)); every "no" stops on the free sides."""
    targets = genus_one_fractions(25)
    assert len(targets) == 27
    sources = [Frac(q, pp) for pp in range(3, 62, 2) for q in range(1, pp) if gcd(q, pp) == 1]
    bfs_yes = descent_yes = 0
    for r in targets:
        for base in (r, r_prime(r)):
            reached = bfs_orbit(base, 3, 3)
            for s in sources:
                for t in (s, s + 1):
                    res = orbit_contains(base, t)
                    if t in reached:
                        bfs_yes += 1
                        assert res.found, (base, t)
                    if res.found:
                        descent_yes += 1
                        assert t.den % base.den == 0
                        assert replay(base, t, res.witness), (base, t)
                    else:
                        assert on_free_sides(res.landing, base)
    assert bfs_yes > 100 and descent_yes >= bfs_yes


def test_epimorphism_trivial_and_translates():
    res = epimorphism_exists(Frac(2, 5), Frac(2, 5))
    assert res.verdict == "yes"
    # integer translates normalize into the orbit
    assert epimorphism_exists(Frac(12, 5), Frac(2, 5)).verdict == "yes"
    assert epimorphism_exists(Frac(7, 5), Frac(2, 5)).verdict == "yes"
    # partner slope seeds the second orbit
    assert epimorphism_exists(Frac(3, 5), Frac(2, 5)).verdict == "yes"


def test_epimorphism_exact_negatives():
    # 5 divides neither 7 nor 3, so neither group maps onto the figure eight's
    for source in (Frac(1, 7), Frac(1, 3)):
        t0 = time.perf_counter()
        res = epimorphism_exists(source, Frac(2, 5))
        assert time.perf_counter() - t0 < 0.5
        assert res.verdict == "no" and res.route is None and res.witness == []
        assert list(res.searches) == [
            "rt in orbit of r", "rt+1 in orbit of r",
            "rt in orbit of r'", "rt+1 in orbit of r'",
        ]
        assert not any(s.found for s in res.searches.values())


def test_epimorphism_scope_errors():
    with pytest.raises(ValueError):
        epimorphism_exists(Frac(2, 5), Frac(1, 3))  # target not 2n/(4mn +- 1)
    with pytest.raises(ValueError):
        epimorphism_exists(Frac(2, 5), Frac(2, 3))  # torus knot excluded
    with pytest.raises(ValueError):
        epimorphism_exists(INFINITY, Frac(2, 5))  # unknot source
    with pytest.raises(ValueError):
        epimorphism_exists(Frac(1, 4), Frac(2, 5))  # link source
    with pytest.raises(ValueError):
        epimorphism_exists(Frac(3, 1), Frac(2, 5))  # integer source


def test_known_epimorphism_forward_constructed():
    # push 2/5 through reflections, then ask for that slope as source
    r = Frac(2, 5)
    gens = reflection_generators(r, 3)
    for x in (gens[2].apply(gens[5].apply(r)), gens[9].apply(gens[4].apply(r))):
        res = epimorphism_exists(x, r)
        assert res.verdict == "yes"
        search = res.searches[res.route]
        assert (search.target.num - x.num) % x.den == 0  # x shifted by an integer
        assert replay(search.r, search.target, res.witness)
