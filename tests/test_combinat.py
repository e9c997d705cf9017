import random
from itertools import product

import pytest

from swcohom.combinat import (
    Composition,
    compositions,
    distinct_odd_partition_series,
    from_binary,
    subdivision_sign,
    subdivisions,
    to_binary,
    union,
)


def test_compositions_counts_and_order():
    assert [c.parts for c in compositions(2)] == [(2,), (1, 1)]
    got = [c.parts for c in compositions(3)]
    assert got == [(3,), (2, 1), (1, 2), (1, 1, 1)]
    assert len(compositions(5)) == 16
    assert compositions(1)[0].parts == (1,)


def test_weight_zero_rejected():
    with pytest.raises(ValueError):
        compositions(0)
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))


def test_binary_correspondence_examples():
    assert to_binary(Composition((2, 1))) == (0, 1)
    assert to_binary(Composition((1, 1, 1))) == (1, 1)
    assert to_binary(Composition((3,))) == (0, 0)
    with pytest.raises(ValueError):
        from_binary((0, 2))


def test_binary_roundtrip_exhaustive():
    for w in range(1, 11):
        for bits in product((0, 1), repeat=w - 1):
            assert to_binary(from_binary(bits)) == bits
        for c in compositions(min(w, 8)):
            assert from_binary(to_binary(c)).parts == c.parts


def test_union_examples():
    assert union(Composition((2, 1)), Composition((1, 2))).parts == (3,)
    lam = Composition((2, 1, 1))
    assert union(lam, lam).parts == lam.parts
    # frozen by the bit-AND oracle: (0,1,1) & (1,1,0) = (0,1,0)
    assert union(Composition((2, 1, 1)), Composition((1, 1, 2))).parts == (2, 2)


def test_union_laws_and_interval_meaning():
    rng = random.Random(7)
    comps = compositions(6)
    for _ in range(200):
        a = comps[rng.randrange(len(comps))]
        b = comps[rng.randrange(len(comps))]
        c = comps[rng.randrange(len(comps))]
        assert union(a, b).parts == union(b, a).parts
        assert union(union(a, b), c).parts == union(a, union(b, c)).parts
        assert union(a, a).parts == a.parts
        # interval coarsening: every part of a is contained in a part of a|_|b
        assert _blocks_refine(_blocks(a), _blocks(union(a, b)))
    with pytest.raises(ValueError):
        union(Composition((2,)), Composition((3,)))


def _blocks(comp):
    out = []
    pos = 1
    for p in comp.parts:
        out.append(set(range(pos, pos + p)))
        pos += p
    return out


def _blocks_refine(fine, coarse):
    return all(any(f <= c for c in coarse) for f in fine)


def test_subdivision_sign_examples():
    sign, mu = subdivision_sign(Composition((3,)), 1, (1, 2))
    assert sign == -1 and mu.parts == (1, 2)
    sign, mu = subdivision_sign(Composition((1, 2)), 2, (1, 1))
    assert sign == 1 and mu.parts == (1, 1, 1)
    with pytest.raises(ValueError):
        subdivision_sign(Composition((3,)), 1, (1, 1))
    with pytest.raises(ValueError):
        subdivision_sign(Composition((3,)), 2, (1, 2))


def test_double_subdivisions_anticommute():
    # any refinement reachable in two steps is reached along exactly two
    # routes whose total signs are opposite
    for w in range(2, 7):
        for lam in compositions(w):
            routes = {}
            for s1, mid in subdivisions(lam):
                for s2, fine in subdivisions(mid):
                    routes.setdefault(fine.parts, []).append(s1 * s2)
            for fine, signs in routes.items():
                assert len(signs) == 2, (lam.parts, fine)
                assert sum(signs) == 0, (lam.parts, fine)


def test_series_against_known_values():
    s = distinct_odd_partition_series(12)
    assert s == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert s[0] == 1
    assert s[8] == 2  # 1+7 and 3+5


def test_series_routes_agree_up_to_40():
    # the function cross-checks enumeration against the product internally
    s = distinct_odd_partition_series(40)
    assert len(s) == 41
    assert s[40] == sum(1 for _ in _dop(40))


def _dop(n, max_part=None):
    if max_part is None:
        max_part = n if n % 2 else n - 1
    if n == 0:
        yield ()
        return
    p = min(max_part, n)
    if p % 2 == 0:
        p -= 1
    while p >= 1:
        for rest in _dop(n - p, p - 2):
            yield (p,) + rest
        p -= 2
