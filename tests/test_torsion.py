"""The int-keyed torsion part against the coordinate arithmetic it replaced,
and cyclic quotients of invariants groups built from the product table.

The ``ref_*`` functions are the tuple arithmetic that invariants torsion
used before its elements became keys: coordinatewise sums, negation and
the lcm of the cyclic orders.  Every invariants list with product at most
64 and length at most 3 is checked, plus a derandomized sample of longer
lists: products, inverses and orders must agree with the references,
keys must sort like the coordinate tuples, and coordinates must survive
the trip to a key and back.

The quotient tests check the coset system of a torsion element a on
invariants groups with a pairing and with a Pruefer part: |H| is
|T| / ord(a), projection is a homomorphism on a radius-1 box, every box
element is its representative times a power of a, and the pairing
survives exactly when its target lies outside <a>.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcunits.cocycles import generator_box
from fcunits.errors import GroupValidationError, InstanceFormatError
from fcunits.groups import InvariantsTorsion, group_to_json, make_group

# --- coordinate references -------------------------------------------------------


def ref_mul(a, b, invariants):
    return tuple((x + y) % d for x, y, d in zip(a, b, invariants))


def ref_inv(a, invariants):
    return tuple((-x) % d for x, d in zip(a, invariants))


def ref_order(a, invariants):
    o = 1
    for x, d in zip(a, invariants):
        if x:
            o = math.lcm(o, d // math.gcd(d, x))
    return o


def short_invariant_lists():
    out = [()]
    for length in (1, 2, 3):
        out += [inv for inv in itertools.product(range(2, 33), repeat=length)
                if math.prod(inv) <= 64]
    return out


def check_against_references(invariants, rng):
    tor = InvariantsTorsion(invariants)
    coords = list(itertools.product(*(range(d) for d in invariants)))
    assert tor.size == len(coords)
    # keys sort like coordinate tuples, and the codec round-trips
    assert [tor.coords(k) for k in tor.keys()] == coords
    assert [tor.key(c) for c in coords] == list(tor.keys())
    for k, c in enumerate(coords):
        assert tor.key([x - 3 * d for x, d in zip(c, invariants)]) == k
        assert tor.inv_key(k) == coords.index(ref_inv(c, invariants))
        assert tor.order_key(k) == ref_order(c, invariants)
    # every product on small parts; every left factor against the identity,
    # the unit vectors and a drawn sample of right factors on larger ones
    if tor.size <= 16:
        rights = list(tor.keys())
    else:
        rights = sorted({0, *tor.generator_keys,
                         *rng.sample(range(tor.size), 6)})
    for a, ca in enumerate(coords):
        for b in rights:
            expect = ref_mul(ca, coords[b], invariants)
            assert tor.coords(tor.mul_key(a, b)) == expect


def test_keyed_invariants_match_coordinate_arithmetic():
    rng = random.Random(5)
    for invariants in short_invariant_lists():
        check_against_references(invariants, rng)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(2, 4), min_size=4, max_size=6)
       .filter(lambda inv: math.prod(inv) <= 64),
       st.randoms(use_true_random=False))
def test_keyed_invariants_match_on_longer_lists(invariants, rng):
    check_against_references(tuple(invariants), rng)


def test_codec_rejects_malformed_coordinates():
    tor = InvariantsTorsion((2, 3))
    for bad in ([1], [1, 0, 0], [1.5, 0], ["1", 0], [True, 0], 1):
        with pytest.raises(InstanceFormatError):
            tor.key(bad)


# --- cyclic quotients from the product table --------------------------------------


def paired_group(invariants, target, prufer=None):
    """Rank 2 paired into the target: an int is a target_index, a list a
    target_vector."""
    pairing = {"matrix": [[0, 1], [0, 0]]}
    pairing["target_index" if isinstance(target, int)
            else "target_vector"] = target
    spec = {"kind": "central-extension", "rank": 2,
            "torsion": {"invariants": invariants}, "pairing": pairing}
    if prufer is not None:
        spec["prufer"] = prufer
    return make_group(spec)


CASES = [
    # (group, coordinates of a, pairing survives)
    (paired_group([4], 0), (2,), True),     # <2 target> misses the target
    (paired_group([4], 0), (1,), False),
    (paired_group([2], 0), (1,), False),    # Heisenberg mod 2
    (paired_group([2, 2], [1, 0]), (0, 1), True),
    (paired_group([2, 3], [0, 1], prufer={"q": 2, "levels": 2}),
     (1, 0), True),
    (make_group({"kind": "central-extension", "rank": 1,
                 "torsion": {"invariants": [2, 3]},
                 "prufer": {"q": 3, "levels": 2}}), (0, 1), None),
    (make_group({"kind": "central-extension", "rank": 0,
                 "torsion": {"invariants": [2, 4]}}), (1, 1), None),
]


def box_of(group):
    box = generator_box(group, 1)
    if group.prufer is not None:
        _, p = group.generators()[-1]
        box += [g * p for g in box]
    return box


@pytest.mark.parametrize("group, a_coords, survives", CASES)
def test_cyclic_quotient_properties(group, a_coords, survives):
    a = group.element(t=a_coords)
    cosets = group.cyclic_cosets(a)
    H = cosets.quotient
    assert H.torsion.size == group.torsion.size // a.order()
    assert H.rank == group.rank and H.prufer == group.prufer
    box = box_of(group)
    for g in box:
        for h in box:
            assert cosets.project(g * h) == H.mul(cosets.project(g),
                                                  cosets.project(h))
    for g in box:
        h, k = cosets.factor(g)
        assert cosets.project(cosets.rep(h)) == h
        assert group.mul(cosets.rep(h), group.power(a, k)) == g
    if survives is None:
        assert group.pairing_matrix is None and H.pairing_matrix is None
        return
    a_keys = {p.t for p in cosets.a_powers}
    assert survives == (group.pairing_target not in a_keys)
    assert (H.pairing_matrix is not None) == survives
    if survives:
        assert H.pairing_target == cosets.coset_of[group.pairing_target]
        z = group.from_key(group.pairing_target)
        assert H.pairing_order == next(
            n for n in range(1, group.pairing_order + 1)
            if (z ** n).t in a_keys)
        with pytest.raises(GroupValidationError):
            group_to_json(H)  # a table torsion part has no pairing JSON
