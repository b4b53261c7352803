import os
import pathlib
import random
import subprocess
import sys
from importlib import resources

import pytest

from fcunits import algebra, cli
from fcunits.algebra import (
    AlgebraElement,
    TwistedGroupAlgebra,
    averaging_idempotent,
    left_regular_matrix,
    prufer_idempotent_chain,
    try_invert,
    unit_commutator,
)
from fcunits.cocycles import (
    Cocycle,
    coboundary,
    generator_box,
    power_scalar,
    trivial_cocycle,
)
from fcunits.errors import (
    AlgebraMismatch,
    CharacteristicDividesOrder,
    CharacteristicEqualsQ,
    ConditionsNotMet,
    FieldMismatch,
    InvalidCocycle,
    NotNormalized,
    NotUnitError,
    SupportNotInSubgroup,
)
from fcunits.fc import instance_from_json
from fcunits.fields import gf, rationals
from fcunits.groups import cyclic_table, finite_subgroup, make_group


def cayley(table):
    return make_group({"kind": "cayley", "table": table})


def gf3_c2(trivial=False):
    G = cayley(cyclic_table(2))
    F = gf(3)
    if trivial:
        coc = trivial_cocycle(G, F)
    else:
        coc = Cocycle(G, F, {(1, 1): F.scalar(2)})
    return TwistedGroupAlgebra(G, F, coc)


def heisenberg22_algebra():
    G = make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2, 2]},
        "pairing": {"target_index": 1, "matrix": [[0, 1], [0, 0]]},
    })
    F = gf(7)
    base = coboundary(G, F, [F.one, F.one, F.scalar(2), F.scalar(2)])
    coc = Cocycle(G, F, dict(base.torsion_table), zeta=F.scalar(3),
                  matrix=[[0, 2], [0, 0]])
    return TwistedGroupAlgebra(G, F, coc)


# --- construction guards --------------------------------------------------------


def test_rejects_unnormalized_cocycle():
    G = cayley(cyclic_table(2))
    F = gf(3)
    # constant-rescaled tables satisfy the identity but break normalization
    two = F.scalar(2)
    coc = Cocycle(G, F, {(0, 0): two, (0, 1): two, (1, 0): two, (1, 1): two})
    with pytest.raises(NotNormalized):
        TwistedGroupAlgebra(G, F, coc)


def test_rejects_invalid_cocycle():
    G = cayley(cyclic_table(2))
    F = gf(3)
    coc = Cocycle(G, F, {(1, 0): F.scalar(2)})
    with pytest.raises(NotNormalized):
        TwistedGroupAlgebra(G, F, coc)
    # normalized but inconsistent: tau(a,a) = w over the pairing group
    G2 = make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2]},
        "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]},
    })
    F4 = gf(2, 2, modulus=[1, 1, 1])
    bad = Cocycle(G2, F4, {(1, 1): F4.scalar((0, 1))})
    with pytest.raises(InvalidCocycle) as err:
        TwistedGroupAlgebra(G2, F4, bad)
    assert err.value.counterexample is not None


def test_rejects_mismatched_parts():
    G = cayley(cyclic_table(2))
    H = cayley(cyclic_table(3))
    F = gf(3)
    coc = trivial_cocycle(G, F)
    with pytest.raises(AlgebraMismatch):
        TwistedGroupAlgebra(H, F, coc)
    with pytest.raises(FieldMismatch):
        TwistedGroupAlgebra(G, gf(5), coc)
    A = TwistedGroupAlgebra(G, F)
    B = TwistedGroupAlgebra(H, F)
    with pytest.raises(AlgebraMismatch):
        A.one + B.one


# --- ring axioms ----------------------------------------------------------------


def random_element(alg, rng, pool, max_terms=3):
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        g = rng.choice(pool)
        c = rng.randrange(1, alg.field.size())
        pairs.append((g, c))
    return alg.element(pairs)


def test_associativity_and_distributivity():
    alg = heisenberg22_algebra()
    rng = random.Random(7)
    pool = generator_box(alg.group, 1)
    for _ in range(200):
        x = random_element(alg, rng, pool)
        y = random_element(alg, rng, pool)
        z = random_element(alg, rng, pool)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
    x = random_element(alg, rng, pool)
    assert x * alg.one == x and alg.one * x == x
    assert x * alg.zero == alg.zero
    assert x - x == alg.zero
    assert (x * 3).scale(5) == x  # 15 = 1 mod 7
    assert 3 * x == x * 3
    assert x ** 3 == x * x * x and x ** 0 == alg.one


def test_power_scalar_agrees_with_unit_powers():
    alg = gf3_c2()
    g = alg.group.element(t=1)
    n = alg.group.element_order(g)
    un = alg.basis_unit(g) ** n
    assert un == alg.scalar(power_scalar(alg.cocycle, g))
    assert power_scalar(alg.cocycle, g) == alg.field.scalar(2)


# --- inversion ------------------------------------------------------------------


def ref_invert_shifted_basis_unit(alg, g, alpha):
    """(u_g - alpha)^(-1) for torsion g by the geometric sum, or None when
    u_g - alpha is not a unit.

    With n the order of g and c the power scalar (u_g^n = c), u_g - alpha
    is a unit exactly when alpha^n != c, and then

        (u_g - alpha)^(-1) = (c - alpha^n)^(-1) * sum_i alpha^(n-1-i) u_g^i.

    When alpha^n = c the same sum is a nonzero annihilator.
    """
    n = alg.group.element_order(g)
    c = power_scalar(alg.cocycle, g)
    x = alg.basis_unit(g) - alg.scalar(alpha)
    geo = alg.zero
    for i in range(n):
        geo = geo + (alg.basis_unit(g) ** i).scale(alpha ** (n - 1 - i))
    if alpha ** n == c:
        assert geo and x * geo == alg.zero
        return None
    y = geo.scale((c - alpha ** n).inv())
    assert x * y == alg.one and y * x == alg.one
    return y


def test_geometric_sum_matches_regular_representation():
    cases = [
        (gf3_c2(trivial=True), 2),     # alpha^2 = 1 has two roots
        (gf3_c2(trivial=False), 0),    # alpha^2 = 2 has none mod 3
    ]
    for alg, expected_nonunits in cases:
        g = alg.group.element(t=1)
        nonunits = 0
        for raw in range(alg.field.size()):
            alpha = alg.field.scalar(raw)
            geo = ref_invert_shifted_basis_unit(alg, g, alpha)
            direct = try_invert(alg, alg.basis_unit(g) - alg.scalar(alpha))
            if geo is None:
                assert direct.status == "not-unit"
                nonunits += 1
            else:
                assert direct.status == "unit" and direct.inverse == geo
        assert nonunits == expected_nonunits


def test_geometric_sum_on_larger_cyclic():
    G = cayley(cyclic_table(4))
    F = gf(5)
    table = {(i, j): F.scalar(2) for i in range(4) for j in range(4)
             if i + j >= 4}
    alg = TwistedGroupAlgebra(G, F, Cocycle(G, F, table))
    g = G.element(t=1)
    for raw in range(5):
        alpha = F.scalar(raw)
        geo = ref_invert_shifted_basis_unit(alg, g, alpha)
        # alpha^4 in {0, 1} mod 5 never equals the power scalar 2
        assert geo is not None
        res = try_invert(alg, alg.basis_unit(g) - alg.scalar(alpha))
        assert res.is_unit and res.inverse == geo


def test_try_invert_monomial_with_free_part():
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": [2]}})
    alg = TwistedGroupAlgebra(G, rationals())
    g = G.element(u=(3,), t=(1,))
    x = alg.basis_unit(g).scale(alg.field.from_int(-7))
    res = try_invert(alg, x)
    assert res.is_unit and res.strategy == "monomial"
    assert x * res.inverse == alg.one


def test_try_invert_regular_representation():
    alg = gf3_c2(trivial=True)
    g = alg.group.element(t=1)
    one_plus = alg.one + alg.basis_unit(g)
    res = try_invert(alg, one_plus)
    assert res.status == "not-unit"
    assert res.strategy == "regular-representation"
    twisted = gf3_c2(trivial=False)
    g = twisted.group.element(t=1)
    res = try_invert(twisted, twisted.one + twisted.basis_unit(g))
    assert res.is_unit


def test_try_invert_unknown_without_decomposition():
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": []}})
    alg = TwistedGroupAlgebra(G, rationals())
    x = alg.one + alg.basis_unit(G.element(u=(1,)))
    res = try_invert(alg, x)
    assert res.status == "unknown"


def c2_z_algebra():
    G = make_group({"kind": "central-extension", "rank": 1,
                    "torsion": {"invariants": [2]}})
    F = gf(3)
    return TwistedGroupAlgebra(G, F)


def c2_idempotent_pair(alg):
    g = alg.group.element(t=(1,))
    u = alg.basis_unit(g)
    two = alg.field.scalar(2)
    e_plus = (alg.one + u).scale(two)   # (1 + u)/2 with 1/2 = 2 mod 3
    e_minus = (alg.one - u).scale(two)
    assert e_plus.is_idempotent() and e_minus.is_idempotent()
    return e_plus, e_minus


def test_try_invert_decomposition_unit():
    alg = c2_z_algebra()
    e_plus, e_minus = c2_idempotent_pair(alg)
    f = alg.basis_unit(alg.group.element(u=(1,)))
    f_inv = alg.basis_unit_inverse(alg.group.element(u=(1,)))
    x = e_plus * f + e_minus * f_inv
    assert try_invert(alg, x).status == "unknown"
    res = try_invert(alg, x, decomposition=[e_plus, e_minus])
    assert res.is_unit and res.strategy == "decomposition"
    assert x * res.inverse == alg.one and res.inverse * x == alg.one


def test_try_invert_decomposition_not_unit():
    alg = c2_z_algebra()
    e_plus, e_minus = c2_idempotent_pair(alg)
    f = alg.basis_unit(alg.group.element(u=(1,)))
    x = e_plus * f
    res = try_invert(alg, x, decomposition=[e_plus, e_minus])
    assert res.status == "not-unit"
    assert "e * x = 0" in res.certificate


def test_try_invert_decomposition_unknown_on_mixed_corner():
    alg = c2_z_algebra()
    e_plus, e_minus = c2_idempotent_pair(alg)
    f = alg.basis_unit(alg.group.element(u=(1,)))
    x = e_plus * f + e_minus * (alg.one + f)
    res = try_invert(alg, x, decomposition=[e_plus, e_minus])
    assert res.status == "unknown"


def s3_z_decomposition():
    """S3 x Z over GF(5) with e1 = (1 + u_s) / 2 for the involution s, its
    complement e2 = 1 - e1, and x = u_f + u_f u_r for the free generator f
    and r of order 3."""
    alg = instance_from_json(cli.bundled_instance("s3_z_gf5")).algebra()
    G = alg.group
    s, r, f = G.element(t=1), G.element(t=4), G.element(u=(1,))
    assert G.mul(s, s) == G.identity and G.element_order(r) == 3
    u_s, u_r, u_f = map(alg.basis_unit, (s, r, f))
    e1 = (alg.one + u_s).scale(alg.field.scalar(2).inv())
    return alg, e1, alg.one - e1, u_f + u_f * u_r, u_r


def test_try_invert_decomposition_unknown_when_x_does_not_commute():
    alg, e1, e2, x, _ = s3_z_decomposition()
    assert e1.is_idempotent() and e2.is_idempotent()
    assert e1 * x != x * e1
    res = try_invert(alg, x, decomposition=[e1, e2])
    assert (res.status, res.inverse, res.strategy) == \
        ("unknown", None, "decomposition")
    assert res.certificate == "x does not commute with the decomposition"


def test_try_invert_decomposition_rejects_a_non_idempotent_entry():
    alg, e1, _, x, u_r = s3_z_decomposition()
    # e1 u_r and its complement sum to 1, but e1 u_r is no idempotent
    e = e1 * u_r
    assert e and not e.is_idempotent()
    with pytest.raises(ConditionsNotMet, match="must be idempotent"):
        try_invert(alg, x, decomposition=[e, alg.one - e])


def test_element_repr_lists_the_support_in_order():
    alg, e1, _, x, _ = s3_z_decomposition()
    assert repr(alg.zero) == "0"
    assert repr(x) == "1*u[El(u=[1], t=0, s=0)] + 1*u[El(u=[1], t=4, s=0)]"
    assert repr(e1) == "3*u[El(u=[0], t=0, s=0)] + 3*u[El(u=[0], t=1, s=0)]"


def test_decomposition_validation():
    alg = c2_z_algebra()
    e_plus, e_minus = c2_idempotent_pair(alg)
    f = alg.basis_unit(alg.group.element(u=(1,)))
    with pytest.raises(ConditionsNotMet):
        try_invert(alg, e_plus * f, decomposition=[e_plus])
    with pytest.raises(ConditionsNotMet):
        try_invert(alg, e_plus * f, decomposition=[e_plus, e_minus, alg.zero])


# --- regular representation, averaging, chains ----------------------------------


def test_left_regular_matrix_rejects_outside_support():
    alg = c2_z_algebra()
    W = finite_subgroup(alg.group, [alg.group.element(t=(1,))])
    x = alg.basis_unit(alg.group.element(u=(1,)))
    with pytest.raises(SupportNotInSubgroup):
        left_regular_matrix(alg, W, x)


def test_averaging_idempotent_untwisted():
    G = cayley(cyclic_table(3))
    alg = TwistedGroupAlgebra(G, rationals())
    e = averaging_idempotent(alg, G.elements())
    assert e.is_idempotent()
    assert e.coeff(G.identity).value.denominator == 3
    with pytest.raises(CharacteristicDividesOrder):
        averaging_idempotent(TwistedGroupAlgebra(G, gf(3)), G.elements())


def test_averaging_idempotent_rejects_units_twisted_on_h():
    # u_g^2 = 2 in GF(7), so (1 + u_g) / 2 squares to (3 + 2 u_g) / 4
    G = cayley(cyclic_table(2))
    F = gf(7)
    alg = TwistedGroupAlgebra(G, F, Cocycle(G, F, {(1, 1): F.scalar(2)}))
    with pytest.raises(ConditionsNotMet):
        averaging_idempotent(alg, G.elements())


def test_prufer_idempotent_chain():
    G = make_group({"kind": "central-extension", "rank": 0,
                    "torsion": {"invariants": []},
                    "prufer": {"q": 2, "levels": 4}})
    alg = TwistedGroupAlgebra(G, gf(5))
    chain = prufer_idempotent_chain(alg, 3)
    assert len(chain) == 3
    for e in chain:
        assert e.is_idempotent()
    for a, b in zip(chain, chain[1:]):
        assert a * b == b and b * a == b
    assert len(chain[2].terms) == 8
    with pytest.raises(CharacteristicEqualsQ):
        prufer_idempotent_chain(TwistedGroupAlgebra(G, gf(2)), 2)
    noprufer = c2_z_algebra()
    with pytest.raises(ConditionsNotMet):
        prufer_idempotent_chain(noprufer, 2)


# --- commutators and centrality --------------------------------------------------


def test_basis_commutator_matches_unit_commutator():
    alg = heisenberg22_algebra()
    box = generator_box(alg.group, 1)
    rng = random.Random(11)
    for _ in range(25):
        a, b = rng.choice(box), rng.choice(box)
        lhs = alg.basis_commutator(a, b)
        rhs = unit_commutator(alg, alg.basis_unit(a), alg.basis_unit(b))
        assert lhs == rhs
    with pytest.raises(NotUnitError, match="^y is not a unit"):
        unit_commutator(alg, alg.one, alg.zero)


def test_bilinear_noncommutativity_over_abelian_group():
    G = make_group({"kind": "central-extension", "rank": 2,
                    "torsion": {"invariants": []}})
    F = gf(5)
    coc = Cocycle(G, F, {}, zeta=F.scalar(2), matrix=[[0, 1], [0, 0]])
    alg = TwistedGroupAlgebra(G, F, coc)
    a, b = G.element(u=(1, 0)), G.element(u=(0, 1))
    assert alg.basis_commutator(a, b) == alg.scalar(2)
    central, witness = alg.is_central(alg.basis_unit(a))
    assert not central and witness is not None
    assert alg.is_central(alg.scalar(4))[0]


def test_is_central_in_heisenberg():
    G = make_group({
        "kind": "central-extension", "rank": 2,
        "torsion": {"invariants": [2]},
        "pairing": {"target_index": 0, "matrix": [[0, 1], [0, 0]]},
    })
    alg = TwistedGroupAlgebra(G, gf(3))
    z = alg.basis_unit(G.element(t=(1,)))
    assert alg.is_central(z)[0]
    assert not alg.is_central(alg.basis_unit(G.element(u=(1, 0))))[0]


# --- serialization ----------------------------------------------------------------


# --- certificates --------------------------------------------------------------------


def test_inverse_certificate_survives_optimized_python(tmp_path):
    """A wrong inverse handed to the two-sided check exits 1 under -O."""
    script = tmp_path / "wrong_inverse.py"
    script.write_text(
        "import sys\n"
        "from fcunits import algebra, cli\n"
        "original = algebra._verified_unit\n"
        "def wrong_inverse(alg, x, y, strategy, certificate):\n"
        "    return original(alg, x, y + alg.one, strategy, certificate)\n"
        "algebra._verified_unit = wrong_inverse\n"
        "sys.exit(cli.main(['analyze', sys.argv[1], '--verdict']))\n",
        encoding="utf-8")
    instance = resources.files("fcunits") / "instances" \
        / "c2_z_gf3_twisted.json"
    src = str(pathlib.Path(algebra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", str(script), str(instance)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 1, proc.stderr
    assert "inverse must be two-sided" in proc.stderr
