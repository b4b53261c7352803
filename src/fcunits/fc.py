"""Decision layer: screens, criterion checkers, and verdict assembly.

The analyzer decides whether the unit group of a twisted group algebra is
an FC-group (every unit has finitely many conjugates).  Three mechanical
criteria cover the supported territory, keyed by how the characteristic
meets the torsion part:

* ``check_theorem3``: positive characteristic p with a p-element in t(G).
* ``check_theorem4``: characteristic coprime to all torsion orders and a
  finite torsion part (finitely many idempotents in the torsion
  subalgebra).
* ``check_theorem5_truncated``: a Pruefer q-power component makes the
  torsion subalgebra carry infinitely many idempotents; the hypotheses
  are intrinsically infinite, so the checker emits truncated evidence and
  never claims a decision.  Its per-level evidence is read off one
  certified split of the top truncation level.

``verdict`` routes an instance to the right checker after the necessary
screens (L4: torsion subalgebra commutative; L6: torsion central over an
infinite coefficient field) and packages the outcome as a deterministic
JSON-able report.  The L5 screen, idempotents of the torsion subalgebra
central, has no code: on this family it holds whenever L4 does (see
`necessary_conditions`).  NotFC verdicts always carry a concrete
witness.  The constructions the positive criteria rest on (the quotient
by a central involution and the component-wise crossed product) are
exposed as operations and verify themselves before returning.  The
crossed product is read off the monomial law u_g u_h = lambda(g, h) u_gh:
once T4 passes, the torsion part is central (see `necessary_conditions`),
so every coefficient automorphism is the identity and every factor-set
value is one monomial v u_t.
"""

import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    TwistedGroupAlgebra,
    averaging_idempotent,
    prufer_idempotent_chain,
    try_invert,
)
from .cocycles import (
    Cocycle,
    cocycle_from_json,
    commutator_scalar,
    condition4_set,
    generator_box,
    power_scalar,
    validate_cocycle,
)
from .errors import (
    CapExceeded,
    ConditionsNotMet,
    DimensionTooLarge,
    InapplicableCharacteristic,
    InapplicableTorsion,
    InstanceFormatError,
    InvalidCocycle,
    NoSquareRoot,
    NotUnitError,
    SubgroupTooLarge,
    TooLargeToCount,
    certify,
    known_keys,
)
from .fields import (
    Scalar,
    field_to_json,
    make_field,
    multiplicative_order,
    solve_power_equation,
)
from .groups import Element, finite_subgroup, group_to_json, make_group
from .linalg import kernel_basis
from .structure import (
    DecompositionReport,
    FiniteSubalgebra,
    count_idempotents,
    fields_decomposition,
    jacobson_radical,
    linear_combination,
    primitive_idempotents,
)

ORBIT_SIZE_CAP = 1000
ORBIT_DEPTH_CAP = 12
PROJECTION_SAMPLE_PAIRS = 200
FACTOR_SET_TRIPLE_CAP = 50_000

READING_NOTE = ("value-set conditions quantify h over t(G): the quantifier "
                "set is fixed to the torsion subgroup in every verdict")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- instances -------------------------------------------------------------------


class Caps:
    def __init__(self, box_radius=3, orbit_depth=6, truncation_level=3):
        self.box_radius = box_radius
        self.orbit_depth = orbit_depth
        self.truncation_level = truncation_level

    def to_json(self):
        return {"box_radius": self.box_radius,
                "orbit_depth": self.orbit_depth,
                "truncation_level": self.truncation_level}


_CAP_RANGES = {"box_radius": (1, 6), "orbit_depth": (0, ORBIT_DEPTH_CAP),
               "truncation_level": (1, 8)}


def _check_cap(name, cap, value):
    """InstanceFormatError unless ``value`` is None or in ``cap``'s range."""
    lo, hi = _CAP_RANGES[cap]
    if value is not None and not lo <= value <= hi:
        raise InstanceFormatError(
            f"{name} must be an int in [{lo}, {hi}], got {value}")


def _caps_from_json(obj):
    if obj is None:
        return Caps()
    if not isinstance(obj, dict):
        raise InstanceFormatError("caps must be an object")
    values = {}
    for key, raw in obj.items():
        if key not in _CAP_RANGES:
            raise InstanceFormatError(f"unknown cap {key!r}")
        lo, hi = _CAP_RANGES[key]
        if not isinstance(raw, int) or isinstance(raw, bool) \
                or not lo <= raw <= hi:
            raise InstanceFormatError(
                f"cap {key!r} must be an int in [{lo}, {hi}], got {raw!r}")
        values[key] = raw
    return Caps(**values)


class Instance:
    """A bound triple (K, G, lambda) plus analysis caps.

    Construction only binds the parts; the cocycle identity is checked
    once, on the generator box of radius ``caps.box_radius``, by
    ``validate`` or when the algebra is first built, whichever comes first.
    Finite subalgebras are memoized by the element set of the closed
    subgroup and by the element set asked for, so each subgroup is closed
    once and every screen, checker and report of one instance shares one
    ``FiniteSubalgebra``, and with it the structural facts cached on its
    ``FDAlgebra``.
    """

    def __init__(self, field, group, cocycle, caps=None, name=None):
        self.field = field
        self.group = group
        self.cocycle = cocycle
        self.caps = caps or Caps()
        self.name = name
        self._algebra = None
        self._validation = None
        self._subalgebras = {}

    def algebra(self):
        if self._algebra is None:
            algebra = TwistedGroupAlgebra(
                self.group, self.field, self.cocycle, validate=False)
            res = self.validate()
            if not res.valid:
                raise InvalidCocycle(res.counterexample.describe(),
                                     res.counterexample)
            self._algebra = algebra
        return self._algebra

    def validate(self):
        if self._validation is None:
            self._validation = validate_cocycle(
                self.group, self.cocycle, box_radius=self.caps.box_radius)
        return self._validation

    def canonical(self):
        return {"field": field_to_json(self.field),
                "group": group_to_json(self.group),
                "cocycle": self.cocycle.to_json(),
                "caps": self.caps.to_json()}

    def digest(self):
        return hashlib.sha256(
            canonical_json(self.canonical()).encode()).hexdigest()

    @property
    def prufer_level(self):
        """The Pruefer truncation level ``caps.truncation_level``, clamped
        to the group's Pruefer levels, or None without a Pruefer part."""
        if self.group.prufer is None:
            return None
        return min(self.caps.truncation_level, self.group.prufer[1])

    def torsion_subalgebra(self, prufer_level=0):
        return self.subalgebra_over(self.group.torsion_elements(prufer_level))

    def subalgebra_over(self, elements):
        elements = list(elements)
        given = frozenset(elements)
        if given not in self._subalgebras:
            sub = finite_subgroup(self.group, elements)
            key = frozenset(sub.elements)
            if key not in self._subalgebras:
                self._subalgebras[key] = FiniteSubalgebra(
                    self.algebra(), sub)
            self._subalgebras[given] = self._subalgebras[key]
        return self._subalgebras[given]


_INSTANCE_KEYS = {"field", "group", "cocycle", "caps", "name"}


def instance_from_json(obj):
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    known_keys(obj, _INSTANCE_KEYS, "instance")
    for key in ("field", "group", "cocycle"):
        if key not in obj:
            raise InstanceFormatError(f"instance is missing {key!r}")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceFormatError("instance name must be a string")
    field = make_field(obj["field"])
    group = make_group(obj["group"])
    cocycle = cocycle_from_json(group, field, obj["cocycle"])
    return Instance(field, group, cocycle, _caps_from_json(obj.get("caps")),
                    name=name)


# --- JSON rendering of witnesses ---------------------------------------------------


def _jsonify(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Scalar):
        return obj.to_json()
    if isinstance(obj, Element):
        return obj.group.element_to_json(obj)
    if isinstance(obj, AlgebraElement):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonify(v) for v in obj)
    raise TypeError(f"cannot render {type(obj).__name__} into a report")


# --- verdict containers ---------------------------------------------------------


class ConditionReport:
    def __init__(self, cid, passed, witness=None, note=""):
        self.cid = cid
        self.passed = passed            # True | False | None
        self.witness = witness
        self.note = note

    def to_json(self):
        out = {"id": self.cid, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = _jsonify(self.witness)
        if self.note:
            out["note"] = self.note
        return out


class Verdict:
    def __init__(self, result, theorem, conditions, notes, evidence):
        self.result = result    # FC | NotFC | EvidenceOnly | Inapplicable
        self.theorem = theorem  # T3 | T4 | T5-truncated | necessary-only, None
        self.conditions = conditions
        self.notes = notes
        self.evidence = evidence

    def to_json(self):
        return {"result": self.result,
                "theorem": self.theorem,
                "conditions": [c.to_json() for c in self.conditions],
                "notes": list(self.notes),
                "evidence": _jsonify(self.evidence)}

    def first_failure(self):
        for c in self.conditions:
            if c.passed is False:
                return c
        return None


def _fc_note(group):
    _, cert = group.is_fc()
    return (f"G is an FC-group by construction: {cert['reason']} "
            f"(class size bound {cert['max_class_size_bound']})")


def _decomposition_summary(report, field):
    """The report as JSON; a radical witness has raw ``field`` values."""
    out = {"is_sum_of_fields": report.is_sum_of_fields}
    if report.reason:
        out["reason"] = report.reason
        witness = report.witness
        if report.reason == "nonzero radical":
            witness = list(map(field.value_to_json, witness))
        if witness is not None:
            out["witness"] = witness
    else:
        out["components"] = [{"dim": c.dim, "description": c.description}
                             for c in report.components]
    return out


def _centrality_failure(algebra, elements):
    """The witness {"torsion_element": h, "conjugator": g} for the first h
    whose basis unit some basis unit u_g fails to commute with, or None."""
    for h in elements:
        ok, g = algebra.is_central(algebra.basis_unit(h))
        if not ok:
            return {"torsion_element": h, "conjugator": g}
    return None


def _fitting_level(inst, level=None, keys=None):
    """(L, subalgebra) for the largest level L <= ``level`` (clamped, or the
    instance's) whose torsion subgroup, over the torsion keys in ``keys``
    when given, fits MAX_TORSION; SubgroupTooLarge if not even level 1."""
    _check_cap("level", "truncation_level", level)
    level = min(level, inst.group.prufer[1]) if level else inst.prufer_level
    while True:
        try:
            return level, inst.subalgebra_over(
                h for h in inst.group.torsion_elements(level)
                if keys is None or h.t in keys)
        except SubgroupTooLarge:
            if level <= 1:
                raise
            level -= 1


def _primitive_counts_by_level(inst, levels, seed, keys=None):
    """Primitive-idempotent counts of the torsion subalgebra at Pruefer
    levels 1..L, L the `_fitting_level` of ``levels``, restricted to the
    finite torsion keys in ``keys`` when given; [] when no level fits.

    All are read off the split of level L.  Lemma: if
    B is a subalgebra of a commutative A with the same identity and e_i
    are A's primitive idempotents, B meets span(e_i) in the span of B's,
    each the sum of the e_i it covers.  Proof: take x = sum c_i e_i in B,
    f primitive in B and f e_i != 0.  Then x f - c_i f kills f e_i: no
    unit of the local ring B f, it is nilpotent, and so 0 as it lies in
    span(e_k).  So x f = c_i f and x = sum_f x f.  Level by level: the
    primitives f_c of B_(j+1) are its classes of the e_i, and B_j meets
    span(e_i) inside B_(j+1) meets span(e_i) = span(f_c).  An element of
    span(f_c) lies in B_(j+1), so its coordinates vanish outside the
    level-(j+1) units, and it lies in B_j exactly when they vanish at the
    units of B_(j+1) outside B_j too.  So B_j's count is the kernel
    dimension of the f_c's coordinates at those units alone, whose reduced
    basis must be the 0/1 class vectors of the f_c."""
    q, top = inst.group.prufer
    try:
        L, S = _fitting_level(inst, levels, keys)
    except SubgroupTooLarge:
        return []
    field = S.fd.field
    classes = primitive_idempotents(S.fd, seed=seed)
    counts = [len(classes)]
    for j in range(L - 1, 0, -1):
        kernel = kernel_basis(field, [
            [f[k] for f in classes] for k, h in
            enumerate(S.subgroup.elements)
            if h.s % q ** (top - j) and not h.s % q ** (top - j - 1)],
            len(classes))
        certify(kernel and all(c.count(field.raw_one) == 1 and
                               c.count(field.raw_zero) == len(c) - 1
                               for c in zip(*kernel)),
                "level classes are no 0/1 partition of the classes above")
        classes = [linear_combination(S.fd, v, classes) for v in kernel]
        counts.append(len(classes))
    return counts[::-1]


# --- necessary screens -----------------------------------------------------------


def _torsion_commutativity_witness(inst):
    """None, or a witness that the torsion subalgebra is noncommutative."""
    group, cocycle = inst.group, inst.cocycle
    tor = group.torsion
    if not tor.is_abelian:
        for a in tor.keys():
            for b in tor.keys():
                if tor.mul_key(a, b) != tor.mul_key(b, a):
                    return ConditionReport(
                        "L4.torsion-commutative", False,
                        {"pair": [group.from_key(a), group.from_key(b)]},
                        "t(G) is nonabelian")
        raise AssertionError("nonabelian table without a witness pair")
    torsion = group.torsion_elements(prufer_level=0)
    for h1 in torsion:
        for h2 in torsion:
            v12, v21 = cocycle(h1, h2), cocycle(h2, h1)
            if v12 != v21:
                return ConditionReport(
                    "L4.torsion-commutative", False,
                    {"pair": [h1, h2], "values": [v12, v21]},
                    "the cocycle is asymmetric on a torsion pair, so the "
                    "torsion subalgebra is noncommutative")
    return None


def necessary_conditions(inst):
    """Violations of the screens every FC unit group must clear, as failed
    ConditionReports.

    The screens assume the ambient algebra is infinite.  Each violation
    carries a witness; an empty list means the instance survives to the
    criterion checkers.

    The L5 screen, primitive idempotents of the torsion subalgebra
    central, is not run: it cannot fail once L4 passes.  The cocycle is
    tau(t_g, t_h) zeta^B(u_g, u_h) with no cross terms, and a torsion
    element h has u_h = 0, so it commutes with every g once T is abelian
    (beta(u, 0) = beta(0, u) = 0) and u_g u_h = tau(t_g, t_h) u_gh.  L4
    passes exactly when T is abelian and tau symmetric, and then every
    torsion unit is central, and so is all of K_lambda T.
    """
    group, field = inst.group, inst.cocycle.field
    comm_violation = _torsion_commutativity_witness(inst)
    violations = [] if comm_violation is None else [comm_violation]
    if not field.is_finite():
        if not group.torsion_is_central():
            bad = next(h for h in group.torsion_elements(prufer_level=0)
                       if not group.center_contains(h))
            violations.append(ConditionReport(
                "L6.torsion-central", False, {"element": bad},
                "a torsion element is noncentral while K is infinite"))
        else:
            torsion = group.torsion_elements(prufer_level=0)
            for g in generator_box(group, 1):
                hit = next((h for h in torsion
                            if inst.cocycle(g, h) != inst.cocycle(h, g)), None)
                if hit is not None:
                    violations.append(ConditionReport(
                        "L6.torsion-central", False,
                        {"pair": [g, hit],
                         "values": [inst.cocycle(g, hit),
                                    inst.cocycle(hit, g)]},
                        "the cocycle is asymmetric against a torsion element "
                        "while K is infinite"))
                    break
    return violations


# --- characteristic-p criterion (T3) ----------------------------------------------


def _finite_torsion_has_p_element(group, p):
    tor = group.torsion
    return any(tor.order_key(k) % p == 0 for k in tor.keys())


def _torsion_has_p_element(group, p):
    return ((group.prufer is not None and group.prufer[0] == p)
            or _finite_torsion_has_p_element(group, p))


def algebra_is_commutative(inst):
    """Exact commutativity of the whole algebra, via the family shape.

    The algebra commutes ⟺ G is abelian, the torsion table is symmetric,
    and zeta kills every bilinear-matrix entry (the entries are exactly
    the asymmetries achievable on pairs of free generators).
    """
    group, cocycle, field = inst.group, inst.cocycle, inst.field
    if not group.is_abelian:
        return False
    tor = group.torsion
    if any(cocycle.tau(a, b) != cocycle.tau(b, a)
           for a in tor.keys() for b in tor.keys()):
        return False
    return all(cocycle.zeta ** e == field.one
               for row in cocycle.matrix for e in row if e)


def _is_two_power(n):
    return n & (n - 1) == 0


def _condition4_reports(inst):
    group, cocycle = inst.group, inst.cocycle
    level = inst.prufer_level
    details = {}
    for label, g in group.generators():
        orbit = condition4_set(cocycle, g, prufer_level=level)
        entry = {"cardinality": orbit.cardinality}
        if orbit.truncated:
            entry["truncated_at_level"] = level
        details[label] = entry
    return details


def check_theorem3(inst, seed=0):
    """Verdict for positive characteristic with p-torsion present."""
    algebra = inst.algebra()
    group, field = inst.group, inst.field
    p = field.characteristic
    if p == 0:
        raise InapplicableCharacteristic(
            "this criterion needs positive characteristic")
    if not _torsion_has_p_element(group, p):
        raise InapplicableCharacteristic(
            f"t(G) has no element of order divisible by {p}")
    notes = [READING_NOTE, _fc_note(group)]
    if algebra_is_commutative(inst):
        notes.append(
            "caveat: the algebra is commutative, so its unit group is "
            "abelian and trivially FC; the conditions below are tuned to "
            "the noncommutative territory and report their literal values")
    evidence = {"orbits": None, "decompositions": None}
    tor = group.torsion

    comm = group.commutator_subgroup()
    comm_order = len(comm.elements)
    c1 = ConditionReport(
        "T3.1", p == 2 and comm_order == 2,
        {"characteristic": p, "commutator_subgroup_order": comm_order})

    central = group.torsion_is_central()
    two_part = {k for k in tor.keys() if _is_two_power(tor.order_key(k))}
    comm_keys = {el.t for el in comm.elements}
    prufer_two = group.prufer is not None and group.prufer[0] == 2
    split_ok = two_part == comm_keys and not prufer_two
    wit2 = {"torsion_central": central,
            "two_part_order": len(two_part),
            "commutator_subgroup_order": comm_order}
    if prufer_two:
        wit2["two_part_order"] = "infinite (Pruefer 2-component)"
    c2 = ConditionReport("T3.2", central and split_ok, wit2,
                         note="t(G) must split as (commutator subgroup) x "
                              "(odd-order part)")

    odd_keys = [k for k in tor.keys() if tor.order_key(k) % 2 == 1]
    odd_prufer = group.prufer is not None and group.prufer[0] % 2 == 1
    if odd_prufer:
        counts = _primitive_counts_by_level(
            inst, inst.prufer_level, seed, keys=set(odd_keys))
        growing = len(counts) >= 2 and all(
            a < b for a, b in zip(counts, counts[1:]))
        c3 = ConditionReport(
            "T3.3", False,
            {"component_counts_by_level": counts, "strictly_growing": growing},
            note="the odd torsion part is infinite, so its subalgebra "
                 "cannot be a finite sum of fields: component counts grow "
                 "with the truncation level")
        evidence["decompositions"] = {"component_counts_by_level": counts}
    else:
        S = inst.subalgebra_over([group.from_key(k) for k in odd_keys])
        report = fields_decomposition(S.fd, seed=seed)
        summary = _decomposition_summary(report, S.fd.field)
        c3 = ConditionReport("T3.3", report.is_sum_of_fields, summary)
        evidence["decompositions"] = summary

    c4 = ConditionReport(
        "T3.4", True, _condition4_reports(inst),
        note="value sets over t(G) are finite by construction; "
             "cardinalities reported")

    conditions = [c1, c2, c3, c4]
    result = "FC" if all(c.passed for c in conditions) else "NotFC"
    return Verdict(result, "T3", conditions, notes, evidence)


# --- quotient by a central involution ----------------------------------------------


class QuotientConstruction:
    def __init__(self, base, involution, mu_root, cosets, quotient_group,
                 quotient_cocycle, quotient_algebra, ideal_generator, checks):
        self.base = base                            # TwistedGroupAlgebra
        self.involution = involution
        self.mu_root = mu_root                      # Scalar
        self.cosets = cosets
        self.quotient_group = quotient_group
        self.quotient_cocycle = quotient_cocycle    # Cocycle
        self.quotient_algebra = quotient_algebra    # TwistedGroupAlgebra
        self.ideal_generator = ideal_generator      # AlgebraElement
        self.checks = checks

    def project(self, x):
        """The algebra map with kernel generated by u_a - mu_root."""
        group, field = self.base.group, self.base.field
        add, mul, reduce = field.raw_add, field.raw_mul, field.reduce
        out = {}
        for g, c in x.terms.items():
            h, k = self.cosets.factor(g)
            b = self.cosets.rep(h)
            ak = group.power(self.involution, k)
            lam_inv = field.raw_inv(self.base.cocycle.raw(b, ak))
            coeff = mul(mul(c, lam_inv), (self.mu_root ** k).value)
            out[h] = reduce(add(out.get(h, field.raw_zero), coeff))
        return AlgebraElement(self.quotient_algebra, out)

    def check_projection_multiplicative(self, pairs, seed=0):
        """Verify project(u_g u_h) == project(u_g) project(u_h) on random
        pairs; returns the number checked."""
        rng = random.Random(seed)
        group = self.base.group
        for n in range(pairs):
            g = _random_group_element(group, rng)
            h = _random_group_element(group, rng)
            lhs = self.project(self.base.basis_unit(g)
                               * self.base.basis_unit(h))
            rhs = self.project(self.base.basis_unit(g)) \
                * self.project(self.base.basis_unit(h))
            if lhs != rhs:
                raise ConditionsNotMet(
                    f"projection is not multiplicative at pair {g!r}, {h!r}")
        return pairs


def _random_group_element(group, rng):
    u = tuple(rng.randint(-3, 3) for _ in range(group.rank))
    t = rng.randrange(group.torsion.size)
    s = 0
    if group.prufer is not None:
        q, levels = group.prufer
        den = q ** min(2, levels)
        s = rng.randrange(den) * (group.prufer_modulus // den)
    return group.from_key(t, u, s)


def _achievable_pairing_offsets(group):
    """The pairing-offset residues a product of coset reps can pick up."""
    L = group.pairing_order
    return list(range(0, L, math.gcd(group.pairing_content, L)))


def build_quotient_algebra(inst, a=None, seed=0,
                           pairs=PROJECTION_SAMPLE_PAIRS):
    """Quotient of the algebra by the nilpotent ideal (u_a - mu_root).

    ``a`` must be a central involution whose span contains the commutator
    subgroup (default: the generator of a two-element commutator
    subgroup).  The square root mu_root of lambda(a, a) rescales the
    involution so the ideal generator squares to zero; the induced
    cocycle on G/<a> is extracted into the representable family, checked
    conclusively against the induced values, validated, and the basis
    projection is verified multiplicative on random pairs.
    """
    algebra = inst.algebra()
    group, field, cocycle = inst.group, inst.field, inst.cocycle
    if a is None:
        comm = group.commutator_subgroup()
        if len(comm.elements) != 2:
            raise ConditionsNotMet(
                "no default involution: the commutator subgroup does not "
                "have order 2; pass one explicitly")
        a = next(el for el in comm.elements if el != inst.group.identity)
    if group.element_order(a) != 2:
        raise ConditionsNotMet(f"{a!r} is not an involution")
    if not group.center_contains(a):
        raise ConditionsNotMet(f"{a!r} is not central")
    comm = group.commutator_subgroup()
    a_keys = {group.identity.t, a.t}
    if not all(el.t in a_keys for el in comm.elements):
        raise ConditionsNotMet(
            "the commutator subgroup is not contained in <a>")

    roots = solve_power_equation(field, 2, cocycle(a, a))
    if not roots:
        raise NoSquareRoot(
            "lambda(a, a) has no square root in the coefficient field")
    mu_root = min(roots, key=lambda s: s.sort_key())

    cosets = group.cyclic_cosets(a)
    H = cosets.quotient
    rep_keys = cosets.rep_keys
    tor = group.torsion
    a_power_keys = [group.power(a, s).t for s in range(2)]

    def induced_value(xbar, ybar, offset):
        ri, rj = rep_keys[xbar], rep_keys[ybar]
        t_prod = tor.mul_key(tor.mul_key(ri, rj),
                             group._target_multiple(offset))
        rk = rep_keys[cosets.coset_of[t_prod]]
        for s, apk in enumerate(a_power_keys):
            if tor.mul_key(rk, apk) == t_prod:
                break
        else:
            raise AssertionError("coset factorization failed on keys")
        val = cocycle.tau(ri, rj)
        if s:
            val = val * cocycle.tau(rk, a_power_keys[s]).inv() * mu_root ** s
        return val

    offsets = _achievable_pairing_offsets(group)
    table = {}
    fit_checks = 0
    for xbar in H.torsion.keys():
        for ybar in H.torsion.keys():
            base = induced_value(xbar, ybar, 0)
            for c in offsets[1:]:
                fit_checks += 1
                if induced_value(xbar, ybar, c) != base:
                    raise ConditionsNotMet(
                        "the induced quotient cocycle depends on the free "
                        "coordinates beyond the bilinear part and falls "
                        "outside the representable family")
            if base != field.one:
                table[(xbar, ybar)] = base

    mu_hat = Cocycle(H, field, torsion_table=table or None,
                     zeta=cocycle.zeta, matrix=cocycle.matrix)
    validation = validate_cocycle(H, mu_hat, box_radius=inst.caps.box_radius)
    if not validation.valid:
        raise ConditionsNotMet(
            "the induced quotient cocycle fails the cocycle identity: "
            + validation.counterexample.describe())

    quotient_algebra = TwistedGroupAlgebra(H, field, mu_hat, validate=False)
    ideal_generator = algebra.basis_unit(a) - algebra.scalar(mu_root)
    square = ideal_generator * ideal_generator
    if square:
        raise ConditionsNotMet(
            "the ideal generator does not square to zero (the construction "
            "needs characteristic 2)")

    qc = QuotientConstruction(
        base=algebra, involution=a, mu_root=mu_root, cosets=cosets,
        quotient_group=H, quotient_cocycle=mu_hat,
        quotient_algebra=quotient_algebra, ideal_generator=ideal_generator,
        checks={"family_fit_offsets_checked": fit_checks,
                "cocycle_identity_checks": validation.checked_identities,
                "ideal_generator_square_zero": True})
    certify(not qc.project(ideal_generator),
            "the ideal generator must project to zero")
    qc.checks["projection_pairs_checked"] = \
        qc.check_projection_multiplicative(pairs, seed=seed)
    return qc


# --- coprime-characteristic criterion (T4) ------------------------------------------


def check_theorem4(inst, seed=0):
    """Verdict for characteristic coprime to the (finite) torsion part.

    T4.1, primitive idempotents of the torsion subalgebra S central, holds
    whenever S is commutative, and is then not scanned.  The units u_a,
    a in T, commute exactly when ab = ba and tau(a, b) = tau(b, a), so S
    is commutative exactly when L4 passes, and then every torsion unit is
    central (see `necessary_conditions`), and so is all of S.  The same
    holds for T4.4, so only a noncommutative S, which a direct call can
    bring, is scanned there, for the witness.
    """
    algebra = inst.algebra()
    group, field = inst.group, inst.field
    p = field.characteristic
    if p and _finite_torsion_has_p_element(group, p):
        raise InapplicableCharacteristic(
            f"characteristic {p} divides a torsion element order")
    if group.prufer is not None:
        raise InapplicableTorsion(
            "the torsion part is infinite, so its subalgebra has infinitely "
            "many idempotents; this criterion needs finitely many")
    S = inst.torsion_subalgebra()
    fd = S.fd
    notes = [READING_NOTE, _fc_note(group),
             f"t(G) is finite of order {fd.dim}, so the torsion subalgebra "
             f"has finitely many idempotents"]
    evidence = {"orbits": None, "decompositions": None}

    commutative, pair = fd.is_commutative()
    report = fields_decomposition(fd, seed=seed)
    summary = _decomposition_summary(report, field)
    evidence["decompositions"] = summary
    c3 = ConditionReport("T4.3", report.is_sum_of_fields, summary)

    if commutative:
        c1 = ConditionReport("T4.1", True)
    else:
        c1 = ConditionReport(
            "T4.1", None, {"noncommuting_units": list(pair)},
            note="idempotents not enumerated: the torsion subalgebra is "
                 "noncommutative")

    c2 = ConditionReport(
        "T4.2", True, _condition4_reports(inst),
        note="value sets over t(G) are finite by construction; "
             "cardinalities reported")

    if field.is_finite():
        c4 = ConditionReport(
            "T4.4", True, None,
            note="K is finite, so the torsion subalgebra is finite and its "
                 "elementwise centrality is not required")
    else:
        fail = None if commutative else _centrality_failure(
            algebra, group.torsion_elements())
        c4 = ConditionReport(
            "T4.4", fail is None, fail,
            note="K is infinite, so the torsion subalgebra must be central")

    conditions = [c1, c2, c3, c4]
    result = "FC" if all(c.passed for c in conditions) else "NotFC"
    return Verdict(result, "T4", conditions, notes, evidence)


# --- crossed product -----------------------------------------------------------


class CrossedProduct:
    """The crossed product F * H = sum_h F u_rep(h) of one field component
    F = K_lambda T e with H = G/t(G).

    Every coefficient automorphism sigma_h, conjugation by u_rep(h), is
    the identity on F, and `sigma_labels` says so for each generator of H.
    `build_crossed_product` certifies the reason: the component's
    generator g is central in K_lambda G.  F = K[g] e, and e = g g^-1 is
    a polynomial in g, as the inverse g^-1 in the field F is one, so every
    element of F is a polynomial in g and commutes with every u_c.
    """

    def __init__(self, algebra, torsion, component, idempotent, quotient,
                 cosets, sigma_labels, checked_radius, checked_triples):
        self.algebra = algebra          # TwistedGroupAlgebra
        self.torsion = torsion          # FiniteSubalgebra over t(G)
        self.component = component      # FieldComponent of the torsion algebra
        self.idempotent = idempotent    # e, central, cuts the component
        self.quotient = quotient        # H = G / t(G), free abelian
        self.cosets = cosets
        self.sigma_labels = sigma_labels
        self.checked_radius = checked_radius
        self.checked_triples = checked_triples

    def rep(self, h):
        return self.cosets.rep(h)

    def factor_value(self, h1, h2):
        """The factor-set value mu(h1, h2) as the monomial v u_t of the
        torsion subalgebra; its value in the component is v u_t e.

        With c1, c2 the representatives of h1, h2, c1 c2 = c_k t for the
        representative c_k of h1 h2 and a torsion t, so u_c1 u_c2 =
        lambda(c1, c2) u_(c_k t) = v u_c_k u_t with v = lambda(c1, c2) /
        lambda(c_k, t)."""
        c1, c2 = self.rep(h1), self.rep(h2)
        hk, t = self.cosets.factor(self.algebra.group.mul(c1, c2))
        lam = self.algebra.cocycle
        return self.algebra.basis_unit(t).scale(
            lam(c1, c2) * lam(self.rep(hk), t).inv())


def build_crossed_product(inst, component_index=0, seed=0):
    """The crossed product F * H carried by one field component (see
    `CrossedProduct`), verified before it is returned.

    F is a component of the torsion subalgebra cut by its central
    primitive idempotent e, and H = G/t(G) is free abelian.  One
    certificate shows every coefficient automorphism trivial: the
    component's generator is central.  With sigma trivial, the
    factor-set identity mu(a, bc) mu(b, c) = mu(ab, c) mu(a, b) is
    compared on the monomials v u_t, before the factor e, on every
    triple of the generator box, whose radius is cut down from
    `caps.box_radius` until at most FACTOR_SET_TRIPLE_CAP triples remain.
    """
    v = check_theorem4(inst, seed=seed)
    if v.result != "FC":
        fail = v.first_failure()
        raise ConditionsNotMet(
            "the coprime-characteristic conditions fail"
            + (f" at {fail.cid}" if fail else ""))
    algebra = inst.algebra()
    group = inst.group
    S = inst.torsion_subalgebra()
    report = fields_decomposition(S.fd, seed=seed)
    if not 0 <= component_index < len(report.components):
        raise ConditionsNotMet(
            f"component index {component_index} is out of range "
            f"(0..{len(report.components) - 1})")
    comp = report.components[component_index]
    certify(algebra.is_central(S.to_ambient(comp.generator))[0],
            "the generator of a field component must be central, so that "
            "every coefficient automorphism is the identity")
    cosets = group.torsion_cosets()
    H = cosets.quotient
    cp = CrossedProduct(
        algebra=algebra, torsion=S, component=comp,
        idempotent=S.to_ambient(comp.idempotent), quotient=H, cosets=cosets,
        sigma_labels={label: "identity" for label, _ in H.generators()},
        checked_radius=0, checked_triples=0)

    radius = inst.caps.box_radius
    while radius > 1 and (2 * radius + 1) ** (3 * H.rank) \
            > FACTOR_SET_TRIPLE_CAP:
        radius -= 1
    box = generator_box(H, radius)
    mu = functools.cache(cp.factor_value)
    triples = 0
    for a in box:
        for b in box:
            for c in box:
                if mu(a, H.mul(b, c)) * mu(b, c) \
                        != mu(H.mul(a, b), c) * mu(a, b):
                    raise ConditionsNotMet(
                        f"factor-set identity fails at {a!r}, {b!r}, {c!r}")
                triples += 1
    cp.checked_radius = radius
    cp.checked_triples = triples
    return cp


def torsion_field_components(inst, seed=0):
    """(torsion subalgebra, decomposition report, ambient idempotents)."""
    S = inst.torsion_subalgebra()
    report = fields_decomposition(S.fd, seed=seed)
    if not report.is_sum_of_fields:
        raise ConditionsNotMet(
            "the torsion subalgebra is not a sum of fields")
    idems = [S.to_ambient(c.idempotent) for c in report.components]
    return S, report, idems


def _random_scalar(field, rng, nonzero=False):
    while True:
        if field.is_finite():
            s = Scalar(field, rng.randrange(field.size()))
        else:
            s = field.from_int(rng.randint(-3, 3))
        if s or not nonzero:
            return s


def sample_decomposed_units(inst, count, seed=0):
    """Random units shaped as a sum of scalar * e_i * u_c per component.

    Each summand lives in one field-component summand of the algebra: a
    nonzero scalar times the component idempotent times a coset
    representative unit of G/t(G).  The decomposition strategy of
    `try_invert` inverts every sum of a unit of F_i times one u_c per
    component F_i; these samples are the ones whose unit is a scalar
    multiple of e_i.  The coset representative is drawn with a nonzero
    free part so the support generates an infinite subgroup (keeping the
    regular-representation strategy out of the picture).
    """
    rng = random.Random(seed)
    algebra = inst.algebra()
    group = inst.group
    if group.rank == 0:
        raise ConditionsNotMet(
            "decomposed-unit sampling needs an infinite free part")
    S, report, idems = torsion_field_components(inst, seed=seed)
    cosets = group.torsion_cosets()
    H = cosets.quotient
    units = []
    for _ in range(count):
        total = algebra.scalar(algebra.field.zero)
        for e in idems:
            s = _random_scalar(algebra.field, rng, nonzero=True)
            while True:
                coords = tuple(rng.randint(-2, 2) for _ in range(H.rank))
                if any(coords):
                    break
            c = cosets.rep(H.element(coords))
            total = total + (e * algebra.basis_unit(c)).scale(s)
        units.append(total)
    return units, idems


# --- truncated Pruefer evidence (T5) -----------------------------------------------


def _root_of_unity_profile(field, q):
    if field.is_finite():
        n = field.size() - 1
        v = 0
        while n % q ** (v + 1) == 0:
            v += 1
    else:
        v = 1 if q == 2 else 0
    return {"prime": q, "max_level_with_primitive_root": v,
            "first_missing_level": v + 1}


def check_theorem5_truncated(inst, level=None, seed=0):
    """Truncated evidence for the infinite-idempotent territory.

    A Pruefer component makes the torsion subalgebra's idempotent count
    unbounded, so the governing conditions are intrinsically infinite.
    The checker evaluates the `_fitting_level` and returns EvidenceOnly.

    The torsion subalgebra S at that level is commutative, or
    `_primitive_counts_by_level` raises NotCommutative before any
    condition is reported.  T is abelian, as the group accepts a Pruefer
    part only beside an abelian T, so S is commutative exactly when tau
    is symmetric, that is when L4 passes, and then every torsion unit is
    central (see `necessary_conditions`): T5.1 holds without a scan.
    p does not divide |T| q^L, so S is semisimple (Maschke; Karpilovsky,
    Projective Representations of Finite Groups, 1985) and the sum of the
    fields S e at its primitive idempotents e.  T5.4 reads the corner of
    f = 1 - e_H off that split: e f is an idempotent of the field S e, so
    e f = e or e f = 0, and f S is the sum of the S e with e f = e.
    """
    algebra = inst.algebra()
    group, field, cocycle = inst.group, inst.field, inst.cocycle
    if group.prufer is None:
        raise InapplicableTorsion("no Pruefer component in the torsion part")
    q = group.prufer[0]
    p = field.characteristic
    if p == q:
        raise InapplicableCharacteristic(
            f"characteristic equals the Pruefer prime {q}")
    if p and _finite_torsion_has_p_element(group, p):
        raise InapplicableCharacteristic(
            f"characteristic {p} divides a finite torsion order")
    lvl, S = _fitting_level(inst, level)
    notes = [READING_NOTE, _fc_note(group),
             f"all evidence truncated at Pruefer level {lvl} "
             f"(subgroup of order {q}^{lvl}); the hypotheses are "
             f"intrinsically infinite, so no decision is claimed"]
    evidence = {"orbits": None, "decompositions": {
        "component_counts_by_level": _primitive_counts_by_level(
            inst, lvl, seed)}}

    # condition 1: torsion subalgebra central, as S is commutative; minimal
    # idempotent existence is governed by the root-of-unity stock
    profile = _root_of_unity_profile(field, q)
    c1 = ConditionReport(
        "T5.1", True, {"root_of_unity_profile": profile},
        note="the root stock stops at a finite level, which is the "
             "minimal-idempotent evidence for the untruncated algebra")

    c2 = ConditionReport(
        "T5.2", True, _condition4_reports(inst),
        note="value sets computed at the truncation level")

    comm = group.commutator_subgroup()
    box = generator_box(group, 1)
    scalar_viols = []
    order_mismatches = []
    for a in box:
        for b in box:
            g = group.commutator(a, b)
            c = commutator_scalar(cocycle, a, b)
            if g == group.identity and c != field.one:
                scalar_viols.append({"pair": [a, b], "scalar": c})
            elif g != group.identity:
                rep = commutator_order_check(inst, a, b)
                if not rep.equal:
                    order_mismatches.append({"pair": [a, b],
                                             "orders": [rep.group_order,
                                                        rep.unit_order]})
    c3 = ConditionReport(
        "T5.3", not scalar_viols and not order_mismatches,
        {"commutator_subgroup_order": len(comm.elements),
         "scalar_commutator_violations": scalar_viols[:3],
         "commutator_order_mismatches": order_mismatches[:3],
         "root_of_unity_profile": profile},
        note="checked on the radius-1 generator box; the full commutator "
             "comparison is not finitely decidable")

    if len(comm.elements) == 1:
        c4 = ConditionReport(
            "T5.4", True,
            {"averaging_idempotent": "identity", "complement": "zero"},
            note="the commutator subgroup is trivial, so the averaging "
                 "idempotent is 1 and its complement cuts the zero algebra")
    else:
        # T is abelian, so H = G' = <c z>, z the pairing target and c the
        # gcd of the pairing entries: |H| divides |T|, prime to char K.
        # The cocycle identity at u_g = e_i, u_h = e_j, u_k = 0, inside
        # every validated box, gives tau(M_ij z, t) = tau(0, t) = 1, and
        # then tau(h + a, b) = tau(a, b) for h in H.  So the u_h multiply
        # as H does, and e_H is idempotent.  1 - e_H != 0: its
        # coefficient at h != 1 in H is -1/|H|.
        e_H = averaging_idempotent(algebra, comm.elements, sub=S)
        fd = S.fd
        f = fd.sub(fd.one, S.from_ambient(e_H))
        parts = [c for c in fields_decomposition(fd, seed=seed).components
                 if fd.mul(c.idempotent, f) == c.idempotent]
        certify(linear_combination(fd, itertools.repeat(field.raw_one),
                                   [c.idempotent for c in parts]) == f,
                "the components under 1 - e_H do not sum to it")
        c4 = ConditionReport(
            "T5.4", True,
            {"averaging_idempotent": e_H,
             "complement_decomposition": _decomposition_summary(
                 DecompositionReport(True, "", None, parts), field)},
            note="evaluated at the truncation level")

    # the chain lies in S; delta below can leave it, so stays ambient
    chain = prufer_idempotent_chain(algebra, lvl, S)
    vecs = list(map(S.from_ambient, chain))
    chain_ok = all(S.fd.mul(a, b) == b == S.fd.mul(b, a)
                   for a, b in zip(vecs, vecs[1:]))
    distinct = len({_element_key(e) for e in chain}) == len(chain)
    evidence["decompositions"]["idempotent_chain"] = {
        "length": len(chain), "absorbing": chain_ok, "distinct": distinct}

    identities = []
    gens = group.generators(prufer_level=lvl)
    for la, a in gens:
        for lb, b in gens:
            if la >= lb:
                continue
            delta = algebra.one - algebra.basis_commutator(a, b)
            ok = all(not (a - b) * delta
                     for a, b in itertools.combinations(chain, 2))
            identities.append({"pair": [la, lb], "all_pairs_annihilate": ok})
    evidence["decompositions"]["difference_annihilation"] = identities

    conditions = [c1, c2, c3, c4]
    return Verdict("EvidenceOnly", "T5-truncated", conditions, notes,
                   evidence)


# --- commutator orders and orbit probes ---------------------------------------------


class CommutatorOrderReport:
    def __init__(self, group_order, unit_order, equal, scalar):
        self.group_order = group_order
        self.unit_order = unit_order    # int | None
        self.equal = equal
        self.scalar = scalar            # Scalar


def commutator_order_check(inst, a, b):
    """Compare the orders of the group commutator and the unit commutator.

    The unit commutator of two basis units is a scalar multiple of a
    basis unit, so its order is n times the multiplicative order of its
    n-th power scalar.  n is finite: the free coordinates add under the
    group law and negate under inversion, so those of a^-1 b^-1 a b sum
    to 0, and an element with free part 0 has finite order.
    """
    group, cocycle = inst.group, inst.cocycle
    g = group.commutator(a, b)
    n = group.element_order(g)
    c = commutator_scalar(cocycle, a, b)
    gamma = c ** n * power_scalar(cocycle, g)
    m = multiplicative_order(gamma)
    unit_order = n * m if m is not None else None
    return CommutatorOrderReport(n, unit_order, unit_order == n, gamma)


def _element_key(x):
    return frozenset(x.terms.items())


class OrbitProbe:
    def __init__(self, sizes, stabilized, capped):
        self.sizes = sizes
        self.stabilized = stabilized
        self.capped = capped

    def to_json(self):
        return {"sizes_by_depth": list(self.sizes),
                "stabilized": self.stabilized,
                "capped": self.capped}


def probe_conjugates(inst, x, depth=None):
    """BFS orbit of a unit under conjugation by generator units.

    Evidence, never proof: stabilization within the depth is consistent
    with finitely many conjugates; growth to the cap is consistent with
    infinitely many.
    """
    algebra = inst.algebra()
    if depth is None:
        depth = inst.caps.orbit_depth
    if depth > ORBIT_DEPTH_CAP:
        raise CapExceeded(f"orbit depth cap is {ORBIT_DEPTH_CAP}")
    _check_cap("depth", "orbit_depth", depth)
    res = try_invert(algebra, x)
    if not res.is_unit:
        raise NotUnitError(f"orbit probing needs a unit: {res.certificate}")
    pairs = []
    for _, g in inst.group.generators():
        pairs.append((algebra.basis_unit(g), algebra.basis_unit_inverse(g)))
    orbit = {_element_key(x)}
    frontier = [x]
    sizes = [1]
    stabilized = False
    capped = False
    for _ in range(depth):
        new = []
        for y in frontier:
            for u, uinv in pairs:
                for z in (uinv * y * u, u * y * uinv):
                    k = _element_key(z)
                    if k not in orbit:
                        orbit.add(k)
                        new.append(z)
            if len(orbit) > ORBIT_SIZE_CAP:
                capped = True
                break
        if capped:
            sizes.append(len(orbit))
            break
        frontier = new
        sizes.append(len(orbit))
        if not new:
            stabilized = True
            break
    return OrbitProbe(sizes, stabilized, capped)


# --- dispatcher ------------------------------------------------------------------


def verdict(inst, seed=0):
    """Route the instance to the applicable criterion and report.

    Finite algebras are out of scope for every criterion (their unit
    groups are finite, hence trivially FC), so they come back
    Inapplicable before any screening.
    """
    algebra = inst.algebra()
    group, field = inst.group, inst.field
    base_notes = [READING_NOTE, _fc_note(group)]
    if field.is_finite() and group.is_finite():
        return Verdict(
            "Inapplicable", None, [],
            base_notes + ["K and G are both finite, so the unit group is "
                          "finite and trivially FC; the criteria target "
                          "infinite algebras"],
            {"orbits": None, "decompositions": None})
    violations = necessary_conditions(inst)
    if violations:
        out = Verdict("NotFC", "necessary-only",
                      violations, base_notes,
                      {"orbits": None, "decompositions": None})
    else:
        p = field.characteristic
        if p > 0 and _torsion_has_p_element(group, p):
            out = check_theorem3(inst, seed=seed)
        elif group.prufer is not None:
            out = check_theorem5_truncated(inst, seed=seed)
        else:
            out = check_theorem4(inst, seed=seed)
    orbits = {}
    unstable = []
    for label, g in group.generators(prufer_level=inst.prufer_level):
        probe = probe_conjugates(inst, algebra.basis_unit(g))
        orbits[label] = probe.to_json()
        if not probe.stabilized:
            unstable.append(label)
    out.evidence["orbits"] = orbits
    if out.result == "FC" and unstable:
        out.notes.append(
            f"warning: the conjugation orbit of u[{unstable[0]}] did not "
            f"stabilize within depth {inst.caps.orbit_depth}; the literal "
            f"conditions and the orbit evidence disagree, so inspect the "
            f"orbit sizes (scalar conjugation outside t(G) is not excluded "
            f"by the conditions)")
    return out


# --- structural dump for reports -----------------------------------------------


def structure_report(inst, level=None, seed=0):
    """Radical, idempotent counts, and decomposition of the torsion
    subalgebra, at the `_fitting_level` of a Pruefer component."""
    out = {}
    if inst.group.prufer is None:
        S = inst.torsion_subalgebra()
    else:
        out["prufer_level"], S = _fitting_level(inst, level)
    fd = S.fd
    out["torsion_dimension"] = fd.dim
    report = fields_decomposition(fd, seed=seed)
    try:
        rad = jacobson_radical(fd)
        out["radical"] = {"dimension": len(rad.basis),
                          "method": rad.method,
                          "nilpotency_index": rad.nilpotency_index}
    except DimensionTooLarge as exc:
        out["radical"] = {"status": "dimension-too-large", "detail": str(exc)}
    try:
        out["idempotent_count"] = count_idempotents(fd, seed=seed)
    except (DimensionTooLarge, TooLargeToCount):
        out["idempotent_count"] = "above-cap"
    if report.primitives is not None:
        out["primitive_idempotents"] = len(report.primitives)
    out["decomposition"] = _decomposition_summary(report, fd.field)
    return _jsonify(out)
