"""Exception taxonomy for fcunits.

Every structured failure the library can report deliberately, as opposed to a
programming error, derives from FcunitsError.  The CLI maps these to exit
code 1 (semantic rejection) while InstanceFormatError maps to exit code 2
(unreadable or malformed input).

Checks shared by every module live here as well: `int_entries` and
`int_matrix` reject input that is not made of real ints, `known_keys`
rejects a JSON object with a key outside its spec, so a misspelled key
is an error rather than a silent default, and `certify` raises
CertificateFailed when a certificate does not hold.
"""


class FcunitsError(Exception):
    """Base class for all deliberate fcunits failures."""


class InstanceFormatError(FcunitsError):
    """Input JSON is missing keys, has wrong shapes, or wrong types."""


def int_entries(values, what):
    """values as a tuple of ints.  Anything else, bool included, is
    rejected rather than truncated by int()."""
    if not isinstance(values, (list, tuple)):
        raise InstanceFormatError(f"{what} must be a list of ints, "
                                  f"got {values!r}")
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InstanceFormatError(f"{what} must be ints, got {x!r}")
    return tuple(values)


def known_keys(obj, keys, what):
    """Reject the dict obj if it has a key outside ``keys``, naming the
    first such key in sorted order."""
    extra = sorted(set(obj) - set(keys), key=str)
    if extra:
        raise InstanceFormatError(f"unknown {what} key {extra[0]!r}")


def int_matrix(rows, what):
    if not isinstance(rows, (list, tuple)):
        raise InstanceFormatError(f"{what} must be a list of rows, "
                                  f"got {rows!r}")
    return tuple(int_entries(row, f"{what} entries") for row in rows)


# --- scalars ---------------------------------------------------------------

class NonPrimeCharacteristic(FcunitsError):
    """Field characteristic must be prime."""


class ReducibleModulus(FcunitsError):
    """The extension modulus factors over the prime field."""


class DivisionByZero(FcunitsError):
    """Inversion of the zero scalar."""


class FieldMismatch(FcunitsError):
    """Arithmetic attempted between scalars of different fields."""


class UnsupportedRationalDegree(FcunitsError):
    """Rational root extraction only handles exponents 1 and 2."""


# --- groups ----------------------------------------------------------------

class GroupValidationError(FcunitsError):
    """A group description fails its construction checks."""


class GroupMismatch(FcunitsError):
    """Operation mixed elements of different group objects."""


class InfiniteIndexUnsupported(FcunitsError):
    """Coset enumeration requested for an infinite-index subgroup."""


# --- cocycles ---------------------------------------------------------------

class ZeroValue(FcunitsError):
    """A cocycle or coboundary value must be a nonzero scalar."""


class InfiniteOrder(FcunitsError):
    """The operation needs a torsion element but got one of infinite order."""


class NotNormalized(FcunitsError):
    """The cocycle does not satisfy the identity-row normalization."""


class InvalidCocycle(FcunitsError):
    """The table fails the cocycle identity; carries the counterexample."""

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


# --- algebra ----------------------------------------------------------------

class AlgebraMismatch(FcunitsError):
    """Arithmetic attempted between elements of different algebras."""


class SupportNotInSubgroup(FcunitsError):
    """Element support leaves the finite subgroup the operation works in."""


class CharacteristicDividesOrder(FcunitsError):
    """|H| is not invertible in K, so the averaging idempotent fails."""


class NotUnitError(FcunitsError):
    """A certified non-unit where a unit was required."""


class CharacteristicEqualsQ(FcunitsError):
    """The chain construction needs char K different from the Pruefer prime."""


# --- structure ---------------------------------------------------------------

class SubgroupTooLarge(FcunitsError):
    """Finite subgroup exceeds the dense-subalgebra cap."""


class DimensionTooLarge(FcunitsError):
    """Structure computation exceeds its dimension cap."""


class NotCommutative(FcunitsError):
    """The operation is defined for commutative algebras only."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TooLargeToCount(FcunitsError):
    """A count that is not decided: the idempotents or units of a
    noncommutative algebra over Q, or the infinitely many units of a
    commutative one."""


class IdealNotNilpotent(FcunitsError):
    """Idempotent lifting requires a nilpotent ideal."""


class CertificateFailed(FcunitsError):
    """A result failed the check that certifies it."""


def certify(cond, what):
    """Raise CertificateFailed(what) unless cond holds.

    Certificates are checks the results rest on, so unlike `assert` they
    also run under `python -O`."""
    if not cond:
        raise CertificateFailed(what)


# --- fc analysis -------------------------------------------------------------

class InapplicableCharacteristic(FcunitsError):
    """The theorem gate on characteristic vs torsion orders fails."""


class InapplicableTorsion(FcunitsError):
    """The theorem gate on the torsion structure fails."""


class NoSquareRoot(FcunitsError):
    """The required square root does not exist in K."""


class ConditionsNotMet(FcunitsError):
    """A construction's precondition check failed."""


# --- cli ---------------------------------------------------------------------

class CapExceeded(FcunitsError):
    """A configured work cap (oracle size, subgroup size, ...) was exceeded."""
