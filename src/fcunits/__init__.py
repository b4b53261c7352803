"""fcunits: exact structure and FC-unit analysis for twisted group algebras.

The package builds twisted group algebras K_lambda G over exact scalar
fields (GF(p^k) or the rationals), for groups that are central extensions
of Z^r by a finite abelian or table-given torsion part, optionally with a
Prufer q-component. On top of the arithmetic it computes structural data
(Jacobson radicals, idempotents, field decompositions, unit inverses) and
decides, with witnesses, whether the unit group is an FC-group.

The usual entry points:

    inst = instance_from_json(json.load(fh))
    v = verdict(inst)            # FC / NotFC / Inapplicable, with evidence
    s = structure_report(inst)   # radical, idempotents, field components

Everything below those two calls is importable too; the re-exports here
cover the names the test suite and the command line client use.
"""

# the one owner of the version: the CLI report reads it, and
# pyproject.toml repeats it for packaging (a test keeps the two equal)
__version__ = "0.1.0"

from .errors import FcunitsError, InstanceFormatError
from .fields import gf, make_field, rationals
from .groups import make_group
from .cocycles import Cocycle, coboundary, generator_box, validate_cocycle
from .algebra import TwistedGroupAlgebra, prufer_idempotent_chain, try_invert
from .structure import (
    count_idempotents,
    fields_decomposition,
    jacobson_radical,
    primitive_idempotents,
)
from .fc import (
    Instance,
    Verdict,
    build_crossed_product,
    build_quotient_algebra,
    check_theorem3,
    check_theorem4,
    check_theorem5_truncated,
    instance_from_json,
    probe_conjugates,
    sample_decomposed_units,
    structure_report,
    verdict,
)
from .oracle import oracle_report, predicted_unit_count

__all__ = [
    "Cocycle",
    "FcunitsError",
    "Instance",
    "InstanceFormatError",
    "TwistedGroupAlgebra",
    "Verdict",
    "build_crossed_product",
    "build_quotient_algebra",
    "check_theorem3",
    "check_theorem4",
    "check_theorem5_truncated",
    "coboundary",
    "count_idempotents",
    "fields_decomposition",
    "generator_box",
    "gf",
    "instance_from_json",
    "jacobson_radical",
    "make_field",
    "make_group",
    "oracle_report",
    "predicted_unit_count",
    "primitive_idempotents",
    "probe_conjugates",
    "prufer_idempotent_chain",
    "rationals",
    "sample_decomposed_units",
    "structure_report",
    "try_invert",
    "validate_cocycle",
    "verdict",
    "__version__",
]
