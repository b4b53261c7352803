"""Workload definitions of the fcunits benchmark.

A request is one `fcunits analyze INSTANCE FLAGS...` invocation.  A pass
runs every request of a workload once; the workload seed only shuffles
the order of requests inside each pass.  The analysis seed stays at the
CLI default (FC_UNITS_SEED unset, i.e. 0), so reports are comparable
byte for byte with the recorded references.
"""

import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
INSTANCE_DIR = os.path.join("src", "fcunits", "instances")
REFERENCES = os.path.join(BENCH_DIR, "references.json")

STRUCTURE = ("--verdict", "--structure")
ORACLE = ("--oracle",)

HEAVY = ("prufer2_gf257", "s3_z_gf5")

CORPUS = (
    "c2_z2_gf4_twisted", "c2_z_gf3_twisted", "c3_z_rationals",
    "gf3_c2_trivial", "gf3_c2_twisted", "heisenberg_gf2", "heisenberg_gf4",
    "z2_to_c3_gf7", "z3_commutator_gf3",
    "lemma3/c12_gf7", "lemma3/c2_gf3", "lemma3/c2_gf5", "lemma3/c2_gf7",
    "lemma3/c2_gf81", "lemma3/c2_gf9", "lemma3/c3_gf13", "lemma3/c3_gf27",
    "lemma3/c3_gf4", "lemma3/c3_gf7", "lemma3/c3_gf8", "lemma3/c4_gf25",
    "lemma3/c4_gf3", "lemma3/c4_gf5", "lemma3/c4_gf9", "lemma3/c6_gf13",
    "lemma3/c6_gf5", "lemma3/c6_gf7", "lemma3/c8_gf17", "lemma3/c8_gf3",
)

ORACLE_SET = (
    "gf3_c2_trivial", "gf3_c2_twisted",
    "lemma3/c2_gf3", "lemma3/c2_gf5", "lemma3/c2_gf7", "lemma3/c2_gf9",
    "lemma3/c2_gf81",
    "lemma3/c3_gf4", "lemma3/c3_gf7", "lemma3/c3_gf8", "lemma3/c3_gf13",
    "lemma3/c4_gf3", "lemma3/c4_gf5",
)

CLI_SET = (
    "c2_z_gf3_twisted", "c3_z_rationals", "gf3_c2_twisted", "heisenberg_gf2",
    "heisenberg_gf4", "z3_commutator_gf3", "lemma3/c4_gf25", "lemma3/c6_gf7",
)


@dataclass(frozen=True)
class Request:
    instance: str
    flags: tuple

    @property
    def path(self):
        return os.path.join(INSTANCE_DIR, self.instance + ".json")

    @property
    def key(self):
        return " ".join((self.instance,) + self.flags)

    def argv(self):
        return ["analyze", self.path, *self.flags]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    cli: bool
    why: str


def _requests(instances, flags):
    return tuple(Request(name, flags) for name in instances)


WORKLOADS = {w.name: w for w in (
    Workload("heavy-structure", _requests(HEAVY, STRUCTURE), False,
             "the two instances where structure (FD multiply, idempotent "
             "enumeration) and Scalar field ops dominate the request time"),
    Workload("corpus", _requests(CORPUS, STRUCTURE), False,
             "29 small requests where parsing, cocycle validation, routing "
             "through T3, T4 and necessary-only, orbit probes and the "
             "rational sympy path are a large share"),
    Workload("oracle-crosscheck", _requests(ORACLE_SET, ORACLE), False,
             "dense brute-force enumeration over prime and extension fields, "
             "a second heavy user of Scalar ops that bypasses the verdict"),
    Workload("cli-cold", _requests(CLI_SET, STRUCTURE), True,
             "one CLI process per request, so interpreter start, the fcunits "
             "import and the lazy sympy import are paid as a user pays them"),
)}


def child_env():
    """Environment of every process that runs fcunits: the source tree on
    PYTHONPATH (no install), the default analysis seed, fixed hashing."""
    env = dict(os.environ)
    env.pop("FC_UNITS_SEED", None)
    env["PYTHONPATH"] = SRC_DIR
    env["PYTHONHASHSEED"] = "0"
    return env


def python():
    return sys.executable or "python3"
