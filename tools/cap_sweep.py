"""Time the structure report on instances at and beyond the declared caps.

Run from the repository root:

    python3 tools/cap_sweep.py [NAME ...]

Each instance is rank 1 (torsion x Z) with the trivial cocycle, built in
memory from the specs below; no instance file is written or read.  Given
names, only the instances whose names contain one of them run, so
`python3 tools/cap_sweep.py ", Q"` runs the rational rows.  Per instance the
sweep prints one table row:

* the table build: the wall time of the first product on a fresh field
  object, built before the analysis, which builds and certifies the log
  and Zech tables of GF(p^k), "-" over GF(p) and Q, which have none;
* the in-process wall time of `fc.instance_from_json` and
  `fc.structure_report` on a fresh instance, its own table build included;
* the radical: its dimension and method, or the status of a refusal;
* the number of primitive idempotents, "-" when there are none to count;
* the idempotent count, or "above-cap" when it is refused;
* the function of src/fcunits/ with the most self time when the same
  work runs again under cProfile, on another fresh instance, with its
  share of all profiled time (the rest is in the standard library, such
  as `Fraction` arithmetic over Q, and in other fcunits functions).

It uses the standard library alone, and it measures and gates nothing.
"""

import cProfile
import pathlib
import pstats
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fcunits"
sys.path.insert(0, str(ROOT / "src"))

from fcunits import fc, fields  # noqa: E402


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(n):
    """D_2n on r^i s^j, keyed i + n j: s r = r^-1 s."""
    def key(i, j):
        return i % n + n * (j % 2)
    return [[key(i + (-1) ** j * k, j + l)
             for l in range(2) for k in range(n)]
            for j in range(2) for i in range(n)]


def quaternion():
    """Q8 on +-1, +-i, +-j, +-k, keyed sign * 4 + unit."""
    units = {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
             (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
             (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
             (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
             (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}

    def mul(x, y):
        sign, unit = units[x % 4, y % 4]
        return ((x // 4 + y // 4 + sign) % 2) * 4 + unit
    return [[mul(x, y) for y in range(8)] for x in range(8)]


def times(a, b):
    """The direct product of two Cayley tables, keyed x * |b| + y."""
    m = len(b)
    return [[a[x // m][y // m] * m + b[x % m][y % m]
             for y in range(len(a) * m)] for x in range(len(a) * m)]


def prime_power(p, k=1, modulus=None):
    spec = {"kind": "prime-power", "p": p, "k": k}
    return spec if modulus is None else {**spec, "modulus": modulus}


RATIONALS = {"kind": "rationals"}

# (name, torsion spec, field spec): the at-cap rows of the roadmap
SPECS = [
    ("D16, GF(2)", {"table": dihedral(8)}, prime_power(2)),
    ("D24, GF(3)", {"table": dihedral(12)}, prime_power(3)),
    ("D32, GF(2)", {"table": dihedral(16)}, prime_power(2)),
    ("D34, GF(2)", {"table": dihedral(17)}, prime_power(2)),
    ("D64, GF(2)", {"table": dihedral(32)}, prime_power(2)),
    ("D48, GF(5)", {"table": dihedral(24)}, prime_power(5)),
    ("S3xC8, GF(7)", {"table": times(dihedral(3), cyclic(8))},
     prime_power(7)),
    ("D64, GF(3)", {"table": dihedral(32)}, prime_power(3)),
    ("Q8xC8, GF(3)", {"table": times(quaternion(), cyclic(8))},
     prime_power(3)),
    ("Q8xC8, GF(17)", {"table": times(quaternion(), cyclic(8))},
     prime_power(17)),
    ("D8xC8, GF(5)", {"table": times(dihedral(4), cyclic(8))},
     prime_power(5)),
    ("C64, GF(2)", {"invariants": [64]}, prime_power(2)),
    ("C48, GF(65521)", {"invariants": [48]}, prime_power(65521)),
    ("C8xC8, GF(65521)", {"invariants": [8, 8]}, prime_power(65521)),
    ("C24, GF(251^2)", {"invariants": [24]}, prime_power(251, 2, [1, 0, 1])),
    ("C12, Q", {"invariants": [12]}, RATIONALS),
    ("C24, Q", {"invariants": [24]}, RATIONALS),
    ("C36, Q", {"invariants": [36]}, RATIONALS),
    ("C60, Q", {"invariants": [60]}, RATIONALS),
    ("C64, Q", {"invariants": [64]}, RATIONALS),
    ("C8xC8, Q", {"invariants": [8, 8]}, RATIONALS),
]


def spec(torsion, field):
    return {"field": field, "cocycle": {},
            "group": {"kind": "central-extension", "rank": 1,
                      "torsion": torsion}}


def report(obj):
    return fc.structure_report(fc.instance_from_json(obj))


def table_build(field):
    """The wall time of the first product on a fresh field object, which
    builds its tables, or "-" for a field without tables."""
    F = fields.make_field(field)
    if F.kind != "extension":
        return "-"
    start = time.perf_counter()
    F.one * F.one
    return f"{time.perf_counter() - start:.2f} s"


def radical(rep):
    rad = rep["radical"]
    if "status" in rad:
        return rad["status"]
    return f"{rad['dimension']} ({rad['method']})"


def slowest(obj):
    """'name file:line (share %)' of the fcunits function with the most
    self time, its share of all profiled time."""
    profile = cProfile.Profile()
    profile.runcall(report, obj)
    stats = pstats.Stats(profile).stats
    total = sum(row[2] for row in stats.values()) or 1.0
    (path, line, name), row = max(
        ((key, row) for key, row in stats.items()
         if pathlib.Path(key[0]).parent == SRC),
        key=lambda kv: kv[1][2])
    return f"{name} {pathlib.Path(path).name}:{line} " \
        f"({100 * row[2] / total:.0f} %)"


def main(names):
    print("| torsion, field | dim | tables | wall | radical | primitives "
          "| idempotents | most self time in fcunits |")
    print("|---|---|---|---|---|---|---|---|")
    for name, torsion, field in SPECS:
        if names and not any(n in name for n in names):
            continue
        obj = spec(torsion, field)
        tables = table_build(field)
        start = time.perf_counter()
        rep = report(obj)
        wall = time.perf_counter() - start
        prims = rep.get("primitive_idempotents", "-")
        print(f"| {name} | {rep['torsion_dimension']} | {tables} "
              f"| {wall:.2f} s "
              f"| {radical(rep)} | {prims} | {rep['idempotent_count']} "
              f"| {slowest(obj)} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
