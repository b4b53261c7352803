"""Command line front end.

Two subcommands: ``validate`` checks an instance file and reports the
first cocycle-identity counterexample if there is one, ``analyze`` runs
any combination of the verdict, structure, orbit, and oracle sections
and emits one deterministic JSON report.  Exit codes: 0 success, 1
semantic rejection (invalid cocycle, failed precondition, exceeded cap),
2 unreadable or malformed input.
"""

import argparse
import json
import os
import sys

from . import __version__
from .errors import FcunitsError, InstanceFormatError
from .fc import _check_cap, instance_from_json, probe_conjugates, \
    structure_report, verdict
from .oracle import oracle_report, predicted_unit_count
from .structure import block_structure, count_idempotents, \
    fields_decomposition, jacobson_radical

TOOL_NAME = "fcunits"
TOOL_VERSION = __version__


def bundled_instance(name):
    """Parsed JSON of a bundled instance, e.g. 'heisenberg_gf2' or
    'lemma3/c6_gf25'."""
    # imported here, as it brings some 30 modules into every CLI start
    from importlib import resources
    path = resources.files("fcunits") / "instances" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def bundled_names(subdir=None):
    from importlib import resources
    root = resources.files("fcunits") / "instances"
    if subdir is not None:
        root = root / subdir
    return sorted(entry.name[:-len(".json")] for entry in root.iterdir()
                  if entry.name.endswith(".json"))


def _load_instance_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return raw, instance_from_json(raw)


def _seed_from_env():
    raw = os.environ.get("FC_UNITS_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InstanceFormatError(
            f"FC_UNITS_SEED must be an integer, got {raw!r}") from None


def _report_skeleton(inst, seed):
    instance = {"digest": inst.digest()}
    if inst.name:
        instance["name"] = inst.name
    return {"tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "seed": seed,
            "caps": inst.caps.to_json(),
            "instance": instance,
            "sections": {}}


def render_report(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# --- validate ---------------------------------------------------------------------


def cmd_validate(args):
    _, inst = _load_instance_file(args.instance)
    if not inst.cocycle.is_normalized:
        print("invalid: the cocycle is not normalized "
              "(lambda(1,g) = lambda(g,1) = 1 fails)")
        return 1
    res = inst.validate()
    if not res.valid:
        print("invalid: " + res.counterexample.describe())
        return 1
    print(f"valid: cocycle identity holds in {res.checked_identities} checks "
          f"(torsion triples x pairing-offset pairs, box radius "
          f"{inst.caps.box_radius})")
    return 0


# --- analyze ----------------------------------------------------------------------


def _orbit_section(inst, labels, depth):
    gens = dict(inst.group.generators(prufer_level=inst.prufer_level))
    probes = {}
    for label in labels:
        if label not in gens:
            raise InstanceFormatError(
                f"unknown generator label {label!r}; available: "
                f"{sorted(gens)}")
        probe = probe_conjugates(
            inst, inst.algebra().basis_unit(gens[label]), depth=depth)
        probes[label] = probe.to_json()
    out = {"probes": probes}
    if depth is not None:
        out["depth"] = depth
    return out


def _commutative_unit_count(fd, field_size, seed):
    """|K|^dim J * prod(|K|^d_i - 1) over the field components of A / J."""
    rad = jacobson_radical(fd)
    bar = rad.quotient.fd if rad.quotient else fd
    return predicted_unit_count(
        field_size, len(rad.basis),
        [c.dim for c in fields_decomposition(bar, seed=seed).components])


def _oracle_section(raw, inst, seed):
    rep = oracle_report(raw)
    S = inst.torsion_subalgebra()
    checks = {}

    def against(key, oracle_value, compute):
        try:
            checks[key] = {"oracle": oracle_value, "structural": compute()}
        except FcunitsError as exc:
            checks[key] = {"oracle": oracle_value, "skipped": str(exc)}

    # outside `against`, so that a failing decomposition ends the run
    commutative = fields_decomposition(S.fd, seed=seed).primitives is not None
    against("radical_dimension", rep.radical_dimension,
            lambda: len(jacobson_radical(S.fd).basis))
    against("idempotent_count", rep.idempotent_count,
            lambda: count_idempotents(S.fd, seed=seed))
    against("unit_count", rep.unit_count,
            lambda: _commutative_unit_count(S.fd, rep.field_size, seed)
            if commutative else block_structure(S.fd).unit_count())
    agree = all(c["structural"] == c["oracle"]
                for c in checks.values() if "structural" in c)
    return {"report": rep.to_json(), "cross_check": checks, "agree": agree}


def cmd_analyze(args):
    for flag, cap in (("level", "truncation_level"), ("depth", "orbit_depth")):
        _check_cap(f"--{flag}", cap, getattr(args, flag))
    raw, inst = _load_instance_file(args.instance)
    res = inst.validate()
    if not res.valid:
        print("invalid: " + res.counterexample.describe(), file=sys.stderr)
        return 1
    seed = _seed_from_env()
    report = _report_skeleton(inst, seed)
    sections = report["sections"]
    wanted = args.verdict or args.structure or args.orbits or args.oracle
    if args.verdict or not wanted:
        sections["verdict"] = verdict(inst, seed=seed).to_json()
    if args.structure:
        sections["structure"] = structure_report(inst, level=args.level,
                                                 seed=seed)
    if args.orbits:
        sections["orbits"] = _orbit_section(inst, args.orbits, args.depth)
    if args.oracle:
        sections["oracle"] = _oracle_section(raw, inst, seed)

    rendered = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    if args.human:
        print(_render_human(report))
    elif not args.out:
        sys.stdout.write(rendered)
    return 0


def _render_human(report):
    lines = [f"{TOOL_NAME} {report['tool']['version']}  "
             f"instance {report['instance']['digest'][:16]}  "
             f"seed {report['seed']}"]
    name = report["instance"].get("name")
    if name:
        lines[0] += f"  ({name})"
    sections = report["sections"]
    v = sections.get("verdict")
    if v:
        head = v["result"]
        if v["theorem"]:
            head += f" via {v['theorem']}"
        lines.append(f"verdict: {head}")
        for cond in v["conditions"]:
            mark = {True: "pass", False: "FAIL", None: "n/a "}[cond["pass"]]
            lines.append(f"  [{mark}] {cond['id']}"
                         + (f"  {cond['note']}" if cond.get("note") else ""))
        for note in v["notes"]:
            lines.append(f"  note: {note}")
    s = sections.get("structure")
    if s:
        rad = s["radical"].get("dimension", s["radical"].get("status"))
        lines.append(f"structure: torsion dim {s['torsion_dimension']}, "
                     f"radical {rad}, idempotents {s['idempotent_count']}")
    o = sections.get("orbits")
    if o:
        for label, probe in sorted(o["probes"].items()):
            state = "stabilized" if probe["stabilized"] else (
                "capped" if probe["capped"] else "still growing")
            lines.append(f"orbit u[{label}]: sizes {probe['sizes_by_depth']} "
                         f"({state})")
    orc = sections.get("oracle")
    if orc:
        rep = orc["report"]
        lines.append(f"oracle: |A| = {rep['algebra_size']}, "
                     f"units {rep['unit_count']}, "
                     f"idempotents {rep['idempotent_count']}, "
                     f"radical dim {rep['radical_dimension']}, "
                     f"cross-check {'agrees' if orc['agree'] else 'DISAGREES'}")
    return "\n".join(lines)


# --- entry point ------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="exact analysis of twisted group algebras over the "
                    "supported group family")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate",
                           help="check the instance file and its cocycle")
    p_val.add_argument("instance", help="path to an instance JSON file")

    p_ana = sub.add_parser("analyze", help="run analysis sections and "
                                           "emit a JSON report")
    p_ana.add_argument("instance", help="path to an instance JSON file")
    p_ana.add_argument("--verdict", action="store_true",
                       help="run the FC verdict (default when no section "
                            "is selected)")
    p_ana.add_argument("--structure", action="store_true",
                       help="radical, idempotent counts, and decomposition "
                            "of the torsion subalgebra")
    p_ana.add_argument("--orbits", nargs="+", metavar="LABEL",
                       help="probe conjugation orbits of the listed "
                            "generator units")
    p_ana.add_argument("--oracle", action="store_true",
                       help="exhaustive enumeration cross-check "
                            "(small finite instances only)")
    p_ana.add_argument("--depth", type=int, default=None,
                       help="orbit probe depth override")
    p_ana.add_argument("--level", type=int, default=None,
                       help="truncation level override for --structure")
    p_ana.add_argument("--out", metavar="FILE",
                       help="write the JSON report to FILE")
    p_ana.add_argument("--human", action="store_true",
                       help="print a human-readable summary instead of JSON")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_analyze(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FcunitsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
