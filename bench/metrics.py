"""Metric names, units and directions, as listed in BENCHMARK.json.

Per-layer metrics are totals over one traced pass of the workload.  The
last field says which end-to-end metric on which workload the layer
metric is expected to move; bench/tests/test_bench.py checks that
BENCHMARK.json lists the same names, units and directions.
"""

# (name, unit, better, bound)
END_TO_END = (
    ("requests_per_s", "1/s", "higher", 0.25),
    ("request_p50_ms", "ms", "lower", 0.25),
    ("request_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

_STRUCT = "requests_per_s on heavy-structure, then corpus"
_FIELDS = "requests_per_s on heavy-structure and oracle-crosscheck"
_P90 = "request_p90_ms on corpus"
_P50 = "request_p50_ms on corpus"
_FC = "corpus; heavy-structure through the T5 verdict of prufer2_gf257"
_CLI = "request_p50_ms and request_p90_ms on cli-cold"
_NONE = "nothing; a change means changed behaviour"
_TRACE = "nothing; tracing overhead, traced minus untraced"

# (name, unit, better, expected to move)
PER_LAYER = (
    ("fields.Scalar.mul.calls", "count", "lower", _FIELDS),
    ("fields.Scalar.add.calls", "count", "lower", _FIELDS),
    ("fields.Scalar.inv.calls", "count", "lower", _FIELDS),
    ("structure.FDAlgebra.mul.calls", "count", "lower", _STRUCT),
    ("structure.FDAlgebra.mul.self_s", "s", "lower", _STRUCT),
    ("structure.FDAlgebra.is_idempotent.calls", "count", "lower",
     "requests_per_s on heavy-structure (s3_z_gf5 enumeration)"),
    ("structure.jacobson_radical.total_s", "s", "lower", _STRUCT),
    ("structure.count_idempotents.total_s", "s", "lower", _STRUCT),
    ("structure.primitive_idempotents.total_s", "s", "lower", _STRUCT),
    ("structure.corner_algebra.total_s", "s", "lower", _STRUCT),
    ("structure.fields_decomposition.total_s", "s", "lower", _STRUCT),
    ("structure.sympy_factor_list.calls", "count", "lower",
     "request_p90_ms on corpus (c3_z_rationals)"),
    ("linalg.rref.calls", "count", "lower", _STRUCT),
    ("linalg.rref.self_s", "s", "lower", _STRUCT),
    ("linalg.rref.cells", "count", "lower", _STRUCT),
    ("linalg.SpanBasis.add.calls", "count", "lower", _STRUCT),
    ("linalg.SpanBasis.add.self_s", "s", "lower", _STRUCT),
    ("algebra.AlgebraElement.mul.calls", "count", "lower", _P90),
    ("algebra.AlgebraElement.mul.self_s", "s", "lower", _P90),
    ("algebra.try_invert.calls", "count", "lower", _P90),
    ("algebra.try_invert.total_s", "s", "lower", _P90),
    ("cocycles.validate_cocycle.total_s", "s", "lower", _P50),
    ("cocycles.Cocycle.call.calls", "count", "lower", _P50),
    ("groups.make_group.total_s", "s", "lower", _P50),
    ("fc.instance_from_json.total_s", "s", "lower", _FC),
    ("fc.verdict.total_s", "s", "lower", _FC),
    ("fc.structure_report.total_s", "s", "lower", _FC),
    ("fc.necessary_conditions.total_s", "s", "lower", _FC),
    ("fc.check_theorem3.total_s", "s", "lower", _FC),
    ("fc.check_theorem4.total_s", "s", "lower", _FC),
    ("fc.check_theorem5_truncated.total_s", "s", "lower", _FC),
    ("fc.probe_conjugates.calls", "count", "lower", _FC),
    ("fc.probe_conjugates.total_s", "s", "lower", _FC),
    ("oracle.oracle_report.total_s", "s", "lower",
     "requests_per_s on oracle-crosscheck only"),
    ("cli.process_s", "s", "lower", _CLI),
    ("import.fcunits_s", "s", "lower", _CLI + "; setup_s everywhere"),
    ("import.sympy_s", "s", "lower", _CLI),
    ("caps.hit.count", "count", "lower", _NONE),
    ("request.total_s", "s", "lower", "requests_per_s on the workload"),
    ("request.self_s", "s", "lower",
     "time outside every wrapped layer: argument parsing, JSON rendering"),
    ("trace.untraced_requests_per_s", "1/s", "higher", _TRACE),
    ("trace.traced_requests_per_s", "1/s", "higher", _TRACE),
    ("trace.overhead_requests_per_s", "1/s", "higher", _TRACE),
)
