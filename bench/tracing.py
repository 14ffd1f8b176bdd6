"""In-memory spans around the benchmark's calls into polybern, and the
per-layer metrics derived from them.

A span is recorded for each call the benchmark makes into a layer's
public function. For the verify workload those calls are made by
polybern.verify, so `trace_verify` swaps the module references in that
module's namespace for proxies whose functions are traced; calls the
library makes internally stay untraced and count towards the caller.
"""

from __future__ import annotations

import inspect
import math
import time

LAYERS = ("exactcomb", "lclt", "oracle", "saddle", "quad", "verify")

# Matrix oracles enumerate 2^(nk) candidates; permutation oracles (n+k)!.
_MATRIX_ORACLES = {
    "count_lonesum": "lonesum",
    "count_gamma_free": "gamma",
    "count_acyclic_orientations": "orient",
    "count_lonesum_restricted": "restricted",
}
_PERMUTATION_ORACLES = {"count_vesztergombi": "veszt", "count_excedance_word": "excedance"}
_SADDLE_NAMES = {
    "saddle_point": "saddle_point",
    "bivar_asym_log": "bivar",
    "ml_asym_log": "ml",
    "excedance_asym_log": "excedance",
    "acsv_general_log": "acsv",
    "diag_asym_log": "diag",
    "d_diag_asym_log": "diag",
}
_QUAD_NAMES = {
    "residue_integral_b": "residue",
    "residue_defect": "residue",
    "laplace_integral_diag": "laplace",
    "parseval_b": "parseval",
}
_EXACT_SEQ = {"poly_bernoulli": "B", "c_relative": "C", "ml_degree": "D"}
_LARGE = 256

# Span fields: function, layer, start, end, parent index (-1 at the top),
# operation id, args, result, raised.
NAME, LAYER, START, END, PARENT, OP, ARGS, RESULT, RAISED = range(9)


class Tracer:
    """Collects spans in memory; the parent writes them out after the run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = fn.__name__
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, args, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                span[RESULT] = fn(*args, **kwargs)
                return span[RESULT]
            except Exception:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def wrap_op(self, fn, op: int):
        """Like `wrap`, and the call starts operation `op`."""
        traced = self.wrap(fn)

        def start_op(*args, **kwargs):
            self.op = op
            return traced(*args, **kwargs)

        return start_op

    def export(self) -> list[list]:
        """Spans with args and results reduced to plain data."""
        return [
            span[:ARGS] + [[_plain(a) for a in span[ARGS]], _plain(span[RESULT]), span[RAISED]]
            for span in self.spans
        ]


def _plain(value):
    if isinstance(value, bool) or value is None or isinstance(value, (float, str)):
        return value
    if isinstance(value, int):
        # Results of exact counts can have thousands of digits; keep the
        # size, and the value only where a metric sums it.
        return value if value.bit_length() <= 62 else {"bits": value.bit_length()}
    nodes = getattr(value, "nodes", None)
    if isinstance(nodes, int):
        return {"nodes": nodes}
    return type(value).__name__


class _TracedModule:
    """Stands in for a polybern module inside polybern.verify."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                setattr(self, name, tracer.wrap(obj))

    def __getattr__(self, name):
        return getattr(self._module, name)


def criterion_names(verify_module) -> list[str]:
    """The criterion functions of polybern.verify, in source order."""
    found = [
        (obj.__code__.co_firstlineno, name)
        for name, obj in vars(verify_module).items()
        if name.startswith("criterion_") and inspect.isfunction(obj)
    ]
    return [name for _, name in sorted(found)]


def trace_verify(verify_module, tracer: Tracer) -> None:
    """Route polybern.verify's calls into the other layers through spans."""
    namespace = vars(verify_module)
    for name, obj in list(namespace.items()):
        if inspect.ismodule(obj) and obj.__name__.startswith("polybern."):
            namespace[name] = _TracedModule(obj, tracer)
        elif (
            inspect.isfunction(obj)
            and obj.__module__.startswith("polybern.")
            and obj.__module__ != verify_module.__name__
        ):
            namespace[name] = tracer.wrap(obj)
    for op, name in enumerate(criterion_names(verify_module), 1):
        namespace[name] = tracer.wrap_op(namespace[name], op)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def _direction(args) -> tuple[int, int] | None:
    ints = [a for a in args if isinstance(a, int) and not isinstance(a, bool)]
    return (ints[0], ints[1]) if len(ints) >= 2 else None


def _bits(result) -> int:
    if isinstance(result, dict):
        return result.get("bits", 0)
    if isinstance(result, int) and not isinstance(result, bool):
        return result.bit_length()
    return 0


def layer_metrics(spans: list[list], wall: float, lclt_points) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `lclt_points(name, args)` returns how many k a row sweep evaluates.
    """
    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        picked = [i for i, span in enumerate(spans) if span[LAYER] == layer]
        busy = sum(own[i] for i in picked)
        m[f"{layer}.calls"] = len(picked)
        m[f"{layer}.busy_s"] = busy
        m[f"{layer}.share"] = busy / wall if wall > 0 else 0.0

    def duration(span):
        return span[END] - span[START]

    # exactcomb
    by_seq = {"B": [0.0, 0], "C": [0.0, 0], "D": [0.0, 0]}
    large = [0.0, 0]
    bits = 0
    for span in spans:
        if span[LAYER] != "exactcomb":
            continue
        bits += _bits(span[RESULT])
        seq = _EXACT_SEQ.get(span[NAME])
        pair = _direction(span[ARGS])
        if seq is None or pair is None:
            continue
        slot = large if max(pair) >= _LARGE else by_seq[seq]
        slot[0] += duration(span)
        slot[1] += 1
    for seq, (total, count) in by_seq.items():
        m[f"exactcomb.{seq}.us_per_call"] = _mean(total, count) * 1e6
    m["exactcomb.large.ms_per_call"] = _mean(*large) * 1e3
    m["exactcomb.result_bits"] = bits
    m["exactcomb.ns_per_result_bit"] = _mean(m["exactcomb.busy_s"], bits) * 1e9

    # lclt
    rows = {"B": [0.0, 0], "D": [0.0, 0], "ML": [0.0, 0]}
    points = 0
    row_time = 0.0
    for span in spans:
        if span[LAYER] != "lclt" or span[RAISED]:
            continue
        count = lclt_points(span[NAME], span[ARGS])
        if not count:
            continue
        which = "ML" if span[NAME] == "ml_limit_discrepancy" else str(span[ARGS][1]).upper()
        rows[which][0] += duration(span)
        rows[which][1] += 1
        points += count
        row_time += duration(span)
    for which, (total, count) in rows.items():
        m[f"lclt.{which}.ms_per_row"] = _mean(total, count) * 1e3
    m["lclt.points"] = points
    m["lclt.us_per_point"] = _mean(row_time, points) * 1e6

    # oracle
    oracle_busy = {label: 0.0 for label in ("lonesum", "gamma", "orient", "veszt", "restricted")}
    candidates = accepted = 0
    for i, span in enumerate(spans):
        if span[LAYER] != "oracle":
            continue
        n, k = _direction(span[ARGS]) or (0, 0)
        label = _MATRIX_ORACLES.get(span[NAME]) or _PERMUTATION_ORACLES.get(span[NAME])
        if label is None:
            continue
        if label in oracle_busy:
            oracle_busy[label] += own[i]
        candidates += 2 ** (n * k) if span[NAME] in _MATRIX_ORACLES else math.factorial(n + k)
        if isinstance(span[RESULT], int):
            accepted += span[RESULT]
    for label, busy in oracle_busy.items():
        m[f"oracle.{label}.busy_s"] = busy
    m["oracle.candidates"] = candidates
    m["oracle.accepted"] = accepted
    m["oracle.accept_ratio"] = _mean(accepted, candidates)
    m["oracle.ns_per_candidate"] = _mean(m["oracle.busy_s"], candidates) * 1e9

    # saddle
    per_fn = {label: [0.0, 0] for label in dict.fromkeys(_SADDLE_NAMES.values())}
    off_band = failed = 0
    for span in spans:
        if span[LAYER] != "saddle":
            continue
        failed += span[RAISED]
        label = _SADDLE_NAMES.get(span[NAME])
        if label is None:
            continue
        per_fn[label][0] += duration(span)
        per_fn[label][1] += 1
        pair = _direction(span[ARGS]) if label != "diag" else None
        if pair and pair[1] and not 0.1 <= pair[0] / pair[1] <= 10.0:
            off_band += 1
    for label, (total, count) in per_fn.items():
        m[f"saddle.{label}.us_per_call"] = _mean(total, count) * 1e6
    m["saddle.off_band_calls"] = off_band
    m["saddle.failed"] = failed

    # quad
    per_rule = {label: [0.0, 0] for label in ("residue", "laplace", "parseval")}
    nodes = failed = 0
    for span in spans:
        if span[LAYER] != "quad":
            continue
        failed += span[RAISED]
        label = _QUAD_NAMES.get(span[NAME])
        if label is None:
            continue
        per_rule[label][0] += duration(span)
        per_rule[label][1] += 1
        nodes += sum(a["nodes"] for a in span[ARGS] if isinstance(a, dict) and "nodes" in a)
    for label, (total, count) in per_rule.items():
        m[f"quad.{label}.ms_per_call"] = _mean(total, count) * 1e3
    m["quad.nodes"] = nodes
    m["quad.ns_per_node"] = _mean(m["quad.busy_s"], nodes) * 1e9
    m["quad.failed"] = failed

    # verify
    for index in range(1, 8):
        m[f"verify.criterion_{index}_s"] = 0.0
    for span in spans:
        key = f"verify.criterion_{span[OP]}_s"
        if span[LAYER] == "verify" and span[PARENT] < 0 and key in m:
            m[key] = duration(span)
    return m
