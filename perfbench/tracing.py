"""Spans and counters recorded from the benchmark's side of each layer boundary.

The layers are the package's modules.  ``install`` replaces every public
function of ``cobweb.fseq``, ``fnomial``, ``poset``, ``incidence``,
``prefab`` and ``series`` (and a few public methods that do layer work or
serialize) by a wrapper, in every module namespace that refers to it, so a
call from one module into another goes through the wrapper.  The program's
own files are not changed.

A span is recorded only where a call crosses from one layer into another;
a call inside the same layer runs straight through, so a layer's self time
(its spans minus the time covered by their child spans) includes its own
internal calls.  Counters are updated by per-function hooks on every call,
at the same boundaries.  Spans stay in memory and are written out by
``write_spans`` when the run ends.

Serializers (``triangle_to_csv``, ``IncidenceMatrix.to_json``, ``export_dot``
and the like) get their own pseudo-layer ``serialize``; it is reported as
part of the ``cli`` layer, which is where the command-line contract puts
turning results into payload text.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

LAYERS = ("fseq", "fnomial", "poset", "incidence", "prefab", "series", "cli")
MODULES = ("fseq", "fnomial", "poset", "incidence", "prefab", "series")

SERIALIZERS = {
    ("fnomial", "triangle_to_csv"), ("fnomial", "triangle_to_json"),
    ("poset", "export_dot"), ("cli", "_json"),
}
SERIALIZER_METHODS = {
    ("incidence", "IncidenceMatrix"): ("to_csv", "to_json", "to_json_dict"),
    ("series", "FormalSeries"): ("to_json",),
    ("poset", "CobwebPoset"): ("to_json_dict",),
    ("poset", "PackingReport"): ("to_json_dict",),
    ("prefab", "LawReport"): ("to_json_dict",),
    ("fseq", "AdmissibilityReport"): ("to_json_dict",),
    ("fseq", "GcdMorphismReport"): ("to_json_dict",),
}
LAYER_METHODS = {("poset", "CobwebPoset"): ("vertices", "level", "hasse_edges")}


class Tracer:
    """Spans as tuples (name, layer, start_ns, end_ns, parent, call_id, error).

    ``parent`` is the index of the enclosing span or -1; ``error`` is the
    exception class name or None.  ``maxima`` holds max-type counters.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.call_id = -1

    def open(self, name: str, layer: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, time.perf_counter_ns(), None, parent, self.call_id, None])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span[3] = time.perf_counter_ns()
        span[6] = error
        while self.stack and self.stack[-1] != index:
            self.stack.pop()
        if self.stack:
            self.stack.pop()

    def reset_stack(self) -> None:
        """Drop spans left open by an interrupted call (time limit)."""
        self.stack.clear()

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value


def self_times(spans: list[list]) -> list[int]:
    """Per span: its duration minus the durations of its direct children.

    Children run inside their parent on one thread, so they never overlap
    each other and their sum never exceeds the parent's duration.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[3] is not None and span[4] >= 0:
            child[span[4]] += span[3] - span[2]
    return [
        (span[3] - span[2] - child[i]) if span[3] is not None else 0
        for i, span in enumerate(spans)
    ]


def _bits(value) -> int:
    if isinstance(value, int):
        return abs(value).bit_length()
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def _series_hook(tracer: Tracer, args, kwargs, result) -> None:
    coeffs = getattr(result, "coeffs", None)
    if coeffs is not None:
        tracer.counters["series.coefficients"] += len(coeffs)
        tracer.note_max("series.max_bits", max(_bits(c) for c in coeffs))
    elif result is not None:
        tracer.note_max("series.max_bits", _bits(result))


def _coefficient_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["fnomial.coefficients"] += 1
    tracer.note_max("fnomial.max_bits", max(result.numerator.bit_length(), result.denominator.bit_length()))


def _product_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.note_max("fnomial.max_bits", abs(result).bit_length())


def _admissible_hook(tracer: Tracer, args, kwargs, result) -> None:
    if result.violation is None:
        pairs = (result.bound + 1) * (result.bound + 2) // 2
    else:
        n, k = result.violation
        pairs = n * (n + 1) // 2 + k + 1
    tracer.counters["fseq.pairs_scanned"] += pairs


def _gcd_hook(tracer: Tracer, args, kwargs, result) -> None:
    if result.violation is None:
        pairs = result.bound * (result.bound + 1) // 2
    else:
        n, m = result.violation
        pairs = (n - 1) * n // 2 + m
    tracer.counters["fseq.pairs_scanned"] += pairs


def _matrix_hook(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["incidence.entries"] += result.dim * result.dim
    tracer.note_max("incidence.matrix_dim_max", result.dim)


def _chains_hook(tracer: Tracer, args, kwargs, result) -> None:
    mode = args[-1] if len(args) >= 3 and isinstance(args[-1], str) else kwargs.get("mode", "product")
    if mode == "enumerate":
        tracer.counters["poset.chains_walked"] += result


HOOKS = {
    ("fnomial", "f_nomial"): _coefficient_hook,
    ("fnomial", "f_nomial_from_factorials"): _coefficient_hook,
    ("fnomial", "f_factorial"): _product_hook,
    ("fnomial", "falling_f"): _product_hook,
    ("fseq", "is_cobweb_admissible_prefix"): _admissible_hook,
    ("fseq", "is_gcd_morphic_prefix"): _gcd_hook,
    ("incidence", "zeta_matrix"): _matrix_hook,
    ("incidence", "covering_matrix"): _matrix_hook,
    ("incidence", "mobius_matrix"): _matrix_hook,
    ("incidence", "chain_count_matrix"): _matrix_hook,
    ("incidence", "maximal_chain_matrix"): _matrix_hook,
    ("poset", "vertices"): lambda t, a, k, r: t.counters.update({"poset.vertices": len(r)}),
    ("poset", "enumerate_copies"): lambda t, a, k, r: t.counters.update({"poset.copies": len(r)}),
    ("poset", "count_max_chains_from_root"): _chains_hook,
    ("poset", "count_max_chains_between"): _chains_hook,
    ("prefab", "check_algebra_laws"): lambda t, a, k, r: t.counters.update({"prefab.samples": r.samples}),
}
for _name in ("exp_f_series", "prefab_enumerator", "series_exp", "series_mul", "series_add",
              "bell_f", "q_bell", "q_stirling", "enumerator_coeff_by_partitions"):
    HOOKS[("series", _name)] = _series_hook


def _wrap(tracer: Tracer, fn, name: str, layer: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.stack and tracer.spans[tracer.stack[-1]][1] == layer:
            result = fn(*args, **kwargs)
        else:
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index, type(exc).__name__)
                raise
            tracer.close(index)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and selected methods in place."""
    modules = {name: importlib.import_module(f"cobweb.{name}") for name in MODULES + ("cli",)}
    wrapped: dict[int, object] = {}
    for module in modules.values():
        for name in [n for n in vars(module) if not n.startswith("_")] + ["_json"]:
            fn = vars(module).get(name)
            if not isinstance(fn, types.FunctionType) or not fn.__module__.startswith("cobweb."):
                continue
            if hasattr(fn, "__wrapped__"):
                raise RuntimeError("tracing is already installed")
            owner = fn.__module__.split(".", 1)[1]
            if owner == "cli" and name != "_json":
                continue
            if id(fn) not in wrapped:
                layer = "serialize" if (owner, fn.__name__) in SERIALIZERS else owner
                wrapped[id(fn)] = _wrap(
                    tracer, fn, f"{owner}.{fn.__name__}", layer, HOOKS.get((owner, fn.__name__))
                )
            setattr(module, name, wrapped[id(fn)])
    for table, layer in ((SERIALIZER_METHODS, "serialize"), (LAYER_METHODS, None)):
        for (short, cls_name), methods in table.items():
            cls = getattr(modules[short], cls_name)
            for method in methods:
                fn = vars(cls)[method]
                setattr(cls, method, _wrap(
                    tracer, fn, f"{short}.{cls_name}.{method}", layer or short,
                    HOOKS.get((short, method)),
                ))


def write_spans(tracer: Tracer, path: str) -> None:
    """One CSV line per span: index, call, parent, name, start, end, error."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("index,call_id,parent,name,start_ns,end_ns,error\n")
        for i, (name, _layer, start, end, parent, call_id, error) in enumerate(tracer.spans):
            handle.write(f"{i},{call_id},{parent},{name},{start},{'' if end is None else end},{error or ''}\n")
