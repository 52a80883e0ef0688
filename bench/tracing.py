"""Spans and counters around gradednil's public layer functions.

Used only in the traced pass.  ``install`` replaces each listed function by a
wrapper in every ``gradednil`` module that bound it (``from .x import y``
copies the reference, so each copy is rebound) and in the check and target
registries.  Spans carry name, start, end, parent span and the id of the
corpus entry, search target or document being processed; they are kept in
compact arrays and written out once the pass ends.  Ring arithmetic gets
counters only: a span per ``mul`` would cost more than the ``mul``.
"""

import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, function) -> span name; two functions may share one name
SPANNED_FUNCTIONS = {
    ("rings", "subring_from_elements"): "rings.subring_from_elements",
    ("rings", "additive_span"): "rings.additive_span",
    ("rings", "quotient_ring"): "rings.quotient_ring",
    ("rings", "jacobson_radical"): "rings.jacobson_radical",
    ("rings", "unit_map"): "rings.unit_map",
    ("grading", "verify_grading"): "grading.verify_grading",
    ("grading", "graded_maximal_right_ideals"): "grading.graded_maximal_right_ideals",
    ("grading", "graded_jacobson_radical"): "grading.graded_jacobson_radical",
    ("grading", "graded_quotient"): "grading.graded_quotient",
    ("constructions", "matrix_graded"): "constructions.matrix_graded",
    ("constructions", "triangular_graded"): "constructions.triangular_graded",
    ("constructions", "diagonal_z_grading"): "constructions.diagonal_z_grading",
    ("constructions", "group_ring_graded"): "constructions.group_ring_graded",
    ("constructions", "product_grading"): "constructions.product_grading",
    ("constructions", "amalgamation"): "constructions.amalgamation",
    ("constructions", "augmentation_ideal"): "constructions.augmentation_ideal",
    ("nilclean", "m_nil_clean_witness"): "nilclean.m_nil_clean_witness",
    ("nilclean", "graded_m_nil_clean_witness"): "nilclean.graded_m_nil_clean_witness",
    ("nilclean", "is_m_nil_clean_ring"): "nilclean.is_m_nil_clean_ring",
    ("nilclean", "is_graded_m_nil_clean_ring"): "nilclean.is_graded_m_nil_clean_ring",
    ("nilclean", "pi_regular_witness"): "nilclean.pi_regular",
    ("nilclean", "graded_pi_regular_witness"): "nilclean.pi_regular",
    ("nilclean", "prop_commuting_equivalence_check"): "nilclean.commuting_equivalence",
    ("nilclean", "graded_commuting_equivalence_check"): "nilclean.commuting_equivalence",
    ("specfile", "parse_ring_spec"): "specfile.parse_ring_spec",
    ("specfile", "emit_ring_spec"): "specfile.emit_ring_spec",
    ("cli", "emit_report"): "cli.emit_report",
}
COUNTED_FUNCTIONS = {
    ("rings", "nilpotency_index"): "rings.nilpotency_index_calls",
    ("rings", "inverse_of"): "rings.inverse_of_calls",
}
# functions whose non-None results count as found certificates
WITNESS_SPANS = ("nilclean.m_nil_clean_witness", "nilclean.graded_m_nil_clean_witness")
# ring class -> kind; TriangularRing inherits MatrixRing's arithmetic but is
# counted on its own
RING_KINDS = {
    ("rings", "TableRing"): "table",
    ("constructions", "MatrixRing"): "matrix",
    ("constructions", "TriangularRing"): "triangular",
    ("constructions", "GroupRingRing"): "group_ring",
    ("rings", "ProductRing"): "product",
}
INSTANCE_BUILD = "search.instance_build"


class Tracer:
    """Span recorder with per-name self time, call counts and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.items: list[str] = []
        self._item = -1
        # one entry per finished span
        self.span_name = array("i")
        self.span_id = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, list] = {}
        self.found = 0

    def set_item(self, item: str) -> None:
        self.items.append(item)
        self._item = len(self.items) - 1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        return self._name_ids[name]

    def spanned(self, name: str, fn):
        """Wrap fn so that every call records one span called `name`."""
        name_id = self._name_id(name)
        stack = self._stack
        witness = name in WITNESS_SPANS

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                self.span_name.append(name_id)
                self.span_id.append(span_id)
                self.span_parent.append(parent)
                self.span_item.append(self._item)
                self.span_start.append(start)
                self.span_end.append(end)
            if witness and result is not None:
                self.found += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def traced_stream(self, stream_fn):
        """Wrap search.instance_stream so each pull of an instance is a span."""
        pull = self.spanned(INSTANCE_BUILD, next)

        def stream(seed):
            it = stream_fn(seed)
            while True:
                yield pull(it)

        return stream

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per span; returns the number written."""
        with open(path, "w") as out:
            for k in range(len(self.span_id)):
                item = self.span_item[k]
                out.write(json.dumps({
                    "id": self.span_id[k],
                    "parent": self.span_parent[k],
                    "name": self.names[self.span_name[k]],
                    "start": self.span_start[k],
                    "end": self.span_end[k],
                    "item": self.items[item] if item >= 0 else None,
                }) + "\n")
        return len(self.span_id)


def _rebind(package: str, original, replacement) -> int:
    """Point every binding of `original` in the package's modules at `replacement`."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer, package: str = "gradednil") -> None:
    """Wrap the layer functions of an imported gradednil package."""
    mod = {name: importlib.import_module(f"{package}.{name}") for name in
           ("rings", "grading", "constructions", "nilclean", "specfile", "checks",
            "search", "cli")}
    for (modname, fname), span in SPANNED_FUNCTIONS.items():
        original = getattr(mod[modname], fname)
        if not _rebind(package, original, tracer.spanned(span, original)):
            raise RuntimeError(f"{modname}.{fname} is not bound anywhere")
    for (modname, fname), key in COUNTED_FUNCTIONS.items():
        original = getattr(mod[modname], fname)
        _rebind(package, original, tracer.counted(key, original))

    grading_cls = mod["grading"].Grading
    grading_cls.homogeneous_unit_inverse = tracer.spanned(
        "grading.homogeneous_unit_inverse", grading_cls.homogeneous_unit_inverse)
    # read every original first: a subclass must not inherit a wrapped parent
    ring_classes = [(getattr(mod[m], c), kind) for (m, c), kind in RING_KINDS.items()]
    originals = [(cls, kind, cls.mul, cls.add) for cls, kind in ring_classes]
    for cls, kind, mul, add in originals:
        cls.mul = tracer.counted(f"rings.mul_calls.{kind}", mul)
        cls.add = tracer.counted(f"rings.add_calls.{kind}", add)

    registry = mod["checks"].CHECK_REGISTRY
    for name, fn in list(registry.items()):
        registry[name] = tracer.spanned(f"checks.{name}", fn)
    targets = mod["search"].TARGETS
    for name, fn in list(targets.items()):
        targets[name] = tracer.spanned(f"search.{name}", fn)
    stream = mod["search"].instance_stream
    _rebind(package, stream, tracer.traced_stream(stream))
