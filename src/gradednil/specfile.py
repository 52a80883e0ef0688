"""Ring description documents: a strict JSON format for building graded rings.

A document selects one construction (``kind``), the exponent ``m``, the
checks to run and optional fixture expectations.  Unknown keys are rejected
with the path of the offending field; every referenced sub-ring document is
resolved recursively.  ``parse_ring_spec(emit_ring_spec(p))`` reconstructs an
identical grading.

Document shape::

    {
      "name": "t2-gf3",
      "m": 3,
      "ring": {
        "kind": "triangular",
        "base": {"kind": "gf", "p": 3, "k": 1,
                 "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": true}},
        "n": 2,
        "sigma": [0, 1]
      },
      "checks": ["all"],
      "expected": {"graded_m_nil_clean": true},
      "ideal": {"zero_diagonal": true}
    }

Ring kinds: zn, gf, table, matrix, triangular, diagonal_z, group_ring,
product, quotient, amalgamation.  Group kinds: cyclic, product, integer.
Ideal blocks: {"generators": [...]} | {"zero_diagonal": true} | {"all": true}.
Expected blocks map names in ``checks.EXPECTED_KEYS`` to JSON booleans.
"""

import json
from dataclasses import dataclass, field

from .constructions import (
    AmalgamationSpec,
    amalgamation,
    diagonal_z_grading,
    group_ring_graded,
    image_subring_grading,
    matrix_graded,
    product_grading,
    triangular_graded,
    zero_diagonal_ideal,
)
from .errors import SpecError, ValidationError
from .grading import (
    Grading,
    HomogeneousIdeal,
    graded_quotient,
    homogeneous_two_sided_ideal_closure,
    trivial_grading,
    verify_grading,
)
from .groups import INTEGER_GROUP, IntegerGroup, direct_product, make_cyclic
from .rings import TableRing, make_gf, make_zn


@dataclass
class Limits:
    """Resource caps threaded through parsing and checking."""

    max_elements: int = 1 << 20
    element_check_cap: int = 1024


DEFAULT_LIMITS = Limits()


@dataclass
class ParsedSpec:
    """A fully resolved document: validated grading plus harness metadata."""

    name: str
    m: int
    grading: Grading
    checks: list[str]
    expected: dict
    ideal: HomogeneousIdeal | None
    kind: str
    meta: dict = field(default_factory=dict)
    #: the canonical document apart from ``name`` and ``m``, which
    #: ``emit_ring_spec`` takes from the record itself
    normalized: dict = field(default_factory=dict)


_RING_KINDS = {
    "zn", "gf", "table", "matrix", "triangular", "diagonal_z",
    "group_ring", "product", "quotient", "amalgamation",
}


def _require_keys(doc: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(doc, dict):
        raise SpecError(f"expected an object, got {type(doc).__name__}", path)
    unknown = set(doc) - allowed
    if unknown:
        raise SpecError(f"unknown keys {sorted(unknown)}", path)
    missing = required - set(doc)
    if missing:
        raise SpecError(f"missing keys {sorted(missing)}", path)


def _int(doc, key, path, minimum=None) -> int:
    val = doc[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise SpecError(f"field {key!r} must be an integer", path)
    if minimum is not None and val < minimum:
        raise SpecError(f"field {key!r} must be >= {minimum}", path)
    return val


def _list(doc, key, path) -> list:
    val = doc[key]
    if not isinstance(val, list):
        raise SpecError(f"field {key!r} must be a list", path)
    return val


class _Parser:
    def __init__(self, limits: Limits):
        self.limits = limits
        self._groups: dict[str, object] = {}

    # -- groups -------------------------------------------------------------

    def parse_group(self, doc, path):
        _require_keys(doc, {"kind", "n", "factors"}, {"kind"}, path)
        kind = doc["kind"]
        if kind == "integer":
            _require_keys(doc, {"kind"}, {"kind"}, path)
            return INTEGER_GROUP, {"kind": "integer"}
        if kind == "cyclic":
            _require_keys(doc, {"kind", "n"}, {"kind", "n"}, path)
            n = _int(doc, "n", path, minimum=1)
            return self._cached_group(f"cyclic:{n}", lambda: make_cyclic(n)), {
                "kind": "cyclic", "n": n,
            }
        if kind == "product":
            _require_keys(doc, {"kind", "factors"}, {"kind", "factors"}, path)
            norm_factors = []
            groups = []
            for i, sub in enumerate(_list(doc, "factors", path)):
                g, norm = self.parse_group(sub, f"{path}.factors[{i}]")
                if isinstance(g, IntegerGroup):
                    raise SpecError("integer group cannot be a product factor", path)
                groups.append(g)
                norm_factors.append(norm)
            if not groups:
                raise SpecError("group product needs at least one factor", path)
            key = "prod:" + json.dumps(norm_factors, sort_keys=True)
            def build():
                acc = groups[0]
                for g in groups[1:]:
                    acc = direct_product(acc, g)
                return acc
            return self._cached_group(key, build), {"kind": "product", "factors": norm_factors}
        raise SpecError(f"unknown group kind {kind!r}", path)

    def _cached_group(self, key, build):
        if key not in self._groups:
            self._groups[key] = build()
        return self._groups[key]

    # -- leaf gradings --------------------------------------------------------

    def parse_leaf_grading(self, ring, doc, path):
        if doc is None:
            group = self._cached_group("cyclic:1", lambda: make_cyclic(1))
            return trivial_grading(ring, group), {
                "group": {"kind": "cyclic", "n": 1}, "trivial": True,
            }
        _require_keys(doc, {"group", "trivial", "components"}, {"group"}, path)
        group, norm_group = self.parse_group(doc["group"], f"{path}.group")
        if doc.get("trivial"):
            if "components" in doc:
                raise SpecError("give either 'trivial' or 'components', not both", path)
            if isinstance(group, IntegerGroup):
                comps = {0: list(ring.elements())}
            else:
                comps = {group.identity: list(ring.elements())}
            return verify_grading(ring, group, comps), {"group": norm_group, "trivial": True}
        if "components" not in doc:
            raise SpecError("grading needs 'trivial' or 'components'", path)
        if not isinstance(doc["components"], dict):
            raise SpecError("field 'components' must be an object", path)
        comps = {}
        norm_comps = {}
        for key, elems in doc["components"].items():
            try:
                deg = int(key)
            except ValueError as exc:
                raise SpecError(f"component degree {key!r} is not an integer", path) from exc
            if not isinstance(group, IntegerGroup) and not (0 <= deg < group.order):
                raise SpecError(f"degree {deg} outside the group", path)
            if not isinstance(elems, list) or not all(
                    type(e) is int and 0 <= e < ring.size for e in elems):
                raise SpecError(f"component {key} lists invalid elements", path)
            comps[deg] = list(elems)
            norm_comps[str(deg)] = sorted(set(elems))
        try:
            grading = verify_grading(ring, group, comps)
        except ValidationError as exc:
            raise SpecError(f"grading validation failed: {exc}", path) from exc
        return grading, {"group": norm_group, "components": norm_comps}

    # -- ideals ---------------------------------------------------------------

    def parse_ideal(self, grading, doc, path, construction_meta=None):
        _require_keys(doc, {"generators", "zero_diagonal", "all"}, set(), path)
        if len(doc) != 1:
            raise SpecError("ideal block must have exactly one key", path)
        if doc.get("zero_diagonal"):
            meta = construction_meta or {}
            ideal = meta.get("zero_diagonal_ideal")
            if ideal is None:
                try:
                    ideal = zero_diagonal_ideal(grading)
                except ValidationError as exc:
                    raise SpecError(str(exc), path) from exc
            return ideal, {"zero_diagonal": True}
        if doc.get("all"):
            gens = sorted({x for x, _ in grading.homogeneous_elements() if x != 0})
            ideal = homogeneous_two_sided_ideal_closure(grading, gens)
            if len(ideal) != grading.ring.size:
                raise SpecError("'all' ideal did not close to the whole ring", path)
            return ideal, {"all": True}
        if "generators" not in doc:
            raise SpecError("ideal block must select generators/zero_diagonal/all", path)
        gens = _list(doc, "generators", path)
        if not all(type(g) is int and 0 <= g < grading.ring.size for g in gens):
            raise SpecError("ideal generators must be valid element indices", path)
        try:
            ideal = homogeneous_two_sided_ideal_closure(grading, gens)
        except ValidationError as exc:
            raise SpecError(f"ideal closure failed: {exc}", path) from exc
        return ideal, {"generators": sorted(set(gens))}

    # -- rings ----------------------------------------------------------------

    def parse_ring(self, doc, path):
        """Returns (grading, normalized doc, meta dict)."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SpecError("ring block needs a 'kind'", path)
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _RING_KINDS:
            raise SpecError(f"unknown ring kind {kind!r}", path)
        handler = getattr(self, f"_ring_{kind}")
        grading, norm, meta = handler(doc, path)
        meta["kind"] = kind
        return grading, norm, meta

    def _ring_zn(self, doc, path):
        _require_keys(doc, {"kind", "n", "grading"}, {"kind", "n"}, path)
        n = _int(doc, "n", path, minimum=1)
        ring = make_zn(n)
        grading, norm_grading = self.parse_leaf_grading(ring, doc.get("grading"), f"{path}.grading")
        return grading, {"kind": "zn", "n": n, "grading": norm_grading}, {}

    def _ring_gf(self, doc, path):
        _require_keys(doc, {"kind", "p", "k", "grading"}, {"kind", "p"}, path)
        p = _int(doc, "p", path, minimum=2)
        k = _int(doc, "k", path, minimum=1) if "k" in doc else 1
        try:
            ring = make_gf(p, k)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        grading, norm_grading = self.parse_leaf_grading(ring, doc.get("grading"), f"{path}.grading")
        return grading, {"kind": "gf", "p": p, "k": k, "grading": norm_grading}, {}

    def _ring_table(self, doc, path):
        _require_keys(doc, {"kind", "size", "add", "mul", "one", "grading"},
                      {"kind", "size", "add", "mul", "one"}, path)
        size = _int(doc, "size", path, minimum=1)
        add, mul = doc["add"], doc["mul"]
        # entries are checked before any law: a negative index would wrap
        for name, table in (("add", add), ("mul", mul)):
            if (not isinstance(table, list) or len(table) != size
                    or any(not isinstance(row, list) or len(row) != size for row in table)):
                raise SpecError(f"{name} table must be {size}x{size}", path)
            for i, row in enumerate(table):
                for j, v in enumerate(row):
                    if type(v) is not int or not 0 <= v < size:
                        raise SpecError(
                            f"{name} table entry ({i}, {j}) is {v!r}, "
                            f"not an element index below {size}",
                            path,
                        )
        one = _int(doc, "one", path, minimum=0)
        if one >= size:
            raise SpecError(f"field 'one' is {one}, not an element index below {size}", path)
        try:
            ring = TableRing([list(r) for r in add], [list(r) for r in mul], one=one,
                             label=f"table{size}")
        except ValidationError as exc:
            raise SpecError(f"ring axioms failed: {exc}, witness {exc.witness}", path) from exc
        grading, norm_grading = self.parse_leaf_grading(ring, doc.get("grading"), f"{path}.grading")
        norm = {"kind": "table", "size": size, "add": [list(r) for r in add],
                "mul": [list(r) for r in mul], "one": one, "grading": norm_grading}
        return grading, norm, {}

    def _sigma(self, doc, path, group, n):
        sigma = _list(doc, "sigma", path) if "sigma" in doc else [group.identity] * n
        if len(sigma) != n:
            raise SpecError(f"sigma must have length {n}", path)
        for s in sigma:
            if type(s) is not int:
                raise SpecError("sigma entries must be integers", path)
            if not isinstance(group, IntegerGroup) and not (0 <= s < group.order):
                raise SpecError(f"sigma entry {s} outside the group", path)
        return list(sigma)

    def _ring_matrix(self, doc, path):
        _require_keys(doc, {"kind", "base", "n", "sigma"}, {"kind", "base", "n"}, path)
        base, norm_base, _ = self.parse_ring(doc["base"], f"{path}.base")
        n = _int(doc, "n", path, minimum=1)
        sigma = self._sigma(doc, path, base.group, n)
        try:
            grading = matrix_graded(base, n, sigma, max_elements=self.limits.max_elements)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        norm = {"kind": "matrix", "base": norm_base, "n": n, "sigma": sigma}
        return grading, norm, {"base": base, "sigma": sigma, "n": n}

    def _ring_triangular(self, doc, path):
        _require_keys(doc, {"kind", "base", "n", "sigma"}, {"kind", "base", "n"}, path)
        base, norm_base, _ = self.parse_ring(doc["base"], f"{path}.base")
        n = _int(doc, "n", path, minimum=1)
        sigma = self._sigma(doc, path, base.group, n)
        try:
            grading, ideal = triangular_graded(base, n, sigma,
                                               max_elements=self.limits.max_elements)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        norm = {"kind": "triangular", "base": norm_base, "n": n, "sigma": sigma}
        return grading, norm, {
            "base": base, "sigma": sigma, "n": n, "zero_diagonal_ideal": ideal,
        }

    def _ring_diagonal_z(self, doc, path):
        _require_keys(doc, {"kind", "base", "n"}, {"kind", "base", "n"}, path)
        base, norm_base, _ = self.parse_ring(doc["base"], f"{path}.base")
        n = _int(doc, "n", path, minimum=1)
        try:
            grading = diagonal_z_grading(base.ring, n, max_elements=self.limits.max_elements)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        norm = {"kind": "diagonal_z", "base": norm_base, "n": n}
        return grading, norm, {"base_ring": base.ring, "n": n}

    def _ring_group_ring(self, doc, path):
        _require_keys(doc, {"kind", "base", "group", "mode"}, {"kind", "base", "group"}, path)
        base, norm_base, _ = self.parse_ring(doc["base"], f"{path}.base")
        group, norm_group = self.parse_group(doc["group"], f"{path}.group")
        if isinstance(group, IntegerGroup):
            raise SpecError("group rings need a finite group", path)
        mode = doc.get("mode", "auto")
        if mode not in ("auto", "standard", "paper_twisted"):
            raise SpecError(f"unknown mode {mode!r}", path)
        results = {}
        for candidate in ("standard", "paper_twisted") if mode == "auto" else (mode,):
            try:
                results[candidate] = group_ring_graded(
                    base, group, candidate, max_elements=self.limits.max_elements
                )
            except ValidationError as exc:
                results[candidate] = str(exc)
        valid = {k: v for k, v in results.items() if isinstance(v, Grading)}
        if not valid:
            raise SpecError(
                "no multiplication mode validates: "
                + "; ".join(f"{k}: {v}" for k, v in results.items()),
                path,
            )
        chosen = "standard" if "standard" in valid else next(iter(valid))
        grading = valid[chosen]
        norm = {"kind": "group_ring", "base": norm_base, "group": norm_group, "mode": chosen}
        meta = {
            "base": base,
            "group": group,
            "mode": chosen,
            "mode_results": {
                k: ("valid" if isinstance(v, Grading) else f"invalid: {v}")
                for k, v in results.items()
            },
        }
        return grading, norm, meta

    def _ring_product(self, doc, path):
        _require_keys(doc, {"kind", "factors"}, {"kind", "factors"}, path)
        factors = []
        norms = []
        for i, sub in enumerate(_list(doc, "factors", path)):
            g, norm, _ = self.parse_ring(sub, f"{path}.factors[{i}]")
            factors.append(g)
            norms.append(norm)
        if not factors:
            raise SpecError("product needs at least one factor", path)
        try:
            grading = product_grading(factors, max_elements=self.limits.max_elements)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        return grading, {"kind": "product", "factors": norms}, {"factors": factors}

    def _ring_quotient(self, doc, path):
        _require_keys(doc, {"kind", "base", "ideal"}, {"kind", "base", "ideal"}, path)
        base, norm_base, base_meta = self.parse_ring(doc["base"], f"{path}.base")
        ideal, norm_ideal = self.parse_ideal(base, doc["ideal"], f"{path}.ideal", base_meta)
        try:
            grading, proj = graded_quotient(base, ideal)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        norm = {"kind": "quotient", "base": norm_base, "ideal": norm_ideal}
        return grading, norm, {"base": base, "quotient_ideal": ideal, "projection": proj}

    def _ring_amalgamation(self, doc, path):
        _require_keys(doc, {"kind", "a", "b", "f", "ideal"}, {"kind", "a", "b", "ideal"}, path)
        a, norm_a, _ = self.parse_ring(doc["a"], f"{path}.a")
        b, norm_b, _ = self.parse_ring(doc["b"], f"{path}.b")
        fdoc = doc.get("f", "identity")
        if fdoc == "identity":
            if a.ring.size != b.ring.size:
                raise SpecError("identity map needs equal-size rings", path)
            fmap = list(range(a.ring.size))
            norm_f = "identity"
        elif isinstance(fdoc, dict):
            _require_keys(fdoc, {"map"}, {"map"}, f"{path}.f")
            fmap, size_b = fdoc["map"], b.ring.size
            if not isinstance(fmap, list) or len(fmap) != a.ring.size:
                raise SpecError(f"map must be a list of {a.ring.size} entries", f"{path}.f")
            for i, v in enumerate(fmap):
                if type(v) is not int or not 0 <= v < size_b:
                    raise SpecError(f"map entry {i} is {v!r}, not an index below {size_b}",
                                    f"{path}.f")
            norm_f = {"map": list(fmap)}
        else:
            raise SpecError("f must be 'identity' or {'map': [...]}", path)
        ideal, norm_ideal = self.parse_ideal(b, doc["ideal"], f"{path}.ideal")
        try:
            spec = AmalgamationSpec(a, b, fmap, ideal)
            grading = amalgamation(spec, max_elements=self.limits.max_elements)
            image = image_subring_grading(spec)
        except ValidationError as exc:
            raise SpecError(str(exc), path) from exc
        norm = {"kind": "amalgamation", "a": norm_a, "b": norm_b, "f": norm_f,
                "ideal": norm_ideal}
        return grading, norm, {"amalgamation_spec": spec, "a": a, "image": image}


def parse_ring_spec(text: str, limits: Limits | None = None) -> ParsedSpec:
    """Parse a document into a validated grading plus requested checks.

    A malformed document raises ``SpecError`` naming the offending field; a
    ring over a cap (of ``limits``, or the leaf table cap) raises
    ``ResourceLimitError`` unwrapped.
    """
    from .checks import CHECK_REGISTRY, EXPECTED_KEYS  # late: checks imports us

    limits = limits or DEFAULT_LIMITS
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    _require_keys(
        doc,
        {"name", "m", "ring", "checks", "expected", "ideal"},
        {"m", "ring"},
        "$",
    )
    m = _int(doc, "m", "$", minimum=2)
    parser = _Parser(limits)
    grading, norm_ring, meta = parser.parse_ring(doc["ring"], "ring")

    checks = doc.get("checks", ["all"])
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise SpecError("checks must be a list of names", "checks")
    if checks == ["all"]:
        resolved_checks = sorted(CHECK_REGISTRY)
    else:
        unknown = [c for c in checks if c not in CHECK_REGISTRY]
        if unknown:
            raise SpecError(f"unknown checks {unknown}", "checks")
        resolved_checks = list(checks)

    expected = doc.get("expected", {})
    _require_keys(expected, EXPECTED_KEYS, set(), "expected")
    for key, value in expected.items():
        if type(value) is not bool:
            raise SpecError(f"expectation {key!r} must be true or false", "expected")

    ideal = None
    norm_ideal = None
    if "ideal" in doc:
        ideal, norm_ideal = parser.parse_ideal(grading, doc["ideal"], "ideal", meta)

    name = doc.get("name", grading.ring.label)
    normalized = {"ring": norm_ring, "checks": checks,
                  "expected": dict(sorted(expected.items()))}
    if norm_ideal is not None:
        normalized["ideal"] = norm_ideal

    return ParsedSpec(
        name=name, m=m, grading=grading, checks=resolved_checks,
        expected=expected, ideal=ideal, kind=norm_ring["kind"],
        meta=meta, normalized=normalized,
    )


def emit_ring_spec(parsed: ParsedSpec) -> str:
    """Canonical text for a parsed document; parse(emit(p)) rebuilds p."""
    doc = {**parsed.normalized, "name": parsed.name, "m": parsed.m}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
