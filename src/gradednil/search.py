"""Seeded counterexample search over structured families of small graded rings.

A target names a claim: a check from ``checks.CHECK_REGISTRY``, or the one
claim finite instances refute (``re_mnc_implies_graded_mnc``).  The search
draws instances (a systematic sweep of the catalog first, then seeded random
recombinations), runs the claim on each through the evaluator ``run_checks``
uses, and reports every instance where it is falsified.  Each instance is a
ring description document parsed by ``specfile.parse_ring_spec`` under
``SEARCH_LIMITS``, so ``emit_ring_spec(instance)`` prints a document that
``gradednil check`` re-runs.  An instance meets the hypothesis when the
claim is neither vacuous nor cut short by a cap of ``SEARCH_LIMITS``.  Reports
are never vacuous: they carry the number of instances that met the hypothesis
alongside the counterexamples or the exhausted budget.
"""

import json
import random
import time
from dataclasses import dataclass

from .checks import (
    CHECK_REGISTRY,
    CheckContext,
    check_re_mnc_implies_graded_mnc,
    evaluate_check,
)
from .errors import ResourceLimitError
from .rings import is_nilpotent
from .specfile import Limits, ParsedSpec, parse_ring_spec

#: caps for every search instance: ring size when building, and the
#: per-element sweeps of the checks
SEARCH_LIMITS = Limits(max_elements=1024, element_check_cap=256)


@dataclass
class SearchReport:
    target: str
    budget: int
    tested: int
    hypothesis_hits: int
    counterexamples: list
    seconds: float

    @property
    def found(self) -> bool:
        return bool(self.counterexamples)

    @property
    def vacuous(self) -> bool:
        return self.hypothesis_hits == 0

    def summary(self) -> str:
        if self.found:
            head = self.counterexamples[0]
            return (
                f"target {self.target}: COUNTEREXAMPLE after {self.tested} instances "
                f"({self.hypothesis_hits} met the hypothesis): {head}"
            )
        if self.vacuous:
            return (
                f"target {self.target}: budget exhausted after {self.tested} instances; "
                "no instance met the hypothesis (vacuous, not a pass)"
            )
        return (
            f"target {self.target}: no counterexample; budget exhausted after "
            f"{self.tested} instances, {self.hypothesis_hits} met the hypothesis"
        )

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "budget": self.budget,
            "tested": self.tested,
            "hypothesis_hits": self.hypothesis_hits,
            "counterexamples": list(self.counterexamples),
            "found": self.found,
            "vacuous": self.vacuous,
            "seconds": round(self.seconds, 3),
        }


# ---------------------------------------------------------------------------
# instance families


_BASE_RINGS = ["z2", "z3", "z4", "z6", "gf4"]
_GROUPS = ["c1", "c2", "c3"]
_MS = [2, 3, 4, 5]


def _size(ring_tag: str) -> int:
    return 4 if ring_tag == "gf4" else int(ring_tag[1:])


def _base_document(ring_tag: str, group_tag: str) -> dict:
    """A catalog base ring, trivially graded by the cyclic group of the tag."""
    if ring_tag == "gf4":
        ring = {"kind": "gf", "p": 2, "k": 2}
    else:
        ring = {"kind": "zn", "n": _size(ring_tag)}
    grading = {"group": {"kind": "cyclic", "n": int(group_tag[1:])}, "trivial": True}
    return {**ring, "grading": grading}


def _shape_document(shape: tuple) -> dict:
    """The ring description document of a shape (kind, ring, group, param);
    its m is a placeholder that each instance replaces."""
    kind, ring_tag, group_tag, param = shape
    base = _base_document(ring_tag, group_tag)
    doc = {"m": 2, "ring": base}
    if kind in ("triangular", "matrix"):
        n, sigma = param
        doc["ring"] = {"kind": kind, "base": base, "n": n, "sigma": list(sigma)}
        if kind == "triangular":
            doc["ideal"] = {"zero_diagonal": True}
    elif kind == "diagonal_z":
        doc["ring"] = {"kind": kind, "base": base, "n": param}
    elif kind == "group_ring":
        doc["ring"] = {"kind": kind, "base": base, "mode": "standard",
                       "group": {"kind": "cyclic", "n": int(group_tag[1:])}}
    elif kind == "product":
        doc["ring"] = {"kind": kind, "factors": [base, _base_document(param, group_tag)]}
    elif kind == "amalgamation":
        ideal = {"all": True} if param == "all" else {"generators": [param % _size(ring_tag)]}
        doc["ring"] = {"kind": kind, "a": base, "b": base, "ideal": ideal}
    elif kind == "quotient":
        doc["ring"] = {"kind": kind, "base": base,
                       "ideal": {"generators": [param % _size(ring_tag)]}}
    return doc


def _parse_shape(shape: tuple) -> ParsedSpec | None:
    """The parsed shape, or None over the element cap or for a quotient by
    a generator that is not nilpotent."""
    try:
        parsed = parse_ring_spec(json.dumps(_shape_document(shape)), SEARCH_LIMITS)
    except ResourceLimitError:
        return None
    if shape[0] == "quotient" and not is_nilpotent(
            parsed.meta["base"].ring, shape[3] % _size(shape[1])):
        return None
    return parsed


# instances are immutable, so one cache serves every search in a process; a
# shape's grading does not depend on m, so it is parsed once and shared across
# m and targets with its rings' arithmetic tables and memoized decisions
_SHAPES: dict = {}


def _instance(key: tuple) -> ParsedSpec | None:
    """The instance of a key (kind, ring, group, param, m), or None when the
    family rejects its shape; ``emit_ring_spec`` prints its document."""
    shape, m = key[:-1], key[-1]
    if shape not in _SHAPES:
        _SHAPES[shape] = _parse_shape(shape)
    parsed = _SHAPES[shape]
    if parsed is None:
        return None
    kind, ring_tag, group_tag, param = shape
    name = f"{kind}[{ring_tag},{group_tag},{param}] m={m}"
    # every pull of the stream builds one: dataclasses.replace would cost
    # more than the rest of the pull together
    return ParsedSpec(name=name, m=m, grading=parsed.grading, checks=parsed.checks,
                      expected=parsed.expected, ideal=parsed.ideal, kind=parsed.kind,
                      meta=parsed.meta, normalized=parsed.normalized)


def _catalog_keys():
    """The systematic sweep: every family over every small base and m."""
    keys = []
    for ring_tag in _BASE_RINGS:
        for m in _MS:
            keys.append(("leaf", ring_tag, "c1", None, m))
            keys.append(("leaf", ring_tag, "c2", None, m))
            for sigma in ((0, 0), (0, 1)):
                keys.append(("triangular", ring_tag, "c2", (2, sigma), m))
                keys.append(("matrix", ring_tag, "c2", (2, sigma), m))
            keys.append(("triangular", ring_tag, "c2", (3, (0, 1, 0)), m))
            keys.append(("diagonal_z", ring_tag, "c1", 2, m))
            keys.append(("group_ring", ring_tag, "c2", None, m))
            keys.append(("group_ring", ring_tag, "c3", None, m))
            keys.append(("product", ring_tag, "c2", "z2", m))
            keys.append(("amalgamation", ring_tag, "c1", 2, m))
            keys.append(("amalgamation", ring_tag, "c1", "all", m))
            keys.append(("quotient", ring_tag, "c1", 2, m))
    return keys


def instance_stream(seed: int):
    """Yield instances forever: systematic catalog first, then seeded picks."""
    for key in _catalog_keys():
        spec = _instance(key)
        if spec is not None:
            yield spec
    rng = random.Random(seed)
    kinds = ["leaf", "triangular", "matrix", "diagonal_z", "group_ring",
             "product", "amalgamation", "quotient"]
    while True:
        kind = rng.choice(kinds)
        ring_tag = rng.choice(_BASE_RINGS)
        group_tag = rng.choice(_GROUPS)
        m = rng.randint(2, 6)
        if kind in ("triangular", "matrix"):
            n = rng.choice((2, 3))
            sigma = tuple(rng.randrange(int(group_tag[1:])) for _ in range(n))
            param = (n, sigma)
        elif kind == "diagonal_z":
            param = rng.choice((2, 3))
            group_tag = "c1"
        elif kind == "product":
            param = rng.choice(_BASE_RINGS)
        elif kind in ("amalgamation", "quotient"):
            param = rng.choice((1, 2, 3, "all") if kind == "amalgamation" else (1, 2, 3))
            group_tag = "c1"
        else:
            param = None
        spec = _instance((kind, ring_tag, group_tag, param, m))
        if spec is not None:
            yield spec


# ---------------------------------------------------------------------------
# implication targets


class _SearchContext(CheckContext):
    """Witnesses print as bare elements, the form counterexample lists use."""

    def fmt(self, x: int, grading=None) -> str:
        return (grading or self.grading).ring.format_element(x)


def _target(claim):
    """The search's view of a claim: one instance in, (status, witness, detail) out."""
    def run(spec: ParsedSpec):
        return evaluate_check(claim, _SearchContext(spec, SEARCH_LIMITS))
    return run


#: implication targets; the two names in EXPECTED_COUNTEREXAMPLE_TARGETS are
#: refuted by finite instances and the search is expected to find them
TARGETS = {name: _target(claim) for name, claim in (
    ("re_mnc_implies_graded_mnc", check_re_mnc_implies_graded_mnc),
    ("group_ring_transfer_p_nilpotent", CHECK_REGISTRY["group_ring_clean_transfer"]),
    ("graded_mnc_implies_re_mnc", CHECK_REGISTRY["identity_component_m_nil_clean"]),
    ("torsion_free_nonidentity_nil", CHECK_REGISTRY["nonidentity_components_nil"]),
    ("homogeneous_m_potent_degree", CHECK_REGISTRY["homogeneous_m_potent_degree"]),
    ("jg_graded_nil_when_clean", CHECK_REGISTRY["jg_graded_nil"]),
    ("quotient_equivalence", CHECK_REGISTRY["quotient_equivalence"]),
    ("triangular_equivalence", CHECK_REGISTRY["triangular_equivalence"]),
    ("diagonal_z_equivalence", CHECK_REGISTRY["diagonal_z_equivalence"]),
    ("product_equivalence", CHECK_REGISTRY["product_factors_equivalence"]),
    ("orthogonal_components_sufficiency", CHECK_REGISTRY["orthogonal_components_sufficiency"]),
    ("strongly_clean_gives_pi_regular_decomposition",
     CHECK_REGISTRY["strongly_pi_regular_construction"]),
    ("amalgamation_equivalence", CHECK_REGISTRY["amalgamation_equivalence"]),
)}

EXPECTED_COUNTEREXAMPLE_TARGETS = (
    "re_mnc_implies_graded_mnc",
    "group_ring_transfer_p_nilpotent",
)

FORWARD_TARGETS = tuple(
    t for t in TARGETS if t not in EXPECTED_COUNTEREXAMPLE_TARGETS
)


def counterexample_search(target: str, budget: int, seed: int = 0,
                          stop_at_first: bool = False) -> SearchReport:
    """Sample instances and report hypothesis hits plus any counterexamples."""
    if target not in TARGETS:
        raise KeyError(f"unknown target {target!r}; known: {sorted(TARGETS)}")
    evaluate = TARGETS[target]
    start = time.perf_counter()
    tested = hits = 0
    counterexamples = []
    stream = instance_stream(seed)
    while tested < budget:
        spec = next(stream)
        tested += 1
        status, witness, detail = evaluate(spec)
        if status in ("vacuous", "skipped-resource"):
            continue
        hits += 1
        if status == "falsified":
            counterexamples.append(f"{spec.name} [{witness or detail}]")
            if stop_at_first or len(counterexamples) >= 5:
                break
    return SearchReport(
        target=target, budget=budget, tested=tested, hypothesis_hits=hits,
        counterexamples=counterexamples, seconds=time.perf_counter() - start,
    )
