"""Seeded counterexample search over structured families of small graded rings.

A target names a claim: a check from ``checks.CHECK_REGISTRY``, or the one
claim finite instances refute (``re_mnc_implies_graded_mnc``).  The search
draws instances (a systematic sweep of the catalog first, then seeded random
recombinations) as ``ParsedSpec`` records, runs the claim on each through the
evaluator ``run_checks`` uses, and reports every instance where it is
falsified.  An instance meets the hypothesis when the claim is neither vacuous
nor cut short by a cap of ``SEARCH_LIMITS``.  Reports are never vacuous: they
carry the number of instances that met the hypothesis alongside the
counterexamples or the exhausted budget.
"""

import random
import time
from dataclasses import dataclass

from .checks import (
    CHECK_REGISTRY,
    CheckContext,
    check_re_mnc_implies_graded_mnc,
    evaluate_check,
)
from .constructions import (
    AmalgamationSpec,
    amalgamation,
    diagonal_z_grading,
    group_ring_graded,
    image_subring_grading,
    matrix_graded,
    product_grading,
    triangular_graded,
)
from .errors import GradedNilError
from .grading import (
    Grading,
    graded_quotient,
    homogeneous_two_sided_ideal_closure,
    trivial_grading,
)
from .groups import make_cyclic
from .rings import is_nilpotent, make_gf, make_zn
from .specfile import Limits, ParsedSpec

#: caps for every search instance: ring size when building, the homogeneous
#: right ideal lattice, and the per-element sweeps of the checks
SEARCH_LIMITS = Limits(max_elements=1024, max_ideals=2000, element_check_cap=256)


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


class _Factory:
    """Builds instances from small structured families.

    A key is (kind, ring, group, param, m).  The grading does not depend on
    m, so each shape (the key without m) is built once, and every m wraps the
    same grading, with its ring's arithmetic tables, in its own ParsedSpec.
    """

    def __init__(self):
        self._rings = {}
        self._groups = {}
        self._gradings = {}
        self._shapes = {}

    def group(self, tag: str):
        if tag not in self._groups:
            self._groups[tag] = make_cyclic(int(tag[1:]))
        return self._groups[tag]

    def ring(self, tag: str):
        if tag not in self._rings:
            self._rings[tag] = make_gf(2, 2) if tag == "gf4" else make_zn(int(tag[1:]))
        return self._rings[tag]

    def base(self, ring_tag: str, group_tag: str) -> Grading:
        key = (ring_tag, group_tag)
        if key not in self._gradings:
            self._gradings[key] = trivial_grading(self.ring(ring_tag), self.group(group_tag))
        return self._gradings[key]

    def build(self, key: tuple) -> ParsedSpec | None:
        shape, m = key[:-1], key[-1]
        if shape not in self._shapes:
            self._shapes[shape] = self._build(shape)
        built = self._shapes[shape]
        if built is None:
            return None
        grading, meta = built
        kind, ring_tag, group_tag, param = shape
        name = f"{kind}[{ring_tag},{group_tag},{param}] m={m}"
        return ParsedSpec(name=name, m=m, grading=grading, checks=[], expected={},
                          ideal=meta.get("ideal"), kind=kind, meta=meta)

    def _build(self, shape: tuple) -> tuple[Grading, dict] | None:
        kind, ring_tag, group_tag, param = shape
        cap = SEARCH_LIMITS.max_elements
        try:
            base = self.base(ring_tag, group_tag)
            if kind == "leaf":
                return base, {"base": base}
            if kind == "triangular":
                n, sigma = param
                if base.ring.size ** (n * (n + 1) // 2) > cap:
                    return None
                gr, ideal = triangular_graded(base, n, sigma)
                return gr, {"base": base, "ideal": ideal}
            if kind == "matrix":
                n, sigma = param
                if base.ring.size ** (n * n) > cap:
                    return None
                gr = matrix_graded(base, n, sigma)
                return gr, {"base": base, "sigma": sigma}
            if kind == "diagonal_z":
                n = param
                if base.ring.size ** (n * n) > cap:
                    return None
                gr = diagonal_z_grading(base.ring, n)
                return gr, {"base_ring": base.ring}
            if kind == "group_ring":
                group = self.group(group_tag)
                if base.ring.size**group.order > cap:
                    return None
                gr = group_ring_graded(base, group)
                return gr, {"base": base, "group": group}
            if kind == "product":
                other_tag = param
                other = self.base(other_tag, group_tag)
                if base.ring.size * other.ring.size > cap:
                    return None
                gr = product_grading([base, other])
                return gr, {"factors": [base, other]}
            if kind == "amalgamation":
                if not base.ring.is_commutative():
                    return None
                gen = param
                if gen == "all":
                    gens = [x for x, d in base.homogeneous_elements() if x != 0]
                else:
                    gens = [gen % base.ring.size]
                ideal = homogeneous_two_sided_ideal_closure(base, gens)
                spec = AmalgamationSpec(base, base, list(range(base.ring.size)), ideal)
                gr = amalgamation(spec)
                image = image_subring_grading(spec)
                return gr, {"a": base, "image": image, "spec": spec}
            if kind == "quotient":
                gen = param % base.ring.size
                if not base.is_homogeneous(gen) or not is_nilpotent(base.ring, gen):
                    return None
                ideal = homogeneous_two_sided_ideal_closure(base, [gen])
                gr, _ = graded_quotient(base, ideal)
                return gr, {"base": base, "parent_ideal": ideal}
        except (GradedNilError, KeyError):
            return None
        return None


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


# instances are immutable, so one factory serves every search in a process;
# its gradings are shared across m and targets and keep their rings'
# arithmetic tables and their memoized decisions
_SHARED_FACTORY = _Factory()


def instance_stream(seed: int):
    """Yield instances forever: systematic catalog first, then seeded picks."""
    factory = _SHARED_FACTORY
    for key in _catalog_keys():
        spec = factory.build(key)
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
            group = make_cyclic(int(group_tag[1:]))
            sigma = tuple(rng.randrange(group.order) for _ in range(n))
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
        spec = factory.build((kind, ring_tag, group_tag, param, m))
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
