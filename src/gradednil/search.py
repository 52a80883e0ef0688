"""Seeded counterexample search over structured families of small graded rings.

A target names an implication; the search draws instances (a systematic
sweep of the catalog first, then seeded random recombinations), tests the
hypothesis, and reports every instance where the conclusion fails.  Reports
are never vacuous: they carry the number of instances that actually met the
hypothesis alongside the counterexamples or the exhausted budget.
"""

import random
import time
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
)
from .errors import GradedNilError, ResourceLimitError
from .grading import (
    Grading,
    ZERO_DEGREE,
    graded_jacobson_radical,
    graded_quotient,
    homogeneous_two_sided_ideal_closure,
    is_graded_nil,
    trivial_grading,
)
from .groups import IntegerGroup, is_m_torsion_free, is_p_group, is_prime, make_cyclic
from .nilclean import (
    is_graded_m_nil_clean_ring,
    is_m_nil_clean_ring,
    m_nil_clean_witness,
    strongly_pi_regular_from_m_nil_clean,
)
from .rings import (
    is_m_potent,
    is_nilpotent,
    is_unit,
    make_gf,
    make_zn,
    subring_from_elements,
)

SEARCH_RING_CAP = 1024


@dataclass
class Instance:
    name: str
    kind: str
    m: int
    grading: Grading
    aux: dict = field(default_factory=dict)


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
    same grading, with its ring's arithmetic tables, in its own Instance.
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

    def build(self, key: tuple) -> Instance | None:
        shape, m = key[:-1], key[-1]
        if shape not in self._shapes:
            self._shapes[shape] = self._build(shape)
        built = self._shapes[shape]
        if built is None:
            return None
        grading, aux = built
        kind, ring_tag, group_tag, param = shape
        name = f"{kind}[{ring_tag},{group_tag},{param}] m={m}"
        return Instance(name, kind, m, grading, aux)

    def _build(self, shape: tuple) -> tuple[Grading, dict] | None:
        kind, ring_tag, group_tag, param = shape
        try:
            base = self.base(ring_tag, group_tag)
            if kind == "leaf":
                return base, {"base": base}
            if kind == "triangular":
                n, sigma = param
                if base.ring.size ** (n * (n + 1) // 2) > SEARCH_RING_CAP:
                    return None
                gr, ideal = triangular_graded(base, n, sigma)
                return gr, {"base": base, "ideal": ideal}
            if kind == "matrix":
                n, sigma = param
                if base.ring.size ** (n * n) > SEARCH_RING_CAP:
                    return None
                gr = matrix_graded(base, n, sigma)
                return gr, {"base": base, "sigma": sigma}
            if kind == "diagonal_z":
                n = param
                if base.ring.size ** (n * n) > SEARCH_RING_CAP:
                    return None
                gr = diagonal_z_grading(base.ring, n)
                return gr, {"base_ring": base.ring}
            if kind == "group_ring":
                group = self.group(group_tag)
                if base.ring.size**group.order > SEARCH_RING_CAP:
                    return None
                gr = group_ring_graded(base, group)
                return gr, {"base": base, "group": group}
            if kind == "product":
                other_tag = param
                other = self.base(other_tag, group_tag)
                if base.ring.size * other.ring.size > SEARCH_RING_CAP:
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
# its gradings are shared across m and keep their rings' arithmetic tables
_SHARED_FACTORY = _Factory()


def instance_stream(seed: int):
    """Yield instances forever: systematic catalog first, then seeded picks."""
    factory = _SHARED_FACTORY
    for key in _catalog_keys():
        inst = factory.build(key)
        if inst is not None:
            yield inst
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
        inst = factory.build((kind, ring_tag, group_tag, param, m))
        if inst is not None:
            yield inst


# ---------------------------------------------------------------------------
# implication targets


def _identity_subring(grading: Grading):
    e = grading.group.identity
    sub, _idx, _members = subring_from_elements(grading.ring, grading.component(e))
    return sub


def _eval_re_implies_graded(inst: Instance):
    sub = _identity_subring(inst.grading)
    if not is_m_nil_clean_ring(sub, inst.m):
        return None
    ok, w = is_graded_m_nil_clean_ring(inst.grading, inst.m)
    return ok, (inst.grading.ring.format_element(w) if w is not None else None)


def _eval_graded_implies_re(inst: Instance):
    ok, _ = is_graded_m_nil_clean_ring(inst.grading, inst.m)
    if not ok:
        return None
    sub = _identity_subring(inst.grading)
    return is_m_nil_clean_ring(sub, inst.m), None


def _eval_torsion_free_nil(inst: Instance):
    gr, m = inst.grading, inst.m
    if not is_m_torsion_free(gr.group, m - 1):
        return None
    ok, _ = is_graded_m_nil_clean_ring(gr, m)
    if not ok:
        return None
    e = gr.group.identity
    for x, g in gr.homogeneous_elements():
        if g is ZERO_DEGREE or g == e:
            continue
        if not is_nilpotent(gr.ring, x):
            return False, gr.ring.format_element(x)
    return True, None


def _eval_m_potent_degree(inst: Instance):
    gr, m = inst.grading, inst.m
    group = gr.group
    for x, g in gr.homogeneous_elements():
        if g is ZERO_DEGREE or not is_m_potent(gr.ring, x, m):
            continue
        if group.power(g, m - 1) != group.identity:
            return False, gr.ring.format_element(x)
    return True, None


def _eval_jg_graded_nil(inst: Instance):
    gr, m = inst.grading, inst.m
    if gr.ring.size > 256:
        return None
    ok, _ = is_graded_m_nil_clean_ring(gr, m)
    if not ok:
        return None
    try:
        jg = graded_jacobson_radical(gr, max_ideals=2000)
    except ResourceLimitError:
        return None
    return is_graded_nil(gr, jg), None


def _eval_quotient_equivalence(inst: Instance):
    gr, m = inst.grading, inst.m
    ideal = inst.aux.get("ideal")
    if ideal is None or ideal.sidedness != "two-sided":
        return None
    if not is_unit(gr.ring, gr.ring.from_int(m - 1)):
        return None
    if not is_m_torsion_free(gr.group, m - 1):
        return None
    if not is_graded_nil(gr, ideal):
        return None
    lhs, _ = is_graded_m_nil_clean_ring(gr, m)
    qgr, _ = graded_quotient(gr, ideal)
    rhs, _ = is_graded_m_nil_clean_ring(qgr, m)
    return lhs == rhs, f"ring: {lhs}, quotient: {rhs}"


def _eval_triangular_equivalence(inst: Instance):
    if inst.kind != "triangular":
        return None
    base, gr, m = inst.aux["base"], inst.grading, inst.m
    if not is_unit(base.ring, base.ring.from_int(m - 1)):
        return None
    if not is_m_torsion_free(gr.group, m - 1):
        return None
    lhs, _ = is_graded_m_nil_clean_ring(base, m)
    rhs, _ = is_graded_m_nil_clean_ring(gr, m)
    return lhs == rhs, f"base: {lhs}, triangular: {rhs}"


def _eval_diagonal_equivalence(inst: Instance):
    if inst.kind != "diagonal_z":
        return None
    plain = is_m_nil_clean_ring(inst.aux["base_ring"], inst.m)
    graded, _ = is_graded_m_nil_clean_ring(inst.grading, inst.m)
    return plain == graded, f"plain base: {plain}, graded: {graded}"


def _eval_product_equivalence(inst: Instance):
    if inst.kind != "product":
        return None
    whole, _ = is_graded_m_nil_clean_ring(inst.grading, inst.m)
    parts = all(
        is_graded_m_nil_clean_ring(f, inst.m)[0] for f in inst.aux["factors"]
    )
    return whole == parts, f"product: {whole}, factors: {parts}"


def _eval_orthogonal_sufficiency(inst: Instance):
    gr, m = inst.grading, inst.m
    if isinstance(gr.group, IntegerGroup):
        return None
    e = gr.group.identity
    ring = gr.ring
    for g in gr.support:
        if g == e:
            continue
        comp = gr.component(g)
        inv_comp = gr.component(gr.group.inv(g))
        if any(ring.mul(x, y) != 0 for x in comp for y in inv_comp):
            return None
    sub = _identity_subring(gr)
    if not is_m_nil_clean_ring(sub, m):
        return None
    ok, w = is_graded_m_nil_clean_ring(gr, m)
    return ok, (ring.format_element(w) if w is not None else None)


def _eval_strongly_clean_pi_regular(inst: Instance):
    ring, m = inst.grading.ring, inst.m
    if ring.size > 256:
        return None
    for x in ring.elements():
        w = m_nil_clean_witness(ring, x, m, strong=True)
        if w is None:
            continue
        try:
            strongly_pi_regular_from_m_nil_clean(ring, w.f, w.n, m)
        except GradedNilError:
            return False, ring.format_element(x)
    return True, None


def _eval_amalgamation_equivalence(inst: Instance):
    if inst.kind != "amalgamation":
        return None
    if not is_m_torsion_free(inst.grading.group, inst.m - 1):
        return None
    whole, _ = is_graded_m_nil_clean_ring(inst.grading, inst.m)
    a_ok, _ = is_graded_m_nil_clean_ring(inst.aux["a"], inst.m)
    img_ok, _ = is_graded_m_nil_clean_ring(inst.aux["image"], inst.m)
    return whole == (a_ok and img_ok), f"amalg: {whole}, A: {a_ok}, image: {img_ok}"


def _eval_group_ring_transfer(inst: Instance):
    if inst.kind != "group_ring":
        return None
    base, group, m = inst.aux["base"], inst.aux["group"], inst.m
    witness_p = None
    for p in range(2, max(m, group.order) + 1):
        if not is_prime(p) or m % p:
            continue
        if is_nilpotent(base.ring, base.ring.from_int(p)) and is_p_group(group, p):
            witness_p = p
            break
    if witness_p is None:
        return None
    if not is_graded_m_nil_clean_ring(base, m)[0]:
        return None
    ok, w = is_graded_m_nil_clean_ring(inst.grading, m)
    return ok, (inst.grading.ring.format_element(w) if w is not None else None)


#: implication targets; the two names in EXPECTED_COUNTEREXAMPLE_TARGETS are
#: refuted by finite instances and the search is expected to find them
TARGETS = {
    "re_mnc_implies_graded_mnc": _eval_re_implies_graded,
    "group_ring_transfer_p_nilpotent": _eval_group_ring_transfer,
    "graded_mnc_implies_re_mnc": _eval_graded_implies_re,
    "torsion_free_nonidentity_nil": _eval_torsion_free_nil,
    "homogeneous_m_potent_degree": _eval_m_potent_degree,
    "jg_graded_nil_when_clean": _eval_jg_graded_nil,
    "quotient_equivalence": _eval_quotient_equivalence,
    "triangular_equivalence": _eval_triangular_equivalence,
    "diagonal_z_equivalence": _eval_diagonal_equivalence,
    "product_equivalence": _eval_product_equivalence,
    "orthogonal_components_sufficiency": _eval_orthogonal_sufficiency,
    "strongly_clean_gives_pi_regular_decomposition": _eval_strongly_clean_pi_regular,
    "amalgamation_equivalence": _eval_amalgamation_equivalence,
}

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
        inst = next(stream)
        tested += 1
        result = evaluate(inst)
        if result is None:
            continue
        hits += 1
        holds, note = result
        if not holds:
            desc = inst.name + (f" [{note}]" if note else "")
            counterexamples.append(desc)
            if stop_at_first or len(counterexamples) >= 5:
                break
    return SearchReport(
        target=target, budget=budget, tested=tested, hypothesis_hits=hits,
        counterexamples=counterexamples, seconds=time.perf_counter() - start,
    )
