"""Group gradings on finite rings.

A grading assigns to each group element an additive subgroup (component) so
that the ring is the internal direct sum of the components and products land
in the component of the product degree.  Components are stored as full
element sets; iteration over homogeneous elements therefore never sweeps the
ambient ring, which is what keeps the large structured rings tractable.
"""

from dataclasses import dataclass, field

from .errors import ResourceLimitError, ValidationError
from .rings import (
    FiniteRing,
    additive_closure,
    additive_span,
    is_m_potent,
    is_nilpotent,
    is_unit,
    power_orbit,
    quotient_ring,
)

IDEAL_LATTICE_CAP = 20000


class _Marker:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: degree of the zero element (it belongs to every component)
ZERO_DEGREE = _Marker("Zero")
#: result for elements meeting more than one component
NOT_HOMOGENEOUS = _Marker("NotHomogeneous")


class Grading:
    """A validated grading; construct through :func:`verify_grading`."""

    def __init__(self, ring: FiniteRing, group, components: dict, decomp: dict):
        self.ring = ring
        self.group = group
        self.components = components  # degree -> frozenset of elements
        self.support = frozenset(g for g, c in components.items() if len(c) > 1)
        self._decomp = decomp  # element -> {degree: part} over nonzero parts
        self._memo: dict = {}

    def component(self, g) -> frozenset:
        return self.components.get(g, frozenset({0}))

    def decompose(self, x: int) -> dict:
        """Unique map degree -> nonzero homogeneous part summing to x."""
        return dict(self._decomp[x])

    def degree_of(self, x: int):
        """Degree of x, ZERO_DEGREE for 0, NOT_HOMOGENEOUS otherwise."""
        if x == 0:
            return ZERO_DEGREE
        parts = self._decomp[x]
        if len(parts) == 1:
            return next(iter(parts))
        return NOT_HOMOGENEOUS

    def is_homogeneous(self, x: int) -> bool:
        return x == 0 or len(self._decomp[x]) == 1

    def homogeneous_elements(self):
        """Yield (element, degree): (0, ZERO_DEGREE) once, then each nonzero
        homogeneous element once, by sorted degree then element index."""
        yield 0, ZERO_DEGREE
        for g in sorted(self.support):
            for x in sorted(self.components[g]):
                if x != 0:
                    yield x, g

    def component_m_potents(self, g, m: int) -> list[int]:
        key = ("mpot", g, m)
        out = self._memo.get(key)
        if out is None:
            out = [x for x in sorted(self.component(g)) if is_m_potent(self.ring, x, m)]
            self._memo[key] = out
        return out

    def homogeneous_idempotents(self) -> list[int]:
        out = self._memo.get("homidem")
        if out is None:
            found = {0}
            for g in self.support:
                found.update(self.component_m_potents(g, 2))
            out = sorted(found)
            self._memo["homidem"] = out
        return out

    def homogeneous_unit_inverse(self, u: int) -> int | None:
        """Inverse of a homogeneous unit, or None; of degree g^-1 when u has
        degree g."""
        if not self.is_homogeneous(u):
            raise ValidationError("element is not homogeneous", ("unit", u))
        return power_orbit(self.ring, u)[1]

    def __repr__(self) -> str:
        return f"Grading({self.ring.label} over {self.group.name}, support={sorted(self.support)})"


def verify_grading(ring: FiniteRing, group, component_generators: dict) -> Grading:
    """Close the generator sets and check all grading axioms exactly.

    Each component is the additive span of its generators; the greedy
    generating set kept while the span is built (:func:`additive_closure`,
    at most log2 of the component size) is recorded with it.  The direct
    sum is checked on every combination of component elements.
    Multiplicativity R_g R_h <= R_gh is checked on pairs of recorded
    generators only.  That is exact because R_gh is an additive subgroup
    and ring multiplication is biadditive: table rings pass
    :func:`gradednil.rings.check_ring_axioms` or derive from rings that did,
    and structured rings are bilinear in their digits by construction.

    Raises ValidationError carrying a witness for the violated law:
    direct-sum failure, multiplicativity failure (naming two recorded
    generators), or 1 outside the identity component.  Gradings whose
    support is just the identity skip the multiplicativity check (it holds
    structurally).
    """
    e = group.identity
    components = {}
    generators = {}
    for g, gens in component_generators.items():
        comp, kept = additive_closure(ring, gens)
        if len(comp) > 1 or g == e:
            components[g] = comp
            generators[g] = kept
    components.setdefault(e, frozenset({0}))

    if ring.one not in components[e]:
        raise ValidationError(
            "1 is not homogeneous of the identity degree", ("identity-component", ring.one)
        )

    support = sorted(g for g, c in components.items() if len(c) > 1)

    # direct sum via the counting criterion plus exhaustive sum-injectivity
    total = 1
    for g in support:
        total *= len(components[g])
    if total != ring.size:
        raise ValidationError(
            "components do not span: component size product "
            f"{total} != ring size {ring.size}",
            ("direct-sum", total, ring.size),
        )

    decomp: dict[int, dict] = {}
    add = ring.add
    sorted_comps = [sorted(components[g]) for g in support]
    combos = [(0, ())]  # (partial sum, nonzero parts so far), grown degree by degree
    for gi, g in enumerate(support):
        nxt = []
        comp = sorted_comps[gi]
        for s, parts in combos:
            for x in comp:
                nxt.append((add(s, x), parts + ((g, x),) if x else parts))
        combos = nxt
    for s, parts in combos:
        if s in decomp:
            raise ValidationError(
                "direct sum fails: two decompositions of one element",
                ("direct-sum-collision", s, decomp[s], dict(parts)),
            )
        decomp[s] = dict(parts)
    if len(decomp) != ring.size:
        raise ValidationError("components do not exhaust the ring", ("direct-sum",))

    # multiplicativity R_g R_h <= R_{gh}; trivial-support gradings are exempt
    if len(support) > 1 or (support and support[0] != e):
        mul = ring.mul
        for g in support:
            for h in support:
                target = components.get(group.op(g, h), frozenset({0}))
                for x in generators[g]:
                    for y in generators[h]:
                        if mul(x, y) not in target:
                            raise ValidationError(
                                "multiplicativity fails",
                                ("multiplicativity", x, y, g, h),
                            )

    return Grading(ring, group, components, decomp)


def trivial_grading(ring: FiniteRing, group=None) -> Grading:
    """Everything concentrated in the identity degree."""
    from .groups import make_cyclic

    group = group or make_cyclic(1)
    return verify_grading(ring, group, {group.identity: list(ring.elements())})


# ---------------------------------------------------------------------------
# homogeneous ideals


@dataclass
class HomogeneousIdeal:
    """An ideal generated by homogeneous elements, stored as an element set."""

    elements: frozenset
    sidedness: str  # "right" | "two-sided"
    homogeneous_generators: list = field(default_factory=list)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


def _right_multiples(ring: FiniteRing, x: int) -> list[int]:
    # additive generators of x*R: x*(sum of basis elements) splits additively
    return [ring.mul(x, b) for b in ring.additive_generators()]


def _two_sided_multiples(ring: FiniteRing, x: int) -> list[int]:
    gens = ring.additive_generators()
    return [ring.mul(ring.mul(a, x), b) for a in gens for b in gens]


def _check_homogeneous_set(grading: Grading, elems: frozenset) -> None:
    """Counting criterion: I = direct sum of its component intersections."""
    total = 1
    for g in grading.support:
        total *= len(elems & grading.components[g])
    if total != len(elems):
        raise ValidationError(
            "ideal is not homogeneous", ("ideal-homogeneity", total, len(elems))
        )


def homogeneous_right_ideal_closure(grading: Grading, gens) -> HomogeneousIdeal:
    """Least right ideal containing the given homogeneous generators."""
    ring = grading.ring
    gen_list = []
    seeds = []
    for x in gens:
        deg = grading.degree_of(x)
        if deg is NOT_HOMOGENEOUS:
            raise ValidationError("generator is not homogeneous", ("generator", x))
        gen_list.append((x, deg))
        seeds.extend(_right_multiples(ring, x))
    elems = additive_span(ring, seeds)
    ideal = HomogeneousIdeal(elems, "right", gen_list)
    _check_homogeneous_set(grading, elems)
    return ideal


def homogeneous_two_sided_ideal_closure(grading: Grading, gens) -> HomogeneousIdeal:
    """Least two-sided ideal containing the given homogeneous generators."""
    ring = grading.ring
    gen_list = []
    seeds = []
    for x in gens:
        deg = grading.degree_of(x)
        if deg is NOT_HOMOGENEOUS:
            raise ValidationError("generator is not homogeneous", ("generator", x))
        gen_list.append((x, deg))
        seeds.extend(_two_sided_multiples(ring, x))
    elems = additive_span(ring, seeds)
    ideal = HomogeneousIdeal(elems, "two-sided", gen_list)
    _check_homogeneous_set(grading, elems)
    return ideal


def graded_maximal_right_ideals(grading: Grading,
                                max_ideals: int = IDEAL_LATTICE_CAP) -> list[HomogeneousIdeal]:
    """All maximal proper homogeneous right ideals (a listing and test oracle).

    The lattice is generated exactly: every homogeneous right ideal is the
    sum of the cyclic ideals of its homogeneous members, so seeding with all
    cyclic homogeneous right ideals and closing under pairwise sums reaches
    a fixpoint equal to the full lattice.  The cap converts blow-ups into a
    ResourceLimitError carrying the partial count.
    """
    ring = grading.ring
    lattice: dict[frozenset, tuple] = {}  # element set -> generator tuple

    def register(elems: frozenset, gens: tuple) -> bool:
        if elems in lattice:
            return False
        if len(lattice) >= max_ideals:
            raise ResourceLimitError(
                "homogeneous right ideal lattice exceeds cap",
                limit=max_ideals, partial=len(lattice),
            )
        lattice[elems] = gens
        return True

    cyclic = []
    for x, _deg in grading.homogeneous_elements():
        elems = additive_span(ring, _right_multiples(ring, x))
        if register(elems, (x,)):
            cyclic.append(elems)

    frontier = list(lattice.keys())
    while frontier:
        fresh = []
        for new in frontier:
            new_gens = lattice[new]
            for base in list(lattice.keys()):
                if base is new:
                    continue
                merged = new | base
                span = additive_span(ring, list(merged))
                if register(span, new_gens + lattice[base]):
                    fresh.append(span)
        frontier = fresh

    full = frozenset(ring.elements())
    proper = [s for s in lattice if s != full]
    maximal = [
        s for s in proper
        if not any(s < t for t in proper)
    ]
    out = []
    for s in sorted(maximal, key=lambda t: (len(t), sorted(t))):
        gens = [(x, grading.degree_of(x)) for x in lattice[s]]
        out.append(HomogeneousIdeal(s, "right", gens))
    return out


def graded_jacobson_radical(grading: Grading) -> HomogeneousIdeal:
    """J^g(R) by the unit rule: a homogeneous a of degree s lies in J^g(R) iff
    1 - r*a is a unit for every r in R_{s^-1} (Nastasescu and Van Oystaeyen,
    *Methods of Graded Rings*, LNM 1836, the chapter on the graded Jacobson
    radical).  J^g(R) is a graded ideal, the additive span of those a; it is
    asserted two-sided on the span's generators, exact by biadditivity."""
    cached = grading._memo.get("jg")
    if cached is not None:
        return cached
    ring = grading.ring
    members = [
        a for a, deg in grading.homogeneous_elements()
        if a and all(is_unit(ring, ring.sub(ring.one, ring.mul(r, a)))
                     for r in grading.component(grading.group.inv(deg)))
    ]
    elems, kept = additive_closure(ring, members)
    for a in kept:
        for r in ring.additive_generators():
            if ring.mul(r, a) not in elems or ring.mul(a, r) not in elems:
                raise ValidationError(
                    "graded radical is not two-sided", ("radical", r, a)
                )
    _check_homogeneous_set(grading, elems)
    gens = sorted({x for x, _ in _homogeneous_members(grading, elems)})
    ideal = HomogeneousIdeal(elems, "two-sided", [(x, grading.degree_of(x)) for x in gens])
    grading._memo["jg"] = ideal
    return ideal


def _homogeneous_members(grading: Grading, elems: frozenset):
    for g in sorted(grading.support):
        for x in sorted(grading.components[g] & elems):
            if x != 0:
                yield x, g


def is_graded_nil(grading: Grading, ideal: HomogeneousIdeal) -> bool:
    """Whether every homogeneous element of the ideal is nilpotent."""
    return all(
        is_nilpotent(grading.ring, x) for x, _ in _homogeneous_members(grading, ideal.elements)
    )


def is_graded_local(grading: Grading) -> bool:
    """One graded-maximal right ideal: R is nonzero and every homogeneous
    non-unit lies in J^g(R) (source as for :func:`graded_jacobson_radical`)."""
    ring, jg = grading.ring, graded_jacobson_radical(grading).elements
    return ring.size > 1 and all(
        x in jg or is_unit(ring, x) for x, _ in grading.homogeneous_elements())


def graded_quotient(grading: Grading, ideal: HomogeneousIdeal):
    """Quotient by a two-sided homogeneous ideal with the inherited grading.

    Returns (quotient grading, projection list).  The projection is a graded
    surjection: nonzero images of degree-g elements have degree g.
    """
    if ideal.sidedness != "two-sided":
        raise ValidationError("quotient requires a two-sided ideal")
    _check_homogeneous_set(grading, ideal.elements)
    quot, proj = quotient_ring(grading.ring, ideal.elements)
    gens = {
        g: sorted({proj[x] for x in comp})
        for g, comp in grading.components.items()
    }
    qgrading = verify_grading(quot, grading.group, gens)
    return qgrading, proj
