"""Builders for graded rings: matrix and triangular gradings over a graded
base, the diagonal integer grading of a matrix ring, graded group rings (in
both multiplication conventions), amalgamated subrings of a product, and
componentwise product gradings.

Matrix, triangular and group rings share one arithmetic kernel on base-|R|
digit vectors (:class:`DigitRing`): digitwise addition, and multiplication
by product terms fixed when the ring is built.  Rings of at most
``TABLE_ELEMENT_CAP`` (256) elements keep each result in a flat table filled
on first use (see :class:`gradednil.rings.StructuredRing`).  Every returned
grading has passed :func:`gradednil.grading.verify_grading`.
"""

import functools
import itertools

from .errors import ResourceLimitError, ValidationError
from .grading import Grading, HomogeneousIdeal, verify_grading, trivial_grading
from .groups import FiniteGroup, IntegerGroup, INTEGER_GROUP
from .rings import (
    FiniteRing,
    ProductRing,
    StructuredRing,
    _digits,
    additive_span,
    associativity_witness,
    subring_from_elements,
)

STRUCTURED_ELEMENT_CAP = 1 << 20

# an index is split into digits by looking up chunks of at most this many
# values in shared tables, instead of one divmod per digit; the tables are
# keyed by (radix, width) only, so a process holds a handful of them
DIGIT_CHUNK = 1024


@functools.lru_cache(maxsize=None)
def _digit_table(radix: int, width: int) -> tuple[tuple, ...]:
    """The `width` digits base `radix` of every index below radix**width."""
    return tuple(_digits(v, radix, width) for v in range(radix**width))


class SigmaVector(tuple):
    """A choice of one grading-group element per matrix row/column."""

    def __new__(cls, entries):
        entries = tuple(entries)
        if not entries:
            raise ValidationError("sigma vector must be nonempty")
        return super().__new__(cls, entries)


class DigitRing(StructuredRing):
    """Elements are digit vectors over a base ring R, encoded base-|R| with
    the first digit least significant.

    Addition and negation are digitwise.  Multiplication is bilinear: output
    digit k is the sum of a[i] * b[j] over the pairs ``mul_terms[k]``, fixed
    when the ring is built.
    """

    def __init__(self, base: FiniteRing, ndigits: int, mul_terms: list):
        super().__init__()
        self.base = base
        self.ndigits = ndigits
        self._mul_terms = mul_terms
        # split the digits into equal low chunks plus a top chunk
        r = base.size
        width = 1
        while width < ndigits and r ** (width + 1) <= DIGIT_CHUNK:
            width += 1
        nchunks = -(-ndigits // width)
        width = -(-ndigits // nchunks)
        self._low_chunks = nchunks - 1
        self._chunk = r**width
        self._chunk_table = _digit_table(r, width)
        self._top_table = _digit_table(r, ndigits - self._low_chunks * width)

    def digits(self, x: int) -> list[int]:
        out = []
        chunk, table = self._chunk, self._chunk_table
        for _ in range(self._low_chunks):
            x, low = divmod(x, chunk)
            out += table[low]
        out += self._top_table[x]
        return out

    def from_digits(self, digits) -> int:
        r = self.base.size
        idx = 0
        for d in reversed(digits):
            idx = idx * r + d
        return idx

    def _add(self, a: int, b: int) -> int:
        badd = self.base.add
        return self.from_digits([badd(x, y) for x, y in zip(self.digits(a), self.digits(b))])

    def _neg(self, a: int) -> int:
        bneg = self.base.neg
        return self.from_digits([bneg(x) for x in self.digits(a)])

    def _mul(self, a: int, b: int) -> int:
        return self.from_digits(self._mul_digits(self.digits(a), self.digits(b)))

    def _mul_digits(self, da: list, db: list) -> list:
        badd, bmul = self.base.add, self.base.mul
        out = []
        for terms in self._mul_terms:
            acc = 0
            for i, j in terms:
                x = da[i]
                if x:
                    y = db[j]
                    if y:
                        p = bmul(x, y)
                        acc = badd(acc, p) if acc else p
            out.append(acc)
        return out


class MatrixRing(DigitRing):
    """n x n matrices over a finite base ring, encoded base-|R| row-major."""

    symbol = "M"

    @staticmethod
    def matrix_positions(n: int) -> list:
        return [(i, j) for i in range(n) for j in range(n)]

    def __init__(self, base: FiniteRing, n: int, max_elements: int = STRUCTURED_ELEMENT_CAP):
        if n < 1:
            raise ValidationError(f"matrix size must be >= 1, got {n}")
        positions = self.matrix_positions(n)
        size = base.size ** len(positions)
        if size > max_elements:
            raise ResourceLimitError(
                f"{self.symbol}_{n}({base.label}) has {size} elements, over cap",
                limit=max_elements,
            )
        # (i, j) of a product sums a(i, k) * b(k, j) over the stored positions
        index = {pos: k for k, pos in enumerate(positions)}
        terms = [
            [(index[(i, k)], index[(k, j)]) for k in range(n)
             if (i, k) in index and (k, j) in index]
            for (i, j) in positions
        ]
        super().__init__(base, len(positions), terms)
        self.n = n
        self.size = size
        self.positions = positions
        self.one = self.encode_entries({(i, i): base.one for i in range(n)})
        self.label = f"{self.symbol}{n}({base.label})"

    # entries are dicts {(i, j): base element}, omitted entries are zero
    def encode_entries(self, entries: dict) -> int:
        return self.from_digits([entries.get(pos, 0) for pos in self.positions])

    def decode(self, x: int) -> dict:
        return {pos: d for pos, d in zip(self.positions, self.digits(x)) if d}

    def additive_generators(self) -> list[int]:
        gens = []
        for pos in self.positions:
            for g in self.base.additive_generators():
                gens.append(self.encode_entries({pos: g}))
        return gens

    def format_element(self, x: int) -> str:
        d = self.decode(x)
        rows = []
        for i in range(self.n):
            rows.append(
                "[" + ",".join(self.base.format_element(d.get((i, j), 0)) for j in range(self.n)) + "]"
            )
        return "[" + ",".join(rows) + "]"


class TriangularRing(MatrixRing):
    """Upper-triangular n x n matrices, packing only positions i <= j."""

    symbol = "T"

    @staticmethod
    def matrix_positions(n: int) -> list:
        return [(i, j) for i in range(n) for j in range(i, n)]


def _component_entry_degrees(group, sigma: SigmaVector, lam, positions):
    """Required base degree per entry for the matrix component of degree lam."""
    return {
        (i, j): group.op(group.op(sigma[i], lam), group.inv(sigma[j]))
        for (i, j) in positions
    }


def _matrix_components(ring, base_grading: Grading, sigma: SigmaVector):
    """Component element sets for a matrix/triangular grading.

    Degree-lam entries must satisfy a_ij in R_{sigma_i * lam * sigma_j^-1};
    candidate degrees are those making at least one entry component nonzero.
    """
    group = base_grading.group
    candidates = set()
    for (i, j) in ring.positions:
        for d in base_grading.support:
            # sigma_i * lam * sigma_j^-1 = d  =>  lam = sigma_i^-1 * d * sigma_j
            candidates.add(group.op(group.op(group.inv(sigma[i]), d), sigma[j]))
    candidates.add(group.identity)

    components = {}
    for lam in candidates:
        need = _component_entry_degrees(group, sigma, lam, ring.positions)
        per_entry = [sorted(base_grading.component(need[pos])) for pos in ring.positions]
        size = 1
        for c in per_entry:
            size *= len(c)
        if size == 1 and lam != group.identity:
            continue
        elems = []
        for combo in itertools.product(*per_entry):
            entries = {
                pos: v for pos, v in zip(ring.positions, combo) if v
            }
            elems.append(ring.encode_entries(entries))
        components[lam] = elems
    return components


def matrix_graded(base: Grading, n: int, sigma,
                  max_elements: int = STRUCTURED_ELEMENT_CAP) -> Grading:
    """Full matrix ring over a graded base, graded by entry-degree shifts."""
    sigma = SigmaVector(sigma)
    if len(sigma) != n:
        raise ValidationError(f"sigma must have length {n}")
    ring = MatrixRing(base.ring, n, max_elements=max_elements)
    comps = _matrix_components(ring, base, sigma)
    return verify_grading(ring, base.group, comps)


def triangular_graded(base: Grading, n: int, sigma,
                      max_elements: int = STRUCTURED_ELEMENT_CAP):
    """Upper-triangular matrix ring over a graded base with induced grading.

    Returns (grading, zero_diagonal_ideal); the ideal of matrices with zero
    diagonal is homogeneous, two-sided and satisfies I^n = 0.
    """
    sigma = SigmaVector(sigma)
    if len(sigma) != n:
        raise ValidationError(f"sigma must have length {n}")
    ring = TriangularRing(base.ring, n, max_elements=max_elements)
    comps = _matrix_components(ring, base, sigma)
    grading = verify_grading(ring, base.group, comps)
    return grading, zero_diagonal_ideal(grading)


def zero_diagonal_ideal(grading: Grading) -> HomogeneousIdeal:
    """The zero-diagonal ideal of a triangular ring grading."""
    ring = grading.ring
    if not isinstance(ring, TriangularRing):
        raise ValidationError("zero-diagonal ideal requires a triangular ring")
    strict = [(i, j) for (i, j) in ring.positions if i < j]
    elems = []
    for combo in itertools.product(range(ring.base.size), repeat=len(strict)):
        entries = {pos: v for pos, v in zip(strict, combo) if v}
        elems.append(ring.encode_entries(entries))
    return HomogeneousIdeal(
        frozenset(elems), "two-sided",
        [(x, grading.degree_of(x)) for x in sorted(elems) if x != 0],
    )


def diagonal_z_grading(base_ring: FiniteRing, n: int,
                       max_elements: int = STRUCTURED_ELEMENT_CAP) -> Grading:
    """M_n(A) graded by the integers: component t is the t-th diagonal.

    Equivalent to the matrix grading over Z with the base concentrated in
    degree 0 and sigma = (0, 1, ..., n-1); the support is {-(n-1)..n-1}.
    """
    base = trivial_grading(base_ring, INTEGER_GROUP)
    return matrix_graded(base, n, SigmaVector(range(n)), max_elements=max_elements)


# ---------------------------------------------------------------------------
# group rings


class GroupRingRing(DigitRing):
    """Functions G -> R encoded base-|R| per group position.

    ``mode`` selects the multiplication: ``standard`` convolution places
    r*s at the position product; ``paper_twisted`` places the product of a
    degree-g coefficient at position g' with a degree-h coefficient at
    position h' onto position h^-1 * g' * h * h'.  For abelian groups over a
    trivially graded base the two coincide.
    """

    def __init__(self, base_grading: Grading, group: FiniteGroup, mode: str = "standard",
                 max_elements: int = STRUCTURED_ELEMENT_CAP):
        if mode not in ("standard", "paper_twisted"):
            raise ValidationError(f"unknown group ring mode {mode!r}")
        base = base_grading.ring
        size = base.size**group.order
        if size > max_elements:
            raise ResourceLimitError("group ring exceeds element cap", limit=max_elements)
        elems = group.elements()
        gop = [[group.op(g, h) for h in elems] for g in elems]
        # standard convolution: position k sums a(g) * b(h) over g * h = k
        terms = [[(g, h) for g in elems for h in elems if gop[g][h] == k] for k in elems]
        super().__init__(base, group.order, terms)
        if mode == "paper_twisted":
            # each base coefficient's homogeneous parts, and the position
            # hdeg^-1 * g * hdeg * h that a part of degree hdeg sends (g, h) to
            self._parts = [list(base_grading.decompose(c).items()) for c in base.elements()]
            self._twist = [
                [[gop[gop[gop[group.inv(d)][g]][d]][h] for h in elems] for g in elems]
                for d in elems
            ]
        self.base_grading = base_grading
        self.group = group
        self.mode = mode
        self.size = size
        self.one = self.encode({0: base.one})
        self.label = f"{base.label}[{group.name}]({mode})"

    def encode(self, coeffs: dict) -> int:
        return self.from_digits([coeffs.get(h, 0) for h in range(self.group.order)])

    def decode(self, x: int) -> dict:
        return {h: d for h, d in enumerate(self.digits(x)) if d}

    def _mul_digits(self, da: list, db: list) -> list:
        if self.mode == "standard":
            return super()._mul_digits(da, db)
        # the degree of the second factor's part twists the first's position
        badd, bmul = self.base.add, self.base.mul
        out = [0] * self.ndigits
        for h, c2 in enumerate(db):
            if not c2:
                continue
            for deg, part in self._parts[c2]:
                twist = self._twist[deg]
                for g, c1 in enumerate(da):
                    if c1:
                        pos = twist[g][h]
                        out[pos] = badd(out[pos], bmul(c1, part))
        return out

    def additive_generators(self) -> list[int]:
        gens = []
        for h in range(self.group.order):
            for g in self.base.additive_generators():
                gens.append(self.encode({h: g}))
        return gens

    def format_element(self, x: int) -> str:
        d = self.decode(x)
        if not d:
            return "0"
        terms = []
        for h in sorted(d):
            terms.append(f"{self.base.format_element(d[h])}*{self.group.format_element(h)}")
        return " + ".join(terms)


def group_ring_graded(base: Grading, group: FiniteGroup, mult_mode: str = "standard",
                      max_elements: int = STRUCTURED_ELEMENT_CAP) -> Grading:
    """Graded group ring: component g collects coefficients of degree g*h^-1
    at each position h.  The returned grading is fully validated; ring-law
    or grading failures surface as ValidationError with a witness.

    Multiplication is biadditive in both modes by construction (a bilinear
    map of digit vectors, with each coefficient split into its homogeneous
    parts), so associativity is checked exactly on triples of additive
    generators.  For a valid base grading the twisted positions compose
    associatively too; the check is a cheap defence.
    """
    if isinstance(base.group, IntegerGroup) or not _same_group(base.group, group):
        # the construction regrades RG by the same group that acts on positions
        raise ValidationError("base grading group must be the group ring's group")
    ring = GroupRingRing(base, group, mode=mult_mode, max_elements=max_elements)

    triple = associativity_witness(ring, ring.additive_generators())
    if triple is not None:
        raise ValidationError(
            f"group ring mode {mult_mode!r} is not associative", ("mulassoc",) + triple
        )

    components = {}
    for g in group.elements():
        per_pos = []
        for h in group.elements():
            need = group.op(g, group.inv(h))
            per_pos.append(sorted(base.component(need)))
        elems = []
        for combo in itertools.product(*per_pos):
            coeffs = {h: v for h, v in enumerate(combo) if v}
            elems.append(ring.encode(coeffs))
        if len(elems) > 1 or g == group.identity:
            components[g] = elems
    return verify_grading(ring, group, components)


def augmentation_map(ring: GroupRingRing, x: int) -> int:
    """Sum of the coefficients, landing in the base ring."""
    acc = 0
    for _h, c in ring.decode(x).items():
        acc = ring.base.add(acc, c)
    return acc


def augmentation_ideal(grading: Grading):
    """Kernel of the coefficient-sum map, with its nilpotency index if any.

    Returns (element set, nilpotency index or None).  The index k is the
    least with I^k = 0 where I^k is the additive span of k-fold products.
    """
    ring = grading.ring
    if not isinstance(ring, GroupRingRing):
        raise ValidationError("augmentation ideal requires a group ring")
    kernel = frozenset(x for x in ring.elements() if augmentation_map(ring, x) == 0)
    power = kernel
    k = 1
    seen = set()
    while power not in seen:
        if power == frozenset({0}):
            return kernel, k
        seen.add(power)
        products = {ring.mul(a, b) for a in power for b in kernel}
        power = additive_span(ring, products)
        k += 1
    return kernel, None


# ---------------------------------------------------------------------------
# amalgamations


class AmalgamationSpec:
    """Data for the fiber-style subring {(a, f(a)+j)} of A x B.

    ``f`` is a full element map A -> B given as a list; it must be a graded
    ring homomorphism and ``ideal`` a homogeneous ideal of B.  Both rings
    must be commutative.
    """

    def __init__(self, a: Grading, b: Grading, f: list[int], ideal: HomogeneousIdeal):
        self.a = a
        self.b = b
        self.f = list(f)
        self.ideal = ideal
        self.validate()

    def validate(self) -> None:
        a_ring, b_ring = self.a.ring, self.b.ring
        if not a_ring.is_commutative() or not b_ring.is_commutative():
            raise ValidationError("amalgamation requires commutative rings")
        if len(self.f) != a_ring.size:
            raise ValidationError("homomorphism map must cover the source ring")
        f = self.f
        if f[a_ring.one] != b_ring.one:
            raise ValidationError("homomorphism must preserve 1", ("one",))
        for x in a_ring.elements():
            for y in a_ring.elements():
                if f[a_ring.add(x, y)] != b_ring.add(f[x], f[y]):
                    raise ValidationError("map is not additive", ("add", x, y))
                if f[a_ring.mul(x, y)] != b_ring.mul(f[x], f[y]):
                    raise ValidationError("map is not multiplicative", ("mul", x, y))
        for g, comp in self.a.components.items():
            target = self.b.component(g)
            for x in comp:
                if f[x] not in target:
                    raise ValidationError("map is not degree preserving", ("degree", x, g))
        _ = self.ideal  # homogeneity established at ideal construction


def amalgamation(spec: AmalgamationSpec,
                 max_elements: int = STRUCTURED_ELEMENT_CAP) -> Grading:
    """The graded subring {(a, f(a)+j) : a in A, j in J} of A x B."""
    a_ring, b_ring = spec.a.ring, spec.b.ring
    if a_ring.size * len(spec.ideal) > max_elements:
        raise ResourceLimitError("amalgamation exceeds element cap", limit=max_elements)
    prod = ProductRing([a_ring, b_ring], max_elements=max_elements)
    elems = {
        prod.encode((x, b_ring.add(spec.f[x], j)))
        for x in a_ring.elements()
        for j in spec.ideal.elements
    }
    sub, index, _members = subring_from_elements(
        prod, elems, label=f"{a_ring.label}><{b_ring.label}|J{len(spec.ideal)}"
    )
    group = spec.a.group
    comps = {}
    degrees = set(spec.a.components) | set(spec.b.components)
    for g in degrees:
        comp_a = spec.a.component(g)
        comp_j = spec.b.component(g) & spec.ideal.elements
        part = {
            index[prod.encode((x, b_ring.add(spec.f[x], j)))]
            for x in comp_a
            for j in comp_j
        }
        comps[g] = sorted(part)
    return verify_grading(sub, group, comps)


def image_subring_grading(spec: AmalgamationSpec) -> Grading:
    """The graded subring f(A) + J of B (the second projection's image).

    Component of degree g is generated by f(A_g) together with J ∩ B_g.
    """
    b_ring = spec.b.ring
    elems = {
        b_ring.add(spec.f[x], j) for x in spec.a.ring.elements() for j in spec.ideal.elements
    }
    sub, index, _ = subring_from_elements(b_ring, elems, label=f"f(A)+J<{b_ring.label}")
    comps = {}
    for g in set(spec.a.components) | set(spec.b.components):
        gens = {spec.f[x] for x in spec.a.component(g)}
        gens |= spec.b.component(g) & spec.ideal.elements
        span = additive_span(b_ring, gens)
        if not span <= elems:
            raise ValidationError("component escapes the subring", ("span", g))
        comps[g] = sorted(index[y] for y in span)
    return verify_grading(sub, spec.a.group, comps)


# ---------------------------------------------------------------------------
# products


def product_grading(gradings: list[Grading],
                    max_elements: int = STRUCTURED_ELEMENT_CAP) -> Grading:
    """Componentwise grading on the product of same-group graded rings."""
    if not gradings:
        raise ValidationError("empty product")
    group = gradings[0].group
    for g in gradings[1:]:
        if not _same_group(group, g.group):
            raise ValidationError("product factors must share a grading group")
    ring = ProductRing([g.ring for g in gradings], max_elements=max_elements)
    degrees = set()
    for g in gradings:
        degrees |= set(g.components)
    comps = {}
    for d in degrees:
        per = [sorted(g.component(d)) for g in gradings]
        elems = [ring.encode(combo) for combo in itertools.product(*per)]
        comps[d] = elems
    return verify_grading(ring, group, comps)


def _same_group(g1, g2) -> bool:
    if isinstance(g1, IntegerGroup) or isinstance(g2, IntegerGroup):
        return isinstance(g1, IntegerGroup) and isinstance(g2, IntegerGroup)
    return g1 is g2 or g1.table == g2.table


__all__ = [
    "SigmaVector",
    "MatrixRing",
    "TriangularRing",
    "GroupRingRing",
    "AmalgamationSpec",
    "matrix_graded",
    "triangular_graded",
    "zero_diagonal_ideal",
    "diagonal_z_grading",
    "group_ring_graded",
    "augmentation_map",
    "augmentation_ideal",
    "amalgamation",
    "image_subring_grading",
    "product_grading",
]
