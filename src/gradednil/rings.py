"""Finite unital rings on element indices, with exact classification queries.

Every ring exposes elements as indices ``0..size-1`` where index 0 is the
zero element.  Small leaf rings (Z_n, GF(q), quotients, subrings) carry
explicit operation tables.  Structured rings (products here, and the matrix
and group rings of :mod:`gradednil.constructions`) compute each result with
a kernel on the element's digits; with at most ``TABLE_ELEMENT_CAP``
elements they memoize every result in a flat table filled on first use, so a
ring that is only built never pays for a quadratic table.

A ring given by raw tables passes :func:`check_ring_axioms`, which decides
every ring law exactly at any size: the laws with three arguments are
checked with one argument running over a generating set of the additive
group (at most log2 of the size), not over every triple.

Nilpotency and inverses come from one memoized walk of each element's powers
(:func:`power_orbit`); m-potency is computed from :meth:`FiniteRing.power`
alone, so certificates that assert it are checked independently of the walk.
"""

from array import array
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ResourceLimitError, ValidationError
from .groups import is_prime

# Classical radical computation is quadratic in ring size.
RADICAL_SIZE_CAP = 4096

# Cap on the entries of each full table of a leaf ring (Z_n, GF(q)).
LEAF_TABLE_CAP = 1 << 16

# Structured rings up to this size memoize add/mul in flat array('H') tables:
# element indices below 256 and the miss marker 0xFFFF all fit in 16 bits, and
# a full n*n table then takes at most 128 KiB.
TABLE_ELEMENT_CAP = 256
_MISS = 0xFFFF


class FiniteRing:
    """Base class: finite unital ring on indices with 0 as the zero element."""

    size: int
    one: int
    label: str
    zero = 0

    def __init__(self):
        self._memo: dict = {}

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def elements(self) -> range:
        return range(self.size)

    def power(self, a: int, k: int) -> int:
        """a^k for k >= 0 (k = 0 gives the identity)."""
        if k < 0:
            raise ValidationError("negative ring powers are undefined")
        acc = self.one
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def from_int(self, n: int) -> int:
        """Image of the integer n under the canonical map k -> k*1."""
        acc = 0
        step = self.one if n >= 0 else self.neg(self.one)
        for _ in range(abs(n)):
            acc = self.add(acc, step)
        return acc

    def additive_generators(self) -> list[int]:
        """A small set of elements whose additive span is the whole ring:
        each element, in index order, that the earlier ones do not span."""
        gens = self._memo.get("addgens")
        if gens is None:
            gens = self._memo["addgens"] = additive_closure(self, self.elements())[1]
        return gens

    def is_commutative(self) -> bool:
        val = self._memo.get("commutative")
        if val is None:
            val = True
            for a in self.elements():
                for b in self.elements():
                    if self.mul(a, b) != self.mul(b, a):
                        val = False
                        break
                if not val:
                    break
            self._memo["commutative"] = val
        return val

    def format_element(self, x: int) -> str:
        return str(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label}, size={self.size})"


class TableRing(FiniteRing):
    """Ring backed by explicit addition/multiplication index tables."""

    def __init__(
        self,
        add_table: list[list[int]],
        mul_table: list[list[int]],
        one: int,
        label: str = "",
        element_names: list[str] | None = None,
        validate: bool = True,
    ):
        super().__init__()
        self.size = len(add_table)
        self.add_table = add_table
        self.mul_table = mul_table
        self.one = one
        self.label = label or f"ring{self.size}"
        self.element_names = element_names
        self._neg = self._build_neg()
        if validate:
            check_ring_axioms(self)

    def _build_neg(self) -> list[int]:
        neg = [None] * self.size
        for a in range(self.size):
            row = self.add_table[a]
            for b in range(self.size):
                if row[b] == 0:
                    neg[a] = b
                    break
            if neg[a] is None:
                raise ValidationError("element has no additive inverse", ("neg", a))
        return neg

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def format_element(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)


def _lazy_table(ring: FiniteRing, length: int):
    if ring.size > TABLE_ELEMENT_CAP:
        return None
    return array("H", [_MISS]) * length


class StructuredRing(FiniteRing):
    """Ring whose subclass computes results with index kernels ``_add``,
    ``_neg`` and ``_mul``.

    With at most TABLE_ELEMENT_CAP elements each result is computed once and
    kept in a flat table; the tables are allocated on the first call.  Larger
    rings run the kernel on every call.
    """

    @cached_property
    def _add_table(self):
        return _lazy_table(self, self.size * self.size)

    @cached_property
    def _mul_table(self):
        return _lazy_table(self, self.size * self.size)

    @cached_property
    def _neg_table(self):
        return _lazy_table(self, self.size)

    def add(self, a: int, b: int) -> int:
        table = self._add_table
        if table is None:
            return self._add(a, b)
        k = a * self.size + b
        v = table[k]
        if v == _MISS:
            v = table[k] = self._add(a, b)
        return v

    def neg(self, a: int) -> int:
        table = self._neg_table
        if table is None:
            return self._neg(a)
        v = table[a]
        if v == _MISS:
            v = table[a] = self._neg(a)
        return v

    def mul(self, a: int, b: int) -> int:
        table = self._mul_table
        if table is None:
            return self._mul(a, b)
        k = a * self.size + b
        v = table[k]
        if v == _MISS:
            v = table[k] = self._mul(a, b)
        return v

    def _add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _neg(self, a: int) -> int:
        raise NotImplementedError

    def _mul(self, a: int, b: int) -> int:
        raise NotImplementedError


def additive_closure(ring: FiniteRing, gens) -> tuple[frozenset[int], list[int]]:
    """Additive span of `gens`, with the generators kept to build it.

    Returns (span, kept).  Each of `gens` is kept, in order, when the span
    so far misses it; the span then grows by its sums with the multiples
    g, g+g, (g+g)+g, ... of the kept g until a multiple is already in it.
    For a group law each kept generator at least doubles the span, so at
    most log2 of its size are kept.

    Every member added is a sum of two members already present, starting
    from 0, so the span lies in the closure of {0} and the kept generators
    under `+` whether or not `+` is associative (0 must be an identity, or
    the loop need not end).  When `gens` offers every element, the kept
    generators therefore generate (R, +) outright, which
    :func:`check_ring_axioms` relies on before associativity is known.
    """
    span = {0}
    kept: list[int] = []
    add = ring.add
    for g in gens:
        if g in span:
            continue
        kept.append(g)
        base = list(span)
        k = g
        while k not in span:
            span.update(add(x, k) for x in base)
            k = add(k, g)
    return frozenset(span), kept


def associativity_witness(ring: FiniteRing, gens) -> tuple | None:
    """First triple (a, b, c) of `gens` with (ab)c != a(bc), or None.

    For a biadditive multiplication and additive generators `gens` this
    decides associativity of the whole ring.
    """
    mul = ring.mul
    gens = list(gens)
    prod = {(a, b): mul(a, b) for a in gens for b in gens}
    for a in gens:
        for b in gens:
            ab = prod[a, b]
            for c in gens:
                if mul(ab, c) != mul(a, prod[b, c]):
                    return a, b, c
    return None


def _first_mismatch(got: list, want: list) -> int:
    return next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)


def check_ring_axioms(ring: FiniteRing) -> None:
    """Assert the ring laws exactly, at any size.

    The zero, negation and identity laws are checked for every element and
    commutativity of `+` for every pair.  Every other law is checked with
    one argument running over a generating set S of (R, +) from
    :func:`additive_closure` (Light's associativity test for `+`, and
    Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1.2):

    - (a + s) + c = a + (s + c) for all a, c and s in S.  The elements that
      pass for every a, c are closed under `+`, so `+` is associative.
    - (a + s)x = ax + sx and x(a + s) = xa + xs for all a, x and s in S.
      By induction over sums of generators, multiplication is biadditive.
    - (ab)c = a(bc) on S^3.  The associator is then additive in each
      argument, so it vanishes everywhere.

    With |S| <= log2 n this is O(n^2 log n) work instead of n^3, and it
    accepts exactly the rings the triple sweep accepts.  Raises
    ValidationError with a witness tuple on the first violated law; a
    witness from the generator checks names a generator in the middle
    (``addassoc``) or last (``ldist``/``rdist``) position, or three
    generators (``mulassoc``).
    """
    n = ring.size
    if n == 0:
        raise ValidationError("empty ring")
    for a in range(n):
        if ring.add(0, a) != a or ring.add(a, 0) != a:
            raise ValidationError("0 is not an additive identity", ("zero", a))
        if ring.add(a, ring.neg(a)) != 0:
            raise ValidationError("negation law fails", ("neg", a))
        if ring.mul(ring.one, a) != a or ring.mul(a, ring.one) != a:
            raise ValidationError("1 is not a multiplicative identity", ("one", a))
    elems = range(n)
    add_rows = [[ring.add(a, b) for b in elems] for a in elems]
    add_cols = [list(col) for col in zip(*add_rows)]
    for a in elems:
        if add_rows[a] != add_cols[a]:
            b = _first_mismatch(add_rows[a], add_cols[a])
            raise ValidationError("addition is not commutative", ("addcomm", a, b))
    gens = additive_closure(ring, elems)[1]
    for s in gens:
        s_plus = add_rows[s]
        for a in elems:
            row_a = add_rows[a]
            got = add_rows[row_a[s]]
            want = [row_a[y] for y in s_plus]
            if got != want:
                raise ValidationError(
                    "addition is not associative", ("addassoc", a, s, _first_mismatch(got, want))
                )
    mul_rows = [[ring.mul(a, b) for b in elems] for a in elems]
    mul_cols = [list(col) for col in zip(*mul_rows)]
    for s in gens:
        for a in elems:
            a_s = add_rows[a][s]
            # (a + s)x against ax + sx, over every x
            got = mul_rows[a_s]
            want = [add_rows[p][q] for p, q in zip(mul_rows[a], mul_rows[s])]
            if got != want:
                raise ValidationError(
                    "right distributivity fails", ("rdist", _first_mismatch(got, want), a, s)
                )
            # x(a + s) against xa + xs, over every x
            got = mul_cols[a_s]
            want = [add_rows[p][q] for p, q in zip(mul_cols[a], mul_cols[s])]
            if got != want:
                raise ValidationError(
                    "left distributivity fails", ("ldist", _first_mismatch(got, want), a, s)
                )
    triple = associativity_witness(ring, gens)
    if triple is not None:
        raise ValidationError("multiplication is not associative", ("mulassoc",) + triple)


# ---------------------------------------------------------------------------
# constructors


def make_zn(n: int) -> TableRing:
    """Integers modulo n (n = 1 gives the zero ring)."""
    if n < 1:
        raise ValidationError(f"modulus must be >= 1, got {n}")
    if n * n > LEAF_TABLE_CAP:
        raise ResourceLimitError(f"Z{n} tables exceed cap", limit=LEAF_TABLE_CAP)
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    mul = [[(i * j) % n for j in range(n)] for i in range(n)]
    return TableRing(add, mul, one=1 % n, label=f"Z{n}", validate=False)


def _poly_mul_mod(a: tuple, b: tuple, modulus: tuple, p: int) -> tuple:
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    return tuple(prod[:k])


def _poly_divides(d: tuple, f: tuple, p: int) -> bool:
    """Whether monic d divides f over Z_p (coefficients low-order first)."""
    rem = list(f)
    dd = len(d) - 1
    inv_lead = pow(d[-1], p - 2, p)  # d monic => 1, kept for clarity
    while len(rem) - 1 >= dd:
        c = (rem[-1] * inv_lead) % p
        shift = len(rem) - 1 - dd
        if c:
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - c * d[j]) % p
        rem.pop()
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return all(c == 0 for c in rem)


def _is_irreducible(f: tuple, p: int) -> bool:
    k = len(f) - 1
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            d = _digits(idx, p, deg) + (1,)
            if _poly_divides(d, f, p):
                return False
    return True


def _digits(idx: int, base: int, width: int) -> tuple:
    out = []
    for _ in range(width):
        out.append(idx % base)
        idx //= base
    return tuple(out)


def lowest_irreducible(p: int, k: int) -> tuple:
    """Monic irreducible x^k + ... over Z_p with the smallest low-coefficient
    encoding; fixes the GF(p^k) tables reproducibly."""
    for idx in range(p**k):
        f = _digits(idx, p, k) + (1,)
        if _is_irreducible(f, p):
            return f
    raise ValidationError(f"no irreducible of degree {k} over Z_{p}")  # unreachable


def make_gf(p: int, k: int = 1) -> TableRing:
    """The field GF(p^k), built from a fixed irreducible modulus.

    The table bound is checked before primality, so an oversized p costs no
    trial division, and q = p^k is formed a factor at a time: past the cap
    within nine factors whenever |p| >= 2."""
    if k < 1:
        raise ValidationError(f"extension degree must be >= 1, got {k}")
    q = 1
    for _ in range(min(k, 9)):
        q *= p
        if q * q > LEAF_TABLE_CAP:
            raise ResourceLimitError(f"GF({p}^{k}) tables exceed cap", limit=LEAF_TABLE_CAP)
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if k == 1:
        ring = make_zn(p)
        ring.label = f"GF({p})"
        return ring
    modulus = lowest_irreducible(p, k)
    elems = [_digits(i, p, k) for i in range(q)]
    index = {e: i for i, e in enumerate(elems)}
    add = [
        [index[tuple((x + y) % p for x, y in zip(a, b))] for b in elems] for a in elems
    ]
    mul = [[index[_poly_mul_mod(a, b, modulus, p)] for b in elems] for a in elems]

    def name(e):
        if not any(e):
            return "0"
        terms = []
        for i in range(k - 1, -1, -1):
            c = e[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms)

    return TableRing(
        add, mul, one=index[(1,) + (0,) * (k - 1)], label=f"GF({q})",
        element_names=[name(e) for e in elems], validate=False,
    )


# ---------------------------------------------------------------------------
# element classification


def power_orbit(ring: FiniteRing, x: int) -> tuple[int | None, int | None]:
    """(nilpotency index, inverse) of x, each None when x has none.

    One walk of x, x^2, x^3, ... stops at 0, at 1 or at the first repeated
    power; past any of them the powers only repeat.  x^k = 0 first at k
    gives the index k.  x^a = 1 makes x a unit with the two-sided inverse
    x^(a-1), and inverses are unique.  Memoized per ring and element.
    """
    orbits = ring._memo.setdefault("orbits", {})
    found = orbits.get(x)
    if found is None:
        one = ring.one
        seen = set()
        prev, p, k = one, x, 1
        while p != 0 and p != one and p not in seen:
            seen.add(p)
            prev, p = p, ring.mul(p, x)
            k += 1
        found = orbits[x] = (k if p == 0 else None, prev if p == one else None)
    return found


def nilpotency_index(ring: FiniteRing, x: int) -> int | None:
    """Least k >= 1 with x^k = 0, or None."""
    return power_orbit(ring, x)[0]


def is_nilpotent(ring: FiniteRing, x: int) -> bool:
    return nilpotency_index(ring, x) is not None


def is_m_potent(ring: FiniteRing, x: int, m: int) -> bool:
    """Whether x^m = x (m >= 2; m = 2 is the idempotent case)."""
    if m < 2:
        raise ValidationError(f"potency exponent must be >= 2, got {m}")
    return ring.power(x, m) == x


def m_potents(ring: FiniteRing, m: int) -> list[int]:
    key = ("mpotents", m)
    out = ring._memo.get(key)
    if out is None:
        out = [x for x in ring.elements() if is_m_potent(ring, x, m)]
        ring._memo[key] = out
    return out


def idempotents(ring: FiniteRing) -> list[int]:
    return m_potents(ring, 2)


def inverse_of(ring: FiniteRing, x: int) -> int | None:
    """Two-sided inverse of x, or None."""
    return power_orbit(ring, x)[1]


def is_unit(ring: FiniteRing, x: int) -> bool:
    return inverse_of(ring, x) is not None


def unit_map(ring: FiniteRing) -> dict[int, int]:
    """All units with their inverses, by ascending unit."""
    return {x: inv for x in ring.elements() if (inv := power_orbit(ring, x)[1]) is not None}


def is_nil_set(ring: FiniteRing, elems) -> bool:
    return all(is_nilpotent(ring, x) for x in elems)


def jacobson_radical(ring: FiniteRing, max_size: int = RADICAL_SIZE_CAP) -> frozenset[int]:
    """{ z : 1 - x*z is a unit for all x }, exact for finite rings."""
    if ring.size > max_size:
        raise ResourceLimitError(
            f"radical of a {ring.size}-element ring exceeds cap", limit=max_size
        )
    rad = ring._memo.get("jacobson")
    if rad is not None:
        return rad
    units = unit_map(ring)
    one = ring.one
    rad = []
    for z in ring.elements():
        if all(ring.sub(one, ring.mul(x, z)) in units for x in ring.elements()):
            rad.append(z)
    rad = frozenset(rad)
    _assert_two_sided_ideal(ring, rad)
    ring._memo["jacobson"] = rad
    return rad


def _assert_two_sided_ideal(ring: FiniteRing, ideal: frozenset) -> None:
    for a in ideal:
        if ring.neg(a) not in ideal:
            raise ValidationError("set not closed under negation", ("neg", a))
        for b in ideal:
            if ring.add(a, b) not in ideal:
                raise ValidationError("set not closed under addition", ("add", a, b))
        for r in ring.elements():
            if ring.mul(r, a) not in ideal or ring.mul(a, r) not in ideal:
                raise ValidationError("set not closed under multiplication", ("mul", r, a))


def verify_two_sided_ideal(ring: FiniteRing, elems) -> frozenset[int]:
    """Check ideal closure, returning the set; witness-carrying rejection."""
    ideal = frozenset(elems)
    if 0 not in ideal:
        raise ValidationError("ideal must contain 0", ("zero",))
    _assert_two_sided_ideal(ring, ideal)
    return ideal


# ---------------------------------------------------------------------------
# additive spans, quotients, products, subrings


def additive_span(ring: FiniteRing, gens) -> frozenset[int]:
    """Smallest additive subgroup containing `gens`."""
    return additive_closure(ring, gens)[0]


def quotient_ring(ring: FiniteRing, ideal) -> tuple[TableRing, list[int]]:
    """Quotient by a verified two-sided ideal; returns (ring, projection).

    Cosets are indexed by ascending least representative, so the zero coset
    keeps index 0.
    """
    ideal = verify_two_sided_ideal(ring, ideal)
    proj: list[int | None] = [None] * ring.size
    reps: list[int] = []
    for x in ring.elements():
        if proj[x] is None:
            cid = len(reps)
            reps.append(x)
            for i in ideal:
                proj[ring.add(x, i)] = cid
    n = len(reps)
    add = [[proj[ring.add(reps[i], reps[j])] for j in range(n)] for i in range(n)]
    mul = [[proj[ring.mul(reps[i], reps[j])] for j in range(n)] for i in range(n)]
    names = [f"{ring.format_element(r)}+I" for r in reps]
    quot = TableRing(
        add, mul, one=proj[ring.one], label=f"{ring.label}/I({len(ideal)})",
        element_names=names, validate=False,
    )
    return quot, proj  # type: ignore[return-value]


class ProductRing(StructuredRing):
    """Direct product with componentwise operations; indices are mixed-radix."""

    def __init__(self, factors: list[FiniteRing], max_elements: int = 1 << 20):
        super().__init__()
        if not factors:
            raise ValidationError("product of zero rings is not supported")
        self.factors = list(factors)
        size = 1
        for f in factors:
            size *= f.size
        if size > max_elements:
            raise ResourceLimitError("product ring exceeds element cap", limit=max_elements)
        self.size = size
        self.one = self.encode([f.one for f in factors])
        self.label = " x ".join(f.label for f in factors)

    def encode(self, parts) -> int:
        idx = 0
        for f, p in zip(reversed(self.factors), reversed(list(parts))):
            idx = idx * f.size + p
        return idx

    def decode(self, x: int) -> tuple:
        out = []
        for f in self.factors:
            x, r = divmod(x, f.size)
            out.append(r)
        return tuple(out)

    def _add(self, a: int, b: int) -> int:
        return self.encode(
            [f.add(x, y) for f, x, y in zip(self.factors, self.decode(a), self.decode(b))]
        )

    def _neg(self, a: int) -> int:
        return self.encode([f.neg(x) for f, x in zip(self.factors, self.decode(a))])

    def _mul(self, a: int, b: int) -> int:
        return self.encode(
            [f.mul(x, y) for f, x, y in zip(self.factors, self.decode(a), self.decode(b))]
        )

    def additive_generators(self) -> list[int]:
        gens = []
        for i, f in enumerate(self.factors):
            for g in f.additive_generators():
                parts = [0] * len(self.factors)
                parts[i] = g
                gens.append(self.encode(parts))
        return gens

    def format_element(self, x: int) -> str:
        parts = self.decode(x)
        return "(" + ", ".join(f.format_element(p) for f, p in zip(self.factors, parts)) + ")"


def product_ring(factors: list[FiniteRing], max_elements: int = 1 << 20) -> ProductRing:
    return ProductRing(factors, max_elements=max_elements)


def subring_from_elements(ring: FiniteRing, elems, label: str = "") -> tuple[TableRing, dict, list]:
    """Materialize a closed subset containing 0 and 1 as a TableRing.

    Returns (subring, index_of: ambient -> sub, element_of: sub -> ambient).
    The subset must be closed under add/neg/mul; violations are witnessed.
    """
    elems = sorted(set(elems))
    index = {x: i for i, x in enumerate(elems)}
    if 0 not in index:
        raise ValidationError("subring must contain 0")
    if ring.one not in index:
        raise ValidationError("subring must contain 1")
    n = len(elems)
    add = [[None] * n for _ in range(n)]
    mul = [[None] * n for _ in range(n)]
    for i, x in enumerate(elems):
        if ring.neg(x) not in index:
            raise ValidationError("subset not closed under negation", ("neg", x))
        for j, y in enumerate(elems):
            s = ring.add(x, y)
            p = ring.mul(x, y)
            if s not in index or p not in index:
                raise ValidationError("subset not closed", ("closure", x, y))
            add[i][j] = index[s]
            mul[i][j] = index[p]
    sub = TableRing(
        add, mul, one=index[ring.one], label=label or f"sub({ring.label},{n})",
        element_names=[ring.format_element(x) for x in elems], validate=False,
    )
    return sub, index, elems


# ---------------------------------------------------------------------------
# classification record


@dataclass
class ElementClass:
    """Classification snapshot of one element (used by report rendering)."""

    element: int
    is_nilpotent: bool
    nilpotency_index: int | None
    is_unit: bool
    inverse: int | None
    m_potent_for: dict[int, bool] = field(default_factory=dict)


def classify_element(ring: FiniteRing, x: int, ms=()) -> ElementClass:
    idx, inv = power_orbit(ring, x)
    return ElementClass(
        element=x,
        is_nilpotent=idx is not None,
        nilpotency_index=idx,
        is_unit=inv is not None,
        inverse=inv,
        m_potent_for={m: is_m_potent(ring, x, m) for m in ms},
    )
