"""Finite groups on index tables, plus the infinite cyclic grading group.

Group elements are opaque indices ``0..order-1`` with the identity fixed at
index 0; the infinite cyclic group uses plain (possibly negative) ints.
Both expose the same duck-typed surface: ``identity``, ``op``, ``inv``,
``power`` and ``order`` (``None`` when infinite).
"""

from .errors import ValidationError


def _generators(table: list[list[int]]) -> list[int]:
    """Each index, in order, outside the closure of 0 and the indices kept
    before it under the table's product; the kept indices generate the table
    without associativity, and a group keeps at most log2 of its order."""
    closure, kept = {0}, []
    for g in range(len(table)):
        if g not in closure:
            kept.append(g)
            new = {g}
            while new:
                closure |= new
                new = {table[x][y] for x in closure for y in closure} - closure
    return kept


class FiniteGroup:
    """A finite group given by its multiplication table on indices."""

    def __init__(self, table: list[list[int]], name: str = "", validate: bool = True):
        self.order = len(table)
        self.table = table
        self.name = name or f"group{self.order}"
        self.identity = 0
        if validate:
            self._validate()
        self.inverse = [self._find_inverse(i) for i in range(self.order)]

    def _validate(self) -> None:
        n = self.order
        if n == 0:
            raise ValidationError("empty group table")
        for row in self.table:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise ValidationError("group table is not square over valid indices")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValidationError("index 0 is not an identity", ("identity", i))
        # Light's test: the elements s with (a*s)*c = a*(s*c) for all a, c
        # are closed under the product, so checking a generating set is exact
        t = self.table
        for s in _generators(t):
            for a in range(n):
                got, want = t[t[a][s]], [t[a][y] for y in t[s]]
                if got != want:
                    c = next(c for c in range(n) if got[c] != want[c])
                    raise ValidationError("group table is not associative", ("assoc", a, s, c))

    def _find_inverse(self, i: int) -> int:
        for j in range(self.order):
            if self.table[i][j] == 0 and self.table[j][i] == 0:
                return j
        raise ValidationError("element has no inverse", ("inverse", i))

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        acc = 0
        base = g
        while k:
            if k & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            k >>= 1
        return acc

    def elements(self) -> range:
        return range(self.order)

    def format_element(self, g: int) -> str:
        return "e" if g == 0 else f"g{g}"

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


class IntegerGroup:
    """The additive group of integers, used as an infinite grading group."""

    identity = 0
    order = None
    name = "Z"

    def op(self, a: int, b: int) -> int:
        return a + b

    def inv(self, a: int) -> int:
        return -a

    def power(self, g: int, k: int) -> int:
        return g * k

    def format_element(self, g: int) -> str:
        return str(g)

    def __repr__(self) -> str:
        return "IntegerGroup()"

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerGroup)

    def __hash__(self) -> int:
        return hash("IntegerGroup")


INTEGER_GROUP = IntegerGroup()


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n, generated by index 1."""
    if n < 1:
        raise ValidationError(f"cyclic group order must be >= 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with elements packed as a*|H| + b."""
    nh = h.order
    order = g.order * nh

    def pack(a: int, b: int) -> int:
        return a * nh + b

    table = [[0] * order for _ in range(order)]
    for a1 in range(g.order):
        for b1 in range(nh):
            row = table[pack(a1, b1)]
            for a2 in range(g.order):
                ga = g.table[a1][a2]
                for b2 in range(nh):
                    row[pack(a2, b2)] = pack(ga, h.table[b1][b2])
    return FiniteGroup(table, name=f"{g.name}x{h.name}")


def element_order(group: FiniteGroup, g: int) -> int:
    """Least k >= 1 with g^k = identity."""
    acc = g
    k = 1
    while acc != 0:
        acc = group.op(acc, g)
        k += 1
    return k


def is_m_torsion_free(group, m: int) -> bool:
    """True iff g^m = identity has only the trivial solution.

    Works for both FiniteGroup and IntegerGroup; for the integers this holds
    for every m >= 1 since m*g = 0 forces g = 0.
    """
    if m < 1:
        raise ValidationError(f"torsion exponent must be >= 1, got {m}")
    if isinstance(group, IntegerGroup):
        return True
    return all(group.power(g, m) != 0 for g in range(1, group.order))


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def is_p_group(group: FiniteGroup, p: int) -> bool:
    """True iff every element order is a power of the prime p."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    for g in group.elements():
        k = element_order(group, g)
        while k % p == 0:
            k //= p
        if k != 1:
            return False
    return True
