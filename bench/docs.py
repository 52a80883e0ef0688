"""Seeded ring description documents for the ``construct`` workload.

The document list has a fixed skeleton: every ring kind, at fixed sizes from
2 to 4096 elements, with ``table`` documents on both sides of the library's
64-element law-check cap.  The seed only chooses between variants of equal
shape and cost: relabelled tables, the grading group of trivially graded
leaves, cyclic or split presentations of group-ring groups, equivalent sigma
vectors, associate ideal generators, the order of product factors and the
``m`` exponent.  Every seed builds rings of the same kinds and sizes, so a
pass costs about the same on any seed.

``ring_size`` computes each document's ring size from the document alone,
without the library, as the reference the workload checks against.
"""

import json
import math
import random


def _cyclic(n):
    return {"kind": "cyclic", "n": n}


def _group(order, rng):
    """A group of the given order: cyclic, or a product of two cyclics when
    the order splits into coprime factors (isomorphic, labelled differently)."""
    splits = [(a, order // a) for a in range(2, order)
              if order % a == 0 and a < order // a and math.gcd(a, order // a) == 1]
    if splits and rng.random() < 0.5:
        a, b = rng.choice(splits)
        return {"kind": "product", "factors": [_cyclic(a), _cyclic(b)]}
    return _cyclic(order)


def _group_order(doc):
    if doc["kind"] == "cyclic":
        return doc["n"]
    return math.prod(_group_order(f) for f in doc["factors"])


def _trivially_graded(ring, group):
    return {**ring, "grading": {"group": group, "trivial": True}}


def _base(tag, group=None):
    """A trivially graded leaf ring: Z_n for an int tag, GF(q) for "gfQ"."""
    if isinstance(tag, str):
        ring = _gf(int(tag[2:]))
    else:
        ring = {"kind": "zn", "n": tag}
    return _trivially_graded(ring, group or _cyclic(1))


def _gf(q):
    for p in (2, 3, 5, 7, 11, 13):
        k = round(math.log(q, p))
        if p**k == q:
            return {"kind": "gf", "p": p, "k": k}
    raise ValueError(f"{q} is not a supported prime power")


def _sigma(n, order, nontrivial, rng):
    """A sigma vector over C_order; nontrivial ones are never constant, so
    each seed gets the same number of grading components."""
    while True:
        sigma = [rng.randrange(order) for _ in range(n)]
        if (len(set(sigma)) > 1) == nontrivial:
            return sigma


def _unit_multiple(d, n, rng):
    """An associate of d in Z_n: it generates the same ideal as d."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [1]
    return (d * rng.choice(units)) % n


def _table(moduli, rng):
    """Add/mul tables of Z_m1 x Z_m2 x ..., with the non-zero elements
    relabelled by a seeded permutation."""
    size = math.prod(moduli)

    def digits(x):
        out = []
        for q in moduli:
            x, r = divmod(x, q)
            out.append(r)
        return out

    def undigits(ds):
        x = 0
        for q, d in zip(reversed(moduli), reversed(ds)):
            x = x * q + d
        return x

    relabel = [0] + rng.sample(range(1, size), size - 1)
    elems = [digits(x) for x in range(size)]
    add = [[0] * size for _ in range(size)]
    mul = [[0] * size for _ in range(size)]
    for x, dx in enumerate(elems):
        for y, dy in enumerate(elems):
            s = undigits([(a + b) % q for a, b, q in zip(dx, dy, moduli)])
            p = undigits([(a * b) % q for a, b, q in zip(dx, dy, moduli)])
            add[relabel[x]][relabel[y]] = relabel[s]
            mul[relabel[x]][relabel[y]] = relabel[p]
    one = relabel[undigits([1 % q for q in moduli])]
    return {"kind": "table", "size": size, "add": add, "mul": mul, "one": one}


# (kind, shape) slots.  Base rings are tags: n for Z_n, "gfQ" for GF(Q).  The
# slot count is odd: with the same number of passes pooled, the median item
# then falls inside one document's copies, not between two documents.
_SKELETON = (
    [("zn", n) for n in (2, 6, 12, 30, 60, 96, 128, 180, 256)]
    + [("gf", q) for q in (2, 4, 8, 9, 16, 25, 27, 49, 64, 81, 121, 125)]
    # moduli of the cyclic factors; 8 to 160 elements.  The library law-checks
    # tables up to 64 elements cubically, larger ones only quadratically:
    # sizes on both sides of that cap
    + [("table", m) for m in ((2, 4), (4, 4), (24,), (2, 16), (4, 12), (64,), (8, 8),
                              (65,), (6, 12), (9, 9), (96,), (2, 64), (4, 40))]
    # (n, base, grading group order, nontrivial sigma); 16 to 4096 elements
    + [("matrix", s) for s in ((2, 2, 2, True), (2, "gf3", 2, True), (2, "gf4", 2, True),
                               (2, 4, 2, False), (2, 5, 1, False), (2, 6, 2, True),
                               (3, 2, 2, True), (2, "gf8", 2, True))]
    # 8 to 4096 elements
    + [("triangular", s) for s in ((2, 2, 2, True), (2, "gf3", 2, True), (2, 4, 2, True),
                                   (3, 2, 2, True), (2, 5, 2, True), (2, 7, 1, False),
                                   (3, 3, 2, True), (2, "gf9", 3, True), (3, 4, 2, True),
                                   (2, "gf16", 2, True))]
    # (n, base)
    + [("diagonal_z", s) for s in ((2, 2), (2, "gf3"), (2, "gf4"), (2, 5), (3, 2), (2, 8))]
    # (base, group order, mode); 4 to 4096 elements
    + [("group_ring", s) for s in ((2, 2, "standard"), ("gf3", 2, "paper_twisted"),
                                   (2, 4, "auto"), (4, 2, "standard"),
                                   (3, 3, "paper_twisted"), (2, 6, "standard"),
                                   ("gf4", 3, "auto"), (2, 12, "standard"))]
    # factors: ("leaf", base) or (kind, n, base) for trivially graded
    # matrix/triangular rings; 6 to 4096 elements
    + [("product", s) for s in (
        (("leaf", 2), ("leaf", 3)),
        (("leaf", 4), ("leaf", "gf9")),
        (("triangular", 2, 2), ("triangular", 2, 3)),
        (("matrix", 2, 2), ("leaf", 16)),
        (("triangular", 2, 3), ("leaf", 3), ("leaf", "gf8")),
        (("triangular", 2, 4), ("leaf", 64)),
        (("matrix", 2, "gf4"), ("leaf", 16)),
        (("leaf", 64), ("matrix", 2, 2), ("leaf", 4)),
    )]
    # quotients of Z_n by an ideal of index d, and of T_n(base) by its
    # zero-diagonal ideal (n, base, grading group order)
    + [("quotient_zn", s) for s in ((4, 2), (12, 4), (36, 6), (100, 10), (256, 16))]
    + [("quotient_triangular", s) for s in ((2, 4, 2), (2, "gf9", 1), (3, 2, 2), (2, 8, 2))]
    # amalgamations of Z_n with itself along the ideal generated by d
    # (None: along the whole ring)
    + [("amalgamation", s) for s in ((4, 2), (4, None), (9, 3), (12, 4), (16, 2),
                                     (30, 5))]
)


def _product_factor(shape):
    if shape[0] == "leaf":
        return _base(shape[1])
    kind, n, b = shape
    return {"kind": kind, "base": _base(b), "n": n, "sigma": [0] * n}


def _ring_doc(kind, shape, rng):
    if kind == "zn":
        return _trivially_graded({"kind": "zn", "n": shape}, _cyclic(rng.choice((1, 2, 3))))
    if kind == "gf":
        return _trivially_graded(_gf(shape), _cyclic(rng.choice((1, 2, 3))))
    if kind == "table":
        return _table(shape, rng)
    if kind in ("matrix", "triangular"):
        n, b, order, nontrivial = shape
        return {"kind": kind, "base": _base(b, _cyclic(order)), "n": n,
                "sigma": _sigma(n, order, nontrivial, rng)}
    if kind == "diagonal_z":
        n, b = shape
        return {"kind": "diagonal_z", "base": _base(b), "n": n}
    if kind == "group_ring":
        b, order, mode = shape
        group = _group(order, rng)
        return {"kind": "group_ring", "base": _base(b, group), "group": group,
                "mode": mode}
    if kind == "product":
        factors = [_product_factor(f) for f in shape]
        rng.shuffle(factors)
        return {"kind": "product", "factors": factors}
    if kind == "quotient_zn":
        n, d = shape
        return {"kind": "quotient", "base": {"kind": "zn", "n": n},
                "ideal": {"generators": [_unit_multiple(d, n, rng)]}}
    if kind == "quotient_triangular":
        n, b, order = shape
        return {"kind": "quotient",
                "base": {"kind": "triangular", "base": _base(b, _cyclic(order)),
                         "n": n, "sigma": _sigma(n, order, order > 1, rng)},
                "ideal": {"zero_diagonal": True}}
    if kind == "amalgamation":
        n, d = shape
        ideal = {"all": True} if d is None else {"generators": [_unit_multiple(d, n, rng)]}
        leaf = {"kind": "zn", "n": n}
        return {"kind": "amalgamation", "a": leaf, "b": dict(leaf), "f": "identity",
                "ideal": ideal}
    raise ValueError(f"unknown skeleton kind {kind!r}")


def construct_documents(seed: int) -> list[tuple[str, str]]:
    """(name, document text) for every skeleton slot, variants drawn from `seed`."""
    rng = random.Random(seed)
    out = []
    for i, (kind, shape) in enumerate(_SKELETON):
        ring = _ring_doc(kind, shape, rng)
        name = f"gen-{i:03d}-{ring['kind']}"
        doc = {"name": name, "m": rng.randint(2, 5), "ring": ring, "checks": ["all"]}
        out.append((name, json.dumps(doc)))
    return out


def _ideal_size(ideal: dict, base: dict) -> int:
    if "all" in ideal:
        return ring_size(base)
    if "zero_diagonal" in ideal:
        n = base["n"]
        return ring_size(base["base"]) ** (n * (n - 1) // 2)
    (gen,) = ideal["generators"]
    if base["kind"] != "zn":
        raise ValueError("generator ideals are sized only in Z_n")
    n = base["n"]
    return n // math.gcd(gen, n)


def ring_size(doc: dict) -> int:
    """Number of elements of the ring a document describes."""
    kind = doc["kind"]
    if kind == "zn":
        return doc["n"]
    if kind == "gf":
        return doc["p"] ** doc.get("k", 1)
    if kind == "table":
        return doc["size"]
    if kind in ("matrix", "diagonal_z"):
        return ring_size(doc["base"]) ** (doc["n"] ** 2)
    if kind == "triangular":
        n = doc["n"]
        return ring_size(doc["base"]) ** (n * (n + 1) // 2)
    if kind == "group_ring":
        return ring_size(doc["base"]) ** _group_order(doc["group"])
    if kind == "product":
        return math.prod(ring_size(f) for f in doc["factors"])
    if kind == "quotient":
        return ring_size(doc["base"]) // _ideal_size(doc["ideal"], doc["base"])
    if kind == "amalgamation":
        return ring_size(doc["a"]) * _ideal_size(doc["ideal"], doc["b"])
    raise ValueError(f"unknown ring kind {kind!r}")
