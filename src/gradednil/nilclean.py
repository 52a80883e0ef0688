"""Decision procedures for (strongly) m-nil clean decompositions.

An element is m-nil clean when it splits as an m-potent (f^m = f) plus a
nilpotent; "strongly" additionally requires the parts to commute.  In the
graded variants both parts must be homogeneous, which by uniqueness of the
component decomposition pins them to the component of the element being
split.  All searches run in ascending element order so returned witnesses
are deterministic.
"""

from dataclasses import dataclass

from .errors import Falsification, ResourceLimitError, ValidationError
from .grading import Grading, NOT_HOMOGENEOUS, ZERO_DEGREE
from .groups import is_m_torsion_free
from .rings import (
    RADICAL_SIZE_CAP,
    FiniteRing,
    additive_closure,
    idempotents,
    inverse_of,
    is_m_potent,
    is_nil_set,
    is_nilpotent,
    is_unit,
    m_potents,
)


@dataclass
class NilCleanCertificate:
    """Witness x = f + n with f m-potent and n nilpotent."""

    x: int
    f: int
    n: int
    m: int
    commuting: bool
    degree: object = None  # group element, ZERO_DEGREE, or None when ungraded

    def verify(self, ring: FiniteRing, grading: Grading | None = None) -> None:
        if ring.add(self.f, self.n) != self.x:
            raise ValidationError("certificate parts do not sum to x", ("sum", self.x))
        if not is_m_potent(ring, self.f, self.m):
            raise ValidationError("certificate f is not m-potent", ("mpotent", self.f))
        if not is_nilpotent(ring, self.n):
            raise ValidationError("certificate n is not nilpotent", ("nilpotent", self.n))
        if self.commuting and ring.mul(self.f, self.n) != ring.mul(self.n, self.f):
            raise ValidationError("certificate parts do not commute", ("commute",))
        if grading is not None:
            xdeg = grading.degree_of(self.x)
            for part in (self.f, self.n):
                d = grading.degree_of(part)
                if d is NOT_HOMOGENEOUS:
                    raise ValidationError("certificate part not homogeneous", ("degree", part))
                if part != 0 and self.x != 0 and d != xdeg:
                    raise ValidationError("certificate part in wrong component", ("degree", part))


@dataclass
class PiRegularCertificate:
    """Witness a = f + u with f idempotent, u a unit, af = fa, faf nilpotent."""

    a: int
    f: int
    u: int

    def verify(self, ring: FiniteRing, grading: Grading | None = None) -> None:
        if ring.add(self.f, self.u) != self.a:
            raise ValidationError("certificate parts do not sum to a", ("sum", self.a))
        if ring.mul(self.f, self.f) != self.f:
            raise ValidationError("certificate f is not idempotent", ("idempotent", self.f))
        if not is_unit(ring, self.u):
            raise ValidationError("certificate u is not a unit", ("unit", self.u))
        if ring.mul(self.a, self.f) != ring.mul(self.f, self.a):
            raise ValidationError("a and f do not commute", ("commute",))
        faf = ring.mul(self.f, ring.mul(self.a, self.f))
        if not is_nilpotent(ring, faf):
            raise ValidationError("faf is not nilpotent", ("faf", faf))
        if grading is not None:
            for part in (self.f, self.u):
                if grading.degree_of(part) is NOT_HOMOGENEOUS:
                    raise ValidationError("certificate part not homogeneous", ("degree", part))


# ---------------------------------------------------------------------------
# witnesses


def _first_split(ring: FiniteRing, x: int, candidates, m: int, strong: bool,
                 grading: Grading | None = None, degree=None) -> NilCleanCertificate | None:
    """First candidate f, in the given order, with x - f nilpotent (and
    commuting with f if strong), as a verified certificate."""
    for f in candidates:
        n = ring.sub(x, f)
        if not is_nilpotent(ring, n):
            continue
        commuting = ring.mul(f, n) == ring.mul(n, f)
        if strong and not commuting:
            continue
        cert = NilCleanCertificate(x=x, f=f, n=n, m=m, commuting=commuting, degree=degree)
        cert.verify(ring, grading)
        return cert
    return None


def m_nil_clean_witness(ring: FiniteRing, x: int, m: int, strong: bool = False
                        ) -> NilCleanCertificate | None:
    """First (f, x - f) with f m-potent and x - f nilpotent, in element order."""
    return _first_split(ring, x, m_potents(ring, m), m, strong)


def graded_m_nil_clean_witness(grading: Grading, x: int, m: int, strong: bool = False
                               ) -> NilCleanCertificate | None:
    """Component-restricted witness for a homogeneous element.

    Uniqueness of the component decomposition forces both parts into the
    component of x (or to zero), so only m-potents there are tried.
    """
    ring = grading.ring
    deg = grading.degree_of(x)
    if deg is NOT_HOMOGENEOUS:
        raise ValidationError("element is not homogeneous", ("element", x))
    if x == 0:
        cert = NilCleanCertificate(x=0, f=0, n=0, m=m, commuting=True, degree=ZERO_DEGREE)
        cert.verify(ring, grading)
        return cert
    candidates = grading.component_m_potents(deg, m)
    if 0 not in candidates:
        candidates = [0] + candidates
    return _first_split(ring, x, candidates, m, strong, grading, deg)


def is_m_nil_clean_ring(ring: FiniteRing, m: int, strong: bool = False) -> bool:
    """Whether every element splits as m-potent + nilpotent (commuting if strong)."""
    return m_nil_clean_ring_witness(ring, m, strong) is None


def m_nil_clean_ring_witness(ring: FiniteRing, m: int, strong: bool = False) -> int | None:
    """First element with no certificate, or None if the ring qualifies."""
    for x in ring.elements():
        clean = (is_strongly_m_nil_clean(ring, x, m) if strong
                 else m_nil_clean_witness(ring, x, m) is not None)
        if not clean:
            return x
    return None


def is_strongly_m_nil_clean(ring: FiniteRing, x: int, m: int) -> bool:
    """Whether x is strongly m-nil clean: exactly when x^m - x is nilpotent.

    For m = 2 this is the strongly nil clean criterion of Diesl (*Nil clean
    rings*, J. Algebra 383, 2013).  Only if: x = f + n with fn = nf gives
    x^m - x = n*c with c commuting with n.  If: modulo its nilradical the
    finite commutative ring Z[x] is a product of finite fields in which x is
    m-potent; there the power of x prime to the residue characteristic lifts
    it to an m-potent f, glued across the factors by the idempotents of Z[x],
    and x - f is nilpotent.  That f lies in Z[x], which is why the test also
    decides graded strong cleanness on the identity component.
    """
    if m < 2:
        raise ValidationError(f"m must be >= 2, got {m}")
    return is_nilpotent(ring, ring.sub(ring.power(x, m), x))


def is_graded_m_nil_clean_ring(grading: Grading, m: int, strong: bool = False
                               ) -> tuple[bool, int | None]:
    """Decide whether every homogeneous element has a graded certificate.

    The identity component is scanned first (its cleanness is necessary);
    when the grading group is (m-1)-torsion free, a nonzero homogeneous
    m-potent cannot live outside the identity degree, so elements there
    qualify exactly when nilpotent and the scan uses that directly.
    Returns (decision, first failing homogeneous element or None), memoized
    on the grading.
    """
    if m < 2:
        raise ValidationError(f"m must be >= 2, got {m}")
    key = ("mnc", m, strong)
    out = grading._memo.get(key)
    if out is None:
        bad = _first_graded_unclean(grading, m, strong)
        out = grading._memo[key] = (bad is None, bad)
    return out


def _first_graded_unclean(grading: Grading, m: int, strong: bool) -> int | None:
    ring = grading.ring
    e = grading.group.identity
    bad = identity_component_unclean(grading, m, strong)
    if bad is not None:
        return bad
    torsion_free = is_m_torsion_free(grading.group, m - 1)
    for g in sorted(grading.support):
        if g == e:
            continue
        for x in sorted(grading.components[g]):
            if x == 0:
                continue
            if torsion_free:
                if not is_nilpotent(ring, x):
                    return x
            elif graded_m_nil_clean_witness(grading, x, m, strong) is None:
                return x
    return None


# ---------------------------------------------------------------------------
# the identity component R_e, asked in R


def identity_component_unclean(grading: Grading, m: int, strong: bool = False) -> int | None:
    """First x of R_e, ascending, that is not (strongly) m-nil clean in the
    ring R_e, or None when R_e is.  Memoized on the grading.

    R_e is asked about in R, never built as a ring of its own.  Its
    m-potents and nilpotents are those of R that lie in R_e, and both parts
    of a graded split of x in R_e lie in R_e, so x is m-nil clean in R_e
    exactly when :func:`graded_m_nil_clean_witness` finds a split; the
    ascending ambient order is the order of R_e's own elements.  Units agree
    too: if u in R_e has uv = 1 in R, split v into homogeneous parts v_g;
    each u*v_g lies in R_g and they sum to 1 in R_e, so u*v_g = 0 for
    g != e, and then v_g = v*u*v_g = 0, so v lies in R_e.  The strong case
    reads :func:`is_strongly_m_nil_clean`, as Z[x] lies in R_e.
    """
    if m < 2:
        raise ValidationError(f"m must be >= 2, got {m}")
    key = ("re-unclean", m, strong)
    memo = grading._memo
    if key not in memo:
        ring = grading.ring
        memo[key] = next((
            x for x in sorted(grading.component(grading.group.identity))
            if not (is_strongly_m_nil_clean(ring, x, m) if strong
                    else graded_m_nil_clean_witness(grading, x, m) is not None)
        ), None)
    return memo[key]


def identity_component_pi_regular_witness(grading: Grading, a: int
                                          ) -> PiRegularCertificate | None:
    """First strongly pi-regular decomposition a = f + u of a in the ring
    R_e, by ascending degree-e idempotent f, decided in R: a unit of R that
    lies in R_e is a unit of R_e (:func:`identity_component_unclean`)."""
    ring = grading.ring
    e = grading.group.identity
    if a not in grading.component(e):
        raise ValidationError("element is not in the identity component", ("element", a))
    cert = next(_pi_regular_decompositions(ring, a, grading.component_m_potents(e, 2)), None)
    if cert is not None:
        cert.verify(ring)
    return cert


def identity_component_radical(grading: Grading) -> frozenset[int]:
    """J(R_e) = {z in R_e : 1 - x*z is a unit of R for every x in R_e}.

    Units of R_e are the units of R that lie in it
    (:func:`identity_component_unclean`).  The set is asserted a two-sided
    ideal of R_e on additive generators, exact by biadditivity.
    """
    ring = grading.ring
    comp = sorted(grading.component(grading.group.identity))
    if len(comp) > RADICAL_SIZE_CAP:
        raise ResourceLimitError(
            f"radical of a {len(comp)}-element ring exceeds cap", limit=RADICAL_SIZE_CAP
        )
    one = ring.one
    rad = frozenset(
        z for z in comp
        if all(is_unit(ring, ring.sub(one, ring.mul(x, z))) for x in comp)
    )
    span, kept = additive_closure(ring, sorted(rad))
    if span != rad:
        raise ValidationError("radical of the identity component is not additive", ("radical",))
    for r in additive_closure(ring, comp)[1]:
        for a in kept:
            if ring.mul(r, a) not in rad or ring.mul(a, r) not in rad:
                raise ValidationError(
                    "radical of the identity component is not two-sided", ("radical", r, a)
                )
    return rad


# ---------------------------------------------------------------------------
# pi-regular decompositions


def _pi_regular_decompositions(ring: FiniteRing, a: int, candidates=None):
    """Yield each strongly pi-regular decomposition a = f + u, by ascending f
    over the given idempotents (default: all of them)."""
    for f in idempotents(ring) if candidates is None else candidates:
        u = ring.sub(a, f)
        if inverse_of(ring, u) is None:
            continue
        if ring.mul(a, f) != ring.mul(f, a):
            continue
        faf = ring.mul(f, ring.mul(a, f))
        if not is_nilpotent(ring, faf):
            continue
        yield PiRegularCertificate(a=a, f=f, u=u)


def pi_regular_witness(ring: FiniteRing, a: int) -> PiRegularCertificate | None:
    """First strongly pi-regular decomposition a = f + u, in element order."""
    cert = next(_pi_regular_decompositions(ring, a), None)
    if cert is not None:
        cert.verify(ring)
    return cert


def graded_pi_regular_witness(grading: Grading, a: int) -> PiRegularCertificate | None:
    """Search over homogeneous idempotents f with homogeneous unit a - f."""
    ring = grading.ring
    if grading.degree_of(a) is NOT_HOMOGENEOUS:
        raise ValidationError("element is not homogeneous", ("element", a))
    for f in grading.homogeneous_idempotents():
        u = ring.sub(a, f)
        if grading.degree_of(u) is NOT_HOMOGENEOUS:
            continue
        if u == 0:
            if ring.size != 1:
                continue
        elif grading.homogeneous_unit_inverse(u) is None:
            continue
        if ring.mul(a, f) != ring.mul(f, a):
            continue
        faf = ring.mul(f, ring.mul(a, f))
        if not is_nilpotent(ring, faf):
            continue
        cert = PiRegularCertificate(a=a, f=f, u=u)
        cert.verify(ring, grading)
        return cert
    return None


def strongly_pi_regular_from_m_nil_clean(ring: FiniteRing, f: int, n: int, m: int
                                         ) -> PiRegularCertificate:
    """Turn a commuting m-potent + nilpotent pair into a pi-regular witness.

    For a = f + n the decomposition is a = (1 - f^(m-1)) + (v + n) with
    v = f + f^(m-1) - 1 a unit; all certificate invariants are re-verified
    before returning.
    """
    if m < 2:
        raise ValidationError(f"m must be >= 2, got {m}")
    if not is_m_potent(ring, f, m):
        raise ValidationError("f is not m-potent", ("mpotent", f))
    if not is_nilpotent(ring, n):
        raise ValidationError("n is not nilpotent", ("nilpotent", n))
    if ring.mul(f, n) != ring.mul(n, f):
        raise ValidationError("f and n do not commute", ("commute",))
    fm1 = ring.power(f, m - 1)
    idem = ring.sub(ring.one, fm1)
    v = ring.sub(ring.add(f, fm1), ring.one)
    u = ring.add(v, n)
    cert = PiRegularCertificate(a=ring.add(f, n), f=idem, u=u)
    cert.verify(ring)
    return cert


def strongly_pi_regular_certificates(ring: FiniteRing, a: int) -> list[PiRegularCertificate]:
    """Every strongly pi-regular decomposition of a (for uniqueness checks)."""
    return list(_pi_regular_decompositions(ring, a))


def strongly_pi_regular_uniqueness_check(ring: FiniteRing, a: int) -> bool:
    """True iff at most one strongly pi-regular decomposition of a exists."""
    return len(strongly_pi_regular_certificates(ring, a)) <= 1


# ---------------------------------------------------------------------------
# lifting and the commuting-equivalence checks


def lift_m_potent(ring: FiniteRing, x: int, ideal, m: int) -> int:
    """Find f with f^m = f and f - x in the nil ideal, by coset search.

    Preconditions (each rejected by name when violated): m - 1 must be a
    unit, the ideal must be nil, and x^m - x must lie in it.  Under these
    the lift is guaranteed to exist; absence raises Falsification rather
    than an ordinary error.
    """
    ideal = frozenset(ideal)
    if m < 2:
        raise ValidationError(f"m must be >= 2, got {m}")
    if not is_unit(ring, ring.from_int(m - 1)):
        raise ValidationError("precondition violated: m - 1 is not a unit", ("unit", m - 1))
    if not is_nil_set(ring, ideal):
        raise ValidationError("precondition violated: ideal is not nil", ("nil",))
    if ring.sub(ring.power(x, m), x) not in ideal:
        raise ValidationError(
            "precondition violated: x^m - x is not in the ideal", ("membership", x)
        )
    if is_m_potent(ring, x, m):
        return x
    for f in sorted(ring.add(x, i) for i in ideal):
        if is_m_potent(ring, f, m):
            return f
    raise Falsification(
        "guaranteed m-potent lift modulo a nil ideal was not found",
        {"ring": ring.label, "x": x, "m": m, "ideal_size": len(ideal)},
    )


def prop_commuting_equivalence_check(ring: FiniteRing, a: int, f: int, u: int, m: int) -> bool:
    """Equivalence test: given a strongly pi-regular decomposition (f, u) of
    a, [a is strongly m-nil clean] iff [some m-potent g commutes with f and
    u and f - g + u is nilpotent].  Returns whether the two sides agree."""
    cert = PiRegularCertificate(a=a, f=f, u=u)
    cert.verify(ring)
    exists_g = False
    for g in m_potents(ring, m):
        if ring.mul(g, f) != ring.mul(f, g):
            continue
        if ring.mul(g, u) != ring.mul(u, g):
            continue
        if is_nilpotent(ring, ring.add(ring.sub(f, g), u)):
            exists_g = True
            break
    return exists_g == is_strongly_m_nil_clean(ring, a, m)


def graded_commuting_equivalence_check(grading: Grading, a: int, f: int, u: int, m: int) -> bool:
    """Graded version: g must be a homogeneous m-potent in the identity
    component and u must lie there too.  Requires an (m-1)-torsion free
    grading group; (f, u) must be a graded strongly pi-regular witness."""
    if not is_m_torsion_free(grading.group, m - 1):
        raise ValidationError(
            "precondition violated: grading group is not (m-1)-torsion free", ("torsion", m - 1)
        )
    ring = grading.ring
    cert = PiRegularCertificate(a=a, f=f, u=u)
    cert.verify(ring, grading)
    e = grading.group.identity
    u_in_e = grading.degree_of(u) in (ZERO_DEGREE, e)
    exists_g = False
    if u_in_e:
        for g in grading.component_m_potents(e, m):
            if ring.mul(g, f) != ring.mul(f, g):
                continue
            if ring.mul(g, u) != ring.mul(u, g):
                continue
            if is_nilpotent(ring, ring.add(ring.sub(f, g), u)):
                exists_g = True
                break
    a_degree = grading.degree_of(a)
    if a_degree in (ZERO_DEGREE, e):
        strongly = is_strongly_m_nil_clean(ring, a, m)  # Z[a] lies in R_e
    else:
        strongly = (
            a_degree is not NOT_HOMOGENEOUS
            and graded_m_nil_clean_witness(grading, a, m, strong=True) is not None
        )
    return exists_g == strongly
