"""Registered checks: one per structural claim the library can decide.

Each check is the only definition of its claim: ``run_checks`` runs it on a
corpus entry, and the counterexample search (``search.TARGETS``) runs it on
generated instances, both through :func:`evaluate_check`.

Statuses:

* ``pass``       - the claim held (or its hypotheses were not met: vacuous).
* ``fail``       - a decision came out negative exactly as the fixture's
                   ``expected`` block predicted (expected-negative).
* ``falsified``  - a claim the theory guarantees was violated, or a fixture
                   expectation broke; these drive the nonzero exit code.
* ``skipped-resource`` - an enumeration cap was hit before a verdict.

A check whose hypotheses fail returns ``vacuous``; ``run_checks`` reports it
as ``pass`` with a ``vacuous: ...`` detail, and the search counts it as an
instance that did not meet the hypothesis.

Claims about the identity component R_e ask their questions in R itself
(``nilclean.identity_component_*``); no check builds R_e, or any other
subring, as a ring of its own.
"""

import time
from dataclasses import dataclass

from .constructions import augmentation_ideal
from .errors import Falsification, ResourceLimitError, ValidationError
from .grading import (
    NOT_HOMOGENEOUS,
    ZERO_DEGREE,
    graded_jacobson_radical,
    graded_quotient,
    is_graded_local,
    is_graded_nil,
)
from .groups import IntegerGroup, is_m_torsion_free, is_p_group, is_prime
from .nilclean import (
    graded_commuting_equivalence_check,
    graded_m_nil_clean_witness,
    graded_pi_regular_witness,
    identity_component_pi_regular_witness,
    identity_component_radical,
    identity_component_unclean,
    is_graded_m_nil_clean_ring,
    is_m_nil_clean_ring,
    lift_m_potent,
    m_nil_clean_witness,
    pi_regular_witness,
    prop_commuting_equivalence_check,
    strongly_pi_regular_certificates,
    strongly_pi_regular_from_m_nil_clean,
)
from .rings import is_m_potent, is_nil_set, is_nilpotent, is_unit, jacobson_radical
from .specfile import DEFAULT_LIMITS, Limits, ParsedSpec


@dataclass
class CheckReport:
    name: str
    status: str
    witness: str | None = None
    detail: str = ""
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "witness": self.witness,
            "detail": self.detail,
            "seconds": round(self.seconds, 4),
        }


class CheckContext:
    """Shared state for one entry's check run.

    Decisions, the graded radical and the identity-component answers are
    memoized on the grading itself; no subring is kept.
    """

    def __init__(self, parsed: ParsedSpec, limits: Limits):
        self.parsed = parsed
        self.limits = limits
        self.grading = parsed.grading
        self.ring = parsed.grading.ring
        self.m = parsed.m
        self.expected = parsed.expected
        self.ideal = parsed.ideal
        self.meta = parsed.meta
        self.kind = parsed.kind

    def decided(self, strong: bool = False):
        return is_graded_m_nil_clean_ring(self.grading, self.m, strong)

    def torsion_free(self) -> bool:
        return is_m_torsion_free(self.grading.group, self.m - 1)

    def fmt(self, x: int, grading=None) -> str:
        grading = grading or self.grading
        deg = grading.degree_of(x) if x < grading.ring.size else "?"
        return f"{grading.ring.format_element(x)} (degree {deg})"

    def require_small(self, cap_name: str = "element_check_cap"):
        cap = getattr(self.limits, cap_name)
        if self.ring.size > cap:
            raise ResourceLimitError(
                f"ring has {self.ring.size} elements, over the per-element cap",
                limit=cap,
            )


def _vacuous(reason: str):
    return "vacuous", None, f"vacuous: {reason}"


#: the keys :func:`_polarity` reads: all a document's ``expected`` block may hold
EXPECTED_KEYS = frozenset({"graded_m_nil_clean", "graded_strongly_m_nil_clean", "graded_local",
                           "augmentation_nilpotent", "strongly_clean_without_pi_regular"})


def _polarity(ctx: CheckContext, key: str, decided: bool, witness: str | None):
    expected = ctx.expected.get(key)
    if expected is None:
        status = "pass"
        detail = f"decision: {decided} (recorded; no expectation declared)"
        return status, (witness if not decided else None), detail
    if decided == expected:
        if decided:
            return "pass", None, "decision: True, as expected"
        return "fail", witness, "decision: False, as the expected-negative fixture predicts"
    return "falsified", witness, f"decision: {decided}, but fixture expected {expected}"


# ---------------------------------------------------------------------------
# decision fixtures


def check_graded_m_nil_clean(ctx: CheckContext):
    ok, w = ctx.decided(strong=False)
    return _polarity(ctx, "graded_m_nil_clean", ok, ctx.fmt(w) if w is not None else None)


def check_graded_strongly_m_nil_clean(ctx: CheckContext):
    ok, w = ctx.decided(strong=True)
    return _polarity(
        ctx, "graded_strongly_m_nil_clean", ok, ctx.fmt(w) if w is not None else None
    )


def check_graded_local(ctx: CheckContext):
    decided = is_graded_local(ctx.grading)
    return _polarity(ctx, "graded_local", decided, None)


def check_augmentation_nilpotent(ctx: CheckContext):
    if ctx.kind != "group_ring":
        return _vacuous("not a group ring entry")
    kernel, nilidx = augmentation_ideal(ctx.grading)
    decided = nilidx is not None
    base = ctx.meta["base"]
    group = ctx.meta["group"]
    # a prime that is nilpotent in the base with G a p-group forces nilpotency
    forced = any(
        is_prime(p) and is_nilpotent(base.ring, base.ring.from_int(p)) and is_p_group(group, p)
        for p in range(2, group.order + 1)
    )
    if forced and not decided:
        return (
            "falsified",
            f"augmentation ideal of size {len(kernel)} is not nilpotent",
            "nilpotency is guaranteed for p-groups over rings where p is nilpotent",
        )
    status, witness, detail = _polarity(ctx, "augmentation_nilpotent", decided, None)
    detail += f"; kernel size {len(kernel)}, nilpotency index {nilidx}"
    mode_results = ctx.meta.get("mode_results")
    if mode_results:
        detail += f"; multiplication mode {ctx.meta['mode']!r} of {mode_results}"
    return status, witness, detail


def check_strongly_clean_without_pi_regular(ctx: CheckContext):
    """Whether some homogeneous element is graded strongly m-nil clean yet
    has no graded pi-regular decomposition (the two notions can differ)."""
    found = None
    for x, _deg in ctx.grading.homogeneous_elements():
        if graded_m_nil_clean_witness(ctx.grading, x, ctx.m, strong=True) is None:
            continue
        if graded_pi_regular_witness(ctx.grading, x) is None:
            found = x
            break
    return _polarity(
        ctx, "strongly_clean_without_pi_regular", found is not None,
        ctx.fmt(found) if found is not None else None,
    )


# ---------------------------------------------------------------------------
# identity-component and degree facts


def check_identity_component_m_nil_clean(ctx: CheckContext):
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("ring is not graded m-nil clean")
    bad = identity_component_unclean(ctx.grading, ctx.m)
    if bad is not None:
        return "falsified", ctx.fmt(bad), "identity component is not m-nil clean"
    size = len(ctx.grading.component(ctx.grading.group.identity))
    return "pass", None, f"identity component of size {size} is m-nil clean"


def check_re_mnc_implies_graded_mnc(ctx: CheckContext):
    """The converse of identity_component_m_nil_clean.  Finite group rings
    refute it, so it is a search target and not a registered check."""
    if identity_component_unclean(ctx.grading, ctx.m) is not None:
        return _vacuous("identity component is not m-nil clean")
    ok, w = ctx.decided()
    if not ok:
        return "falsified", ctx.fmt(w), "identity component is m-nil clean but the ring fails"
    return "pass", None, "identity component and ring are both m-nil clean"


def check_nonidentity_components_nil(ctx: CheckContext):
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("ring is not graded m-nil clean")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    e = ctx.grading.group.identity
    for x, g in ctx.grading.homogeneous_elements():
        if g is ZERO_DEGREE or g == e:
            continue
        if not is_nilpotent(ctx.ring, x):
            return "falsified", ctx.fmt(x), "non-identity-degree element is not nilpotent"
    return "pass", None, "all homogeneous elements outside the identity degree are nilpotent"


def check_same_component_witness(ctx: CheckContext):
    """Component-restricted and any-degree homogeneous searches agree."""
    ctx.require_small()
    gr, ring, m = ctx.grading, ctx.ring, ctx.m
    hom_mpotents = [
        x for x, _ in gr.homogeneous_elements() if is_m_potent(ring, x, m)
    ]
    for x, _deg in gr.homogeneous_elements():
        restricted = graded_m_nil_clean_witness(gr, x, m) is not None
        unrestricted = any(
            not gr.degree_of(ring.sub(x, f)) is NOT_HOMOGENEOUS
            and is_nilpotent(ring, ring.sub(x, f))
            for f in hom_mpotents
        )
        if restricted != unrestricted:
            return (
                "falsified", ctx.fmt(x),
                f"restricted search: {restricted}, unrestricted: {unrestricted}",
            )
    return "pass", None, "searches agree on every homogeneous element"


def check_homogeneous_m_potent_degree(ctx: CheckContext):
    """A nonzero homogeneous m-potent of degree h forces h^(m-1) = identity."""
    group = ctx.grading.group
    for x, g in ctx.grading.homogeneous_elements():
        if g is ZERO_DEGREE or not is_m_potent(ctx.ring, x, ctx.m):
            continue
        if group.power(g, ctx.m - 1) != group.identity:
            return "falsified", ctx.fmt(x), "m-potent at a degree of the wrong torsion"
    return "pass", None, "all homogeneous m-potent degrees satisfy the torsion identity"


def check_torsion_free_m_potents_in_identity(ctx: CheckContext):
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    e = ctx.grading.group.identity
    for x, g in ctx.grading.homogeneous_elements():
        if g is ZERO_DEGREE or g == e:
            continue
        if is_m_potent(ctx.ring, x, ctx.m):
            return "falsified", ctx.fmt(x), "nonzero m-potent outside the identity component"
    return "pass", None, "all nonzero homogeneous m-potents sit in the identity component"


# ---------------------------------------------------------------------------
# closure under quotients and products


def check_homomorphic_image_closure(ctx: CheckContext):
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("ring is not graded m-nil clean")
    targets = [("graded radical", graded_jacobson_radical(ctx.grading))]
    if ctx.ideal is not None and ctx.ideal.sidedness == "two-sided":
        targets.insert(0, ("declared ideal", ctx.ideal))
    for label, ideal in targets:
        qgr, _proj = graded_quotient(ctx.grading, ideal)
        qok, qw = is_graded_m_nil_clean_ring(qgr, ctx.m)
        if not qok:
            return (
                "falsified",
                ctx.fmt(qw, qgr),
                f"quotient by {label} lost the graded m-nil clean property",
            )
    return "pass", None, f"checked {len(targets)} graded quotient(s)"


def check_product_factors_equivalence(ctx: CheckContext):
    if ctx.kind != "product":
        return _vacuous("not a product entry")
    factors = ctx.meta["factors"]
    for strong in (False, True):
        whole, w = ctx.decided(strong=strong)
        parts = [is_graded_m_nil_clean_ring(f, ctx.m, strong)[0] for f in factors]
        if whole != all(parts):
            return (
                "falsified",
                ctx.fmt(w) if w is not None else None,
                f"product: {whole}, factors: {parts} (strong={strong})",
            )
    return "pass", None, "product decision matches the conjunction of factor decisions"


def check_quotient_equivalence(ctx: CheckContext):
    if ctx.ideal is None:
        return _vacuous("no ideal declared")
    if ctx.ideal.sidedness != "two-sided":
        return _vacuous("declared ideal is not two-sided")
    if not is_unit(ctx.ring, ctx.ring.from_int(ctx.m - 1)):
        return _vacuous("m - 1 is not a unit")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    if not is_graded_nil(ctx.grading, ctx.ideal):
        return _vacuous("declared ideal is not graded-nil")
    qgr, _ = graded_quotient(ctx.grading, ctx.ideal)
    lhs, w = ctx.decided()
    rhs, qw = is_graded_m_nil_clean_ring(qgr, ctx.m)
    if lhs != rhs:
        return (
            "falsified",
            ctx.fmt(qw, qgr) if qw is not None else (ctx.fmt(w) if w is not None else None),
            f"ring: {lhs}, quotient by graded-nil ideal: {rhs}",
        )
    return "pass", None, f"both sides: {lhs}"


# ---------------------------------------------------------------------------
# radical claims


def check_jg_graded_nil(ctx: CheckContext):
    ctx.require_small()
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("ring is not graded m-nil clean")
    jg = graded_jacobson_radical(ctx.grading)
    if not is_graded_nil(ctx.grading, jg):
        bad = next(
            x for x in sorted(jg.elements)
            if ctx.grading.is_homogeneous(x) and not is_nilpotent(ctx.ring, x)
        )
        return "falsified", ctx.fmt(bad), "graded radical is not graded-nil"
    return "pass", None, f"graded radical of size {len(jg)} is graded-nil"


def check_jg_quotient_equivalence(ctx: CheckContext):
    if not is_unit(ctx.ring, ctx.ring.from_int(ctx.m - 1)):
        return _vacuous("m - 1 is not a unit")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    jg = graded_jacobson_radical(ctx.grading)
    lhs, _ = ctx.decided()
    qgr, _ = graded_quotient(ctx.grading, jg)
    rhs = is_graded_m_nil_clean_ring(qgr, ctx.m)[0] and is_graded_nil(ctx.grading, jg)
    if lhs != rhs:
        return "falsified", None, f"ring: {lhs}, radical-quotient conjunction: {rhs}"
    return "pass", None, f"both sides: {lhs}"


def check_jg_meets_identity_component(ctx: CheckContext):
    """Graded radical cut to the identity component vs the classical radical
    of that component.  Asserted for finite grading groups; recorded only
    for integer gradings."""
    jg = graded_jacobson_radical(ctx.grading)
    grading = ctx.grading
    e = grading.group.identity
    classical = identity_component_radical(grading)
    cut = jg.elements & grading.component(e)
    agree = classical == cut
    if isinstance(grading.group, IntegerGroup):
        return "pass", None, f"recorded (integer-graded): agreement={agree}"
    if not agree:
        sym = sorted(classical ^ cut)
        return (
            "falsified",
            ctx.fmt(sym[0]),
            "classical radical of the identity component differs from the graded cut",
        )
    return "pass", None, f"radicals agree on {len(cut)} element(s)"


def check_radical_homogeneous_containment(ctx: CheckContext):
    """Every homogeneous element of the classical radical lies in the graded one."""
    classical = jacobson_radical(ctx.ring, max_size=ctx.limits.element_check_cap)
    jg = graded_jacobson_radical(ctx.grading)
    for x in sorted(classical):
        if ctx.grading.is_homogeneous(x) and x not in jg.elements:
            return "falsified", ctx.fmt(x), "homogeneous radical element escapes the graded radical"
    return "pass", None, f"classical radical size {len(classical)}"


# ---------------------------------------------------------------------------
# sufficiency theorems


def check_orthogonal_components_sufficiency(ctx: CheckContext):
    group = ctx.grading.group
    if isinstance(group, IntegerGroup):
        return _vacuous("grading group is infinite")
    e = group.identity
    ring = ctx.ring
    for g in ctx.grading.support:
        if g == e:
            continue
        ginv = group.inv(g)
        comp_g = ctx.grading.component(g)
        comp_ginv = ctx.grading.component(ginv)
        if any(ring.mul(x, y) != 0 for x in comp_g for y in comp_ginv):
            return _vacuous("component products with inverse degrees are not all zero")
    if identity_component_unclean(ctx.grading, ctx.m) is not None:
        return _vacuous("identity component is not m-nil clean")
    ok, w = ctx.decided()
    if not ok:
        return "falsified", ctx.fmt(w), "orthogonal-components hypotheses hold but the ring fails"
    return "pass", None, "hypotheses hold and the ring is graded m-nil clean"


def check_graded_local_sufficiency(ctx: CheckContext):
    group = ctx.grading.group
    if isinstance(group, IntegerGroup):
        return _vacuous("grading group is infinite")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    ring = ctx.ring
    if not is_unit(ring, ring.from_int(ctx.m - 1)):
        return _vacuous("m - 1 is not a unit")
    if not is_unit(ring, ring.from_int(group.order)):
        return _vacuous("group order is not a unit in the ring")
    if not is_graded_local(ctx.grading):
        return _vacuous("ring is not graded-local")
    if identity_component_unclean(ctx.grading, ctx.m) is not None:
        return _vacuous("identity component is not m-nil clean")
    ok, w = ctx.decided()
    if not ok:
        return "falsified", ctx.fmt(w), "graded-local hypotheses hold but the ring fails"
    return "pass", None, "hypotheses hold and the ring is graded m-nil clean"


# ---------------------------------------------------------------------------
# pi-regular structure


def check_strongly_pi_regular_construction(ctx: CheckContext):
    ctx.require_small()
    ring, m = ctx.ring, ctx.m
    built = 0
    for x in ring.elements():
        w = m_nil_clean_witness(ring, x, m, strong=True)
        if w is None:
            continue
        strongly_pi_regular_from_m_nil_clean(ring, w.f, w.n, m)  # verifies internally
        built += 1
    return "pass", None, f"constructed and verified {built} decomposition(s)"


def check_identity_component_strongly_pi_regular(ctx: CheckContext):
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("ring is not graded m-nil clean")
    comp = sorted(ctx.grading.component(ctx.grading.group.identity))
    for x in comp:
        if identity_component_pi_regular_witness(ctx.grading, x) is None:
            return "falsified", ctx.fmt(x), "identity-component element is not strongly pi-regular"
    return "pass", None, f"all {len(comp)} identity-component elements are strongly pi-regular"


def check_pi_regular_uniqueness(ctx: CheckContext):
    ctx.require_small()
    for a in ctx.ring.elements():
        certs = strongly_pi_regular_certificates(ctx.ring, a)
        if len(certs) > 1:
            return (
                "falsified",
                ctx.ring.format_element(a),
                f"{len(certs)} strongly pi-regular decompositions",
            )
    return "pass", None, "every element has at most one strongly pi-regular decomposition"


def check_commuting_equivalence(ctx: CheckContext):
    ctx.require_small()
    ring, m = ctx.ring, ctx.m
    tested = 0
    for a in ring.elements():
        w = pi_regular_witness(ring, a)
        if w is None:
            continue
        if not prop_commuting_equivalence_check(ring, a, w.f, w.u, m):
            return "falsified", ring.format_element(a), "equivalence sides disagree"
        tested += 1
    return "pass", None, f"equivalence agreed on {tested} element(s)"


def check_graded_commuting_equivalence(ctx: CheckContext):
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    gr, m = ctx.grading, ctx.m
    tested = 0
    for a, _deg in gr.homogeneous_elements():
        w = graded_pi_regular_witness(gr, a)
        if w is None:
            continue
        if not graded_commuting_equivalence_check(gr, a, w.f, w.u, m):
            return "falsified", ctx.fmt(a), "graded equivalence sides disagree"
        tested += 1
    return "pass", None, f"graded equivalence agreed on {tested} homogeneous element(s)"


# ---------------------------------------------------------------------------
# construction transfer theorems


def check_amalgamation_equivalence(ctx: CheckContext):
    if ctx.kind != "amalgamation":
        return _vacuous("not an amalgamation entry")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    a = ctx.meta["a"]
    image = ctx.meta["image"]
    whole, w = ctx.decided()
    a_ok = is_graded_m_nil_clean_ring(a, ctx.m)[0]
    img_ok = is_graded_m_nil_clean_ring(image, ctx.m)[0]
    if whole != (a_ok and img_ok):
        return (
            "falsified",
            ctx.fmt(w) if w is not None else None,
            f"amalgamation: {whole}, first factor: {a_ok}, image subring: {img_ok}",
        )
    return "pass", None, f"both sides: {whole} (first factor {a_ok}, image {img_ok})"


def check_group_ring_clean_transfer(ctx: CheckContext):
    """Transfer to the group ring under the p-nilpotence hypotheses."""
    if ctx.kind != "group_ring":
        return _vacuous("not a group ring entry")
    base = ctx.meta["base"]
    group = ctx.meta["group"]
    witness_p = None
    for p in range(2, max(ctx.m, group.order) + 1):
        if not is_prime(p) or ctx.m % p:
            continue
        if is_nilpotent(base.ring, base.ring.from_int(p)) and is_p_group(group, p):
            witness_p = p
            break
    if witness_p is None:
        return _vacuous("no prime divides m, is nilpotent in the base and bounds the group")
    base_ok, _ = is_graded_m_nil_clean_ring(base, ctx.m)
    if not base_ok:
        return _vacuous("base ring is not graded m-nil clean")
    ok, w = ctx.decided()
    if not ok:
        return (
            "falsified",
            ctx.fmt(w),
            f"hypotheses hold with p={witness_p} but the group ring is not graded m-nil clean",
        )
    return "pass", None, f"group ring inherits the property (p={witness_p})"


def check_group_ring_base_recovery(ctx: CheckContext):
    if ctx.kind != "group_ring":
        return _vacuous("not a group ring entry")
    base = ctx.meta["base"]
    ok, _ = ctx.decided()
    if not ok:
        return _vacuous("group ring is not graded m-nil clean")
    for x in base.ring.elements():
        if is_m_potent(base.ring, x, ctx.m) or is_nilpotent(base.ring, x):
            if not base.is_homogeneous(x):
                return _vacuous("base has non-homogeneous m-potents or nilpotents")
    base_ok, bw = is_graded_m_nil_clean_ring(base, ctx.m)
    if not base_ok:
        return "falsified", ctx.fmt(bw, base), "base fails although the group ring qualifies"
    return "pass", None, "base ring recovered the property"


def check_matrix_identity_sigma_transfer(ctx: CheckContext):
    if ctx.kind != "matrix":
        return _vacuous("not a matrix entry")
    base = ctx.meta["base"]
    sigma = ctx.meta["sigma"]
    if any(s != base.group.identity for s in sigma):
        return _vacuous("sigma is not the identity vector")
    if not base.ring.is_commutative():
        return _vacuous("base ring is not commutative")
    if not is_unit(base.ring, base.ring.from_int(ctx.m - 1)):
        return _vacuous("m - 1 is not a unit in the base")
    if not is_m_torsion_free(base.group, ctx.m - 1):
        return _vacuous("grading group is not (m-1)-torsion free")
    base_ok, _ = is_graded_m_nil_clean_ring(base, ctx.m)
    if not base_ok:
        return _vacuous("base ring is not graded m-nil clean")
    classical = jacobson_radical(base.ring, max_size=ctx.limits.element_check_cap)
    base_jg = graded_jacobson_radical(base)
    if not classical <= base_jg.elements:
        return _vacuous("classical radical of the base is not inside its graded radical")
    ok, w = ctx.decided()
    if not ok:
        return "falsified", ctx.fmt(w), "matrix ring fails despite the transfer hypotheses"
    return "pass", None, "matrix ring over the identity sigma inherits the property"


def check_diagonal_z_equivalence(ctx: CheckContext):
    if ctx.kind != "diagonal_z":
        return _vacuous("not a diagonal integer-grading entry")
    base_ring = ctx.meta["base_ring"]
    plain = is_m_nil_clean_ring(base_ring, ctx.m)
    graded, w = ctx.decided()
    if plain != graded:
        return (
            "falsified",
            ctx.fmt(w) if w is not None else None,
            f"base plain decision: {plain}, diagonal-graded decision: {graded}",
        )
    return "pass", None, f"both sides: {plain}"


def check_triangular_equivalence(ctx: CheckContext):
    if ctx.kind != "triangular":
        return _vacuous("not a triangular entry")
    base = ctx.meta["base"]
    if not is_unit(base.ring, base.ring.from_int(ctx.m - 1)):
        return _vacuous("m - 1 is not a unit in the base")
    if not ctx.torsion_free():
        return _vacuous("grading group is not (m-1)-torsion free")
    base_ok, _ = is_graded_m_nil_clean_ring(base, ctx.m)
    tri_ok, w = ctx.decided()
    if base_ok != tri_ok:
        return (
            "falsified",
            ctx.fmt(w) if w is not None else None,
            f"base: {base_ok}, triangular ring: {tri_ok}",
        )
    return "pass", None, f"both sides: {base_ok}"


# ---------------------------------------------------------------------------
# lifting


def check_m_potent_lifting(ctx: CheckContext):
    if ctx.ideal is None:
        return _vacuous("no ideal declared")
    ring, m = ctx.ring, ctx.m
    if not is_unit(ring, ring.from_int(m - 1)):
        return _vacuous("m - 1 is not a unit")
    if not is_nil_set(ring, ctx.ideal.elements):
        return _vacuous("declared ideal is not nil")
    ctx.require_small()
    lifted = 0
    for x in ring.elements():
        if ring.sub(ring.power(x, m), x) not in ctx.ideal.elements:
            continue
        lift_m_potent(ring, x, ctx.ideal.elements, m)  # Falsification propagates
        lifted += 1
    return "pass", None, f"lifted {lifted} element(s) modulo the nil ideal"


# ---------------------------------------------------------------------------
# registry and runner


CHECK_REGISTRY = {
    "graded_m_nil_clean": check_graded_m_nil_clean,
    "graded_strongly_m_nil_clean": check_graded_strongly_m_nil_clean,
    "graded_local": check_graded_local,
    "augmentation_nilpotent": check_augmentation_nilpotent,
    "strongly_clean_without_pi_regular": check_strongly_clean_without_pi_regular,
    "identity_component_m_nil_clean": check_identity_component_m_nil_clean,
    "nonidentity_components_nil": check_nonidentity_components_nil,
    "same_component_witness": check_same_component_witness,
    "homogeneous_m_potent_degree": check_homogeneous_m_potent_degree,
    "torsion_free_m_potents_in_identity": check_torsion_free_m_potents_in_identity,
    "homomorphic_image_closure": check_homomorphic_image_closure,
    "product_factors_equivalence": check_product_factors_equivalence,
    "quotient_equivalence": check_quotient_equivalence,
    "jg_graded_nil": check_jg_graded_nil,
    "jg_quotient_equivalence": check_jg_quotient_equivalence,
    "jg_meets_identity_component": check_jg_meets_identity_component,
    "radical_homogeneous_containment": check_radical_homogeneous_containment,
    "orthogonal_components_sufficiency": check_orthogonal_components_sufficiency,
    "graded_local_sufficiency": check_graded_local_sufficiency,
    "strongly_pi_regular_construction": check_strongly_pi_regular_construction,
    "identity_component_strongly_pi_regular": check_identity_component_strongly_pi_regular,
    "pi_regular_uniqueness": check_pi_regular_uniqueness,
    "commuting_equivalence": check_commuting_equivalence,
    "graded_commuting_equivalence": check_graded_commuting_equivalence,
    "amalgamation_equivalence": check_amalgamation_equivalence,
    "group_ring_clean_transfer": check_group_ring_clean_transfer,
    "group_ring_base_recovery": check_group_ring_base_recovery,
    "matrix_identity_sigma_transfer": check_matrix_identity_sigma_transfer,
    "diagonal_z_equivalence": check_diagonal_z_equivalence,
    "triangular_equivalence": check_triangular_equivalence,
    "m_potent_lifting": check_m_potent_lifting,
}


def evaluate_check(check, ctx: CheckContext) -> tuple[str, str | None, str]:
    """Run one claim: (status, witness, detail), with a cap hit reported as
    ``skipped-resource`` and a violated certificate or guarantee as
    ``falsified``.  The status may be ``vacuous``."""
    try:
        return check(ctx)
    except ResourceLimitError as exc:
        return "skipped-resource", None, f"{exc} (limit {exc.limit})"
    except Falsification as exc:
        return "falsified", exc.claim, str(exc.context)
    except ValidationError as exc:
        return "falsified", str(exc.witness), str(exc)


def run_checks(parsed: ParsedSpec, limits: Limits | None = None,
               checks: list[str] | None = None) -> list[CheckReport]:
    """Run the entry's checks, returning reports sorted by check name."""
    limits = limits or DEFAULT_LIMITS
    ctx = CheckContext(parsed, limits)
    names = checks if checks is not None else parsed.checks
    reports = []
    for name in sorted(names):
        start = time.perf_counter()
        status, witness, detail = evaluate_check(CHECK_REGISTRY[name], ctx)
        if status == "vacuous":
            status = "pass"
        reports.append(
            CheckReport(name=name, status=status, witness=witness, detail=detail,
                        seconds=time.perf_counter() - start)
        )
    return reports


def exit_code(reports: list[CheckReport]) -> int:
    """0 all good, 1 any falsified, 3 any resource skip (parse errors are 2)."""
    if any(r.status == "falsified" for r in reports):
        return 1
    if any(r.status == "skipped-resource" for r in reports):
        return 3
    return 0
