import itertools
import json
import subprocess
import sys
import time
from collections import Counter

import pytest

from gradednil import grading as grading_module
from gradednil import rings as rings_module
from gradednil import search
from gradednil.checks import CHECK_REGISTRY, exit_code, run_checks
from gradednil.cli import emit_report, main
from gradednil.corpus import corpus_document, corpus_documents, corpus_names
from gradednil.errors import ResourceLimitError, SpecError, ValidationError
from gradednil.grading import graded_jacobson_radical, graded_maximal_right_ideals, is_graded_local
from gradednil.nilclean import (
    identity_component_pi_regular_witness,
    identity_component_radical,
    identity_component_unclean,
    is_m_nil_clean_ring,
    is_strongly_m_nil_clean,
    m_nil_clean_ring_witness,
    m_nil_clean_witness,
    pi_regular_witness,
)
from gradednil.rings import jacobson_radical, make_gf, subring_from_elements
from gradednil.search import (
    EXPECTED_COUNTEREXAMPLE_TARGETS,
    FORWARD_TARGETS,
    TARGETS,
    counterexample_search,
)
from gradednil.specfile import Limits, emit_ring_spec, parse_ring_spec


def doc(obj) -> str:
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# parsing


def test_parse_zn_trivial():
    parsed = parse_ring_spec(doc({"m": 2, "ring": {"kind": "zn", "n": 4}}))
    assert parsed.grading.ring.size == 4
    assert sorted(parsed.grading.support) == [0]
    largest = parse_ring_spec(doc({"m": 2, "ring": {"kind": "zn", "n": 256}}))  # at the cap
    assert largest.grading.ring.size == 256


def test_parse_triangular_split_ring():
    parsed = parse_ring_spec(doc({
        "m": 3,
        "ring": {
            "kind": "triangular",
            "base": {"kind": "gf", "p": 3,
                     "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": True}},
            "n": 2,
            "sigma": [0, 1],
        },
    }))
    assert parsed.grading.ring.size == 27
    assert sorted(len(parsed.grading.components[g]) for g in parsed.grading.support) == [3, 9]


def test_parse_matrix_swap_grading():
    parsed = parse_ring_spec(doc({
        "m": 3,
        "ring": {
            "kind": "matrix",
            "base": {"kind": "zn", "n": 3,
                     "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": True}},
            "n": 2,
            "sigma": [0, 1],
        },
    }))
    ring = parsed.grading.ring
    diag = {ring.encode_entries({(0, 0): a, (1, 1): d}) for a in range(3) for d in range(3)}
    assert parsed.grading.components[0] == frozenset(diag)


def test_parse_explicit_components():
    parsed = parse_ring_spec(doc({
        "m": 2,
        "ring": {"kind": "zn", "n": 4,
                 "grading": {"group": {"kind": "cyclic", "n": 2},
                             "components": {"0": [0, 1, 2, 3]}}},
    }))
    assert sorted(parsed.grading.support) == [0]


@pytest.mark.parametrize("bad,fragment", [
    ({"m": 2}, "missing keys"),
    ({"m": 2, "ring": {"kind": "nope"}}, "unknown ring kind"),
    ({"m": 2, "ring": {"kind": "zn", "n": 4, "extra": 1}}, "unknown keys"),
    ({"m": 1, "ring": {"kind": "zn", "n": 4}}, "must be >= 2"),
    ({"m": 2, "ring": {"kind": "zn", "n": 4}, "checks": ["nope"]}, "unknown checks"),
    ({"m": 2, "ring": {"kind": "gf", "p": 6}}, "not prime"),
    ({"m": 2, "ring": {"kind": "zn", "n": 4,
                       "grading": {"group": {"kind": "cyclic", "n": 2},
                                   "components": {"0": [0, 2], "1": [2]}}}},
     "grading validation failed"),
])
def test_parse_errors_carry_context(bad, fragment):
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(bad))
    assert fragment in str(err.value)


def _table_doc(moduli):
    """A `table` document of Z_m1 x Z_m2 x ... in mixed radix, first factor
    least significant."""
    size = 1
    for q in moduli:
        size *= q

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

    elems = [digits(x) for x in range(size)]
    add = [[undigits([(a + b) % q for a, b, q in zip(dx, dy, moduli)]) for dy in elems]
           for dx in elems]
    mul = [[undigits([(a * b) % q for a, b, q in zip(dx, dy, moduli)]) for dy in elems]
           for dx in elems]
    ring = {"kind": "table", "size": size, "add": add, "mul": mul,
            "one": undigits([1 % q for q in moduli])}
    return {"m": 2, "ring": ring, "checks": ["graded_m_nil_clean"]}


@pytest.mark.parametrize("moduli", [(66,), (4, 40)])
def test_large_table_documents_are_law_checked(moduli):
    """No size cap: tables above 64 elements get every law checked."""
    good = _table_doc(moduli)
    assert parse_ring_spec(doc(good)).grading.ring.size == len(good["ring"]["add"])
    broken_mul = _table_doc(moduli)
    broken_mul["ring"]["mul"][2][3] = broken_mul["ring"]["mul"][2][4]
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(broken_mul))
    assert "distributivity fails" in str(err.value)
    broken_add = _table_doc(moduli)
    add = broken_add["ring"]["add"]
    add[2][3] = add[3][2] = add[2][4]
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(broken_add))
    assert "addition is not associative" in str(err.value)
    assert "addassoc" in str(err.value)


@pytest.mark.parametrize("table,row,col,value", [
    ("mul", 2, 3, -1),     # would wrap to the last element
    ("mul", 5, 0, 66),
    ("add", 1, 1, 2.0),
    ("add", 0, 7, True),
    ("mul", 9, 4, "3"),
])
def test_table_entries_are_checked_before_the_laws(table, row, col, value):
    bad = _table_doc((66,))
    bad["ring"][table][row][col] = value
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(bad))
    assert f"{table} table entry ({row}, {col}) is {value!r}" in str(err.value)
    assert str(err.value).startswith("ring: ")


@pytest.mark.parametrize("one", [66, 100])
def test_table_identity_must_be_an_element(one):
    bad = _table_doc((66,))
    bad["ring"]["one"] = one
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(bad))
    assert f"field 'one' is {one}" in str(err.value)


def test_table_rows_must_be_lists():
    bad = _table_doc((2, 2))
    bad["ring"]["add"][1] = 7
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(bad))
    assert "add table must be 4x4" in str(err.value)


def _amalgamation_doc(fmap):
    z4 = {"kind": "zn", "n": 4}
    return {"m": 2, "ring": {"kind": "amalgamation", "a": z4, "b": z4, "f": {"map": fmap},
                             "ideal": {"generators": [2]}}}


@pytest.mark.parametrize("fmap,fragment", [
    ([0, 1, 2, 7], "map entry 3 is 7"),
    ([0, 1, 2.0, 3], "map entry 2 is 2.0"),
    ([0, True, 2, 3], "map entry 1 is True"),
    ([0, 1, 2, -1], "map entry 3 is -1"),
    ([0, 1, 2], "map must be a list of 4 entries"),
    ("0123", "map must be a list of 4 entries"),
])
def test_amalgamation_map_entries_are_checked(fmap, fragment, tmp_path):
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(_amalgamation_doc(fmap)))
    assert fragment in str(err.value)
    assert str(err.value).startswith("ring.f: ")
    spec = tmp_path / "bad.json"
    spec.write_text(doc(_amalgamation_doc(fmap)))
    assert main(["check", str(spec)]) == 2


_Z4_C2 = {"kind": "zn", "n": 4,
          "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": True}}
_Z4_C3 = {"kind": "zn", "n": 4,
          "grading": {"group": {"kind": "cyclic", "n": 3}, "trivial": True}}


@pytest.mark.parametrize("ring,top,path,fragment", [
    ({"kind": "matrix", "base": _Z4_C2, "n": 2, "sigma": 5}, {},
     "ring", "field 'sigma' must be a list"),
    ({"kind": "matrix", "base": _Z4_C2, "n": 2, "sigma": [0, True]}, {},
     "ring", "sigma entries must be integers"),
    ({"kind": "zn", "n": 4, "grading": {"group": {"kind": "cyclic", "n": 2},
                                        "components": [0, 1]}}, {},
     "ring.grading", "field 'components' must be an object"),
    ({"kind": "zn", "n": 4, "grading": {"group": {"kind": "cyclic", "n": 2},
                                        "components": {"0": 3}}}, {},
     "ring.grading", "component 0 lists invalid elements"),
    ({"kind": "product", "factors": 3}, {}, "ring", "field 'factors' must be a list"),
    ({"kind": "zn", "n": 4, "grading": {"group": {"kind": "product", "factors": 3},
                                        "trivial": True}}, {},
     "ring.grading.group", "field 'factors' must be a list"),
    ({"kind": "zn", "n": 4}, {"ideal": {"generators": 3}},
     "ideal", "field 'generators' must be a list"),
    ({"kind": [1]}, {}, "ring", "unknown ring kind [1]"),
    ({"kind": "gf", "p": 3}, {"expected": {"graded_m_nil_clen": False}},
     "expected", "unknown keys ['graded_m_nil_clen']"),
    ({"kind": "gf", "p": 3}, {"expected": {"graded_m_nil_clean": "false"}},
     "expected", "expectation 'graded_m_nil_clean' must be true or false"),
], ids=["sigma-int", "sigma-bool-entry", "components-list", "components-int-entry",
        "ring-factors-int", "group-factors-int", "ideal-generators-int", "ring-kind-list",
        "expected-unknown-key", "expected-string-value"])
def test_malformed_fields_are_spec_errors(ring, top, path, fragment, tmp_path):
    bad = {"m": 2, "ring": ring, **top}
    with pytest.raises(SpecError) as err:
        parse_ring_spec(doc(bad))
    assert err.value.path == path
    assert fragment in str(err.value)
    spec = tmp_path / "bad.json"
    spec.write_text(doc(bad))
    assert main(["check", str(spec)]) == 2


def test_amalgamation_identity_map_document_parses():
    parsed = parse_ring_spec(doc(_amalgamation_doc([0, 1, 2, 3])))
    assert parsed.grading.ring.size == 8


def test_parse_error_is_json_position_aware():
    with pytest.raises(SpecError) as err:
        parse_ring_spec("{\n  'bad': }")
    assert "line" in str(err.value)


def test_ideal_parsing_and_closure():
    parsed = parse_ring_spec(doc({
        "m": 2, "ring": {"kind": "zn", "n": 4}, "ideal": {"generators": [2]},
    }))
    assert parsed.ideal.elements == frozenset({0, 2})
    parsed = parse_ring_spec(doc({
        "m": 2,
        "ring": {
            "kind": "triangular",
            "base": {"kind": "zn", "n": 2,
                     "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": True}},
            "n": 2, "sigma": [0, 1],
        },
        "ideal": {"zero_diagonal": True},
    }))
    assert len(parsed.ideal) == 2


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_round_trip(name):
    first = parse_ring_spec(corpus_document(name))
    text = emit_ring_spec(first)
    second = parse_ring_spec(text)
    assert (first.name, first.m) == (second.name, second.m)
    assert first.normalized == second.normalized
    assert first.grading.components == second.grading.components
    assert first.grading.support == second.grading.support
    r1, r2 = first.grading.ring, second.grading.ring
    assert (r1.size, r1.one) == (r2.size, r2.one)
    if r1.size <= 64:
        for a in range(r1.size):
            for b in range(r1.size):
                assert r1.add(a, b) == r2.add(a, b)
                assert r1.mul(a, b) == r2.mul(a, b)


# ---------------------------------------------------------------------------
# checks and reports


def test_run_checks_statuses():
    parsed = parse_ring_spec(doc({
        "m": 3,
        "name": "fixture",
        "ring": {
            "kind": "triangular",
            "base": {"kind": "gf", "p": 3,
                     "grading": {"group": {"kind": "cyclic", "n": 2}, "trivial": True}},
            "n": 2, "sigma": [0, 1],
        },
        "checks": ["graded_m_nil_clean"],
        "expected": {"graded_m_nil_clean": True},
    }))
    (report,) = run_checks(parsed)
    assert report.status == "pass"
    assert exit_code([report]) == 0


def test_expected_negative_reports_fail_status():
    parsed = parse_ring_spec(doc({
        "m": 2,
        "ring": {"kind": "gf", "p": 3},
        "checks": ["graded_m_nil_clean"],
        "expected": {"graded_m_nil_clean": False},
    }))
    (report,) = run_checks(parsed)
    assert report.status == "fail"
    assert exit_code([report]) == 0  # matched prediction: not an error


def test_wrong_expectation_is_falsified():
    parsed = parse_ring_spec(doc({
        "m": 2,
        "ring": {"kind": "gf", "p": 3},
        "checks": ["graded_m_nil_clean"],
        "expected": {"graded_m_nil_clean": True},
    }))
    (report,) = run_checks(parsed)
    assert report.status == "falsified"
    assert report.witness is not None
    assert exit_code([report]) == 1


def test_group_ring_transfer_claim_is_falsified_on_z4_c2():
    """The p-nilpotent transfer hypotheses hold for the C2 group ring over
    Z4 at m = 2, yet the monomial at the non-identity position admits no
    homogeneous decomposition: the run must say 'falsified' with it."""
    parsed = parse_ring_spec(corpus_document("group-ring-z4-c2"))
    reports = {r.name: r for r in run_checks(parsed)}
    transfer = reports["group_ring_clean_transfer"]
    assert transfer.status == "falsified"
    assert "1*g1" in transfer.witness
    assert reports["augmentation_nilpotent"].status == "pass"
    # the plain counterpart: decision is negative although hypotheses hold
    decision = reports["graded_m_nil_clean"]
    assert decision.status == "falsified"


def test_every_registered_check_runs_somewhere_in_the_corpus():
    executed = set()
    for name, text in corpus_documents():
        parsed = parse_ring_spec(text)
        executed.update(parsed.checks)
    assert executed == set(CHECK_REGISTRY)


def test_corpus_contains_the_required_instances():
    names = set(corpus_names())
    assert {"t2-gf3-c2", "t2-gf4-c2", "m2-z3-swap", "t2-z2-c2", "diag-m2-z4",
            "t2-z4-c2", "t3-z2-c2", "group-ring-z4-c2", "amalg-z4-j2",
            "product-t2gf3-gf3", "quotient-t2z4-strict"} <= names


def test_falsified_machine_record_carries_the_witness():
    parsed = parse_ring_spec(corpus_document("group-ring-z4-c2"))
    reports = run_checks(parsed, checks=["group_ring_clean_transfer"])
    payload = json.loads(emit_report([(parsed.name, reports)], fmt="machine"))
    (record,) = payload["records"]
    assert record["status"] == "falsified"
    assert record["witness"] and "1*g1" in record["witness"]
    assert record["detail"]
    assert payload["summary"]["falsified"] == 1


def test_emit_report_formats():
    parsed = parse_ring_spec(doc({
        "m": 2, "ring": {"kind": "zn", "n": 4}, "checks": ["graded_m_nil_clean"],
        "expected": {"graded_m_nil_clean": True},
    }))
    reports = run_checks(parsed)
    text = emit_report([("z4", reports)], fmt="text")
    assert "graded_m_nil_clean" in text and "summary:" in text
    machine = json.loads(emit_report([("z4", reports)], fmt="machine"))
    assert machine["records"][0]["entry"] == "z4"
    assert machine["records"][0]["status"] == "pass"
    assert machine["summary"]["pass"] == 1
    empty = emit_report([], fmt="text")
    assert "summary:" in empty


# ---------------------------------------------------------------------------
# counterexample search


def test_search_unknown_target():
    with pytest.raises(KeyError):
        counterexample_search("nope", budget=1)


def test_search_empty_budget():
    report = counterexample_search("re_mnc_implies_graded_mnc", budget=0)
    assert report.tested == 0 and not report.found and report.vacuous


def test_search_finds_the_identity_component_counterexample():
    report = counterexample_search("re_mnc_implies_graded_mnc", budget=400, seed=7)
    assert report.found
    assert report.hypothesis_hits > 0
    # the group-ring family is where the finite counterexamples live
    assert any("group_ring" in c for c in report.counterexamples)


def test_search_finds_group_ring_transfer_counterexample():
    report = counterexample_search("group_ring_transfer_p_nilpotent", budget=400, seed=7)
    assert report.found


def test_search_reports_are_deterministic():
    a = counterexample_search("triangular_equivalence", budget=150, seed=3)
    b = counterexample_search("triangular_equivalence", budget=150, seed=3)
    assert a.to_dict()["counterexamples"] == b.to_dict()["counterexamples"]
    assert a.tested == b.tested and a.hypothesis_hits == b.hypothesis_hits


def test_forward_targets_clean_on_modest_budget():
    for target in FORWARD_TARGETS:
        report = counterexample_search(target, budget=120, seed=11)
        assert not report.found, f"{target}: {report.counterexamples}"


def test_search_instances_share_one_grading_across_m(monkeypatch):
    parsed_docs = []
    parse = search.parse_ring_spec

    def counted(text, limits):
        parsed_docs.append(json.loads(text))
        return parse(text, limits)

    monkeypatch.setattr(search, "parse_ring_spec", counted)
    monkeypatch.setattr(search, "_SHAPES", {})
    shape = ("triangular", "z2", "c2", (2, (0, 1)))
    insts = [search._instance(shape + (m,)) for m in (2, 3, 5)]
    assert len({id(inst.grading) for inst in insts}) == 1
    assert [inst.m for inst in insts] == [2, 3, 5]
    assert [inst.name.rsplit(" ", 1)[1] for inst in insts] == ["m=2", "m=3", "m=5"]
    assert insts[0].ideal is insts[2].ideal
    assert parsed_docs == [search._shape_document(shape)]
    # over the search's ring cap, and a quotient by a non-nilpotent generator
    for none_shape in (("matrix", "z6", "c2", (3, (0, 0, 0))), ("quotient", "z3", "c1", 1)):
        assert all(search._instance(none_shape + (m,)) is None for m in (2, 3, 4))
    assert len(parsed_docs) == 3


def test_search_target_runs_the_registered_check():
    """One definition: the corpus check and the search target agree on the
    deliberate group-ring finding, each in its own witness format."""
    parsed = parse_ring_spec(corpus_document("group-ring-z4-c2"))
    (report,) = run_checks(parsed, checks=["group_ring_clean_transfer"])
    assert (report.status, report.witness) == ("falsified", "1*g1 (degree 1)")
    status, witness, detail = TARGETS["group_ring_transfer_p_nilpotent"](parsed)
    assert status == "falsified"
    assert (witness or detail) == "1*g1"


def test_search_target_returns_a_miss_over_the_element_cap():
    spec = search._instance(("matrix", "z2", "c2", (3, (0, 0, 0)), 2))
    assert spec.grading.ring.size == 512 > search.SEARCH_LIMITS.element_check_cap
    status, _witness, detail = TARGETS["strongly_clean_gives_pi_regular_decomposition"](spec)
    assert status == "skipped-resource"
    assert "limit 256" in detail


def _family_shapes():
    """Every shape (kind, ring, group, param) the search can draw: 650 in all."""
    for r in search._BASE_RINGS:
        for g in search._GROUPS:
            yield "leaf", r, g, None
            yield "group_ring", r, g, None
            for other in search._BASE_RINGS:
                yield "product", r, g, other
            for kind in ("triangular", "matrix"):
                for n in (2, 3):
                    for sigma in itertools.product(range(int(g[1:])), repeat=n):
                        yield kind, r, g, (n, sigma)
        for n in (2, 3):
            yield "diagonal_z", r, "c1", n
        for gen in (1, 2, 3, "all"):
            yield "amalgamation", r, "c1", gen
        for gen in (1, 2, 3):
            yield "quotient", r, "c1", gen


def test_search_family_is_pinned_and_round_trips():
    """The whole family: which shapes build, why the rest are rejected, and
    that each built instance's emitted document rebuilds it."""
    shapes = list(_family_shapes())
    assert len(shapes) == len(set(shapes)) == 650
    built, over_cap, quotient_rule = [], [], []
    for shape in shapes:
        inst = search._instance(shape + (3,))
        if inst is not None:
            built.append(inst)
            continue
        try:
            parse_ring_spec(json.dumps(search._shape_document(shape)), search.SEARCH_LIMITS)
        except ResourceLimitError:
            over_cap.append(shape)
            continue
        assert shape[0] == "quotient", shape
        quotient_rule.append(shape)
    assert (len(built), len(over_cap), len(quotient_rule)) == (367, 271, 12)
    assert Counter(s[0] for s in over_cap) == {"matrix": 158, "triangular": 108,
                                               "diagonal_z": 5}
    for inst in built:
        again = parse_ring_spec(emit_ring_spec(inst))
        assert (again.name, again.m, again.kind) == (inst.name, 3, inst.kind)
        assert again.grading.ring.size == inst.grading.ring.size, inst.name
        assert again.grading.components == inst.grading.components, inst.name
        assert (again.ideal is None) == (inst.ideal is None), inst.name
        if inst.ideal is not None:
            assert again.ideal.elements == inst.ideal.elements, inst.name


def _graded_cases(corpus_cap, family_cap):
    """Every corpus grading of at most `corpus_cap` elements, with its base,
    factor and image gradings, and every search-family grading of at most
    `family_cap` elements."""
    for name, text in corpus_documents():
        parsed = parse_ring_spec(text)
        meta = parsed.meta
        gradings = [parsed.grading, meta.get("base"), meta.get("a"), meta.get("image")]
        for i, grading in enumerate(gradings + meta.get("factors", [])):
            if grading is not None and grading.ring.size <= corpus_cap:
                yield f"{name}/{i}", grading
    for shape in _family_shapes():
        inst = search._instance(shape + (3,))
        if inst is not None and inst.grading.ring.size <= family_cap:
            yield inst.name, inst.grading


def test_radical_and_locality_match_the_ideal_lattice(monkeypatch):
    """The unit rule gives the lattice's J^g (the intersection of the maximal
    homogeneous right ideals) and its locality verdict (exactly one)."""
    cases = list(_graded_cases(256, 128))
    with monkeypatch.context() as patch:
        def no_lattice(*_args, **_kwargs):
            raise AssertionError("the decision path listed the ideal lattice")

        patch.setattr(grading_module, "graded_maximal_right_ideals", no_lattice)
        rule = []
        for _label, grading in cases:
            grading._memo.pop("jg", None)
            rule.append((graded_jacobson_radical(grading).elements, is_graded_local(grading)))
    assert len(cases) == 49 + 249  # corpus gradings, then family shapes
    for (label, grading), (jg, local) in zip(cases, rule):
        maximal = graded_maximal_right_ideals(grading)
        lattice_jg = (frozenset.intersection(*[m.elements for m in maximal]) if maximal
                      else frozenset(grading.ring.elements()))
        assert jg == lattice_jg, label
        assert local == (len(maximal) == 1), label


def _subring_answers(ring, comp):
    """The identity-component answers of R_e built as a ring of its own, in
    ambient elements: per m = 2..6 the first element that is not m-nil
    clean and the first that is not strongly so (by enumeration), each
    element's first strongly pi-regular decomposition (f, u), and J(R_e)."""
    sub, _index, members = subring_from_elements(ring, comp)
    ambient = {None: None, **dict(enumerate(members))}
    unclean = []
    for m in range(2, 7):
        bad = m_nil_clean_ring_witness(sub, m)
        assert (bad is None) == is_m_nil_clean_ring(sub, m)
        strong_bad = next((x for x in sub.elements()
                           if m_nil_clean_witness(sub, x, m, strong=True) is None), None)
        unclean.append((ambient[bad], ambient[strong_bad]))
    pi = []
    for x in sub.elements():
        cert = pi_regular_witness(sub, x)
        pi.append(None if cert is None else (members[cert.f], members[cert.u]))
    radical = frozenset(members[i] for i in jacobson_radical(sub))
    return sub, (unclean, pi, radical)


def _identity_component_answers(grading):
    """The same answers, asked in R."""
    unclean = []
    for m in range(2, 7):
        for strong in (False, True):
            grading._memo.pop(("re-unclean", m, strong), None)
        unclean.append((identity_component_unclean(grading, m),
                        identity_component_unclean(grading, m, strong=True)))
    pi = []
    for x in sorted(grading.component(grading.group.identity)):
        cert = identity_component_pi_regular_witness(grading, x)
        pi.append(None if cert is None else (cert.f, cert.u))
    return unclean, pi, identity_component_radical(grading)


def _assert_strong_criterion(ring, label):
    """x^m - x nilpotent iff the enumeration finds a commuting split."""
    for m in range(2, 7):
        for x in ring.elements():
            assert is_strongly_m_nil_clean(ring, x, m) == (
                m_nil_clean_witness(ring, x, m, strong=True) is not None), (label, m, x)


def test_identity_component_answers_match_the_subring():
    """R_e asked in R gives what R_e built as a ring of its own gives, on
    every grading of the cases; the strong-cleanness criterion matches the
    enumeration on each ring of at most 256 elements and each R_e.  Shapes
    that differ only in their grading group share a ring (label and size)
    and an R_e, so each such subring, its answers and the criterion sweeps
    are computed once."""
    cases = list(_graded_cases(float("inf"), 256))
    assert len(cases) == 50 + 294  # corpus gradings, then family shapes
    oracles, swept = {}, set()
    for label, grading in cases:
        ring = grading.ring
        comp = grading.component(grading.group.identity)
        key = (ring.label, ring.size, comp)
        if key not in oracles:
            sub, oracles[key] = _subring_answers(ring, comp)
            _assert_strong_criterion(sub, label)
        assert _identity_component_answers(grading) == oracles[key], label
        if ring.size <= 256 and (ring.label, ring.size) not in swept:
            swept.add((ring.label, ring.size))
            _assert_strong_criterion(ring, label)
    assert (len(oracles), len(swept)) == (92, 78)


def test_no_claim_builds_a_subring(monkeypatch):
    """Every corpus entry's checks and every search target on the catalog
    instances of at most 256 elements run without building a subring.
    Documents are parsed first: amalgamations build their image subrings."""
    parsed = [parse_ring_spec(text) for _name, text in corpus_documents()]
    catalog = [spec for key in search._catalog_keys()
               if (spec := search._instance(key)) is not None
               and spec.grading.ring.size <= 256]
    original = rings_module.subring_from_elements
    calls = []

    def counted(ring, *args, **kwargs):
        calls.append(ring.label)
        return original(ring, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("gradednil")
                and getattr(module, "subring_from_elements", None) is original):
            monkeypatch.setattr(module, "subring_from_elements", counted)
    for spec in parsed:
        run_checks(spec)
    for spec in catalog:
        for run in TARGETS.values():
            run(spec)
    assert len(TARGETS) == 13 and catalog
    assert calls == []


def test_search_counterexample_reproduces_from_its_document(tmp_path, capsys):
    report = counterexample_search("group_ring_transfer_p_nilpotent", budget=400, seed=7,
                                   stop_at_first=True)
    name, witness = report.counterexamples[0][:-1].split(" [")
    inst = next(spec for spec in search.instance_stream(7) if spec.name == name)
    document = json.loads(emit_ring_spec(inst))
    assert document["name"] == name
    document["checks"] = ["group_ring_clean_transfer"]
    spec = tmp_path / "counterexample.json"
    spec.write_text(doc(document))
    assert main(["check", str(spec)]) == 1
    out = capsys.readouterr().out
    assert "falsified" in out
    assert f"witness: {witness} (degree " in out


def test_target_partition():
    assert set(EXPECTED_COUNTEREXAMPLE_TARGETS) <= set(TARGETS)
    assert not set(EXPECTED_COUNTEREXAMPLE_TARGETS) & set(FORWARD_TARGETS)


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_and_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(doc({
        "m": 2, "ring": {"kind": "zn", "n": 4},
        "checks": ["graded_m_nil_clean"], "expected": {"graded_m_nil_clean": True},
    }))
    assert main(["check", str(good)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(doc({"m": 2, "ring": {"kind": "nope"}}))
    assert main(["check", str(bad)]) == 2

    falsify = tmp_path / "falsify.json"
    falsify.write_text(doc({
        "m": 2, "ring": {"kind": "gf", "p": 3},
        "checks": ["graded_m_nil_clean"], "expected": {"graded_m_nil_clean": True},
    }))
    assert main(["check", str(falsify)]) == 1


@pytest.mark.parametrize("ring", [
    {"kind": "matrix", "base": {"kind": "zn", "n": 4}, "n": 3},
    {"kind": "group_ring", "base": _Z4_C3, "group": {"kind": "cyclic", "n": 3}},
    {"kind": "zn", "n": 257},  # over the leaf table cap, whatever --max-elements says
], ids=["matrix", "group_ring", "zn"])
def test_cli_cap_hit_while_building_exits_3(ring, tmp_path, capsys):
    with pytest.raises(ResourceLimitError):
        parse_ring_spec(doc({"m": 2, "ring": ring}), Limits(max_elements=32))
    spec = tmp_path / "big.json"
    spec.write_text(doc({"m": 2, "ring": ring}))
    for verb in ("check", "radical"):
        assert main(["--max-elements", "32", verb, str(spec)]) == 3
        assert capsys.readouterr().err.startswith("error: ")


def test_gf_table_bound_is_checked_before_primality():
    """An oversized p is refused by the table bound, before trial division
    (about 10^8 steps for this prime) could start."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        parse_ring_spec(doc({"m": 2, "ring": {"kind": "gf", "p": 10000000000000061}}))
    with pytest.raises(ResourceLimitError):
        make_gf(2, 10**18)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValidationError):
        make_gf(4)
    with pytest.raises(SpecError):
        parse_ring_spec(doc({"m": 2, "ring": {"kind": "gf", "p": 4}}))


def test_cli_corpus_cap_hit_while_building_exits_3(capsys):
    assert main(["--max-elements", "32", "corpus"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_check_emit_spec(tmp_path, capsys):
    spec = tmp_path / "z4.json"
    spec.write_text(doc({
        "m": 2, "ring": {"kind": "zn", "n": 4},
        "checks": ["graded_m_nil_clean"], "expected": {"graded_m_nil_clean": True},
    }))
    assert main(["check", str(spec), "--emit-spec"]) == 0
    out = capsys.readouterr().out
    canonical = out[out.index("{"):]
    reparsed = parse_ring_spec(canonical)
    assert reparsed.grading.ring.size == 4


def test_cli_radical(tmp_path, capsys):
    spec = tmp_path / "z4.json"
    spec.write_text(doc({"m": 2, "ring": {"kind": "zn", "n": 4}}))
    assert main(["radical", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "2 element(s)" in out
    assert main(["radical", str(spec), "--graded"]) == 0


def test_cli_search(capsys):
    assert main(["search", "--list-targets"]) == 0
    out = capsys.readouterr().out
    assert "re_mnc_implies_graded_mnc" in out
    assert main(["search", "--target", "diagonal_z_equivalence",
                 "--budget", "50", "--seed", "1", "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] is False


def test_cli_corpus_single_entry(capsys):
    assert main(["corpus", "--only", "z4-trivial"]) == 0
    out = capsys.readouterr().out
    assert "entry z4-trivial" in out


def test_cli_report_is_the_corpus_verb(capsys):
    def run(verb):
        code = main([verb, "--only", "zero-ring", "--format", "machine"])
        payload = json.loads(capsys.readouterr().out)
        for record in payload["records"]:
            del record["seconds"]
        return code, payload

    report = run("report")
    assert report == run("corpus")
    assert report[1]["records"]


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gradednil.cli", "search", "--list-targets"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "triangular_equivalence" in proc.stdout
