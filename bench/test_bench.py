"""Self-test of the benchmark's output checks: a corrupted output, or a
perturbed reference, must show up as a failed operation.

    python3 -m pytest bench/test_bench.py
"""

import copy
import json
import os
import random

import docs
import run
import verify
import worker


def _corpus_outputs(reference):
    report = copy.deepcopy(reference)
    for r in report["records"]:
        r["seconds"] = 0.01
    return {"report": json.dumps(report), "errors": {}}


def _search_outputs(reference):
    return {"reports": copy.deepcopy(reference), "errors": {}}


def _search_reference():
    refs = verify.load_json(verify.SEARCH_REFERENCE)
    return refs[verify.search_key(worker.SEARCH_BUDGET, worker.SEARCH_SEED)]


def test_reference_corpus_report_passes():
    reference = verify.load_json(verify.CORPUS_REFERENCE)
    attempted, failed, problems = verify.check_corpus(_corpus_outputs(reference))
    assert (attempted, failed, problems) == (26 + 2, 0, [])


def test_corrupted_corpus_report_is_counted():
    reference = verify.load_json(verify.CORPUS_REFERENCE)
    corrupted = copy.deepcopy(reference)
    record = next(r for r in corrupted["records"] if r["entry"] == "z9-trivial")
    record["detail"] += " (edited)"
    _attempted, failed, _ = verify.check_corpus(_corpus_outputs(corrupted), reference)
    assert failed == 1


def test_corrupted_corpus_findings_are_counted_without_the_reference_file():
    reference = verify.load_json(verify.CORPUS_REFERENCE)
    corrupted = copy.deepcopy(reference)
    record = next(r for r in corrupted["records"] if r["status"] == "falsified")
    record["status"] = "pass"
    corrupted["summary"]["falsified"] -= 1
    corrupted["summary"]["pass"] += 1
    # the reference is perturbed the same way; the documented findings catch it
    _attempted, failed, _ = verify.check_corpus(_corpus_outputs(corrupted), corrupted)
    assert failed == 2


def test_perturbed_corpus_reference_is_counted():
    reference = verify.load_json(verify.CORPUS_REFERENCE)
    perturbed = copy.deepcopy(reference)
    perturbed["records"][0]["witness"] = "perturbed"
    _attempted, failed, _ = verify.check_corpus(_corpus_outputs(reference), perturbed)
    assert failed == 1


def test_reference_search_reports_pass():
    reference = _search_reference()
    attempted, failed, problems = verify.check_search(
        _search_outputs(reference), worker.SEARCH_BUDGET, worker.SEARCH_SEED)
    assert failed == 0 and problems == []
    assert attempted == sum(r["tested"] for r in reference.values()) + len(run.TARGET_NAMES)


def test_corrupted_search_list_is_counted():
    reference = _search_reference()
    outputs = _search_outputs(reference)
    outputs["reports"]["re_mnc_implies_graded_mnc"]["counterexamples"].pop()
    tested = reference["re_mnc_implies_graded_mnc"]["tested"]
    _attempted, failed, _ = verify.check_search(outputs, 0, 0, reference)
    assert failed == tested


def test_lost_expected_counterexample_is_counted_without_the_reference_file():
    reference = _search_reference()
    corrupted = copy.deepcopy(reference)
    corrupted["group_ring_transfer_p_nilpotent"]["counterexamples"] = []
    _attempted, failed, _ = verify.check_search(_search_outputs(corrupted), 0, 0, corrupted)
    assert failed == 1


def test_perturbed_search_reference_is_counted():
    reference = _search_reference()
    perturbed = copy.deepcopy(reference)
    perturbed["quotient_equivalence"]["hypothesis_hits"] += 1
    _attempted, failed, _ = verify.check_search(_search_outputs(reference), 0, 0, perturbed)
    assert failed == reference["quotient_equivalence"]["tested"]


def _construct_outputs(seed):
    results = []
    for name, text in docs.construct_documents(seed):
        size = docs.ring_size(json.loads(text)["ring"])
        results.append({"name": name, "size": size, "size_again": size, "fixed_point": True})
    return {"documents": results}


def test_construct_checks_count_size_and_fixed_point_errors():
    outputs = _construct_outputs(3)
    attempted, failed, _ = verify.check_construct(outputs, 3)
    assert failed == 0 and attempted == len(outputs["documents"])
    outputs["documents"][5]["size_again"] += 1
    outputs["documents"][9]["fixed_point"] = False
    del outputs["documents"][-1]
    assert verify.check_construct(outputs, 3)[1] == 3


def test_construct_documents_depend_only_on_the_seed():
    assert docs.construct_documents(5) == docs.construct_documents(5)
    assert docs.construct_documents(5) != docs.construct_documents(6)


def test_ringop_reference_catches_a_wrong_result():
    worker.import_library()
    from gradednil.rings import make_zn

    ring = make_zn(9)
    rng = random.Random(0)
    pairs = [(rng.randrange(9), rng.randrange(9)) for _ in range(200)]
    products = [ring.mul(a, b) for a, b in pairs]
    sums = [ring.add(a, b) for a, b in pairs]
    assert worker.ringop_mismatches("z9", ring, pairs, products, sums) == 0
    perturbed = (lambda r, a, b: (a * b + 1) % 9,) + worker.RINGOP_REFERENCE["z9"][1:]
    assert worker.ringop_mismatches("z9", ring, pairs, products, sums, perturbed) == 200


def test_metric_names_follow_the_library_registries():
    worker.import_library()
    from gradednil.checks import CHECK_REGISTRY
    from gradednil.search import EXPECTED_COUNTEREXAMPLE_TARGETS, TARGETS

    assert sorted(CHECK_REGISTRY) == run.CHECK_NAMES
    assert sorted(TARGETS) == run.TARGET_NAMES
    assert EXPECTED_COUNTEREXAMPLE_TARGETS == verify.EXPECTED_COUNTEREXAMPLE_TARGETS


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.PASS_SECONDS)
