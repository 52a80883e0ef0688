"""Output checks: every pass's outputs against the recorded references.

Each function returns ``(attempted, failed, problems)``.  An operation fails
when it raised, or when its output differs from the reference:

* ``corpus``: one operation per entry (its records must equal the reference
  records with ``seconds`` removed), plus two checks of the documented
  findings that do not read the reference file (the summary counts, and the
  three falsified records with their ``1*g1`` witness).
* ``search``: one operation per instance tested; every instance of a target
  fails when the target's ``tested``, ``hypothesis_hits`` or counterexample
  list differs from the reference.  One more operation per target checks
  the expectation: the two expected-counterexample targets find at least one
  counterexample, every forward target finds none.
* ``construct``: one operation per document; ``emit -> parse -> emit`` must
  be a fixed point and both parses must have the size ``docs.ring_size``
  computes from the document.

The deliberate ``falsified`` records are reference behaviour, not failures.
"""

import json
import os

from docs import construct_documents, ring_size

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
CORPUS_REFERENCE = os.path.join(REFERENCE_DIR, "corpus.json")
SEARCH_REFERENCE = os.path.join(REFERENCE_DIR, "search.json")

# documented findings of the bundled corpus
CORPUS_SUMMARY = {"pass": 764, "fail": 15, "falsified": 3, "skipped-resource": 0}
CORPUS_FALSIFIED = {
    ("group-ring-z2-c2", "group_ring_clean_transfer"),
    ("group-ring-z4-c2", "graded_m_nil_clean"),
    ("group-ring-z4-c2", "group_ring_clean_transfer"),
}
FALSIFIED_WITNESS = "1*g1 (degree 1)"

# from gradednil.search; repeated here so the check does not trust the library
EXPECTED_COUNTEREXAMPLE_TARGETS = (
    "re_mnc_implies_graded_mnc",
    "group_ring_transfer_p_nilpotent",
)


def search_key(budget: int, seed: int) -> str:
    return f"budget={budget} seed={seed}"


def strip_seconds(report: dict) -> dict:
    """A machine report without its run-dependent ``seconds`` fields."""
    records = [{k: v for k, v in r.items() if k != "seconds"} for r in report["records"]]
    return {"records": records, "summary": report["summary"]}


def _by_entry(records) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault(r["entry"], []).append(r)
    return out


def load_json(path: str):
    with open(path) as f:
        return json.load(f)


def check_corpus(outputs: dict, reference: dict | None = None):
    reference = reference or load_json(CORPUS_REFERENCE)
    report = strip_seconds(json.loads(outputs["report"]))
    got, want = _by_entry(report["records"]), _by_entry(reference["records"])
    problems = [f"{name}: raised {err}" for name, err in outputs["errors"].items()]
    failed = 0
    for entry in sorted(set(want) | set(got)):
        if got.get(entry) != want.get(entry):
            failed += 1
            if entry not in outputs["errors"]:
                problems.append(f"{entry}: records differ from the reference")
    if report["summary"] != CORPUS_SUMMARY:
        failed += 1
        problems.append(f"summary {report['summary']} != documented {CORPUS_SUMMARY}")
    falsified = [r for r in report["records"] if r["status"] == "falsified"]
    if ({(r["entry"], r["name"]) for r in falsified} != CORPUS_FALSIFIED
            or len(falsified) != len(CORPUS_FALSIFIED)
            or any(r["witness"] != FALSIFIED_WITNESS for r in falsified)):
        failed += 1
        problems.append("falsified records differ from the documented findings")
    return len(set(want) | set(got)) + 2, failed, problems


def check_search(outputs: dict, budget: int, seed: int, reference: dict | None = None):
    if reference is None:
        references = load_json(SEARCH_REFERENCE)
        key = search_key(budget, seed)
        if key not in references:
            raise KeyError(f"no search reference for {key}; run bench/refresh.py")
        reference = references[key]
    reports = outputs["reports"]
    problems = [f"{t}: raised {err}" for t, err in outputs["errors"].items()]
    attempted = failed = 0
    for target in sorted(set(reference) | set(reports)):
        got, want = reports.get(target), reference.get(target)
        tested = max(1, (got or want or {}).get("tested", 1))
        attempted += tested + 1
        fields = ("tested", "hypothesis_hits", "counterexamples")
        if got is None or want is None or any(got[f] != want[f] for f in fields):
            failed += tested
            problems.append(f"{target}: report differs from the reference")
        found = bool(got and got["counterexamples"])
        if found != (target in EXPECTED_COUNTEREXAMPLE_TARGETS):
            failed += 1
            problems.append(f"{target}: counterexample found={found} is not as expected")
    return attempted, failed, problems


def check_construct(outputs: dict, seed: int):
    expected = {name: ring_size(json.loads(text)["ring"])
                for name, text in construct_documents(seed)}
    problems = []
    failed = 0
    results = {r["name"]: r for r in outputs["documents"]}
    for name, size in expected.items():
        r = results.get(name)
        if r is None or "error" in r:
            problems.append(f"{name}: {r['error'] if r else 'missing'}")
        elif not r["fixed_point"]:
            problems.append(f"{name}: emit -> parse -> emit is not a fixed point")
        elif r["size"] != size or r["size_again"] != size:
            problems.append(f"{name}: sizes {r['size']}/{r['size_again']} != {size}")
        else:
            continue
        failed += 1
    return len(expected), failed, problems
