"""One benchmark pass, run by ``run.py`` in a fresh interpreter.

    python3 bench/worker.py WORKLOAD --seed N [--setup-only] [--trace]
    python3 bench/worker.py ringops --seed N

A fresh process per pass keeps the library's per-ring memos and the search's
shared instance factory empty at the start, as they are for a command-line
user.  The worker imports gradednil from ``src/`` next to this directory,
prepares the workload's inputs, runs the timed pass and prints one JSON line:
the moment its inputs were ready (a monotonic clock shared with the parent),
per-item seconds, the pass's wall seconds, its peak resident memory, and the
outputs the parent checks against the references.  ``--trace`` wraps the
library's layer functions first (see ``tracing.py``) and adds per-layer
numbers; ``ringops`` times ring arithmetic on rings from corpus entries.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("corpus", "search", "construct")

# the search seed changes the cost (budget 300: 41.5 s with seed 7, 25.4 s
# with seed 11), so every commit runs this recorded one
SEARCH_SEED = 7
# the catalog sweep is 244 instances; a larger budget lets the seed matter
SEARCH_BUDGET = 260


def import_library():
    """Import gradednil from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import gradednil

    if not os.path.abspath(gradednil.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gradednil imported from {gradednil.__file__}, not {SRC}")
    return gradednil


def prepare_inputs(workload: str, seed: int):
    if workload == "corpus":
        from gradednil.corpus import corpus_documents

        return corpus_documents()
    if workload == "search":
        from gradednil.search import TARGETS

        return sorted(TARGETS)
    from docs import construct_documents

    return construct_documents(seed)


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def corpus_pass(documents, tracer):
    """Each entry as `gradednil check FILE` runs it: parse, check, render."""
    from gradednil.checks import run_checks
    from gradednil.cli import emit_report
    from gradednil.specfile import parse_ring_spec

    entries, item_s, errors = [], [], {}
    for name, text in documents:
        if tracer:
            tracer.set_item(name)
        start = perf_counter()
        try:
            reports = run_checks(parse_ring_spec(text))
            emit_report([(name, reports)], fmt="machine")
            entries.append((name, reports))
        except Exception as exc:  # counted as a failed operation, pass goes on
            errors[name] = repr(exc)
        item_s.append(perf_counter() - start)
    # the whole-corpus report is rendered for checking only, outside the items
    report = _unwrapped(emit_report)(entries, fmt="machine")
    return item_s, {"report": report, "errors": errors}


def search_pass(targets, tracer, budget: int, seed: int):
    """counterexample_search for every target; an item is one instance tested.

    Each target's evaluation function is wrapped to stamp the clock when an
    instance's verdict is in, so an item's time runs from the previous verdict
    (or the call) and includes pulling the instance from the stream.
    """
    from gradednil import search

    item_s, reports, errors = [], {}, {}
    for target in targets:
        if tracer:
            tracer.set_item(target)
        evaluate = search.TARGETS[target]
        stamps = []

        def probe(inst, evaluate=evaluate, stamps=stamps):
            result = evaluate(inst)
            stamps.append(perf_counter())
            return result

        search.TARGETS[target] = probe
        start = perf_counter()
        try:
            report = search.counterexample_search(target, budget=budget, seed=seed)
            out = report.to_dict()
            del out["seconds"]
            reports[target] = out
        except Exception as exc:  # counted as a failed operation, pass goes on
            errors[target] = repr(exc)
        finally:
            search.TARGETS[target] = evaluate
        prev = start
        for stamp in stamps:
            item_s.append(stamp - prev)
            prev = stamp
    return item_s, {"reports": reports, "errors": errors}


def construct_pass(documents, tracer):
    """parse -> emit -> parse -> emit per document, no checks run."""
    from gradednil.specfile import emit_ring_spec, parse_ring_spec

    item_s, results = [], []
    for name, text in documents:
        if tracer:
            tracer.set_item(name)
        start = perf_counter()
        try:
            first = parse_ring_spec(text)
            emitted = emit_ring_spec(first)
            second = parse_ring_spec(emitted)
            fixed = emit_ring_spec(second) == emitted
            results.append({"name": name, "size": first.grading.ring.size,
                            "size_again": second.grading.ring.size, "fixed_point": fixed})
        except Exception as exc:  # counted as a failed operation, pass goes on
            results.append({"name": name, "error": repr(exc)})
        item_s.append(perf_counter() - start)
    return item_s, {"documents": results}


def layer_metrics(tracer, workload: str, outputs: dict) -> dict:
    """Per-layer values from the tracer and the pass's outputs."""
    values = {}
    for name, seconds in tracer.self_s.items():
        values[f"{name}_s"] = seconds
        values[f"{name}_calls"] = tracer.calls[name]
    for key, cell in tracer.counts.items():
        values[key] = cell[0]
    values["nilclean.witness_found"] = tracer.found
    if workload == "corpus":
        records = json.loads(outputs["report"])["records"]
        passes = [r for r in records if r["status"] == "pass"]
        vacuous = [r for r in passes if r["detail"].startswith("vacuous")]
        values["checks.vacuous_share"] = len(vacuous) / len(passes) if passes else 0.0
    if workload == "search":
        reports = outputs["reports"].values()
        tested = sum(r["tested"] for r in reports)
        hits = sum(r["hypothesis_hits"] for r in reports)
        values["search.hit_ratio"] = hits / tested if tested else 0.0
    return values


# ---------------------------------------------------------------------------
# ring arithmetic micro measurements

# metric suffix -> corpus entry whose ring is timed
RINGOP_RINGS = {
    "z9": "z9-trivial",
    "m2_z4": "m2-z4-sigma-ee",
    "t3_z4": "t3-z4-c2",
    "z4_c2": "group-ring-z4-c2",
    "product_t2gf3_gf3": "product-t2gf3-gf3",
}
RINGOP_PAIRS = 3000
RINGOP_REPEATS = 7


def _mat(entries: dict, n: int, modulus: int):
    return [[entries.get((i, j), 0) % modulus for j in range(n)] for i in range(n)]


def _mat_mul(a, b, modulus):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % modulus for j in range(n)]
            for i in range(n)]


def _mat_add(a, b, modulus):
    return [[(x + y) % modulus for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _matrix_reference(n, modulus):
    """Reference ops on decode() output of an n x n (or triangular) matrix ring
    whose base is Z_modulus with element index = residue."""
    def lift(ring, x):
        return _mat(ring.decode(x), n, modulus)
    return (lambda ring, a, b: _mat_mul(lift(ring, a), lift(ring, b), modulus),
            lambda ring, a, b: _mat_add(lift(ring, a), lift(ring, b), modulus),
            lift)


def _group_ring_reference(order, modulus):
    """Z_modulus[C_order] by coefficient convolution on decode() output."""
    def lift(ring, x):
        coeffs = ring.decode(x)
        return [coeffs.get(h, 0) % modulus for h in range(order)]

    def mul(ring, a, b):
        ca, cb = lift(ring, a), lift(ring, b)
        out = [0] * order
        for g, x in enumerate(ca):
            for h, y in enumerate(cb):
                out[(g + h) % order] = (out[(g + h) % order] + x * y) % modulus
        return out

    def add(ring, a, b):
        return [(x + y) % modulus for x, y in zip(lift(ring, a), lift(ring, b))]
    return mul, add, lift


def _product_reference():
    """T_2(GF(3)) x GF(3), componentwise on decode() output."""
    def lift(ring, x):
        t, g = ring.decode(x)
        return (_mat(ring.factors[0].decode(t), 2, 3), g % 3)

    def mul(ring, a, b):
        (ta, ga), (tb, gb) = lift(ring, a), lift(ring, b)
        return (_mat_mul(ta, tb, 3), (ga * gb) % 3)

    def add(ring, a, b):
        (ta, ga), (tb, gb) = lift(ring, a), lift(ring, b)
        return (_mat_add(ta, tb, 3), (ga + gb) % 3)
    return mul, add, lift


# metric suffix -> (mul(ring, a, b), add(ring, a, b), lift(ring, x)), all
# computed by the benchmark from residues, never by the ring's own arithmetic
RINGOP_REFERENCE = {
    "z9": (lambda ring, a, b: (a * b) % 9, lambda ring, a, b: (a + b) % 9,
           lambda ring, x: x),
    "m2_z4": _matrix_reference(2, 4),
    "t3_z4": _matrix_reference(3, 4),
    "z4_c2": _group_ring_reference(2, 4),
    "product_t2gf3_gf3": _product_reference(),
}


def ringop_mismatches(key, ring, pairs, products, sums, reference=None) -> int:
    """How many products and sums differ from the benchmark's own arithmetic."""
    mul_ref, add_ref, lift = reference or RINGOP_REFERENCE[key]
    bad = 0
    for (a, b), p, s in zip(pairs, products, sums):
        bad += lift(ring, p) != mul_ref(ring, a, b)
        bad += lift(ring, s) != add_ref(ring, a, b)
    return bad


def ringops(seed: int) -> dict:
    """ns per mul/add on each ring, median of repeated loops over fixed pairs."""
    from gradednil.corpus import corpus_document
    from gradednil.specfile import parse_ring_spec

    rng = random.Random(seed)
    metrics, attempted, failed = {}, 0, 0
    for key, entry in RINGOP_RINGS.items():
        ring = parse_ring_spec(corpus_document(entry)).grading.ring
        pairs = [(rng.randrange(ring.size), rng.randrange(ring.size))
                 for _ in range(RINGOP_PAIRS)]
        for op in ("mul", "add"):
            fn = getattr(ring, op)
            times = []
            for _ in range(RINGOP_REPEATS):
                start = time.perf_counter_ns()
                out = [fn(a, b) for a, b in pairs]
                times.append(time.perf_counter_ns() - start)
            metrics[f"rings.{op}_ns.{key}"] = statistics.median(times) / len(pairs)
            if op == "mul":
                products = out
            else:
                sums = out
        attempted += 2 * len(pairs)
        failed += ringop_mismatches(key, ring, pairs, products, sums)
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS + ("ringops",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--search-seed", type=int, default=SEARCH_SEED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_library()
    if args.workload == "ringops":
        print(json.dumps(ringops(args.seed)))
        return 0
    inputs = prepare_inputs(args.workload, args.seed)
    ready_ns = time.monotonic_ns()
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    start = perf_counter()
    if args.workload == "corpus":
        item_s, outputs = corpus_pass(inputs, tracer)
    elif args.workload == "search":
        item_s, outputs = search_pass(inputs, tracer, SEARCH_BUDGET, args.search_seed)
    else:
        item_s, outputs = construct_pass(inputs, tracer)
    wall_s = perf_counter() - start
    result = {
        "workload": args.workload,
        "ready_ns": ready_ns,
        "wall_s": wall_s,
        "item_s": item_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, args.workload, outputs)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        result["spans"] = tracer.write_jsonl(path)
        result["spans_path"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
