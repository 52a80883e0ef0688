"""gradednil benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 32 --trace 0

Every timed pass runs in its own fresh interpreter (``worker.py``), one after
another, never two at once.  ``--trace 0`` runs a fixed number of passes for
``--seconds`` (the count depends only on ``--seconds``, so the item-time
percentiles always rest on the same sample count) and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass of
the workload, traced passes of the other workloads, and the ring-op micro
measurements.  It reports the per-layer metrics summed over the three traced
passes, so that every layer is measured in every traced run, plus the
workload's tracing overhead.  Every output is checked against the references (see
``verify.py``).  Each metric is printed with its unit, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero, with no JSON line, when a pass
cannot run at all.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing
import verify
import worker

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
# a fixed hash seed keeps set iteration order, and so timing, equal across runs
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

# --seconds budgeted per pass (an untraced pass takes about 7.5 s, 18 s and
# 6.5 s on a 2-core x86-64 machine).  At --seconds 32 this gives 4, 1 and 4
# passes: the pooled item sample then holds 4 copies of each corpus entry or
# document, and the tail sample (the 11th largest) sits inside one entry's
# copies instead of at the edge between two entries.  One search pass
# already holds over 3000 instances.
PASS_SECONDS = {"corpus": 8, "search": 32, "construct": 8}
# setup_s is the median of at least this many fresh-interpreter set-ups
MIN_SETUPS = 7
DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

CHECK_NAMES = [
    "amalgamation_equivalence", "augmentation_nilpotent", "commuting_equivalence",
    "diagonal_z_equivalence", "graded_commuting_equivalence", "graded_local",
    "graded_local_sufficiency", "graded_m_nil_clean", "graded_strongly_m_nil_clean",
    "group_ring_base_recovery", "group_ring_clean_transfer",
    "homogeneous_m_potent_degree", "homomorphic_image_closure",
    "identity_component_m_nil_clean", "identity_component_strongly_pi_regular",
    "jg_graded_nil", "jg_meets_identity_component", "jg_quotient_equivalence",
    "m_potent_lifting", "matrix_identity_sigma_transfer", "nonidentity_components_nil",
    "orthogonal_components_sufficiency", "pi_regular_uniqueness",
    "product_factors_equivalence", "quotient_equivalence",
    "radical_homogeneous_containment", "same_component_witness",
    "strongly_clean_without_pi_regular", "strongly_pi_regular_construction",
    "torsion_free_m_potents_in_identity", "triangular_equivalence",
]
TARGET_NAMES = [
    "amalgamation_equivalence", "diagonal_z_equivalence", "graded_mnc_implies_re_mnc",
    "group_ring_transfer_p_nilpotent", "homogeneous_m_potent_degree",
    "jg_graded_nil_when_clean", "orthogonal_components_sufficiency",
    "product_equivalence", "quotient_equivalence", "re_mnc_implies_graded_mnc",
    "strongly_clean_gives_pi_regular_decomposition", "torsion_free_nonidentity_nil",
    "triangular_equivalence",
]
RING_KINDS = list(tracing.RING_KINDS.values())

PER_LAYER = (
    [(f"rings.{op}_calls.{kind}", "count") for op in ("mul", "add") for kind in RING_KINDS]
    + [(f"rings.{op}_ns.{ring}", "ns") for op in ("mul", "add")
       for ring in worker.RINGOP_RINGS]
    + [("rings.subring_from_elements_calls", "count"), ("rings.subring_from_elements_s", "s"),
       ("rings.additive_span_calls", "count"), ("rings.additive_span_s", "s"),
       ("rings.quotient_ring_s", "s"), ("rings.jacobson_radical_s", "s"),
       ("rings.unit_map_s", "s"), ("rings.nilpotency_index_calls", "count"),
       ("rings.inverse_of_calls", "count"),
       ("grading.verify_grading_calls", "count"), ("grading.verify_grading_s", "s"),
       ("grading.homogeneous_unit_inverse_calls", "count"),
       ("grading.homogeneous_unit_inverse_s", "s"),
       ("grading.graded_maximal_right_ideals_s", "s"),
       ("grading.graded_jacobson_radical_s", "s"), ("grading.graded_quotient_s", "s")]
    + [(f"constructions.{b}_s", "s") for b in (
        "matrix_graded", "triangular_graded", "diagonal_z_grading", "group_ring_graded",
        "product_grading", "amalgamation", "augmentation_ideal")]
    + [("nilclean.m_nil_clean_witness_calls", "count"),
       ("nilclean.m_nil_clean_witness_s", "s"),
       ("nilclean.graded_m_nil_clean_witness_calls", "count"),
       ("nilclean.graded_m_nil_clean_witness_s", "s"),
       ("nilclean.witness_found_ratio", "ratio"),
       ("nilclean.is_m_nil_clean_ring_s", "s"), ("nilclean.is_graded_m_nil_clean_ring_s", "s"),
       ("nilclean.pi_regular_s", "s"), ("nilclean.commuting_equivalence_s", "s")]
    + [(f"checks.{name}_s", "s") for name in CHECK_NAMES]
    + [("checks.vacuous_share", "ratio"),
       ("specfile.parse_ring_spec_s", "s"), ("specfile.emit_ring_spec_s", "s")]
    + [(f"search.{name}_s", "s") for name in TARGET_NAMES]
    + [("search.instance_build_s", "s"), ("search.hit_ratio", "ratio"),
       ("cli.emit_report_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_share", "ratio")]
)


class PassError(RuntimeError):
    pass


class Runner:
    """Spawns worker processes one at a time within the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, *extra) -> tuple[dict, int]:
        """Run the worker; returns its JSON result and its spawn time (ns)."""
        cmd = [sys.executable, WORKER, *extra, "--seed", str(self.args.seed),
               "--search-seed", str(self.args.search_seed)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise PassError("run deadline passed before the next pass")
        spawned_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise PassError(f"pass {extra} overran the run deadline") from exc
        if proc.returncode != 0:
            raise PassError(f"pass {extra} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), spawned_ns

    def timed_pass(self, workload: str, trace: bool = False) -> dict:
        result, spawned_ns = self.spawn(workload, *(["--trace"] if trace else []))
        result["setup_s"] = (result["ready_ns"] - spawned_ns) / 1e9
        return result

    def setup_only(self) -> float:
        result, spawned_ns = self.spawn(self.args.workload, "--setup-only")
        return (result["ready_ns"] - spawned_ns) / 1e9


def check_outputs(args, workload: str, outputs: dict):
    if workload == "corpus":
        return verify.check_corpus(outputs)
    if workload == "search":
        return verify.check_search(outputs, worker.SEARCH_BUDGET, args.search_seed)
    return verify.check_construct(outputs, args.seed)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that still
    has ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1  # too few samples: the maximum
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    walls = [p["wall_s"] for p in passes]
    items = [t for p in passes for t in p["item_s"]]
    tail_value, tail_pct, tail_n = tail(items)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(len(p["item_s"]) / p["wall_s"] for p in passes),
        "item_p50_ms": statistics.median(items) * 1000,
        "item_tail_ms": tail_value * 1000,
        "peak_rss_mib": statistics.median(p["peak_rss_kib"] for p in passes) / 1024,
    }
    notes = [
        f"passes: {len(passes)}, items per pass: {len(passes[0]['item_s'])}, "
        f"setups: {len(setups)}",
        f"item_tail_ms is the p{tail_pct:.2f} item time over {tail_n} items",
    ]
    return values, notes


def per_layer(untraced: dict, traced: dict, ringops: dict) -> tuple[dict, list[str]]:
    """Layer values summed over the traced passes of every workload; the
    overhead compares the run's workload traced and untraced."""
    values = {name: 0 for name, _unit in PER_LAYER}
    for layers in (p["layers"] for p in traced.values()):
        for key, value in layers.items():
            if key in values:
                values[key] += value
    found = sum(p["layers"]["nilclean.witness_found"] for p in traced.values())
    calls = sum(p["layers"].get(f"{name}_calls", 0)
                for p in traced.values() for name in tracing.WITNESS_SPANS)
    values["nilclean.witness_found_ratio"] = found / calls
    values["checks.vacuous_share"] = traced["corpus"]["layers"]["checks.vacuous_share"]
    values["search.hit_ratio"] = traced["search"]["layers"]["search.hit_ratio"]
    values.update(ringops["metrics"])
    own = traced[untraced["workload"]]
    values["trace.wall_s"] = own["wall_s"]
    values["trace.overhead_share"] = own["wall_s"] / untraced["wall_s"] - 1
    notes = [
        f"untraced wall_s {untraced['wall_s']:.4f} s, traced wall_s "
        f"{own['wall_s']:.4f} s, tracing overhead {values['trace.overhead_share']:.1%}",
    ] + [f"{w}: traced wall_s {p['wall_s']:.4f} s, {p['spans']} spans written to "
         f"{p['spans_path']}" for w, p in traced.items()]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--search-seed", type=int, default=worker.SEARCH_SEED,
                        help="re-check a claim on another recorded search seed (11)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run so that it kills and reaps
    # the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(ROOT, "src", "gradednil")):
        print(f"error: no gradednil sources under {ROOT}/src", file=sys.stderr)
        return 2
    runner = Runner(args)
    attempted = failed = 0
    problems: list[str] = []
    try:
        if args.trace:
            untraced = runner.timed_pass(args.workload)
            traced = {w: runner.timed_pass(w, trace=True) for w in PASS_SECONDS}
            ringops, _ = runner.spawn("ringops")
            passes = [untraced, *traced.values()]
            values, notes = per_layer(untraced, traced, ringops)
            units = dict(PER_LAYER)
            attempted += ringops["attempted"]
            failed += ringops["failed"]
            if ringops["failed"]:
                problems.append(f"ring ops: {ringops['failed']} results differ "
                                "from the benchmark's own arithmetic")
        else:
            count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            setups = [runner.setup_only() for _ in range(max(0, MIN_SETUPS - count))]
            passes = [runner.timed_pass(args.workload) for _ in range(count)]
            setups += [p["setup_s"] for p in passes]
            values, notes = end_to_end(passes, setups)
            units = dict(END_TO_END)
        for p in passes:
            a, f, probs = check_outputs(args, p["workload"], p["outputs"])
            attempted, failed = attempted + a, failed + f
            problems += probs
    except (PassError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for note in notes:
        print(note)
    print(f"failed_share = {failed}/{attempted} = {failed / attempted:.6g}")
    for problem in sorted(set(problems)):
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
