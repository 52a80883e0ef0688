"""Command line interface.

Verbs:

* ``check FILE``          run one ring description document's checks
* ``corpus``              run every bundled corpus entry
* ``report``              alias of ``corpus``
* ``radical FILE``        print the classical or graded radical of a ring
* ``search``              seeded counterexample search over a named target

Exit codes: 0 all checks passed (or failed exactly as their fixtures
predict), 1 a claim was falsified, 2 a document failed to parse, 3 a
resource cap cut a check short or stopped a ring being built.
"""

import argparse
import json
import sys

from .checks import CheckReport, exit_code, run_checks
from .corpus import corpus_documents
from .errors import GradedNilError, ResourceLimitError, SpecError
from .grading import graded_jacobson_radical
from .rings import jacobson_radical
from .search import TARGETS, counterexample_search
from .specfile import Limits, emit_ring_spec, parse_ring_spec


def emit_report(entry_reports: list[tuple[str, list[CheckReport]]],
                fmt: str = "text") -> str:
    """Render check reports: stable diff-friendly text, or JSON records."""
    if fmt == "machine":
        records = []
        for entry, reports in sorted(entry_reports):
            for r in sorted(reports, key=lambda r: r.name):
                records.append({"entry": entry, **r.to_dict()})
        return json.dumps({"records": records, "summary": _summary(entry_reports)},
                          indent=2, sort_keys=True) + "\n"
    lines = []
    for entry, reports in sorted(entry_reports):
        lines.append(f"entry {entry}")
        for r in sorted(reports, key=lambda r: r.name):
            line = f"  {r.name:42s} {r.status:17s} ({r.seconds:.3f}s)"
            if r.witness:
                line += f"  witness: {r.witness}"
            lines.append(line)
            if r.detail:
                lines.append(f"      {r.detail}")
        lines.append("")
    s = _summary(entry_reports)
    lines.append(
        "summary: "
        + ", ".join(f"{s[k]} {k}" for k in ("pass", "fail", "falsified", "skipped-resource"))
    )
    return "\n".join(lines) + "\n"


def _summary(entry_reports) -> dict:
    counts = {"pass": 0, "fail": 0, "falsified": 0, "skipped-resource": 0}
    for _entry, reports in entry_reports:
        for r in reports:
            counts[r.status] = counts.get(r.status, 0) + 1
    return counts


def _limits(args) -> Limits:
    return Limits(max_elements=args.max_elements)


def _cmd_check(args) -> int:
    try:
        text = open(args.file).read()
        parsed = parse_ring_spec(text, limits=_limits(args))
    except (OSError, SpecError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2
    reports = run_checks(parsed, limits=_limits(args))
    sys.stdout.write(emit_report([(parsed.name, reports)], fmt=args.format))
    if args.emit_spec:
        sys.stdout.write(emit_ring_spec(parsed))
    return exit_code(reports)


def _run_corpus(args, only: str | None = None):
    limits = _limits(args)
    entry_reports = []
    for name, text in corpus_documents():
        if only is not None and name != only:
            continue
        parsed = parse_ring_spec(text, limits=limits)
        entry_reports.append((name, run_checks(parsed, limits=limits)))
    return entry_reports


def _cmd_corpus(args) -> int:
    try:
        entry_reports = _run_corpus(args, only=args.only)
    except (SpecError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2
    if args.only and not entry_reports:
        print(f"error: no corpus entry named {args.only!r}", file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(entry_reports, fmt=args.format))
    return exit_code([r for _entry, reports in entry_reports for r in reports])


def _cmd_radical(args) -> int:
    try:
        text = open(args.file).read()
        parsed = parse_ring_spec(text, limits=_limits(args))
    except (OSError, SpecError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceLimitError) else 2
    try:
        gr = parsed.grading
        if args.graded:
            ideal = graded_jacobson_radical(gr)
            elems = sorted(ideal.elements)
            print(f"graded radical of {gr.ring.label}: {len(elems)} element(s)")
        else:
            elems = sorted(jacobson_radical(gr.ring))
            print(f"classical radical of {gr.ring.label}: {len(elems)} element(s)")
        for x in elems:
            deg = gr.degree_of(x)
            print(f"  {gr.ring.format_element(x)}  (degree {deg})")
    except GradedNilError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_search(args) -> int:
    if args.list_targets:
        for t in sorted(TARGETS):
            print(t)
        return 0
    if args.target is None:
        print("error: --target is required (or --list-targets)", file=sys.stderr)
        return 2
    try:
        report = counterexample_search(args.target, budget=args.budget, seed=args.seed)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "machine":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
        for c in report.counterexamples:
            print(f"  {c}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradednil",
        description="exact decisions about nil-clean decompositions in graded rings",
    )
    parser.add_argument("--max-elements", type=int, default=1 << 20,
                        help="cap on constructed ring sizes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run one ring description document")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--emit-spec", action="store_true",
                   help="also print the canonical document text")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("corpus", aliases=["report"],
                       help="run every bundled corpus entry and emit its report")
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--only", default=None, help="run a single named entry")
    p.set_defaults(fn=_cmd_corpus)

    p = sub.add_parser("radical", help="print a ring's radical")
    p.add_argument("file")
    p.add_argument("--graded", action="store_true")
    p.set_defaults(fn=_cmd_radical)

    p = sub.add_parser("search", help="seeded counterexample search")
    p.add_argument("--target", default=None)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    p.add_argument("--list-targets", action="store_true")
    p.set_defaults(fn=_cmd_search)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
