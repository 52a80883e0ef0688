"""Record the reference outputs the benchmark checks against.

    python3 bench/refresh.py

Runs one corpus pass and one search pass per recorded search seed, and
writes ``reference/corpus.json`` (the machine report without ``seconds``)
and ``reference/search.json`` (each target's tested count, hypothesis hits
and counterexamples).  Refresh only when a change is meant to alter these
outputs, and say so in the change: the library promises identical decisions,
witnesses and report text.
"""

import json
import subprocess
import sys

import verify
from run import ROOT, WORKER, WORKER_ENV
from worker import SEARCH_BUDGET, SEARCH_SEED

# the recorded seed, and a second one to re-check claims on
SEARCH_SEEDS = (SEARCH_SEED, 11)


def _pass(*args) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=WORKER_ENV,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["outputs"]


def _write(path: str, data) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    corpus = _pass("corpus", "--seed", "0")
    if corpus["errors"]:
        raise SystemExit(f"corpus entries raised: {corpus['errors']}")
    _write(verify.CORPUS_REFERENCE, verify.strip_seconds(json.loads(corpus["report"])))
    searches = {}
    for seed in SEARCH_SEEDS:
        out = _pass("search", "--seed", "0", "--search-seed", str(seed))
        if out["errors"]:
            raise SystemExit(f"search targets raised: {out['errors']}")
        searches[verify.search_key(SEARCH_BUDGET, seed)] = {
            target: {k: r[k] for k in ("tested", "hypothesis_hits", "counterexamples")}
            for target, r in out["reports"].items()
        }
    _write(verify.SEARCH_REFERENCE, searches)
    return 0


if __name__ == "__main__":
    sys.exit(main())
