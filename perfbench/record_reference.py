"""Record the reference outputs the workloads check against.

Run from the repository root on the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

It writes ``perfbench/reference/figures.json`` (a digest of every
experiment's series, comparisons and notes, plus the mean paper error)
and ``perfbench/reference/ssb_answers.json`` (per dbgen seed, a digest of
all 13 queries' groups and qualifying rows). SSB answers are taken from
the chained executor and must agree with the index-free oracle.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench import figures_cold, ssb_warm  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

#: Seeds whose SSB answers are recorded; other seeds are checked
#: against the oracle alone.
SEEDS = range(64)


def record_figures() -> dict:
    results, _ = figures_cold.run_all(Tracer())
    err, rows = figures_cold.paper_error(results)
    return {
        "paper_err": err,
        "comparisons": rows,
        "digests": {r.exp_id: figures_cold.result_digest(r) for r in results},
    }


def record_ssb() -> dict:
    from repro.ssb import dbgen
    from repro.ssb.engine import SsbExecutor
    from repro.ssb.queries import ALL_QUERIES
    from repro.ssb.storage import HYRISE_PMEM

    digests = {}
    for seed in SEEDS:
        db = dbgen.generate(ssb_warm.MEASURED_SF, seed=seed)
        executor = SsbExecutor(db, HYRISE_PMEM)
        answers = {}
        for query in ALL_QUERIES:
            result = executor.execute(query)
            answers[query.name] = (result.groups, result.qualifying_rows)
            if answers[query.name] != ssb_warm.oracle_answer(db, query):
                raise SystemExit(f"seed {seed} {query.name}: engine and oracle disagree")
        digests[str(seed)] = ssb_warm.answers_digest(answers)
    return {"scale_factor": ssb_warm.MEASURED_SF, "digests": digests}


def main() -> int:
    reference = figures_cold.REFERENCE.parent
    reference.mkdir(exist_ok=True)
    figures = record_figures()
    figures_cold.REFERENCE.write_text(json.dumps(figures, indent=1, sort_keys=True) + "\n")
    print(f"figures: paper_err={figures['paper_err']:.4f} over {figures['comparisons']} rows")
    ssb = record_ssb()
    ssb_warm.REFERENCE.write_text(json.dumps(ssb, indent=1, sort_keys=True) + "\n")
    print(f"ssb: {len(ssb['digests'])} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
