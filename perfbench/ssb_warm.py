"""ssb-warm: repeated SSB query passes over persistent Dash indexes.

Set-up generates a seeded SF 0.05 database and runs one warm pass, which
builds the persistent Dash indexes (the paper's load phase) and fills the
evaluation cache the cost model prices through. A timed pass then
executes (``SsbExecutor.execute``) and prices (``SsbCostModel.price``)
all 13 queries for the handcrafted (Dash) and the Hyrise (chained) PMEM
profiles: the query phase. Chained indexes are per-query operator state,
so their build stays in the timed part; Dash builds do not.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

import numpy as np

from perfbench.common import REFERENCE_DIR, PassResult
from perfbench.refjob import SSB_HOOKS

MEASURED_SF = 0.05
#: Highest percentile with at least ten of the >=104 per-query samples
#: (four or more passes of 26) beyond it.
TAIL_PERCENTILE = 0.90
SETUP_REPS = 3
#: The host's speed is sampled between queries and index calls.
SAMPLE_HOOKS = SSB_HOOKS
#: Build-path layers run only in set-up on this workload, so their
#: per-layer figures come from the traced set-up, not the timed passes.
SETUP_METRICS = (
    "ssb.dbgen.generate_s",
    "ssb.dash.bulk_insert_s",
    "ssb.dash.insert_keys",
    "ssb.dash.us_per_insert_key",
    "ssb.dash.bucket_writes",
    "ssb.dash.build_reads",
)
REFERENCE = REFERENCE_DIR / "ssb_answers.json"


def _profiles():
    from repro.ssb.storage import HANDCRAFTED_PMEM, HYRISE_PMEM

    # (profile, paper scale factor it is priced at), as in Fig. 14.
    return ((HANDCRAFTED_PMEM, 100.0), (HYRISE_PMEM, 50.0))


def region_factors(measured_sf: float, target_sf: float) -> dict[str, float]:
    """Per-table growth from the executed to the priced scale factor."""
    from repro.ssb import schema

    return {
        "lineorder": target_sf / measured_sf,
        "customer": schema.customer_rows(target_sf) / schema.customer_rows(measured_sf),
        "supplier": schema.supplier_rows(target_sf) / schema.supplier_rows(measured_sf),
        "part": schema.part_rows(target_sf) / schema.part_rows(measured_sf),
        "date": 1.0,
    }


def oracle_answer(db, query) -> tuple[dict[tuple[int, ...], int], int]:
    """``(groups, qualifying_rows)`` of ``query`` without any hash index.

    Joins go through a sorted copy of each dimension key column, groups
    through a plain dict: a path that shares nothing with the engine's
    Dash or chained indexes, so it can check both.
    """
    fact = db.lineorder
    mask = np.ones(len(fact), dtype=bool)
    for predicate in query.fact_filters:
        mask &= predicate.evaluate(fact[predicate.column])
    rows = np.nonzero(mask)[0]
    payload: dict[str, np.ndarray] = {}
    for join in query.joins:
        dim = db.table(join.table)
        dim_keys = dim[join.dim_key].astype(np.int64)
        order = np.argsort(dim_keys, kind="stable")
        sorted_keys = dim_keys[order]
        fact_keys = fact[join.fact_key][rows].astype(np.int64)
        pos = np.minimum(np.searchsorted(sorted_keys, fact_keys), len(sorted_keys) - 1)
        keep = sorted_keys[pos] == fact_keys
        dim_rows = order[pos]
        for predicate in join.filters:
            keep &= predicate.evaluate(dim[predicate.column][dim_rows])
        rows = rows[keep]
        dim_rows = dim_rows[keep]
        payload = {name: values[keep] for name, values in payload.items()}
        for column in join.payload:
            payload[column] = dim[column][dim_rows]
    measure = query.aggregate.compute(
        {column: fact[column][rows] for column in query.aggregate.fact_columns}
    ).tolist()
    columns = [payload[column].tolist() for column in query.group_by]
    groups: dict[tuple[int, ...], int] = {}
    for i, value in enumerate(measure):
        key = tuple(int(column[i]) for column in columns)
        groups[key] = groups.get(key, 0) + int(value)
    return groups, int(len(rows))


def answers_digest(answers: dict[str, tuple[dict, int]]) -> str:
    """Digest of ``{query: (groups, qualifying_rows)}``, order-free."""
    canonical = [
        [name, sorted([list(k), v] for k, v in groups.items()), rows]
        for name, (groups, rows) in sorted(answers.items())
    ]
    return hashlib.sha256(json.dumps(canonical).encode("utf-8")).hexdigest()


class Workload:
    def __init__(self, seed: int) -> None:
        """Compute the oracle answers for this seed (untimed, once).

        This runs before any set-up, on a database of its own that is
        dropped again, so the oracle's memory stays below the high-water
        mark the program's database and indexes set later.
        """
        from repro.ssb import dbgen
        from repro.ssb.queries import ALL_QUERIES

        self.seed = seed
        self.queries = ALL_QUERIES
        db = dbgen.generate(MEASURED_SF, seed=seed)
        self.expected = {q.name: oracle_answer(db, q) for q in self.queries}
        recorded = json.loads(REFERENCE.read_text())["digests"].get(str(seed))
        self.drifted = recorded is not None and recorded != answers_digest(self.expected)
        self.db = self.lanes = None

    def setup(self) -> None:
        from repro.ssb import dbgen
        from repro.ssb.costmodel import SsbCostModel
        from repro.ssb.engine import SsbExecutor

        # Free the previous set-up's database and indexes first, so the
        # peak holds one copy of the program's state.
        self.db = self.lanes = None
        self.db = dbgen.generate(MEASURED_SF, seed=self.seed)
        self.cost_model = SsbCostModel()
        self.lanes = [
            (profile, SsbExecutor(self.db, profile), target / MEASURED_SF,
             region_factors(MEASURED_SF, target))
            for profile, target in _profiles()
        ]
        self.priced = self._pass()[1]

    def prepare(self) -> None:
        pass

    def _pass(self, latencies=None, speed=None):
        answers, priced = {}, {}
        for profile, executor, ratio, factors in self.lanes:
            for query in self.queries:
                sampled = speed.sampling_s if speed is not None else 0.0
                start = perf_counter()
                result = executor.execute(query)
                cost = self.cost_model.price(
                    result.traffic, profile, scale_ratio=ratio, region_factors=factors
                )
                if latencies is not None:
                    elapsed = perf_counter() - start
                    latencies.append(elapsed - (speed.sampling_s - sampled))
                answers[profile.name, query.name] = (result.groups, result.qualifying_rows)
                priced[profile.name, query.name] = cost.seconds
        return answers, priced

    def run_pass(self, tracer, speed) -> PassResult:
        latencies: list[float] = []
        answers, priced = self._pass(latencies, speed)
        wall = sum(latencies)

        problems = []
        if self.drifted:
            problems.append(
                f"answers for seed {self.seed} differ from the recorded reference"
            )
        for (profile, query), answer in answers.items():
            if answer != self.expected[query]:
                problems.append(f"{profile} {query}: wrong groups or qualifying rows")
            elif priced[profile, query] != self.priced[profile, query]:
                problems.append(f"{profile} {query}: priced seconds changed between passes")
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            attempted=len(answers),
            failed=len(answers) if self.drifted else len(problems),
            problems=problems,
        )
