"""Fault injection against the on-disk evaluation cache (schema v2).

A corrupt cache entry — truncated write, garbage bytes, or a payload
whose schema drifted — must behave exactly like a miss: the request is
re-evaluated, the result is bit-identical to a clean computation, and
the entry is re-written so the *next* process gets a healthy hit. Silently
propagating a half-written payload would poison every figure downstream
of it.

Schema v2 stores a column *block* (content-addressed by member request
digests) plus an *index shard* mapping digest -> (block, row); both
files are injected with faults here, independently. The block digest is
deterministic in the request digests and the payload encoding is
canonical JSON, so recomputation rewrites byte-identical files — which
is exactly what the healing assertions pin.
"""

import json

import pytest

from repro.memsim import evaluation
from repro.memsim.config import DirectoryState, paper_config
from repro.memsim.spec import Op, StreamSpec
from repro.obs import CountersRecorder
from repro.sweep import DiskCache, EvaluationService

SPEC = StreamSpec(op=Op.READ, threads=8, access_size=4096)


def evaluate_through(root) -> tuple[EvaluationService, object]:
    """Fresh service over ``root`` (no memo: force the disk path)."""
    service = EvaluationService(disk_cache=DiskCache(root), memoize=False)
    result = service.evaluate(paper_config(), [SPEC], DirectoryState.cold())
    return service, result


def sole_block(root):
    blocks = list((root / "blocks").rglob("*.json"))
    assert len(blocks) == 1
    return blocks[0]


def sole_shard(root):
    shards = list((root / "index").glob("*.json"))
    assert len(shards) == 1
    return shards[0]


def truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


def garbage(path):
    path.write_bytes(b"\x00\xffnot json at all{{{")


def wrong_schema(path):
    path.write_text(json.dumps({"streams": "nope"}), encoding="utf-8")


def empty(path):
    path.write_text("", encoding="utf-8")


def missing_key(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["counters"]
    path.write_text(json.dumps(payload), encoding="utf-8")


def missing_digests(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["digests"]
    path.write_text(json.dumps(payload), encoding="utf-8")


def ragged_columns(path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["counters"]["app_bytes_read"].append(0.0)
    path.write_text(json.dumps(payload), encoding="utf-8")


BLOCK_CORRUPTIONS = {
    "truncated": truncate,
    "garbage": garbage,
    "wrong_schema": wrong_schema,
    "empty": empty,
    "missing_key": missing_key,
    "missing_digests": missing_digests,
    "ragged_columns": ragged_columns,
}

SHARD_CORRUPTIONS = {
    "truncated": truncate,
    "garbage": garbage,
    "wrong_schema": wrong_schema,
    "empty": empty,
}


@pytest.mark.parametrize(
    "kind", sorted(BLOCK_CORRUPTIONS), ids=sorted(BLOCK_CORRUPTIONS)
)
def test_corrupt_block_is_a_miss_and_gets_rewritten(tmp_path, kind):
    _, original = evaluate_through(tmp_path)
    block = sole_block(tmp_path)
    healthy = block.read_text(encoding="utf-8")
    BLOCK_CORRUPTIONS[kind](block)

    # A fresh service must treat the corrupt block as a miss ...
    service, recomputed = evaluate_through(tmp_path)
    assert service.stats.misses == 1
    assert service.stats.disk_hits == 0
    # ... return the bit-identical result ...
    assert recomputed.total_gbps == original.total_gbps
    assert recomputed.counters == original.counters
    # ... and re-write the block so the next process hits cleanly.
    assert block.read_text(encoding="utf-8") == healthy
    follower, _ = evaluate_through(tmp_path)
    assert follower.stats.disk_hits == 1


@pytest.mark.parametrize(
    "kind", sorted(SHARD_CORRUPTIONS), ids=sorted(SHARD_CORRUPTIONS)
)
def test_corrupt_index_shard_is_a_miss_and_gets_rewritten(tmp_path, kind):
    _, original = evaluate_through(tmp_path)
    shard = sole_shard(tmp_path)
    healthy = shard.read_text(encoding="utf-8")
    SHARD_CORRUPTIONS[kind](shard)

    service, recomputed = evaluate_through(tmp_path)
    assert service.stats.misses == 1
    assert service.stats.disk_hits == 0
    assert recomputed.total_gbps == original.total_gbps
    assert shard.read_text(encoding="utf-8") == healthy
    follower, _ = evaluate_through(tmp_path)
    assert follower.stats.disk_hits == 1


def test_stale_index_row_is_a_miss(tmp_path):
    """An index entry pointing at the wrong row must not mis-serve."""
    evaluate_through(tmp_path)
    shard = sole_shard(tmp_path)
    payload = json.loads(shard.read_text(encoding="utf-8"))
    for digest in payload["entries"]:
        payload["entries"][digest][1] = 7  # row out of range
    shard.write_text(json.dumps(payload), encoding="utf-8")
    service, _ = evaluate_through(tmp_path)
    assert service.stats.misses == 1
    assert service.stats.disk_hits == 0


def test_corrupt_entry_counts_as_miss_in_recorder(tmp_path):
    evaluate_through(tmp_path)
    garbage(sole_block(tmp_path))
    rec = CountersRecorder()
    service = EvaluationService(disk_cache=DiskCache(tmp_path), memoize=False)
    service.evaluate(paper_config(), [SPEC], DirectoryState.cold(), recorder=rec)
    assert rec.counter("sweep.cache.misses_count") == 1.0
    assert rec.counter("sweep.cache.hits_count") == 0.0


def test_clean_entry_still_hits(tmp_path):
    """Control case: without corruption the second service hits disk."""
    evaluate_through(tmp_path)
    service, _ = evaluate_through(tmp_path)
    assert service.stats.disk_hits == 1
    assert service.stats.misses == 0


def test_corruption_does_not_leak_into_results(tmp_path):
    """The re-evaluated result must match a never-cached evaluation."""
    _, original = evaluate_through(tmp_path)
    wrong_schema(sole_block(tmp_path))
    _, recomputed = evaluate_through(tmp_path)
    fresh = evaluation.evaluate(paper_config(), [SPEC], DirectoryState.cold())
    assert recomputed.total_gbps == fresh.total_gbps == original.total_gbps
