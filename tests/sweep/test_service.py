"""EvaluationService: caching is invisible except in the stats."""

from repro.memsim import DirectoryState, Op, StreamSpec, paper_config
from repro.sweep import DiskCache, EvaluationService, default_service, set_default_service
from repro.sweep.cache import request_digest

NEAR_READ = StreamSpec(op=Op.READ, threads=18, access_size=4096)
FAR_READ = StreamSpec(
    op=Op.READ, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)
FAR_WRITE = StreamSpec(
    op=Op.WRITE, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)


def results_identical(a, b) -> bool:
    return (
        a.total_gbps == b.total_gbps
        and [s.gbps for s in a.streams] == [s.gbps for s in b.streams]
        and a.counters == b.counters
        and a.directory_after == b.directory_after
    )


class TestMemoization:
    def test_cached_equals_uncached_bit_identical(self):
        config = paper_config()
        cached = EvaluationService()
        uncached = EvaluationService(memoize=False)
        for streams in ((NEAR_READ,), (FAR_READ,), (FAR_WRITE, NEAR_READ)):
            for state in (DirectoryState.cold(), DirectoryState.warm(config.topology)):
                warm_hit = cached.evaluate(config, streams, state)  # may be a hit
                raw = uncached.evaluate(config, streams, state)
                assert results_identical(warm_hit, raw)
        assert uncached.stats.hits == 0

    def test_repeat_is_a_hit(self):
        service = EvaluationService()
        first = service.evaluate(paper_config(), (NEAR_READ,))
        second = service.evaluate(paper_config(), (NEAR_READ,))
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        assert results_identical(first, second)

    def test_hits_return_independent_copies(self):
        service = EvaluationService()
        first = service.evaluate(paper_config(), (NEAR_READ,))
        second = service.evaluate(paper_config(), (NEAR_READ,))
        second.counters.note("annotated by caller")
        assert "annotated by caller" not in first.counters.notes

    def test_different_config_misses(self):
        from repro.memsim import MachineConfig

        service = EvaluationService()
        service.evaluate(paper_config(), (NEAR_READ,))
        service.evaluate(MachineConfig(prefetcher_enabled=False), (NEAR_READ,))
        assert service.stats.misses == 2


class TestNormalization:
    def test_near_only_shares_entry_across_directory_states(self):
        config = paper_config()
        service = EvaluationService()
        cold = service.evaluate(config, (NEAR_READ,), DirectoryState.cold())
        warm = service.evaluate(
            config, (NEAR_READ,), DirectoryState.warm(config.topology)
        )
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        assert cold.total_gbps == warm.total_gbps
        # directory_after still reflects each caller's full input state.
        assert cold.directory_after == DirectoryState.cold()
        assert warm.directory_after == DirectoryState.warm(config.topology)

    def test_far_read_warmth_is_part_of_the_key(self):
        config = paper_config()
        service = EvaluationService()
        cold = service.evaluate(config, (FAR_READ,), DirectoryState.cold())
        warm = service.evaluate(
            config, (FAR_READ,), DirectoryState.warm(config.topology)
        )
        assert service.stats.misses == 2
        assert cold.total_gbps < warm.total_gbps

    def test_irrelevant_warm_pairs_do_not_split_the_key(self):
        config = paper_config()
        service = EvaluationService()
        service.evaluate(config, (FAR_READ,), DirectoryState.cold())
        # (1, 0) warmth is unobservable by a 0->1 read: still a hit.
        service.evaluate(config, (FAR_READ,), DirectoryState(frozenset({(1, 0)})))
        assert (service.stats.hits, service.stats.misses) == (1, 1)


class TestDiskCache:
    def test_round_trip_across_services(self, tmp_path):
        config = paper_config()
        first = EvaluationService(disk_cache=DiskCache(tmp_path))
        original = first.evaluate(config, (FAR_READ,), DirectoryState.cold())
        second = EvaluationService(disk_cache=DiskCache(tmp_path))
        restored = second.evaluate(config, (FAR_READ,), DirectoryState.cold())
        assert second.stats.disk_hits == 1
        assert results_identical(original, restored)

    def test_corrupt_entry_recomputed(self, tmp_path):
        config = paper_config()
        service = EvaluationService(disk_cache=DiskCache(tmp_path))
        service.evaluate(config, (NEAR_READ,))
        digest = request_digest(config, (NEAR_READ,), DirectoryState.cold())
        shard = tmp_path / "index" / f"{digest[:2]}.json"
        shard.write_text("not json")
        fresh = EvaluationService(disk_cache=DiskCache(tmp_path))
        fresh.evaluate(config, (NEAR_READ,))
        assert (fresh.stats.disk_hits, fresh.stats.misses) == (0, 1)

    def test_stats_describe_mentions_disk(self, tmp_path):
        EvaluationService(disk_cache=DiskCache(tmp_path)).evaluate(
            paper_config(), (NEAR_READ,)
        )
        reloaded = EvaluationService(disk_cache=DiskCache(tmp_path))
        reloaded.evaluate(paper_config(), (NEAR_READ,))
        text = reloaded.stats.describe()
        assert "1 hits / 0 misses" in text
        assert "1 served from disk" in text


class TestDefaultService:
    def test_install_and_restore(self):
        fresh = EvaluationService()
        previous = set_default_service(fresh)
        try:
            assert default_service() is fresh
        finally:
            set_default_service(previous)
        assert default_service() is not fresh

    def test_lazy_init_is_race_free(self):
        import threading

        from repro.sweep import service as service_module

        previous = set_default_service(None)
        barrier = threading.Barrier(8)
        seen: list[EvaluationService] = []
        lock = threading.Lock()

        def grab() -> None:
            barrier.wait()  # line every thread up on the first call
            instance = default_service()
            with lock:
                seen.append(instance)

        try:
            threads = [threading.Thread(target=grab) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            set_default_service(previous)
        assert len(seen) == 8
        assert len({id(instance) for instance in seen}) == 1
        assert service_module._DEFAULT_SERVICE_LOCK is not None


class TestLazyDelivery:
    def test_annotating_a_hit_cannot_corrupt_the_stored_entry(self):
        service = EvaluationService()
        config = paper_config()
        first = service.evaluate(config, (NEAR_READ,))
        first.counters.notes.append("annotated by caller one")
        first.counters.media_bytes_read += 999
        second = service.evaluate(config, (NEAR_READ,))
        assert service.stats.hits == 1
        assert "annotated by caller one" not in second.counters.notes
        assert second.counters.media_bytes_read != first.counters.media_bytes_read

    def test_copy_of_unmaterialized_copy_stays_pristine(self):
        service = EvaluationService()
        config = paper_config()
        baseline = service.evaluate(config, (NEAR_READ,))
        hit = service.evaluate(config, (NEAR_READ,))
        dup = hit.copy()  # neither copy has materialized counters yet
        hit.counters.notes.append("scribble")
        assert dup.counters.notes == baseline.counters.notes
        assert "scribble" not in dup.counters.notes
