"""Per-rule fixture tests: each rule fires on seeded bad code and stays
quiet on the sanctioned idiom."""


class TestLifecycleRL001:
    def test_leaked_binding_fires(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(spec):
                    engine = build_engine(spec)
                    engine.update(1)
                """
            },
            select={"RL001"},
        )
        assert codes(result) == ["RL001"]
        assert "never closed" in result.findings[0].message

    def test_discarded_construction_fires(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(factory):
                    ShardedSketch(factory, shards=4)
                """
            },
            select={"RL001"},
        )
        assert codes(result) == ["RL001"]
        assert "discarded" in result.findings[0].message

    def test_leaked_executor_fires(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main():
                    pool = PersistentProcessExecutor()
                    results = pool.map(len, [[1], [2]])
                    print(len(results))
                """
            },
            select={"RL001"},
        )
        assert codes(result) == ["RL001"]

    def test_with_block_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(spec):
                    with build_engine(spec) as engine:
                        engine.update(1)
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []

    def test_close_in_finally_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(spec):
                    engine = build_engine(spec)
                    try:
                        engine.update(1)
                    finally:
                        engine.close()
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []

    def test_ownership_escape_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def make(spec):
                    return build_engine(spec)

                def handoff(spec, registry):
                    system = NetwideSystem(spec)
                    registry.adopt(system)
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []

    def test_repro_internals_are_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/sharding/helper.py": """
                def compose(factory):
                    sketch = ShardedSketch(factory, shards=2)
                    sketch.update(1)
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []

    def test_leaked_service_daemon_fires(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(spec):
                    daemon = ServiceDaemon(spec)
                    daemon.start()
                """
            },
            select={"RL001"},
        )
        assert codes(result) == ["RL001"]
        assert "never closed" in result.findings[0].message

    def test_leaked_service_client_connect_fires(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(port):
                    client = ServiceClient.connect(port=port)
                    client.report([1, 2, 3])
                """
            },
            select={"RL001"},
        )
        assert codes(result) == ["RL001"]

    def test_service_with_blocks_are_clean(self, run_lint, codes):
        result = run_lint(
            {
                "app.py": """
                def main(spec):
                    with ServiceDaemon(spec) as daemon:
                        with ServiceClient.connect(port=daemon.port) as client:
                            client.report([1])

                async def amain(spec, port):
                    async with IngestServer(spec) as server:
                        async with AsyncServiceClient.connect(port=port) as client:
                            await client.flush()
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []

    def test_service_package_is_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/helper.py": """
                def main(spec):
                    server = IngestServer(spec)
                    server.port
                """
            },
            select={"RL001"},
        )
        assert codes(result) == []


class TestRawMultiprocessingRL002:
    def test_raw_process_fires(self, run_lint, codes):
        result = run_lint(
            {
                "worker.py": """
                import multiprocessing

                def spawn(fn):
                    proc = multiprocessing.Process(target=fn)
                    proc.start()
                    return proc
                """
            },
            select={"RL002"},
        )
        assert codes(result) == ["RL002"]
        assert "multiprocessing.Process" in result.findings[0].message

    def test_direct_sharedmemory_import_fires(self, run_lint, codes):
        result = run_lint(
            {
                "seg.py": """
                from multiprocessing.shared_memory import SharedMemory

                def alloc():
                    return SharedMemory(create=True, size=64)
                """
            },
            select={"RL002"},
        )
        assert codes(result) == ["RL002"]
        assert "SharedMemory" in result.findings[0].message

    def test_sharding_package_is_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/sharding/executors2.py": """
                import multiprocessing

                def spawn(fn):
                    return multiprocessing.Process(target=fn)
                """
            },
            select={"RL002"},
        )
        assert codes(result) == []

    def test_benign_multiprocessing_use_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "info.py": """
                import multiprocessing

                def cores():
                    return multiprocessing.cpu_count()
                """
            },
            select={"RL002"},
        )
        assert codes(result) == []


_SKETCH_PKG = {
    "repro/__init__.py": "",
    "repro/core/__init__.py": "",
    "repro/core/sketch.py": """
    class FixtureSketch:
        def update(self, item):
            pass

        def update_many(self, items):
            pass

        def extend(self, iterable, chunk_size=4096):
            pass

        def query(self, item):
            return 0.0
    """,
}


class TestRegistryHonestyRL003:
    def test_declared_but_missing_methods_fires(self, run_lint, codes):
        result = run_lint(
            {
                **_SKETCH_PKG,
                "repro/core/reg.py": """
                from repro.core.sketch import FixtureSketch

                register_algorithm(
                    "fixture",
                    lambda spec, hierarchy, shard_id: FixtureSketch(),
                    capabilities={"sliding", "windowed"},
                )
                """,
            },
            select={"RL003"},
        )
        assert codes(result) == ["RL003"]
        assert "declares capability 'windowed'" in result.findings[0].message
        assert "ingest_gap" in result.findings[0].message

    def test_satisfied_but_undeclared_fires(self, run_lint, codes):
        files = dict(_SKETCH_PKG)
        files["repro/core/sketch.py"] += """
        def entries(self):
            return []
"""
        files["repro/core/reg.py"] = """
        from repro.core.sketch import FixtureSketch

        register_algorithm(
            "fixture",
            lambda spec, hierarchy, shard_id: FixtureSketch(),
            capabilities={"sliding"},
        )
        """
        result = run_lint(files, select={"RL003"})
        assert codes(result) == ["RL003"]
        assert "omits capability 'mergeable'" in result.findings[0].message

    def test_unregistered_sketch_shaped_class_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/rogue.py": """
                class RogueSketch:
                    def update(self, item):
                        pass

                    def query(self, item):
                        return 0.0
                """,
            },
            select={"RL003"},
        )
        assert codes(result) == ["RL003"]
        assert "not-an-algorithm" in result.findings[0].message

    def test_exact_declaration_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                **_SKETCH_PKG,
                "repro/core/reg.py": """
                from repro.core.sketch import FixtureSketch

                register_algorithm(
                    "fixture",
                    lambda spec, hierarchy, shard_id: FixtureSketch(),
                    capabilities={"sliding"},
                )
                """,
            },
            select={"RL003"},
        )
        assert codes(result) == []

    def test_optout_silences_part_b(self, run_lint, codes):
        result = run_lint(
            {
                "repro/__init__.py": "",
                "repro/core/__init__.py": "",
                "repro/core/oracle.py": """
                # replint: not-an-algorithm (test oracle, not a family)
                class Oracle:
                    def update(self, item):
                        pass

                    def query(self, item):
                        return 0.0
                """,
            },
            select={"RL003"},
        )
        assert codes(result) == []


class TestShmDisciplineRL004:
    def test_unlink_outside_shm_fires(self, run_lint, codes):
        result = run_lint(
            {
                "cleanup.py": """
                def nuke(ring):
                    ring.unlink()
                """
            },
            select={"RL004"},
        )
        assert codes(result) == ["RL004"]
        assert "unlink" in result.findings[0].message

    def test_raw_buf_access_fires(self, run_lint, codes):
        result = run_lint(
            {
                "peek.py": """
                def peek(segment):
                    return bytes(segment.buf[:8])
                """
            },
            select={"RL004"},
        )
        assert codes(result) == ["RL004"]
        assert ".buf" in result.findings[0].message

    def test_pathlib_unlink_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "files.py": """
                from pathlib import Path

                def tidy(out: Path):
                    temp = Path("scratch.json")
                    temp.unlink()
                    out.unlink(missing_ok=True)
                """
            },
            select={"RL004"},
        )
        assert codes(result) == []

    def test_shm_module_is_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/sharding/shm.py": """
                def close(self):
                    self._shm.buf.release()
                    self._shm.unlink()
                """
            },
            select={"RL004"},
        )
        assert codes(result) == []


class TestHasattrSniffRL005:
    def test_hasattr_in_engine_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/engine/shim.py": """
                def probe(sketch):
                    if hasattr(sketch, "ingest_gap"):
                        sketch.ingest_gap(1)
                """
            },
            select={"RL005"},
        )
        assert codes(result) == ["RL005"]

    def test_hasattr_in_sharding_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/sharding/shim.py": """
                def probe(sketch):
                    return hasattr(sketch, "entries")
                """
            },
            select={"RL005"},
        )
        assert codes(result) == ["RL005"]

    def test_getattr_dispatch_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "repro/engine/ok.py": """
                def probe(sketch):
                    hook = getattr(sketch, "ingest_gap", None)
                    if hook is not None:
                        hook(1)
                """
            },
            select={"RL005"},
        )
        assert codes(result) == []

    def test_hasattr_outside_layers_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "tools/audit.py": """
                def probe(obj):
                    return hasattr(obj, "close")
                """
            },
            select={"RL005"},
        )
        assert codes(result) == []


class TestBenchMetadataRL006:
    def test_missing_metadata_kw_fires(self, run_lint, codes):
        result = run_lint(
            {
                "bench_thing.py": """
                def main(bench):
                    bench("case", lambda: None)
                """
            },
            select={"RL006"},
        )
        assert codes(result) == ["RL006"]
        assert "without metadata=" in result.findings[0].message

    def test_dict_literal_missing_keys_fires(self, run_lint, codes):
        result = run_lint(
            {
                "bench_thing.py": """
                def main(bench, spec):
                    bench("case", lambda: None, metadata={"spec": spec})
                """
            },
            select={"RL006"},
        )
        assert codes(result) == ["RL006"]
        assert "transport" in result.findings[0].message

    def test_complete_metadata_is_clean(self, run_lint, codes):
        result = run_lint(
            {
                "bench_thing.py": """
                def main(bench, spec):
                    bench(
                        "case",
                        lambda: None,
                        metadata={"spec": spec, "transport": None},
                    )
                """
            },
            select={"RL006"},
        )
        assert codes(result) == []

    def test_non_bench_files_are_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "driver.py": """
                def main(bench):
                    bench("case", lambda: None)
                """
            },
            select={"RL006"},
        )
        assert codes(result) == []


class TestAtomicCheckpointRL007:
    def test_plain_open_write_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/store.py": """
                def save(path, blob):
                    with open(path, "wb") as fh:
                        fh.write(blob)
                """
            },
            select={"RL007"},
        )
        assert codes(result) == ["RL007"]
        assert "atomic_write_bytes" in result.findings[0].message

    def test_path_write_bytes_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/store.py": """
                def save(path, blob):
                    path.write_bytes(blob)
                """
            },
            select={"RL007"},
        )
        assert codes(result) == ["RL007"]
        assert "write_bytes" in result.findings[0].message

    def test_write_text_fires(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/meta.py": """
                def note(path, text):
                    path.write_text(text)
                """
            },
            select={"RL007"},
        )
        assert codes(result) == ["RL007"]

    def test_atomic_helper_body_is_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/store.py": """
                import os

                def atomic_write_bytes(path, data):
                    tmp = path.with_name(path.name + ".tmp")
                    with open(tmp, "wb") as fh:
                        fh.write(data)
                        os.fsync(fh.fileno())
                    os.replace(tmp, path)
                """
            },
            select={"RL007"},
        )
        assert codes(result) == []

    def test_reads_are_clean(self, run_lint, codes):
        result = run_lint(
            {
                "repro/service/load.py": """
                def load(path):
                    with open(path, "rb") as fh:
                        return fh.read()
                """
            },
            select={"RL007"},
        )
        assert codes(result) == []

    def test_outside_service_is_exempt(self, run_lint, codes):
        result = run_lint(
            {
                "repro/bench/out.py": """
                def save(path, text):
                    path.write_text(text)
                """
            },
            select={"RL007"},
        )
        assert codes(result) == []
