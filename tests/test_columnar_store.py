"""Columnar (sqlite) run-store backend.

The equivalence matrix here is the gate ROADMAP item 5 demands: the
JSONL file, a legacy sharded directory and the columnar backend must produce
identical rows, identical ``CampaignAnalysis`` output and an identical
rendered EXPERIMENTS.md from the same campaign, and ``store convert``
round trips must be byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path

import pytest

from repro.analysis.report import analyze_rows, analyze_store, render_markdown
from repro.campaign import (
    Campaign,
    ColumnarStore,
    convert_store,
    execute_campaign,
    graph_spec_for,
    open_store,
    RunStore,
)
from repro.campaign.columnar import _ROW_COLUMNS
from repro.campaign.spec import RunSpec
from repro.campaign.store import detect_backend
from repro.cli import main
from repro.exceptions import ConfigurationError

GOLDEN_ROWS = Path(__file__).parent / "golden_rows.jsonl"


def _golden_rows() -> list:
    with GOLDEN_ROWS.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _campaign(sizes=(8, 12, 16), algorithms=("elkin", "prs")) -> Campaign:
    return Campaign.from_grid(
        "columnar-suite",
        graphs=[graph_spec_for("random_connected", n, seed=1) for n in sizes],
        algorithms=algorithms,
        seeds=(0,),
    )


def _spec(index: int) -> RunSpec:
    return RunSpec(
        graph=graph_spec_for("random_connected", 16, seed=index),
        algorithm="elkin",
        collect_telemetry=False,
    )


def _store_with_golden_rows(store) -> None:
    """Record every golden row (one synthetic spec per row) and close."""
    for index, row in enumerate(_golden_rows()):
        store.record_run(_spec(index), row, {"row": index}, {"executor": "test"})
    store.close()


def _rows_sha256(store_path: Path) -> str:
    with open_store(store_path, read_only=True) as store:
        payload = json.dumps(list(store.iter_rows()), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestBackendSelection:
    def test_fresh_suffixes_select_columnar(self, tmp_path):
        for name in ("a.sqlite", "b.sqlite3", "c.db", "d.SQLITE"):
            assert detect_backend(tmp_path / name) == "columnar"
        for name in ("a.jsonl", "b.ndjson", "c.json", "plain-dir"):
            assert detect_backend(tmp_path / name) == "jsonl"

    def test_existing_files_classified_by_magic_not_suffix(self, tmp_path):
        disguised = tmp_path / "runs.jsonl"
        with ColumnarStore(disguised) as store:
            store.record_graph("g", {"n": 4, "m": 3})
        assert detect_backend(disguised) == "columnar"
        plain = tmp_path / "runs.sqlite"
        plain.write_text('{"kind": "graph", "key": "g", "description": {}}\n')
        assert detect_backend(plain) == "jsonl"
        assert isinstance(open_store(disguised, read_only=True), ColumnarStore)

    def test_directories_stay_jsonl(self, tmp_path):
        target = tmp_path / "shards"
        target.mkdir()
        assert detect_backend(target) == "jsonl"
        with pytest.raises(ConfigurationError, match="directory"):
            ColumnarStore(target)

    def test_open_store_rejects_unknown_backend_and_memory_columnar(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            open_store(tmp_path / "x.sqlite", backend="parquet")
        with pytest.raises(ConfigurationError, match="on-disk path"):
            open_store(None, backend="columnar")

    def test_columnar_open_on_jsonl_file_fails_loudly(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"kind": "graph", "key": "g", "description": {}}\n')
        with pytest.raises(ConfigurationError, match="not a columnar run store"):
            ColumnarStore(path)


class TestColumnarContract:
    @pytest.mark.parametrize("durability", ("record", "batch", "none"))
    def test_sweep_persists_and_reloads_under_every_level(self, tmp_path, durability):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path, durability=durability)
        report = execute_campaign(_campaign(), store=store)
        store.close()
        reloaded = ColumnarStore(path)
        assert list(reloaded.iter_rows()) == report.rows
        assert len(reloaded) == len(report.rows)
        reloaded.close()

    def test_record_durability_commits_every_append(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite", durability="record")
        for index in range(3):
            store.record_run(_spec(index), {"graph": "g"}, {}, {})
        assert store.stats["commits"] == 3
        assert store.stats["fsyncs"] == 3
        store.close()

    def test_batch_appends_buffer_until_flush(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path, durability="batch", batch_size=64)
        for index in range(5):
            store.record_run(_spec(index), {"graph": "g", "i": index}, {}, {})
        assert store.stats["commits"] == 0
        # Uncommitted appends are invisible to a second connection but
        # answer point reads on this one (resume needs that).
        with ColumnarStore(path, read_only=True) as other:
            assert len(other) == 0
        assert store.get_row(_spec(2).run_key())["i"] == 2
        store.flush()
        assert store.stats["commits"] == 1
        with ColumnarStore(path, read_only=True) as other:
            assert len(other) == 5
        store.close()

    def test_batch_size_triggers_automatic_commit(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite", batch_size=2)
        for index in range(4):
            store.record_run(_spec(index), {"graph": "g"}, {}, {})
        assert store.stats["commits"] == 2
        store.close()

    def test_point_lookups_roundtrip(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite")
        campaign = _campaign(sizes=(8,), algorithms=("elkin",))
        execute_campaign(campaign, store=store)
        key = campaign.specs[0].run_key()
        assert store.has_run(key) and key in store
        assert store.get_spec(key) == campaign.specs[0]
        assert store.get_row(key)["algorithm"] == "elkin"
        assert store.get_provenance(key)["verified"] is True
        assert store.get_result(key).algorithm == "elkin"
        assert store.run_keys() == [key]
        store.close()

    def test_resume_skips_existing_cells(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        campaign = _campaign()
        with ColumnarStore(path) as store:
            execute_campaign(campaign, store=store)
            first = store._physical_records
        with ColumnarStore(path) as store:
            report = execute_campaign(campaign, store=store, resume=True)
            assert sorted(report.reused_indexes) == list(range(len(campaign.specs)))
            assert store._physical_records == first

    def test_last_record_wins_and_first_seen_order(self, tmp_path):
        jsonl = RunStore(tmp_path / "runs.jsonl")
        columnar = ColumnarStore(tmp_path / "runs.sqlite")
        for store in (jsonl, columnar):
            store.record_run(_spec(0), {"graph": "a", "v": 1}, {}, {})
            store.record_run(_spec(1), {"graph": "b", "v": 2}, {}, {})
            store.record_run(_spec(0), {"graph": "a", "v": 3}, {}, {})
            store.close()
        with RunStore(tmp_path / "runs.jsonl") as jsonl:
            with ColumnarStore(tmp_path / "runs.sqlite") as columnar:
                assert list(columnar.iter_rows()) == list(jsonl.iter_rows())
                assert [row["v"] for row in columnar.iter_rows()] == [3, 2]

    def test_returned_rows_are_detached_copies(self, tmp_path):
        store = ColumnarStore(tmp_path / "runs.sqlite")
        store.record_run(_spec(0), {"graph": "g", "nested": {"xs": [1]}}, {}, {"p": 1})
        key = _spec(0).run_key()
        store.get_row(key)["nested"]["xs"].append(99)
        next(iter(store.iter_rows()))["nested"]["xs"].append(99)
        store.get_provenance(key)["p"] = 2
        assert store.get_row(key) == {"graph": "g", "nested": {"xs": [1]}}
        assert store.get_provenance(key) == {"p": 1}
        store.close()

    def test_failed_commit_rolls_back_and_retry_commits_every_row(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path, batch_size=64)
        for index in range(5):
            store.record_run(_spec(index), {"graph": "g", "i": index}, {}, {})
        calls = []

        def interrupted_once(value):
            # Fault on the second record, after the first one's inserts ran.
            calls.append(value)
            if len(calls) == len(_ROW_COLUMNS) + 1:
                raise KeyboardInterrupt
            return ColumnarStore._scalar(value)

        monkeypatch.setattr(store, "_scalar", interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            store.flush()
        assert store.stats["commits"] == 0
        store.flush()
        assert store.stats["commits"] == 1
        store.close()
        with ColumnarStore(path, read_only=True) as reloaded:
            assert [row["i"] for row in reloaded.iter_rows()] == list(range(5))
            assert len(list(reloaded.iter_record_lines())) == 5

    def test_compact_drops_superseded_and_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        store = ColumnarStore(path)
        for value in range(3):
            store.record_run(_spec(0), {"graph": "g", "v": value}, {}, {})
        store.record_graph("gk", {"n": 4, "m": 3})
        stats = store.compact()
        assert stats == {"before": 4, "after": 2, "dropped": 2}
        assert store.compact()["dropped"] == 0
        assert store.get_row(_spec(0).run_key())["v"] == 2
        # The store keeps appending after a compact.
        store.record_run(_spec(1), {"graph": "h"}, {}, {})
        store.close()
        with ColumnarStore(path) as reloaded:
            assert len(reloaded) == 2
            assert reloaded.graph_description("gk") == {"n": 4, "m": 3}

    def test_read_only_requires_existing_path_and_rejects_writes(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run store"):
            ColumnarStore(tmp_path / "missing.sqlite", read_only=True)
        path = tmp_path / "runs.sqlite"
        with ColumnarStore(path) as store:
            store.record_run(_spec(0), {"graph": "g"}, {}, {})
        with ColumnarStore(path, read_only=True) as store:
            assert len(store) == 1
            with pytest.raises(ConfigurationError, match="read_only"):
                store.record_run(_spec(1), {"graph": "h"}, {}, {})
            with pytest.raises(ConfigurationError, match="read_only"):
                store.compact()
            with pytest.raises(ConfigurationError, match="read_only"):
                store.merge_from(tmp_path / "other.sqlite")


class TestCrossBackendMerge:
    def _populate(self, store, start, count):
        for index in range(start, start + count):
            store.record_run(_spec(index), {"graph": f"g{index}"}, {}, {})
        store.record_graph(f"graph-{start}", {"n": start, "m": start})
        store.close()

    @pytest.mark.parametrize(
        "dest_name,src_name",
        [
            ("dest.sqlite", "src.jsonl"),
            ("dest.jsonl", "src.sqlite"),
            ("dest.sqlite", "src.sqlite"),
        ],
    )
    def test_merge_any_backend_pairing_is_idempotent(self, tmp_path, dest_name, src_name):
        dest_path, src_path = tmp_path / dest_name, tmp_path / src_name
        self._populate(open_store(dest_path), 0, 2)
        self._populate(open_store(src_path), 1, 2)
        with open_store(dest_path) as dest:
            stats = dest.merge_from(src_path)
            assert stats == {"runs": 1, "graphs": 1, "skipped": 1}
            assert dest.merge_from(src_path)["runs"] == 0
            assert len(dest) == 3
            assert {row["graph"] for row in dest.iter_rows()} == {"g0", "g1", "g2"}

    def test_self_merge_rejected_across_path_spellings(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        self._populate(ColumnarStore(path), 0, 1)
        link = tmp_path / "alias.sqlite"
        link.symlink_to(path)
        with ColumnarStore(path) as store:
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from(link)
            with pytest.raises(ConfigurationError, match="into itself"):
                store.merge_from(store)


class TestEquivalenceMatrix:
    """JSONL file / legacy sharded dir / columnar: one campaign, identical output."""

    @pytest.fixture(scope="class")
    def matrix(self, tmp_path_factory, legacy_directory):
        tmp = tmp_path_factory.mktemp("matrix")
        campaign = _campaign()
        paths = {"jsonl": tmp / "runs.jsonl", "columnar": tmp / "runs.sqlite"}
        for path in paths.values():
            store = open_store(path)
            execute_campaign(campaign, store=store)
            store.close()
        paths["sharded"] = legacy_directory(paths["jsonl"], tmp / "runs-dir")
        return paths

    def test_rows_identical_across_backends(self, matrix):
        rows = {
            name: list(open_store(path, read_only=True).iter_rows())
            for name, path in matrix.items()
        }
        assert rows["jsonl"] == rows["sharded"] == rows["columnar"]

    def test_campaign_analysis_identical_across_backends(self, matrix):
        analyses = {
            name: analyze_store(open_store(path, read_only=True))
            for name, path in matrix.items()
        }
        assert analyses["jsonl"] == analyses["sharded"] == analyses["columnar"]

    def test_rendered_markdown_identical_across_backends(self, matrix):
        documents = {
            name: render_markdown(analyze_store(open_store(path, read_only=True)))
            for name, path in matrix.items()
        }
        assert documents["jsonl"] == documents["sharded"] == documents["columnar"]
        assert "bound-violation count: **0**" in documents["columnar"]

    def test_sharded_store_really_sharded(self, matrix):
        """The "sharded" column is a legacy directory of several
        non-empty shards that together hold every run."""
        shards = sorted(matrix["sharded"].glob("shard-*.jsonl"))
        assert len(shards) > 1
        assert all(shard.stat().st_size > 0 for shard in shards)
        with open_store(matrix["sharded"], read_only=True) as legacy:
            assert len(legacy) == len(_campaign())


class TestConvert:
    def test_golden_rows_round_trip_is_byte_identical(self, tmp_path):
        source = tmp_path / "golden.jsonl"
        _store_with_golden_rows(RunStore(source))
        convert_store(source, tmp_path / "golden.sqlite")
        convert_store(tmp_path / "golden.sqlite", tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == source.read_bytes()

    def test_convert_preserves_superseded_history(self, tmp_path):
        source = tmp_path / "src.jsonl"
        with RunStore(source) as store:
            store.record_run(_spec(0), {"graph": "g", "v": 1}, {}, {})
            store.record_run(_spec(0), {"graph": "g", "v": 2}, {}, {})
        stats = convert_store(source, tmp_path / "dst.sqlite")
        assert stats == {"records": 2, "backend": "columnar"}
        with ColumnarStore(tmp_path / "dst.sqlite") as dest:
            assert dest._physical_records == 2
            assert dest.get_row(_spec(0).run_key())["v"] == 2

    def test_convert_refuses_existing_destination_and_missing_source(self, tmp_path):
        source = tmp_path / "src.jsonl"
        _store_with_golden_rows(RunStore(source))
        existing = tmp_path / "dst.sqlite"
        existing.write_text("")
        with pytest.raises(ConfigurationError, match="existing path"):
            convert_store(source, existing)
        with pytest.raises(ConfigurationError, match="no run store"):
            convert_store(tmp_path / "nope.jsonl", tmp_path / "new.sqlite")

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_interrupted_convert_leaves_no_destination(self, tmp_path, monkeypatch, suffix):
        """Bugfix: a conversion interrupted after 2 of 4 records left a
        destination holding 1 of 3 runs that looked complete, and the
        retry refused to convert onto it."""
        source = tmp_path / "src.jsonl"
        with RunStore(source) as store:
            store.record_graph("g", {"n": 16, "m": 20})
            for index in range(3):
                store.record_run(_spec(index), {"graph": "g", "v": index}, {}, {})
        destination = tmp_path / f"dst{suffix}"
        backend = ColumnarStore if suffix == ".sqlite" else RunStore
        append = backend.append_record_line
        copied = []

        def interrupted(self, line):
            if len(copied) == 2:
                raise KeyboardInterrupt
            append(self, line)
            copied.append(line)

        monkeypatch.setattr(backend, "append_record_line", interrupted)
        with pytest.raises(KeyboardInterrupt):
            convert_store(source, destination)
        monkeypatch.undo()
        assert len(copied) == 2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["src.jsonl"]
        assert convert_store(source, destination)["records"] == 4
        convert_store(destination, tmp_path / "back.jsonl")
        assert (tmp_path / "back.jsonl").read_bytes() == source.read_bytes()

    def test_converted_store_analysis_and_hashes_match(self, tmp_path):
        source = tmp_path / "src.jsonl"
        _store_with_golden_rows(RunStore(source))
        convert_store(source, tmp_path / "dst.sqlite")
        assert _rows_sha256(source) == _rows_sha256(tmp_path / "dst.sqlite")
        with open_store(tmp_path / "dst.sqlite", read_only=True) as store:
            assert render_markdown(analyze_store(store)) == render_markdown(
                analyze_rows(_golden_rows())
            )


class TestColumnarReport:
    def test_run_rows_and_full_rescan_are_byte_identical(self, tmp_path):
        documents = []
        for path in (tmp_path / "runs.sqlite", tmp_path / "runs.jsonl"):
            with open_store(path) as store:
                execute_campaign(_campaign(), store=store)
            with open_store(path, read_only=True) as store:
                assert list(store.iter_rows()) == list(store.iter_rows_full_rescan())
                fast = render_markdown(analyze_store(store))
                slow = render_markdown(analyze_store(store, full_rescan=True))
            assert fast == slow
            documents.append(fast)
        assert documents[0] == documents[1]

    def test_superseding_append_keeps_run_rows_in_step(self, tmp_path):
        campaign = _campaign(sizes=(8, 12), algorithms=("elkin",))
        stores = (RunStore(tmp_path / "runs.jsonl"), ColumnarStore(tmp_path / "runs.sqlite"))
        for store in stores:
            report = execute_campaign(campaign, store=store)
            execute_campaign(campaign, store=store, resume=False)  # supersedes
            changed = dict(report.rows[0], rounds=int(report.rows[0]["rounds"]) + 1)
            store.record_run(campaign.specs[0], changed, {}, {})
        jsonl, columnar = stores
        assert columnar._physical_records > len(columnar)
        rows = list(columnar.iter_rows())
        assert rows == list(columnar.iter_rows_full_rescan())
        assert rows[0]["rounds"] == changed["rounds"]
        assert render_markdown(analyze_store(columnar)) == render_markdown(
            analyze_store(jsonl)
        )
        for store in stores:
            store.close()

    def test_store_with_retired_meta_rows_still_reports(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with ColumnarStore(path) as store:
            execute_campaign(_campaign(sizes=(8, 12)), store=store)
        with ColumnarStore(path, read_only=True) as store:
            expected = render_markdown(analyze_store(store))
        # Earlier versions persisted report aggregates under these keys.
        connection = sqlite3.connect(str(path))
        with connection:
            connection.executemany(
                "INSERT OR REPLACE INTO meta (k, v) VALUES (?, ?)",
                [
                    ("analytics", json.dumps({"rows": 999, "bound_violations": 5})),
                    ("analytics_state", json.dumps({"records": 1, "runs": 1})),
                ],
            )
        connection.close()
        with ColumnarStore(path, read_only=True) as store:
            assert render_markdown(analyze_store(store)) == expected
            assert render_markdown(analyze_store(store, full_rescan=True)) == expected
        with ColumnarStore(path) as store:
            assert store.compact()["dropped"] == 0
        with ColumnarStore(path, read_only=True) as store:
            assert render_markdown(analyze_store(store)) == expected


class TestColumnarScheduler:
    def test_parallel_columnar_rows_match_serial_jsonl(self, tmp_path):
        campaign = _campaign(sizes=(8, 10, 12, 14), algorithms=("elkin", "ghs"))
        with open_store(tmp_path / "par.sqlite") as parallel_store:
            parallel_report = execute_campaign(campaign, store=parallel_store, jobs=2)
        with open_store(tmp_path / "ser.jsonl") as serial_store:
            serial_report = execute_campaign(campaign, store=serial_store)
        assert parallel_report.rows == serial_report.rows
        with open_store(tmp_path / "par.sqlite", read_only=True) as store:
            assert len(store) == len(campaign.specs)
            assert analyze_store(store).bound_violations == 0


class TestColumnarCLI:
    SWEEP = [
        "sweep",
        "--families",
        "random_connected",
        "--sizes",
        "16",
        "--algorithms",
        "elkin",
        "--seeds",
        "0",
        "1",
    ]

    def test_sweep_report_convert_pipeline(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        argv = self.SWEEP + ["--output", str(store_path), "--store-backend", "columnar"]
        assert main(argv) == 0
        capsys.readouterr()
        assert detect_backend(store_path) == "columnar"

        assert main(["report", "--store", str(store_path)]) == 0
        fast = capsys.readouterr().out
        assert "bound-violation count: **0**" in fast
        assert main(["report", "--store", str(store_path), "--full-rescan"]) == 0
        assert capsys.readouterr().out == fast

        converted = tmp_path / "runs.jsonl"
        assert main(
            ["store", "convert", str(store_path), "--into", str(converted)]
        ) == 0
        assert "columnar" not in capsys.readouterr().out.split("(")[-1]
        assert main(["report", "--store", str(converted)]) == 0
        assert capsys.readouterr().out == fast

    def test_sweep_auto_backend_picks_columnar_by_suffix(self, tmp_path, capsys):
        store_path = tmp_path / "auto.sqlite"
        assert main(self.SWEEP + ["--output", str(store_path)]) == 0
        capsys.readouterr()
        assert detect_backend(store_path) == "columnar"
        with open_store(store_path, read_only=True) as store:
            assert store.backend_name == "columnar" and len(store) == 2

    def test_store_compact_handles_columnar(self, tmp_path, capsys):
        store_path = tmp_path / "runs.sqlite"
        argv = self.SWEEP + ["--output", str(store_path), "--store-backend", "columnar"]
        assert main(argv) == 0
        assert main(argv) == 0  # no --resume: every cell superseded
        capsys.readouterr()
        assert main(["store", "compact", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "superseded dropped" in out and "0 superseded" not in out
