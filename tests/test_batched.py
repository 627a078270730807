"""Batched execution: byte-identity with the per-cell reference.

The contract under test: ``execute_campaign`` -- in-process at
``jobs=1`` and through the scheduler at ``jobs>1`` -- produces rows,
store records and resume behaviour *byte-identical* to running every
cell on its own through :func:`~repro.campaign.run_spec` -- batching
buys wall-clock time only.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.algorithms import run_algorithm
from repro.campaign import Campaign, execute_campaign, open_store, run_spec, RunStore
from repro.campaign.executor import _BatchRunner, _provenance
from repro.campaign.scheduler import partition_units
from repro.campaign.spec import graph_spec_for, RunSpec
from repro.exceptions import SimulationError, VerificationError
from repro.graphs.generators import GraphSpec, make_graph
from repro.simulator.engine import register_engine
from repro.simulator.fast_network import FastNetwork
from repro.verify.mst_checks import MSTOracle


def _sixteen_cell_grid() -> Campaign:
    """2 graphs x 2 algorithms x 2 bandwidths x 2 seeds on the fast kernel."""
    graphs = [
        graph_spec_for("random_connected", 20),
        graph_spec_for("planted_fragments", 16),
    ]
    return Campaign.from_grid(
        "batched-eq",
        graphs,
        algorithms=("elkin", "boruvka_seq"),
        bandwidths=(1, 2),
        engines=("fast",),
        seeds=(0, 1),
    )


def per_cell_reference(campaign: Campaign):
    """``{run_key: (row, result)}`` from :func:`run_spec` on every cell."""
    return {spec.run_key(): run_spec(spec) for spec in campaign.specs}


def assert_matches_reference(store, campaign: Campaign, reference) -> None:
    """Every store record equals the per-cell reference, key by key."""
    for spec in campaign.specs:
        key = spec.run_key()
        row, result = reference[key]
        assert json.dumps(store.get_row(key), sort_keys=True) == json.dumps(
            row, sort_keys=True
        )
        assert store.get_result(key).to_json_dict() == result.to_json_dict()
        assert store.get_spec(key) == spec


class TestBatchedEquivalence:
    def test_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _sixteen_cell_grid()
        assert len(campaign) == 16
        reference = per_cell_reference(campaign)
        batched_store = RunStore(tmp_path / "batched.jsonl")
        batched = execute_campaign(campaign, store=batched_store)

        assert batched.rows == [row for row, _ in reference.values()]
        assert batched_store.run_keys() == list(reference)
        assert_matches_reference(batched_store, campaign, reference)

    def test_resume_across_execution_modes(self, tmp_path):
        campaign = _sixteen_cell_grid()
        reference = per_cell_reference(campaign)
        # A store written cell by cell -- as the retired per-cell
        # executor did, under its "serial" provenance tag -- resumes in
        # full...
        store_path = tmp_path / "store.jsonl"
        per_cell = RunStore(store_path)
        for spec in campaign.specs:
            row, result = reference[spec.run_key()]
            per_cell.record_run(
                spec, row, result.to_json_dict(), _provenance(spec, "serial", True)
            )
        per_cell.close()
        resumed = execute_campaign(campaign, store=RunStore(store_path))
        assert resumed.executed == 0
        assert resumed.reused == 16
        assert resumed.rows == [row for row, _ in reference.values()]
        # ... and batched records resume in full too, in-process or not.
        batched_path = tmp_path / "batched.jsonl"
        second = execute_campaign(campaign, store=RunStore(batched_path))
        assert second.executed == 16
        for jobs in (1, 2):
            reresumed = execute_campaign(campaign, store=RunStore(batched_path), jobs=jobs)
            assert reresumed.executed == 0
            assert reresumed.rows == second.rows

    def test_default_in_process_execution_batches(self, tmp_path):
        campaign = _sixteen_cell_grid()
        report = execute_campaign(campaign, store=RunStore(tmp_path / "s.jsonl"))
        provenance = report.store.get_provenance(campaign.specs[0].run_key())
        assert provenance["executor"] == "batched"
        reference = per_cell_reference(campaign)
        assert report.rows == [row for row, _ in reference.values()]

    def test_parallel_rows_match_batched_rows(self):
        campaign = _sixteen_cell_grid()
        batched = execute_campaign(campaign)
        pooled = execute_campaign(campaign, jobs=2)
        assert batched.rows == pooled.rows

    def test_nondeterministic_cells_stay_self_consistent(self):
        # No pinned seed: every cell must draw its own instance, and the
        # row's instance description must match the simulated graph.
        campaign = Campaign.from_grid(
            "nondet",
            [GraphSpec("random_connected", {"n": 18})],
            algorithms=("elkin",),
            seeds=(None,),
        )
        report = execute_campaign(campaign)
        row = report.rows[0]
        result = report.store.get_result(campaign.specs[0].run_key())
        assert row["n"] == result.n and row["m"] == result.m

    def test_batched_verification_still_catches_wrong_results(self):
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def broken(graph, config=None):
            result = run_algorithm(graph, "kruskal", config)
            result.edges = set(list(result.edges)[:-1])  # drop an edge
            result.algorithm = "broken"
            return result

        register_algorithm(
            AlgorithmInfo(
                name="broken",
                runner=broken,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "broken",
                [graph_spec_for("random_connected", 16)],
                algorithms=("broken",),
                seeds=(0,),
            )
            with pytest.raises(VerificationError):
                execute_campaign(campaign)
        finally:
            _REGISTRY.pop("broken", None)

    def test_batched_stands_down_when_fast_engine_is_replaced(self):
        # A re-registered "fast" kernel must be honoured: the batch
        # runner constructs every engine through the registry.
        created = []

        class CountingFast(FastNetwork):
            __slots__ = ()

            def __init__(self, graph, bandwidth=1, validate=True):
                created.append(id(graph))
                super().__init__(graph, bandwidth=bandwidth, validate=validate)

        register_engine("fast", CountingFast)
        try:
            campaign = Campaign.from_grid(
                "swapped",
                [graph_spec_for("random_connected", 16)],
                algorithms=("elkin",),
                engines=("fast",),
                seeds=(0,),
            )
            report = execute_campaign(campaign)
            assert created, "replacement engine was never constructed"
            assert report.executed == 1
        finally:
            register_engine("fast", FastNetwork)


class TestBatchRunnerGraphLifetime:
    def test_each_graph_built_once_and_dropped_after_its_last_cell(self, monkeypatch):
        campaign = _sixteen_cell_grid()
        builds = []
        original = RunSpec.build_graph

        def counting_build(spec):
            builds.append(spec.graph_key())
            return original(spec)

        monkeypatch.setattr(RunSpec, "build_graph", counting_build)
        runner = _BatchRunner(campaign.specs, do_verify=True, compute_diameter=True)
        assert builds == []  # graphs are built on first use, not up front
        for position, spec in enumerate(campaign.specs):
            runner.run(spec, None)
            still_needed = {s.graph_key() for s in campaign.specs[position + 1 :]}
            for cache in (runner._graphs, runner._oracles, runner._planted):
                assert set(cache) <= still_needed
        graph_keys = {spec.graph_key() for spec in campaign.specs}
        assert sorted(builds) == sorted(graph_keys)  # each exactly once
        assert runner._graphs == runner._oracles == runner._planted == {}
        # Descriptions are small and stay cached for the whole sweep.
        assert set(runner._descriptions) == graph_keys


class TestScheduledEquivalence:
    """``jobs>1``: the graph-affine scheduler joins the matrix.

    Same contract as in-process batching, one axis further out: rows,
    per-key store records and resume behaviour must be byte-identical
    to the per-cell reference, whichever path produced them.  (Store
    *insertion order* is the one legitimate difference: shards merge in
    worker order, not campaign order.)
    """

    def test_scheduled_rows_and_store_records_byte_identical(self, tmp_path):
        campaign = _sixteen_cell_grid()
        assert len(campaign) == 16
        reference = per_cell_reference(campaign)
        sched_store = RunStore(tmp_path / "sched.jsonl")
        scheduled = execute_campaign(campaign, store=sched_store, jobs=2)

        assert scheduled.rows == [row for row, _ in reference.values()]
        assert sorted(sched_store.run_keys()) == sorted(reference)
        assert_matches_reference(sched_store, campaign, reference)

    def test_parallel_batching_is_the_default_and_tagged(self, tmp_path):
        campaign = _sixteen_cell_grid()
        report = execute_campaign(campaign, store=RunStore(tmp_path / "s.jsonl"), jobs=2)
        provenance = report.store.get_provenance(campaign.specs[0].run_key())
        assert provenance["executor"] == "batched-pool-2"
        assert report.workers == 2
        assert sum(stat["cells"] for stat in report.worker_stats) == report.executed
        assert "workers" in report.summary()
        in_process = execute_campaign(campaign)
        assert in_process.workers == 0
        assert report.rows == in_process.rows

    @pytest.mark.parametrize("suffix", [".jsonl", ".sqlite"])
    def test_worker_shards_are_single_files_on_the_store_backend(
        self, tmp_path, monkeypatch, suffix
    ):
        """Each worker's shard is one ``worker-NN`` file on the caller's
        backend, and every one of them is folded into the caller's store."""
        campaign = _sixteen_cell_grid()
        store = open_store(tmp_path / f"sched{suffix}")
        folded = []
        merge_from = store.merge_from

        def recording_merge(source):
            folded.append((Path(source).name, Path(source).is_file()))
            return merge_from(source)

        monkeypatch.setattr(store, "merge_from", recording_merge)
        report = execute_campaign(campaign, store=store, jobs=2)
        store.close()
        assert report.workers == 2
        assert folded == [(f"worker-00{suffix}", True), (f"worker-01{suffix}", True)]
        with open_store(tmp_path / f"sched{suffix}", read_only=True) as reloaded:
            assert sorted(reloaded.run_keys()) == sorted(campaign.run_keys())

    def test_resume_across_scheduled_and_serial(self, tmp_path):
        campaign = _sixteen_cell_grid()
        # In-process records satisfy a scheduled resume...
        serial_path = tmp_path / "serial.jsonl"
        first = execute_campaign(campaign, store=RunStore(serial_path))
        resumed = execute_campaign(campaign, store=RunStore(serial_path), jobs=2)
        assert resumed.executed == 0
        assert resumed.reused == 16
        assert resumed.rows == first.rows
        # ... and scheduled records satisfy in-process and scheduled resumes.
        sched_path = tmp_path / "sched.jsonl"
        second = execute_campaign(campaign, store=RunStore(sched_path), jobs=2)
        for jobs in (1, 3):
            reresumed = execute_campaign(campaign, store=RunStore(sched_path), jobs=jobs)
            assert reresumed.executed == 0
            assert reresumed.rows == second.rows

    def test_scheduler_streams_observer_events(self):
        campaign = _sixteen_cell_grid()
        events = []

        class Recorder:
            def on_run_start(self, spec):
                events.append(("start", spec.run_key()))

            def on_phase(self, spec, phase):
                events.append(("phase", spec.run_key()))

            def on_result(self, spec, result, row):
                events.append(("result", spec.run_key()))

        report = execute_campaign(campaign, jobs=2, observers=[Recorder()])
        starts = [key for kind, key in events if kind == "start"]
        results = [key for kind, key in events if kind == "result"]
        assert sorted(starts) == sorted(results) == sorted(campaign.run_keys())
        assert report.executed == 16
        assert any(kind == "phase" for kind, _ in events)

    def test_scheduled_verification_failure_propagates(self):
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def broken(graph, config=None):
            result = run_algorithm(graph, "kruskal", config)
            result.edges = set(list(result.edges)[:-1])
            result.algorithm = "broken"
            return result

        register_algorithm(
            AlgorithmInfo(
                name="broken",
                runner=broken,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "broken-par",
                [graph_spec_for("random_connected", 16)],
                algorithms=("broken", "kruskal"),
                seeds=(0, 1),
            )
            with pytest.raises(VerificationError):
                execute_campaign(campaign, jobs=2)
        finally:
            _REGISTRY.pop("broken", None)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the crash is injected through an env var inherited via fork",
    )
    def test_worker_death_keeps_committed_leases_and_resume_completes(
        self, tmp_path, monkeypatch
    ):
        """Kill one worker mid-campaign: the fold must stay consistent.

        The kamikaze algorithm hard-exits the worker whose lease covers
        the 20-vertex graph group; graph-affinity puts that whole group
        in one unit, so the other group's lease commits normally.  The
        campaign raises, the merged store holds exactly a subset of the
        per-cell reference records, and a resume finishes the rest.
        """
        from repro.algorithms import AlgorithmInfo, register_algorithm, _REGISTRY

        def kamikaze(graph, config=None):
            if (
                os.environ.get("REPRO_TEST_KAMIKAZE") == "1"
                and graph.number_of_nodes() == 20
            ):
                os._exit(3)
            return run_algorithm(graph, "kruskal", config)

        register_algorithm(
            AlgorithmInfo(
                name="kamikaze",
                runner=kamikaze,
                family="sequential-baseline",
                is_distributed=False,
            )
        )
        try:
            campaign = Campaign.from_grid(
                "kamikaze",
                [
                    graph_spec_for("random_connected", 16),
                    graph_spec_for("random_connected", 20),
                ],
                algorithms=("kamikaze",),
                seeds=(0, 1, 2),
            )
            store_path = tmp_path / "kamikaze.jsonl"
            monkeypatch.setenv("REPRO_TEST_KAMIKAZE", "1")
            with pytest.raises(SimulationError, match="died with exit code 3"):
                execute_campaign(campaign, store=RunStore(store_path), jobs=2)

            # Whatever leases committed before the crash merged cleanly:
            # every surviving record is byte-identical to the reference.
            monkeypatch.delenv("REPRO_TEST_KAMIKAZE")
            reference = per_cell_reference(campaign)
            survivor = RunStore(store_path)
            campaign_keys = set(campaign.run_keys())
            assert set(survivor.run_keys()) < campaign_keys
            for key in survivor.run_keys():
                assert json.dumps(survivor.get_row(key), sort_keys=True) == json.dumps(
                    reference[key][0], sort_keys=True
                )

            # Resume completes exactly the missing cells, byte-identically.
            resumed = execute_campaign(campaign, store=survivor, jobs=2)
            assert resumed.executed == len(campaign) - resumed.reused
            assert resumed.rows == [row for row, _ in reference.values()]
        finally:
            _REGISTRY.pop("kamikaze", None)


class TestWorkUnits:
    def test_units_are_graph_affine_and_cover_everything(self):
        campaign = _sixteen_cell_grid()
        pending = [
            (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
        ]
        units = partition_units(pending, {}, jobs=2)
        unit_of_graph = {}
        seen = []
        for unit_index, unit in enumerate(units):
            for index, spec_json, _ in unit.cells:
                seen.append(index)
                graph_key = campaign.specs[index].graph_key()
                unit_of_graph.setdefault(graph_key, unit_index)
                # A graph group is never split across units.
                assert unit_of_graph[graph_key] == unit_index
        assert sorted(seen) == list(range(len(campaign)))

    def test_partition_is_deterministic(self):
        campaign = _sixteen_cell_grid()
        pending = [
            (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
        ]
        first = partition_units(pending, {}, jobs=3)
        second = partition_units(pending, {}, jobs=3)
        assert [unit.unit_key for unit in first] == [unit.unit_key for unit in second]

    def test_unit_cells_cap_is_respected_per_group(self):
        campaign = _sixteen_cell_grid()
        pending = [
            (index, spec, spec.run_key()) for index, spec in enumerate(campaign.specs)
        ]
        units = partition_units(pending, {}, jobs=2, unit_cells=4)
        # The seed axis is part of the graph identity, so the grid has
        # four graph groups of 4 cells; at 4 cells per unit each group
        # fills exactly one unit.
        assert [len(unit.cells) for unit in units] == [4, 4, 4, 4]
        merged = partition_units(pending, {}, jobs=2, unit_cells=8)
        assert [len(unit.cells) for unit in merged] == [8, 8]


class TestConditionedExecutionEquivalence:
    """The condition axis joins the byte-identity matrix.

    Network conditions are delivery-side state inside the run, so the
    executor contract is unchanged: the per-cell reference, in-process
    and jobs>1 scheduled execution of a conditioned grid -- including cells
    whose crash schedule ends in a typed non-termination -- produce
    byte-identical rows and store records.
    """

    def _conditioned_grid(self) -> Campaign:
        return Campaign.from_grid(
            "batched-cond",
            [
                graph_spec_for("random_connected", 20),
                graph_spec_for("grid", 16),
            ],
            algorithms=("elkin", "ghs"),
            engines=("fast",),
            seeds=(0,),
            conditions=(None, "lossy", "crash-stop"),
        )

    def test_rows_byte_identical_across_execution_modes(self, tmp_path):
        campaign = self._conditioned_grid()
        assert len(campaign) == 12
        reference = [row for row, _ in per_cell_reference(campaign).values()]
        batched = execute_campaign(campaign, store=RunStore(tmp_path / "batched.jsonl"))
        pooled = execute_campaign(
            campaign, store=RunStore(tmp_path / "pooled.jsonl"), jobs=2
        )
        assert reference == batched.rows == pooled.rows
        statuses = {row["status"] for row in reference if "status" in row}
        assert statuses == {"ok", "non-terminated"}

    def test_store_records_and_resume_with_conditions(self, tmp_path):
        campaign = self._conditioned_grid()
        store_path = tmp_path / "store.jsonl"
        first = execute_campaign(campaign, store=RunStore(store_path))
        for jobs in (1, 2):
            resumed = execute_campaign(campaign, store=RunStore(store_path), jobs=jobs)
            assert resumed.executed == 0
            assert resumed.reused == len(campaign)
            assert resumed.rows == first.rows
        # Non-terminated records round-trip: the stored synthetic result
        # keeps the typed outcome.
        crash_keys = [
            spec.run_key()
            for spec in campaign.specs
            if spec.condition is not None and spec.condition.crash is not None
        ]
        store = RunStore(store_path)
        for key in crash_keys:
            assert store.get_result(key).details["non_terminated"] is True


class TestMSTOracle:
    def test_oracle_matches_full_verification(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        oracle.verify(result)  # no raise

    def test_oracle_rejects_wrong_edge_set(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        result.edges = set(list(result.edges)[:-1])
        with pytest.raises(VerificationError, match="MST mismatch"):
            oracle.verify(result)

    def test_oracle_rejects_wrong_weight(self):
        graph = make_graph("random_connected", n=24, seed=2)
        oracle = MSTOracle(graph)
        result = run_algorithm(graph, "kruskal")
        result.total_weight += 5.0
        with pytest.raises(VerificationError, match="does not match"):
            oracle.verify(result)
