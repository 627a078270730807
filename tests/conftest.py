"""Shared fixtures for the test suite.

Graphs used here are deliberately small (tens of vertices): every
distributed run simulates each round explicitly, and the suite aims for
breadth (many behaviours and invariants) rather than large instances --
the benchmarks cover the scaling story.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.graphs import (
    complete_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.simulator.engine import Engine
from repro.simulator.fast_network import FastNetwork
from repro.simulator.network import SyncNetwork


@pytest.fixture
def small_random_graph():
    """A 40-vertex sparse random connected graph (low diameter)."""
    return random_connected_graph(40, seed=11)


@pytest.fixture
def medium_random_graph():
    """An 80-vertex random connected graph used by integration tests."""
    return random_connected_graph(80, seed=5)


@pytest.fixture
def small_path_graph():
    """A 30-vertex path (the extreme high-diameter case)."""
    return path_graph(30, seed=3)


@pytest.fixture
def small_grid_graph():
    """A 6x6 grid (intermediate diameter)."""
    return grid_graph(6, 6, seed=9)


@pytest.fixture
def small_star_graph():
    """A 25-vertex star (diameter 2)."""
    return star_graph(25, seed=4)


@pytest.fixture
def small_complete_graph():
    """A 12-vertex complete graph (diameter 1, dense)."""
    return complete_graph(12, seed=6)


@pytest.fixture
def message_path_waves(monkeypatch):
    """Make both kernels decline closed-form tree waves for one test.

    Every ``forest_broadcast`` / ``forest_convergecast`` then simulates
    each message through ``run_protocol``, as a proxy that declines
    ``Engine.charge_tree_wave`` would.
    """
    for kernel in (SyncNetwork, FastNetwork):
        monkeypatch.setattr(kernel, "charge_tree_wave", Engine.charge_tree_wave)


@pytest.fixture
def network(small_random_graph):
    """A CONGEST network (b = 1) over the small random graph."""
    return SyncNetwork(small_random_graph)


@pytest.fixture
def path_network(small_path_graph):
    """A CONGEST network over the small path graph."""
    return SyncNetwork(small_path_graph)


def _split_into_legacy_directory(source: Path, directory: Path, torn_tail: bool = False) -> Path:
    """Lay ``source``'s JSONL lines out as a legacy sharded-directory store.

    The old layout: two ``shard-NNNNN.jsonl`` files holding the lines in
    order, and a stale ``MANIFEST.json`` listing only the first (the
    state a crash left before the manifest caught up).  ``torn_tail``
    appends a half-written record to the last shard.
    """
    lines = source.read_bytes().splitlines(keepends=True)
    half = (len(lines) + 1) // 2
    directory.mkdir()
    (directory / "shard-00000.jsonl").write_bytes(b"".join(lines[:half]))
    (directory / "shard-00001.jsonl").write_bytes(b"".join(lines[half:]))
    if torn_tail:
        with (directory / "shard-00001.jsonl").open("ab") as handle:
            handle.write(b'{"kind": "run", "key": "torn')
    manifest = {"version": 2, "shards": ["shard-00000.jsonl"], "shard_records": half}
    (directory / "MANIFEST.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return directory


@pytest.fixture(scope="session")
def legacy_directory():
    """Factory: ``legacy_directory(source_jsonl, directory, torn_tail=False)``."""
    return _split_into_legacy_directory
