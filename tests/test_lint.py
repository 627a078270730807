"""Tests of the :mod:`repro.lint` static analyzer.

The fixture tree under ``tests/lint_fixtures`` mimics the real package
layout (``.../repro/core/...``) so the default path scoping applies:
``bad/`` files carry exactly one seeded violation per marked line,
``good/`` files are their compliant twins, and ``suppressed/``
exercises the suppression machinery end to end.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.lint import (
    all_rules,
    collect_files,
    known_rule_ids,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.rules_contracts import ENGINE_ABSTRACT_METHODS
from repro.simulator.engine import Engine

FIXTURES = Path(__file__).parent / "lint_fixtures"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"
SUPPRESSED = FIXTURES / "suppressed"
REPO_SRC = Path(__file__).resolve().parents[1] / "src"

ALL_RULE_IDS = {
    "LOC101",
    "LOC102",
    "LOC103",
    "LOC104",
    "LOC105",
    "DET201",
    "DET202",
    "DET203",
    "DET204",
    "DET205",
    "CON301",
    "CON302",
    "CON303",
    "CON304",
}


def rule_ids(result) -> list:
    return [finding.rule_id for finding in result.unsuppressed]


# ---------------------------------------------------------------------- #
# registry and contract pinning
# ---------------------------------------------------------------------- #


def test_rule_catalog_is_complete():
    assert {rule.id for rule in all_rules()} == ALL_RULE_IDS
    assert set(known_rule_ids()) == ALL_RULE_IDS | {"SUP001", "SUP002", "SUP003"}


def test_engine_abstract_surface_matches_live_abc():
    """The frozen copy in rules_contracts must track the real Engine ABC."""
    assert ENGINE_ABSTRACT_METHODS == frozenset(Engine.__abstractmethods__)


def test_every_rule_fires_on_its_seeded_fixture():
    """Each rule id appears in the bad tree at its ``# seeded`` marker."""
    result = lint_paths([BAD])
    fired = set(rule_ids(result))
    assert fired == ALL_RULE_IDS
    # Every finding points at a line whose source carries the marker
    # naming that exact rule.
    for finding in result.unsuppressed:
        source_line = Path(finding.file).read_text().splitlines()[finding.line - 1]
        if "# seeded" in source_line:
            assert finding.rule_id in source_line, (finding, source_line)


def test_seeded_markers_and_findings_agree_line_by_line():
    """Marked lines and findings are the same set, per file and rule."""
    result = lint_paths([BAD])
    reported = {
        (Path(finding.file).name, finding.line, finding.rule_id)
        for finding in result.unsuppressed
    }
    expected = set()
    for fixture in BAD.rglob("*.py"):
        for lineno, line in enumerate(fixture.read_text().splitlines(), start=1):
            if "# seeded" in line:
                seeded_rule = line.rsplit("# seeded", 1)[1].strip()
                expected.add((fixture.name, lineno, seeded_rule))
    # CON301 anchors on the class statement, which carries the marker
    # as a trailing comment -- included in expected like every other.
    assert reported == expected


def test_compliant_twins_are_silent():
    result = lint_paths([GOOD])
    assert result.ok
    assert result.findings == []
    assert result.files_scanned == 3


def test_locality_rules_only_apply_to_protocol_paths(tmp_path):
    """The same source outside ``repro/core`` must not trip LOC rules."""
    source = (BAD / "repro" / "core" / "loc_violations.py").read_text()
    plain = tmp_path / "plain_module.py"
    plain.write_text(source)
    result = lint_paths([plain])
    assert not any(finding.rule_id.startswith("LOC") for finding in result.findings)


def test_cross_vertex_schedule_covers_wake_finish_and_unfinish(tmp_path):
    """LOC105 flags scheduling of any vertex but the callback's own."""
    module = tmp_path / "repro" / "core" / "schedule.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from repro.simulator.protocol import NodeProtocol\n"
        "\n"
        "\n"
        "class Scheduler(NodeProtocol):\n"
        "    def on_start(self, vertex, node, api):\n"
        "        api.wake(vertex)\n"
        "        api.finish(vertex + 1)\n"
        "\n"
        "    def on_round(self, vertex, node, api, inbox):\n"
        "        api.finish(vertex)\n"
        "        api.unfinish(inbox[0].sender)\n"
        "        api.wake(self.peer)\n"
    )
    result = lint_paths([module])
    assert [(finding.rule_id, finding.line) for finding in result.unsuppressed] == [
        ("LOC105", 7),
        ("LOC105", 11),
        ("LOC105", 12),
    ]


@pytest.mark.parametrize("callback", ["on_start", "on_round"])
@pytest.mark.parametrize("method", ["finish", "unfinish", "wake"])
def test_cross_vertex_schedule_flags_only_the_foreign_vertex(tmp_path, method, callback):
    """Each scheduling call is legal on ``v`` and LOC105 on anything else."""
    params = "self, v, node, api" + (", inbox" if callback == "on_round" else "")
    module = tmp_path / "repro" / "core" / "schedule.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "from repro.simulator.protocol import NodeProtocol\n"
        "\n"
        "\n"
        "class Scheduler(NodeProtocol):\n"
        f"    def {callback}({params}):\n"
        f"        api.{method}(v)\n"
        f"        api.{method}(node.parent)\n"
    )
    result = lint_paths([module])
    assert [(finding.rule_id, finding.line) for finding in result.unsuppressed] == [
        ("LOC105", 7)
    ]


# ---------------------------------------------------------------------- #
# suppressions
# ---------------------------------------------------------------------- #


def test_suppression_round_trip():
    result = lint_paths([SUPPRESSED])
    assert [finding.rule_id for finding in result.suppressed] == ["DET201", "DET201"]
    assert rule_ids(result) == ["SUP001", "SUP002", "SUP003"]
    justified = result.suppressed[0]
    assert justified.suppression_reason == "fixture: reviewed ambient draw"


def test_stale_suppression_diagnostic_skipped_under_select():
    result = lint_paths([SUPPRESSED], select=["DET201"])
    assert "SUP003" not in rule_ids(result)
    assert "SUP001" in rule_ids(result)  # hygiene still checked


def test_standalone_suppression_targets_next_code_line(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import random\n"
        "\n"
        "\n"
        "def draw():\n"
        "    # repro: allow[DET201] reviewed: fixture draw\n"
        "    return random.random()\n"
    )
    result = lint_paths([module])
    assert result.ok
    assert [finding.rule_id for finding in result.suppressed] == ["DET201"]


def test_docstring_mentions_of_the_syntax_are_not_suppressions(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        '"""Write # repro: allow[DET201] reason to silence a finding."""\n'
        "import random\n"
        "\n"
        "\n"
        "def draw():\n"
        "    return random.random()\n"
    )
    result = lint_paths([module])
    assert rule_ids(result) == ["DET201"]
    assert result.suppressed == []


# ---------------------------------------------------------------------- #
# driver: selection, collection, parse errors
# ---------------------------------------------------------------------- #


def test_select_restricts_to_named_rules():
    result = lint_paths([BAD], select=["DET201"])
    assert rule_ids(result) == ["DET201"]


def test_ignore_drops_named_rules():
    result = lint_paths([BAD], ignore=["DET203"])
    assert "DET203" not in rule_ids(result)
    assert "DET201" in rule_ids(result)


def test_unknown_rule_ids_are_rejected():
    with pytest.raises(ConfigurationError):
        lint_paths([BAD], select=["DET999"])
    with pytest.raises(ConfigurationError):
        lint_paths([BAD], ignore=["BOGUS"])


def test_missing_path_is_rejected():
    with pytest.raises(ConfigurationError):
        lint_paths([FIXTURES / "does_not_exist"])


def test_collect_files_is_sorted_and_deduplicated():
    files = collect_files([BAD, BAD])
    assert files == sorted(set(files), key=lambda p: p.resolve().as_posix())
    assert all(path.suffix == ".py" for path in files)


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    result = lint_paths([broken])
    assert rule_ids(result) == ["LNT000"]
    assert not result.ok


# ---------------------------------------------------------------------- #
# reporters
# ---------------------------------------------------------------------- #


def test_text_report_pins_file_line_col_and_rule():
    result = lint_paths([BAD / "repro" / "common" / "det_violations.py"])
    text = render_text(result)
    assert "det_violations.py:13:12: DET201 [unseeded-random-call]" in text
    assert text.endswith("in 1 file(s)\n")


def test_json_report_round_trips_and_is_stable():
    result = lint_paths([BAD])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["summary"]["unsuppressed"] == len(result.unsuppressed)
    keys = [(f["file"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
    assert keys == sorted(keys)
    # Byte-identical across runs: the CI artifact is diff-stable.
    assert render_json(result) == render_json(lint_paths([BAD]))


def test_json_report_carries_suppression_reasons():
    payload = json.loads(render_json(lint_paths([SUPPRESSED])))
    suppressed = [f for f in payload["findings"] if f["suppressed"]]
    assert suppressed and all("reason" in f for f in suppressed)


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


def test_cli_lint_exit_codes(capsys):
    assert main(["lint", str(GOOD)]) == 0
    assert main(["lint", str(BAD)]) == 1
    capsys.readouterr()


def test_cli_lint_json_output(tmp_path, capsys):
    artifact = tmp_path / "report.json"
    code = main(["lint", str(BAD), "--format", "json", "--output", str(artifact)])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(artifact.read_text())
    assert payload == json.loads(captured.out)
    assert payload["summary"]["unsuppressed"] > 0


def test_cli_lint_select_and_list_rules(capsys):
    assert main(["lint", str(BAD), "--select", "CON301"]) == 1
    out = capsys.readouterr().out
    assert "CON301" in out and "DET201" not in out
    assert main(["lint", "--list-rules"]) == 0
    catalog = capsys.readouterr().out
    for rule_id in sorted(ALL_RULE_IDS | {"SUP001", "SUP002", "SUP003"}):
        assert rule_id in catalog


# ---------------------------------------------------------------------- #
# the dogfood gate
# ---------------------------------------------------------------------- #


def test_source_tree_is_clean():
    """The real tree has zero unsuppressed findings (the CI hard gate)."""
    result = lint_paths([REPO_SRC])
    assert result.ok, render_text(result)


def test_source_tree_suppressions_all_carry_reasons():
    result = lint_paths([REPO_SRC])
    for finding in result.suppressed:
        assert finding.suppression_reason, finding
