"""Public-API snapshot: surface changes must be deliberate.

``tests/public_api_manifest.json`` is the checked-in record of what
``repro`` and ``repro.api`` export.  If this test fails you either
removed something users import (a breaking change -- update the README's
Migration section) or added a new export (fine -- regenerate the
manifest and include it in the same commit)::

    PYTHONPATH=src python - <<'EOF'
    import json, repro, repro.api
    manifest = {
        "repro": sorted(repro.__all__),
        "repro.api": sorted(repro.api.__all__),
    }
    with open("tests/public_api_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\\n")
    EOF
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
import repro.api

MANIFEST_PATH = Path(__file__).parent / "public_api_manifest.json"


def _manifest() -> dict:
    return json.loads(MANIFEST_PATH.read_text(encoding="utf-8"))


def test_repro_all_matches_manifest():
    assert sorted(repro.__all__) == _manifest()["repro"]


def test_repro_api_all_matches_manifest():
    assert sorted(repro.api.__all__) == _manifest()["repro.api"]


def test_every_export_resolves():
    """``__all__`` must not advertise names that do not exist."""
    for module in (repro, repro.api):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} is advertised but missing"


def test_no_duplicate_exports():
    for module in (repro, repro.api):
        assert len(module.__all__) == len(set(module.__all__))


def test_import_loads_no_numpy():
    # The package runs on networkx alone: importing it in a fresh
    # interpreter must not pull numpy in.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    probe = "import sys, repro; print('numpy' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert completed.stdout.strip() == "False"
