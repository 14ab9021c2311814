"""docs/observability.md's family tables against the frozen surface.

Every family of ``tests/integration/gateway_surface_golden.json`` must
have a table row whose kind matches and whose ``owner`` module really
holds the declaration (the quoted family name appears in its source).
"""

import json
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def doc_rows():
    """``{family: (kind, owner)}`` from the doc's four-column tables."""
    rows = {}
    with open(os.path.join(ROOT, "docs", "observability.md")) as f:
        for line in f:
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) != 4 or not cells[0].startswith("`repro_"):
                continue
            for family in re.findall(r"`(repro_[a-z_]+)`", cells[0]):
                rows[family] = (cells[1], cells[3].strip("`"))
    return rows


def test_every_golden_family_is_documented_with_its_owner():
    golden_path = os.path.join(
        ROOT, "tests", "integration", "gateway_surface_golden.json"
    )
    with open(golden_path) as f:
        golden = json.load(f)
    kinds = {
        name: kind
        for config in golden.values()
        for name, kind, _help, _labels in config["families"]
    }
    rows = doc_rows()
    assert sorted(rows) == sorted(kinds)
    for family, (kind, owner) in rows.items():
        assert kind == kinds[family], family
        with open(os.path.join(ROOT, "src", "repro", owner)) as f:
            assert f'"{family}"' in f.read(), (family, owner)
