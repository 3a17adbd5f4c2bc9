#!/usr/bin/env python3
"""Record tests/data/registry.json, the registry's golden data.

The file holds the text of `sphfano families` (one line per row), the rows
that `sphfano families --json` prints (one row per line, keys in printed
order), and `build(family, params).to_json()` for every rank-1 and rank-2
instance.  `tests/test_registry.py` asserts that the registry reproduces the
file exactly, so the file pins row order, parameter domains and bounds,
product notes, derived symmetry groups, and each instance's roots, colors,
density, kappa, basis, group and type; regenerate it only when that data is
meant to change.

Run from the repository root:  python3 tools/record_registry.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sphfano.cli import main as cli  # noqa: E402
from sphfano.registry import build, families  # noqa: E402

OUT = ROOT / "tests" / "data" / "registry.json"


def _cli_text(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli(list(argv))
    return out.getvalue()


def _block(name: str, items) -> str:
    return f'"{name}": [\n' + ",\n".join(json.dumps(e) for e in items) + "\n]"


def registry_text() -> str:
    """The file's text for the current registry, one item per line."""
    instances = [
        {"family": spec.id, "params": params, "data": build(spec.id, params).to_json()}
        for spec in families(rank_filter=[1, 2])
        for params in spec.params_list()
    ]
    blocks = (
        _block("families", _cli_text("families").splitlines()),
        _block("families_json", json.loads(_cli_text("families", "--json"))),
        _block("instances", instances),
    )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main():
    OUT.write_text(registry_text())


if __name__ == "__main__":
    main()
