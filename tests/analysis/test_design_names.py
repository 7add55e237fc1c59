"""DESIGN.md names only code that exists (tier-1 drift guard).

Every backticked ``repro.…`` name in DESIGN.md, with brace lists such
as ``repro.caches.{column_buffer,victim}`` expanded, must resolve to a
module or to an attribute reachable from one.  Every backticked bare
identifier (``column_buffer_fast``, ``MissRates``, ``REPRO_SCALE``)
must occur as a word in the program's code — ``src/``, ``scripts/``,
``perfbench/`` and ``benchmarks/`` — so a function that was deleted
cannot stay documented.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"`(repro(?:\.[\w{},]+)+)`")
BARE = re.compile(r"`([A-Za-z_]\w*)`")
CODE_DIRS = ("src", "scripts", "perfbench", "benchmarks")


def design_names() -> list[str]:
    names = []
    for spelled in NAME.findall((REPO_ROOT / "DESIGN.md").read_text()):
        brace = re.search(r"\{([^}]*)\}", spelled)
        if brace is None:
            names.append(spelled)
            continue
        for part in brace.group(1).split(","):
            names.append(spelled[: brace.start()] + part + spelled[brace.end():])
    return sorted(set(names))


def resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then walk attributes."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_design_names_are_found():
    names = design_names()
    assert "repro.caches.column_buffer" in names  # brace lists expanded
    assert len(names) > 30


@pytest.mark.parametrize("name", design_names())
def test_design_name_resolves(name):
    assert resolves(name), f"DESIGN.md names {name}, which does not exist"


def code_words() -> set[str]:
    words: set[str] = set()
    for top in CODE_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def test_design_bare_names_occur_in_code():
    bare = set(BARE.findall((REPO_ROOT / "DESIGN.md").read_text()))
    assert "column_buffer_fast" in bare
    missing = sorted(bare - code_words())
    assert not missing, f"DESIGN.md names {missing}, found nowhere in the code"
