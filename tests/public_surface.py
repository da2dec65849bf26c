"""The public surface: every name ``repro`` declares in an ``__all__``.

``tests/public_surface.txt`` holds the sorted union of ``__all__`` over
``repro``, its subpackages and ``repro.errors`` (the one plain module
whose names callers import and catch by type), one name per line.
``tests/unit/test_public_surface.py`` compares it with ``==``, so a PR
that adds or removes a public name shows it as a reviewed diff of that
file — ROADMAP item 7's rule "a deletion PR lists every removed public
name", made checkable.

Re-record (only when the surface is meant to change)::

    PYTHONPATH=src python -m tests.public_surface --record
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import repro

SURFACE_PATH = Path(__file__).with_name("public_surface.txt")


def public_surface() -> list[str]:
    modules = ["repro", "repro.errors"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    names: set[str] = set()
    for module in modules:
        names.update(importlib.import_module(module).__all__)
    return sorted(names)


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print(
            f"refusing to overwrite {SURFACE_PATH} without --record "
            "(re-record only when a public name is meant to come or go)",
            file=sys.stderr,
        )
        return 2
    surface = public_surface()
    SURFACE_PATH.write_text("\n".join(surface) + "\n")
    print(f"recorded {len(surface)} names -> {SURFACE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
