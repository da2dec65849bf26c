"""``raises_code``: ``pytest.raises`` for an error told apart by its code.

The library raises one class per handler that catches it and names every
finer condition with ``code`` (docs/SERVING.md, "Error codes"), so a test
that pins a condition checks both.
"""

from __future__ import annotations

import contextlib

import pytest


@contextlib.contextmanager
def raises_code(cls: type, code: str | None, match: str | None = None):
    """``pytest.raises(cls, match=match)``, then ``.code == code`` unless
    *code* is ``None``."""
    with pytest.raises(cls, match=match) as excinfo:
        yield excinfo
    assert code is None or excinfo.value.code == code, (excinfo.value.code, code)
