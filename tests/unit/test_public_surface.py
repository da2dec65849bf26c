"""The declared public names, against the reviewed list.

A name added to or dropped from any ``__all__`` fails here until
``tests/public_surface.txt`` is re-recorded (see
:mod:`tests.public_surface`), so the change shows up in the PR's diff.
"""

from tests.public_surface import SURFACE_PATH, main, public_surface


def test_public_surface_is_the_recorded_one():
    assert public_surface() == SURFACE_PATH.read_text().splitlines()


def test_recorder_refuses_without_the_flag(capsys):
    before = SURFACE_PATH.read_bytes()
    assert main([]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert SURFACE_PATH.read_bytes() == before
