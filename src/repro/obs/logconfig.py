"""Opt-in stdlib-logging configuration for the ``repro`` package.

The library itself only ever *emits* records through per-module
``logging.getLogger(__name__)`` loggers and never touches handlers; an
application (or the CLI) calls :func:`configure_logging` once to see them.
"""

from __future__ import annotations

import logging
import sys
from typing import IO

__all__ = ["configure_logging"]

_HANDLER_MARKER = "_repro_obs_handler"

DEFAULT_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def configure_logging(
    level: int | str = logging.INFO,
    stream: "IO[str] | None" = None,
    fmt: str = DEFAULT_FORMAT,
    logger_name: str = "repro",
) -> logging.Logger:
    """Attach (or update) one stream handler on the package logger.

    Idempotent: repeat calls reconfigure the existing handler instead of
    stacking duplicates, so tests and REPL sessions can call it freely.
    Returns the configured logger.
    """
    if isinstance(level, str):
        number = logging.getLevelName(level.upper())
        if not isinstance(number, int):
            raise ValueError(f"unknown log level {level!r}")
        level = number
    logger = logging.getLogger(logger_name)
    logger.setLevel(level)
    handler = next(
        (
            existing
            for existing in logger.handlers
            if getattr(existing, _HANDLER_MARKER, False)
        ),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler(stream or sys.stderr)
        setattr(handler, _HANDLER_MARKER, True)
        logger.addHandler(handler)
    elif stream is not None and isinstance(handler, logging.StreamHandler):
        handler.setStream(stream)
    handler.setLevel(level)
    handler.setFormatter(logging.Formatter(fmt))
    return logger
