"""Hardened parsing for integer ``REPRO_*`` environment knobs.

``REPRO_JOBS`` is read on first use.  A typo like ``REPRO_JOBS=lots``
must not raise an unhandled ``ValueError`` that takes down the entry
point before it can print a usable message.  Knobs are tuning hints,
not configuration contracts: a malformed value falls back to the
default with a warning instead of aborting.

This module lives at the package root (not under ``repro.core`` or
``repro.sim``) so any layer can use it without an import cycle.
"""

from __future__ import annotations

import os
import warnings


def env_int(name: str, default: int) -> int:
    """Integer knob ``name`` from the environment, or ``default``.

    Unset and empty values quietly yield ``default``; a set-but-malformed
    value yields ``default`` with a :class:`UserWarning` naming the knob
    and the rejected text, so a typo degrades to default behaviour
    instead of crashing the importing process.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw.strip())
    except ValueError:
        warnings.warn(
            "ignoring %s=%r: not an integer, using default %d"
            % (name, raw, default),
            stacklevel=2,
        )
        return default
