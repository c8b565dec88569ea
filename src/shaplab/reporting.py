"""Deterministic report serialization with atomic file writes."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def dump_json(payload) -> str:
    """Stable JSON text: sorted keys, repr-exact floats, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_csv(header, rows) -> str:
    """Plot-ready CSV with repr-exact floats (deterministic bytes)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
