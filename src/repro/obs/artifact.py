"""One atomic write for every artifact file the program emits.

Traces, series, ledgers, critical-path reports, SLO reports, scorecards,
dashboards, profiles and sweep-cache entries all land on disk through
:func:`write_atomic`: the parent directory is created, the text goes to
a uniquely named temp file beside the target, and ``os.replace`` swaps
it in.  A reader therefore sees the old file or the new one, never a
torn one, and a failed write leaves neither a target nor a temp file.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically; return the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # pid + random suffix: concurrent writers (sweep workers sharing a
    # cache directory) never collide on the temp name
    tmp = target.with_name(
        f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    )
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target
