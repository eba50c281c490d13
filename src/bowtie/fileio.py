"""Output files that are replaced whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path, mode: str = "w", **open_args):
    """Write ``path`` through a temporary file in the same directory.

    Yields the open temporary file.  When the block finishes, the file is
    closed and moved onto ``path`` with ``os.replace``; when it raises, the
    temporary file is removed and ``path`` keeps its previous content.
    """
    path = Path(os.fsdecode(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
