"""Input files read whole in one read, so a pipe reads like a file and a
failure is explained from the bytes already read; output files replaced
whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import DataError


def read_bytes(path) -> bytes:
    """The whole content of ``path``, read in one call."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_text(path) -> str:
    """``path`` decoded as UTF-8, with ``\\r\\n`` and a lone ``\\r`` turned
    into ``\\n`` as text-mode ``open`` does; bytes that are not UTF-8 are a
    DataError naming the first bad byte by its offset in the file."""
    data = read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start} ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


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
