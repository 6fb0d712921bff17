"""Determinism helpers: per-task seeds from a root seed, the one float sum, and the one
text-file format."""

import contextlib
import hashlib
import os

__all__ = ["derive_seed", "seq_sum", "read_lines", "write_lines"]


def derive_seed(root_seed: int, *parts) -> int:
    """Stable 64-bit child seed for (root_seed, *parts).

    The mapping depends only on the argument values, so adding tasks never
    perturbs the seeds of existing ones.
    """
    key = repr((int(root_seed),) + tuple(parts)).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def seq_sum(values, start=0.0):
    """``start`` plus ``values``, added left to right: the bits of builtin ``sum`` on Python
    3.10 and 3.11, on every Python (3.12 made ``sum`` of floats compensated). ``start=0``
    keeps integer sums exact; an empty input gives ``start``."""
    total = start
    for v in values:
        total += v
    return total


def read_lines(path):
    """Yield ``(lineno, line)`` for every line of a UTF-8 text file, counting from 1: a
    leading byte-order mark is skipped and the line end (LF, CRLF or CR) is removed."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            yield lineno, line.rstrip("\n")


def write_lines(path, lines) -> None:
    """Write each of ``lines`` followed by an LF, as UTF-8 without a byte-order mark.

    The lines go to a sibling ``<name>.<pid>.tmp``, which then replaces ``path``: a write
    that fails part-way (a line UTF-8 cannot encode, a generator that raises, a full disk)
    leaves no partial file, and a file already at ``path`` as it was. An OSError from
    opening or replacing names ``path``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(f"{line}\n")
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
