"""Determinism helpers: per-task seeds from a root seed, and the one float sum."""

import hashlib

__all__ = ["derive_seed", "seq_sum"]


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
