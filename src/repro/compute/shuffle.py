"""Process-independent key hashing: one canonical form, one stable hash."""

from __future__ import annotations

import hashlib
from typing import Hashable


def canonical_key(key: Hashable) -> Hashable:
    """Collapse equal-but-differently-typed keys onto one canonical form.

    Python's numeric tower makes ``1 == 1.0 == True``, but their ``repr``
    differs, so hashing the repr directly would scatter equal keys across
    partitions (or shards).  Booleans and integral floats are normalised to
    ``int`` (a float that equals an int is always exactly representable), and
    tuple keys are canonicalised element-wise.

    Shared with :func:`repro.storage.warehouse.warehouse.value_partitioner`,
    which uses the same canonical form for partition keys.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, float) and key.is_integer():
        return int(key)
    if isinstance(key, tuple):
        return tuple(canonical_key(element) for element in key)
    return key


def stable_hash(key: Hashable) -> int:
    """A process-independent 64-bit hash of ``canonical_key(key)``.

    Unlike the built-in ``hash`` this is not randomised per interpreter run,
    so it is safe to use wherever placement must be reproducible across
    processes and restarts: warehouse partition placement and the serving
    tier's consistent-hash shard ring.
    """
    digest = hashlib.blake2b(repr(canonical_key(key)).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")
