"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed. Independent
streams are derived with ``substream(seed, *path)``, where ``path`` is a
sequence of nonnegative ints or short strings naming the consumer, e.g.
``substream(7, "sweep", 3, "proposals")``. Ints enter the spawn key as they
are and strings as 32-bit keys through SHA-256; the tuple is fed to
``numpy.random.SeedSequence``, so streams are reproducible and independent
of scheduling or execution order.

A seed is a nonnegative int or the ``SeedSequence`` of ``seed_path(seed,
*path)``, which hands a callee a branch of the tree: ``substream(seed_path(s,
*a), *b)`` draws what ``substream(s, *a, *b)`` draws. A function that only
draws from a stream its caller derived takes it as ``rng``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_part(part) -> int:
    if isinstance(part, (bool, float)):
        raise TypeError(f"stream path parts must be ints or strings, got {part!r}")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream path ints must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:4], "little")
    raise TypeError(f"stream path parts must be ints or strings, got {part!r}")


def seed_path(seed: int | np.random.SeedSequence, *path) -> np.random.SeedSequence:
    """Seed of the stream named by ``path`` under ``seed``, an int or a seed_path."""
    keys = tuple(_key_part(p) for p in path)
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + keys)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"a seed must be an int or a seed_path, got {type(seed).__name__}")
    return np.random.SeedSequence(int(seed), spawn_key=keys)


def substream(seed: int | np.random.SeedSequence, *path) -> np.random.Generator:
    """Generator for the stream named by ``path`` under ``seed``."""
    return np.random.default_rng(seed_path(seed, *path))
