"""Deterministic random-stream derivation.

All randomness in the package flows from a single master seed. Independent
streams are derived with ``substream(seed, *path)``, where ``path`` is a
sequence of nonnegative ints or short strings naming the consumer, e.g.
``substream(7, "sweep", 3, "proposals")``. Ints enter the spawn key as they
are and strings as 32-bit keys through SHA-256; the tuple is fed to
``numpy.random.SeedSequence``, so streams are reproducible and independent
of scheduling or execution order.
"""

from __future__ import annotations

import hashlib

import numpy as np

RandomState = int | np.random.Generator


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


def substream(seed: RandomState, *path) -> np.random.Generator:
    """Generator for the stream named by ``path`` under master ``seed``.

    An existing Generator is passed through unchanged (the path is ignored),
    so helpers can accept either a seed or an already-derived stream. Every
    "stream" a helper derives from a Generator is then that one Generator,
    drawn in sequence. The CLI sweep cells pass a Generator as the seed, so
    within one cell the "states" and per-state "proposals" streams of
    ``diagnostics.mean_acceptance``, "gap-states" and "gap-proposals" of
    ``dirichlet_gap_upper``, and "mix-init" and "mix-steps" of
    ``mixing_time_measure`` are consecutive draws of one stream: the draw
    order inside these functions is part of every sweep value.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(_key_part(p) for p in path)))
