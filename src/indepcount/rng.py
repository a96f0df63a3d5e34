"""Seedable, splittable randomness.

Everything random in the package flows from one ``numpy`` SeedSequence so
a single integer seed reproduces a whole run.  Child streams are derived
by hashing string tags, which keeps the derivation independent of call
order.
"""

from __future__ import annotations

import hashlib

import numpy as np


def generator(seed_or_seq: int | None | np.random.SeedSequence) -> np.random.Generator:
    if isinstance(seed_or_seq, np.random.SeedSequence):
        seq = seed_or_seq
    else:
        seq = np.random.SeedSequence(seed_or_seq)
    return np.random.Generator(np.random.PCG64(seq))


def derive(seq: np.random.SeedSequence, *tags) -> np.random.SeedSequence:
    """Child SeedSequence keyed by the given tags (strings or ints)."""
    digest = hashlib.sha256(":".join(str(t) for t in tags).encode()).digest()
    key = tuple(int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4))
    return np.random.SeedSequence(entropy=seq.entropy, spawn_key=key)


def derived_generator(seq: np.random.SeedSequence, *tags) -> np.random.Generator:
    return generator(derive(seq, *tags))
