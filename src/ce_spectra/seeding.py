"""Deterministic random streams keyed by structured labels.

Every stochastic routine in this package draws from a stream obtained here.
A stream is identified by a tuple of integers and short strings (for example
``(seed, "benchmark", cell, rep, "x", t)``), so the sequence of draws for any
cell of an experiment is a pure function of the master seed and the cell key.
Worker processes reconstructing the same key get byte-identical draws, and
``map_cells`` returns cell results in submission order, which together make
output independent of the worker count.
"""
from __future__ import annotations

import operator
import zlib

import numpy as np

KEY_WORDS = 2 ** 32  # integer key components, the seed among them, are below this


def _word(value, what: str) -> int:
    """value as one 32-bit key word. It must be an integer (NumPy integers
    included) in [0, 2^32): a float is not truncated and an integer outside
    the range is not masked, so two distinct keys never share a stream."""
    try:
        word = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= word < KEY_WORDS:
        raise ValueError(f"{what} must lie in [0, 2^32), got {word}")
    return word


def key_word(part: int | str) -> int:
    """Map one key component to a stable 32-bit word: a string to its CRC-32,
    an integer to itself."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return _word(part, "integer key component")


def check_seed(seed: int) -> None:
    """A master seed is one integer key word."""
    _word(seed, "seed")


def stream(*key: int | str) -> np.random.Generator:
    """Independent counter-based generator for the given key.

    Distinct keys give statistically independent Philox streams; the same
    key always reproduces the same draws, on any platform.
    """
    if not key:
        raise ValueError("stream key must have at least one component")
    entropy = [key_word(part) for part in key]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def map_cells(fn, args, workers: int):
    """Yield fn(*a) for each argument tuple in args, in order.

    Runs in this process when workers <= 1 or there is a single cell, else
    over a pool of at most ``workers`` processes. Results are yielded as they
    arrive, so a caller can flush partial output if a later cell fails.
    """
    args = list(args)
    if workers <= 1 or len(args) <= 1:
        for a in args:
            yield fn(*a)
        return
    # Imported here: a run in this process never pays for the pool module.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(args))) as pool:
        yield from pool.map(fn, *zip(*args))
