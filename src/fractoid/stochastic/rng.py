"""Counter-based random number streams.

Philox is counter-based and splittable: the pair (seed, stream) addresses an
independent stream, so a per-path stream reproduces bit-identically however
the paths are grouped into blocks.

The key alone picks a Philox stream (Salmon, Moraes, Dror & Shaw, *Parallel
random numbers: as easy as 1, 2, 3*, SC'11).  :func:`stream_normals` therefore
draws a run of streams from one generator, re-keyed per stream by assigning
its state (key [seed, stream], counter 0, empty buffer), which costs a
fraction of building a generator per stream and gives the same bits.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

import numpy as np

from ..errors import ParameterError, check_positive

_MASK = 0xFFFFFFFFFFFFFFFF


def _word(value: int) -> int:
    # operator.index takes Python and NumPy integers and rejects floats; the
    # mask then acts on a Python int, which NumPy's int64 could not hold
    return operator.index(value) & _MASK


def _key(seed: int, stream: int) -> np.ndarray:
    # an explicit uint64 array: a list mixing words below and above 2**63
    # would pass through float64 and lose their low bits
    return np.array([_word(seed), _word(stream)], dtype=np.uint64)


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the (seed, stream) pair."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream)))


def stream_normals(seed: int, streams: Iterable[int], scale: float,
                   shape) -> Iterator[np.ndarray]:
    """For each stream p in turn, make_stream(seed, p).normal(0.0, scale,
    shape), bit for bit, drawn from one Philox re-keyed per stream."""
    bits = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bits)
    # one state dict for every stream: the setter copies it into the
    # generator, so only the key's stream word changes between streams
    state = bits.state
    key = state["state"]["key"]
    for p in streams:
        key[1] = _word(p)
        bits.state = state
        yield gen.normal(0.0, scale, shape)


def wiener_increments(n_steps: int, dt: float, dimension: int,
                      seed: int, stream: int = 0) -> np.ndarray:
    """iid Gaussian increments with mean 0 and variance dt per component.

    Identical (seed, stream) gives bit-identical output.
    """
    check_positive("dt", dt)
    if n_steps < 0 or dimension < 1:
        raise ParameterError("n_steps must be >= 0 and dimension >= 1")
    gen = make_stream(seed, stream)
    return gen.normal(0.0, np.sqrt(dt), size=(n_steps, dimension))
