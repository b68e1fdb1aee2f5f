"""Counter-based random number streams.

Every Monte Carlo routine in the package draws from a Philox generator keyed
by ``(seed, stream)``.  Streams are statistically independent for distinct
keys, so workers can own disjoint streams and a reduction over chunks is
reproducible regardless of scheduling.

One key also splits by counter.  Group ``g`` of a key (`group_stream`)
starts at counter ``g * 2^64``, and group 0 is `stream` itself.  A group
would need 2^64 Philox blocks to reach the next one, and ``jumped()`` (the
simulator's demography stream) moves the counter by 2^128, past every group,
so no two of these ranges meet.  Environment Monte Carlo gives each group of
`environment._GROUP_PATHS` paths its own range; that group size is part of
the stream definition, like the seed, and not a tuning knob.  The thread
count and the row budget change no value.
"""
from __future__ import annotations

import numpy as np

__all__ = ["stream", "group_stream", "chunk_streams"]


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for the given (seed, stream) pair. Same pair, same draws."""
    return group_stream(seed, stream_id, 0)


def group_stream(seed: int, stream_id: int, group: int) -> np.random.Generator:
    """Generator for group ``group`` of the (seed, stream) key: the same key,
    its counter started at ``group * 2^64``."""
    if seed < 0 or stream_id < 0 or group < 0:
        raise ValueError("seed, stream_id and group must be nonnegative")
    key = (int(seed) << 64) | int(stream_id)
    return np.random.Generator(np.random.Philox(key=key, counter=int(group) << 64))


def chunk_streams(seed: int, n_total: int, chunk: int):
    """Split a workload of ``n_total`` draws into (stream, count) chunks.

    Chunks are indexed deterministically: chunk ``i`` always owns stream
    ``i + 1`` (stream 0 is reserved for non-chunked use with the same seed).
    """
    out = []
    i, done = 0, 0
    while done < n_total:
        m = min(chunk, n_total - done)
        out.append((stream(seed, i + 1), m))
        done += m
        i += 1
    return out
