"""Counter-based per-path random streams.

Each (seed, purpose, path index) triple owns an independent Philox
stream, so parallel and serial evaluation orders produce bit-identical
ensembles.  Purposes keep the draws of different operations on the same
path from colliding (e.g. the Brownian increments and the post-horizon
tail sample of the future infimum).  A stream is its Philox key with the
counter at 0, so one bit generator re-keyed with ``stream_keys`` (as
``paths.draw_rows`` does per row) draws the same numbers as a new
``substream`` per path.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "stream_keys", "PURPOSE"]

_MASK48 = (1 << 48) - 1

# Fixed draw-purpose tags, baked into the Philox key. Adding a purpose is
# backward compatible; renumbering is not.
PURPOSE = {
    "brownian": 0,
    "bes3": 1,
    "inf_tail": 2,
    "bridge_min": 3,
    "sup_tail": 4,
}


def stream_keys(seed: int, purpose: str, lo: int, count: int) -> np.ndarray:
    """Philox keys of the (seed, purpose) streams of paths lo, ..., lo + count - 1,
    one per row; a seed outside [0, 2**64) raises OverflowError rather than
    aliasing another."""
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = seed
    keys[:, 1] = (np.arange(lo, lo + count, dtype=np.uint64) & _MASK48) | (PURPOSE[purpose] << 48)
    return keys


def substream(seed: int, purpose: str, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, path) triple."""
    return np.random.Generator(np.random.Philox(key=stream_keys(seed, purpose, stream_id, 1)[0]))
