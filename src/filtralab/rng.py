"""Counter-based per-path random streams.

Each (seed, purpose, path index) triple owns an independent Philox
stream, so parallel and serial evaluation orders produce bit-identical
ensembles.  Purposes keep the draws of different operations on the same
path from colliding (e.g. the Brownian increments and the post-horizon
tail sample of the future infimum).
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "PURPOSE"]

_MASK64 = (1 << 64) - 1
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


def substream(seed: int, purpose: str, stream_id: int = 0) -> np.random.Generator:
    """Independent generator for one (seed, purpose, path) triple."""
    tag = PURPOSE[purpose]
    key = np.array(
        [seed & _MASK64, ((tag << 48) | (stream_id & _MASK48)) & _MASK64],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
