"""The text format of every table artifact (CSV files, realization.txt).

A table is a header followed by rows of fields.  Floats are written as
``repr`` (the shortest string that round-trips), ints as decimal, and every
row ends in a newline.  Rows are written a block at a time: a block shares
one head text (the key fields fixed over the block) and walks a list of key
texts, one per row, each formatted once per table and carrying its own
trailing separator.  The values of a block are pulled with ``tolist()`` and
written as one joined string, so only one block of text is held in memory
at a time, never the whole file.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


def floats(values, end: str = ",") -> list[str]:
    """Key texts ``repr(float(v)) + end``."""
    return [f"{v!r}{end}" for v in np.asarray(values, dtype=float).tolist()]


def ints(values) -> list[str]:
    """Key texts ``str(int(v)) + ","``."""
    return [f"{v}," for v in np.asarray(values, dtype=np.int64).tolist()]


@contextmanager
def open_table(path, header: str):
    """Open ``path`` for a table and write its header (one or more lines)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header)
        yield f


def write_block(f, head: str, keys: list[str], values) -> None:
    """Rows ``head + keys[r] + value text``: ``values`` is a 1-d float array
    (one value per row) or a 2-d one (a row of comma-separated values per key)."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] != len(keys):
        raise ValueError(f"{len(keys)} keys for {vals.shape[0]} rows")
    if vals.ndim == 1:
        f.write("".join([f"{head}{k}{v!r}\n" for k, v in zip(keys, vals.tolist())]))
    else:
        f.write("".join([f"{head}{k}{','.join(map(repr, row))}\n"
                         for k, row in zip(keys, vals.tolist())]))
