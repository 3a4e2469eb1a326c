"""Canonical JSON/CSV helpers.

Every report the package writes goes through canonical_json so that a fixed
(config, seed) pair produces byte-identical output regardless of dict build
order, worker count, or platform dict randomization.
"""

from __future__ import annotations

import json

import numpy as np


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuples to plain Python."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    """Sorted-key, fixed-separator JSON with a trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(", ", ": "),
                      allow_nan=False) + "\n"


def rows_to_csv(header: list[str], rows) -> str:
    """Render rows as CSV text with a header line (no quoting needed here).

    rows is an iterable of rows, or a 1-d float64 array that stands for the
    rows (i, rows[i]). An array is rendered by its distinct bit patterns,
    each once (np.unique over the int64 view, so -0.0 and 0.0 stay apart),
    to the same text its rows would give: a chain sample holds few distinct
    values.
    """
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 1 and rows.dtype == np.float64:
        bits, which = np.unique(np.ascontiguousarray(rows).view(np.int64),
                                return_inverse=True)
        texts = [repr(v) for v in bits.view(np.float64).tolist()]
        lines += [f"{i},{texts[k]}" for i, k in enumerate(which.tolist())]
    else:
        lines += [",".join(map(_cell, row)) for row in rows]
    lines.append("")
    return "\n".join(lines)


def _cell(v) -> str:
    kind = type(v)  # exact types first: the cells of most rows are plain floats and ints
    if kind is float:
        return repr(v)
    if kind is int:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)
