"""Deterministic report files: CSV tables and atomic writes.

``write_csv`` takes blocks of typed columns, with one cell rule per type: a
float array gets 6 significant digits (``%.6g``, '.' separator) and writes
-0.0 as ``0``; an int array is written in full (``%d``), a bool array as
``true``/``false``, a sequence of str as its text, and a bare str is that
text in every row of its block. ``block_text`` fills a %-template from such
columns, ``ROW_BLOCK`` rows per string; charts draw their points with it
too. Text is quoted by 3.13's ``csv.writer`` rule on every Python: only a
cell holding a comma, a double quote, an LF or a CR, with its quotes
doubled, and the lone empty cell of a one-column row, as ``""``. Lines end
in LF. Files land via a temp-file rename, so an interrupted run leaves no
partial report, with the mode a plain ``open()`` gives: 0o666 less the umask.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .annotations import ROW_BLOCK

_NEEDS_QUOTES = re.compile('[,"\n\r]')  # the characters that make a cell quoted

FLOAT = "%.6g"  # a float's %-directive: 6 significant digits, '.' as the separator
# A numpy column's %-directive, by dtype kind, and how a slice of it becomes
# Python cells. ``+ 0.0`` turns -0.0 into 0.0, so no text check is needed.
_NUMBER_COLUMNS = {
    "f": (FLOAT, lambda part: (part + 0.0).tolist()),
    "i": ("%d", np.ndarray.tolist),
    "b": ("%s", lambda part: np.where(part, "true", "false").tolist()),
}


def fmt_num(value: float) -> str:
    """One float cell of a report: the float-column rule applied to a scalar."""
    return FLOAT % (float(value) + 0.0)


def block_text(template: str, columns: Sequence) -> Iterator[str]:
    """``template`` filled from each row of ``columns``, ``ROW_BLOCK`` rows per string.

    A column is a numpy array, whose cells follow its dtype's rule in
    ``_NUMBER_COLUMNS``, or a sequence of str; all must have one length.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) != 1:
        raise ValueError(f"a block needs columns of one length, got lengths {lengths}")
    to_cells = [
        _NUMBER_COLUMNS[column.dtype.kind][1] if isinstance(column, np.ndarray) else list
        for column in columns
    ]
    for start in range(0, lengths.pop(), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        parts = [cells(column[rows]) for column, cells in zip(columns, to_cells)]
        yield "".join(map(template.__mod__, zip(*parts)))


def _write_atomically(path: str | Path, chunks: Iterable[str]) -> None:
    """Write UTF-8 ``chunks`` in order, with LF endings, via temp file + rename."""
    path = Path(path)
    for _ in range(os.TMP_MAX):
        tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
    else:
        raise FileExistsError(f"no free temp-file name beside {path}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF endings via temp file + rename."""
    _write_atomically(path, (text,))


def _quoted(cells: Sequence[str], alone: bool) -> Sequence[str]:
    """``cells`` with the quoting rule applied; ``alone`` marks a one-column block."""
    if not _NEEDS_QUOTES.search("".join(cells)) and not (alone and "" in cells):
        return cells
    return [
        '"' + cell.replace('"', '""') + '"'
        if _NEEDS_QUOTES.search(cell) or (alone and not cell) else cell
        for cell in cells
    ]


def _block_text(block: Sequence) -> Iterator[str]:
    """The CSV lines of one block, ``ROW_BLOCK`` rows per string."""
    alone = len(block) == 1
    formats, columns = [], []
    for column in block:
        if isinstance(column, str):
            formats.append(_quoted([column], alone)[0].replace("%", "%%"))
        elif isinstance(column, np.ndarray):
            if column.dtype.kind not in _NUMBER_COLUMNS:
                raise TypeError(f"no CSV cell rule for a {column.dtype} column")
            formats.append(_NUMBER_COLUMNS[column.dtype.kind][0])
            columns.append(column)
        else:
            formats.append("%s")
            columns.append(_quoted(column, alone))
    yield from block_text(",".join(formats) + "\n", columns)


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """CSV of ``header``, then the rows of each block of equal-length typed columns.

    The text is streamed into the temp file ``ROW_BLOCK`` rows at a time, so
    no copy of the whole file is held; a block that fails midway leaves the
    old file in place, as any failed write does.
    """
    header_text = _block_text([[name] for name in header])
    _write_atomically(path, chain(header_text, chain.from_iterable(map(_block_text, blocks))))

