"""Deterministic report files: CSV tables, run manifests, atomic writes.

``write_csv`` takes blocks of typed columns, with one cell rule per type: a
float array gets 6 significant digits (``%.6g``, '.' separator) and writes
-0.0 as ``0``; an int array is written in full (``%d``), a bool array as
``true``/``false``, a sequence of str as its text, and a bare str is that
text in every row of its block. Text is quoted as ``csv.writer`` quotes it:
only a cell holding a comma, a double quote or a line break, with its quotes
doubled, and the lone empty cell of a one-column row, as ``""``. The run
manifest writes floats losslessly; its timestamp is the one line that
differs between identical runs. Lines end in LF. Files land via a temp-file
rename, so an interrupted run leaves no partial report, with the mode a
plain ``open()`` gives them: 0o666 less the umask.
"""

from __future__ import annotations

import os
import re
import sys
import tempfile
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .anchorlab import ROW_BLOCK
from .annotations import format_coordinate

# The characters that make csv.writer quote a cell. With an LF line
# terminator, Python before 3.13 leaves a lone "\r" unquoted.
_NEEDS_QUOTES = re.compile('[,"\n\r]' if sys.version_info >= (3, 13) else '[,"\n]')

# A numpy column's %-directive, by dtype kind, and how a slice of it becomes
# Python cells. ``+ 0.0`` turns -0.0 into 0.0, so no text check is needed.
_NUMBER_COLUMNS = {
    "f": ("%.6g", lambda part: (part + 0.0).tolist()),
    "i": ("%d", np.ndarray.tolist),
    "b": ("%s", lambda part: np.where(part, "true", "false").tolist()),
}


def fmt_num(value: float) -> str:
    """One float cell of a report: the float-column rule applied to a scalar."""
    return "%.6g" % (float(value) + 0.0)


def _write_atomically(path: str | Path, chunks: Iterable[str]) -> None:
    """Write UTF-8 ``chunks`` in order, with LF endings, via temp file + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0o600; reading the umask means setting it.
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF endings via temp file + rename."""
    _write_atomically(path, (text,))


def _quoted(cells: Sequence[str], alone: bool) -> Sequence[str]:
    """``cells`` as csv.writer writes them; ``alone`` marks a one-column block."""
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
            directive, to_cells = _NUMBER_COLUMNS[column.dtype.kind]
            formats.append(directive)
            columns.append((column, to_cells))
        else:
            formats.append("%s")
            columns.append((_quoted(column, alone), list))
    lengths = {len(cells) for cells, _ in columns}
    if len(lengths) != 1:
        raise ValueError(f"a CSV block needs columns of one length, got lengths {lengths}")
    template = ",".join(formats) + "\n"
    for start in range(0, lengths.pop(), ROW_BLOCK):
        parts = [to_cells(cells[start : start + ROW_BLOCK]) for cells, to_cells in columns]
        yield "".join(map(template.__mod__, zip(*parts)))


def write_csv(path: str | Path, header: Sequence[str], blocks: Iterable[Sequence]) -> None:
    """CSV of ``header``, then the rows of each block of equal-length typed columns.

    The text is streamed into the temp file ``ROW_BLOCK`` rows at a time, so
    no copy of the whole file is held; a block that fails midway leaves the
    old file in place, as any failed write does.
    """
    header_text = _block_text([[name] for name in header])
    _write_atomically(path, chain(header_text, chain.from_iterable(map(_block_text, blocks))))


def write_run_manifest(
    directory: str | Path,
    command: str,
    parameters: Mapping[str, object],
    inputs: Mapping[str, object],
    seeds: Sequence[int] = (),
) -> None:
    """Write ``directory/run_manifest.txt``: what produced that directory.

    Lines: command, version, UTC timestamp, seeds, then ``input.*`` and
    ``param.*`` sorted by key. Floats are written losslessly, so re-running
    the command with these values reproduces every other output byte for
    byte; the timestamp is the one line that changes.
    """

    def render(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format_coordinate(value)
        return "" if value is None else str(value)

    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"timestamp = {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"seeds = {','.join(str(int(s)) for s in seeds)}",
    ]
    lines += [f"input.{key} = {render(inputs[key])}" for key in sorted(inputs)]
    lines += [f"param.{key} = {render(parameters[key])}" for key in sorted(parameters)]
    atomic_write(Path(directory) / "run_manifest.txt", "\n".join(lines) + "\n")
