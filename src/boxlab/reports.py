"""Deterministic report files: CSV tables, run manifests, atomic writes.

CSV output is byte-stable for the same data: floats are formatted with 6
significant digits and a '.' separator. The run manifest writes floats
losslessly and carries a timestamp, its one line that differs between
identical runs. Line endings are LF, and files land via a temp-file rename
so interrupted runs never leave a partial report behind.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .annotations import format_coordinate


def fmt_num(value: float) -> str:
    """6-significant-digit rendering shared by all reports."""
    text = format(float(value), ".6g")
    return "0" if text == "-0" else text


def render_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return fmt_num(value)
    if value is None:
        return ""
    return str(value)


def atomic_write(path: str | Path, text: str) -> None:
    """Write UTF-8 text with LF endings via temp file + rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ``%.6g`` and ``%d`` render as ``fmt_num`` and ``str`` do, except for "-0".
_CELL_FORMATS = {float: "%.6g", int: "%d", str: "%s"}


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """CSV with the shared cell formatting and LF line endings.

    Cells render as ``render_cell`` does, with ``csv.writer``'s minimal
    quoting. A row of plain float, int and str cells is formatted with one
    %-template per combination of cell types; the line is kept when it has
    no comma inside a cell, no quote, line break or "-0". Any other row goes
    through ``csv.writer`` and ``render_cell``.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    templates: dict[tuple[type, ...], str] = {}
    for row in rows:
        row = tuple(row)
        key = tuple(map(type, row))
        template = templates.get(key)
        if template is None:
            formats = [_CELL_FORMATS.get(t) for t in key]
            template = templates[key] = "" if None in formats else ",".join(formats)
        if template:
            line = template % row
            if line and line.count(",") == len(row) - 1 and not (
                '"' in line or "\n" in line or "\r" in line or "-0" in line
            ):
                buffer.write(line + "\n")
                continue
        writer.writerow([render_cell(cell) for cell in row])
    atomic_write(path, buffer.getvalue())


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
        return format_coordinate(value) if isinstance(value, float) else render_cell(value)

    lines = [
        f"command = {command}",
        f"version = {__version__}",
        f"timestamp = {datetime.now(timezone.utc).isoformat(timespec='seconds')}",
        f"seeds = {','.join(str(int(s)) for s in seeds)}",
    ]
    lines += [f"input.{key} = {render(inputs[key])}" for key in sorted(inputs)]
    lines += [f"param.{key} = {render(parameters[key])}" for key in sorted(parameters)]
    atomic_write(Path(directory) / "run_manifest.txt", "\n".join(lines) + "\n")
