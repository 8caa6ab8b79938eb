"""The stream CSV: a ``slot,s1,...,sM`` header, then one row of 0/1 per slot.

Row j (1-based) holds slot j: its slot field is the decimal j, so a dropped,
repeated or reordered row is an error, not a shift of every later slot.
The file is UTF-8.  Writer and bulk reader share its bytes: ``_header``, the
header as ``csv.writer`` writes it with LF or CRLF, and ``_lines`` per block.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .observations import ObservationStream

#: most slots per block, written by ``write_stream_csv`` and checked by
#: ``_parse_plain``; a block's slots all have the same width
_CSV_BLOCK_ROWS = 1 << 16


def _header(labels, end: str) -> bytes:
    """The header line, in UTF-8, as ``csv.writer`` writes it with ``end``."""
    out = io.StringIO()
    csv.writer(out, lineterminator=end).writerow(["slot", *labels])
    return out.getvalue().encode("utf-8")


def _lines(first: int, bits: np.ndarray, crlf: bool) -> np.ndarray:
    """One uint8 row per slot first, first + 1, ..., all of ``first``'s width:
    the slot in decimal, ``,b`` per 0/1 bit of its row of ``bits``, CRLF or LF.
    """
    count, m = bits.shape
    width = len(str(first))
    lines = np.empty((count, width + 2 * m + 1 + crlf), dtype=np.uint8)
    # the smallest unsigned type that holds the slots divides fastest
    slots = np.arange(first, first + count, dtype=np.min_scalar_type(first + count))
    for place in range(width):
        lines[:, width - 1 - place] = slots // 10**place % 10 + ord("0")
    lines[:, width:width + 2 * m:2] = ord(",")
    lines[:, width + 1:width + 2 * m:2] = bits + ord("0")
    lines[:, width + 2 * m:] = (ord("\r"), ord("\n")) if crlf else ord("\n")
    return lines


def write_stream_csv(stream: ObservationStream, path: Path) -> None:
    """``slot,s1,...,sM``, then ``n,b1,...,bM`` per slot, as ``csv.writer`` writes.

    The CRLF ``_header``, then each block of slots as its CRLF ``_lines``.
    The header is encoded before the file is opened, so a label that UTF-8
    cannot encode leaves the path as it was.
    """
    n = stream.slot_count
    header = _header(stream.sensor_labels, "\r\n")
    with open(path, "wb") as fh:
        fh.write(header)
        first = 1
        while first <= n:
            stop = min(first + _CSV_BLOCK_ROWS, 10 ** len(str(first)), n + 1)
            fh.write(_lines(first, stream.values[:, first - 1:stop - 1].T, True))
            first = stop


def _parse_plain(data: bytes):
    """(labels, values) of a stream CSV in the plain layout, else None.

    Plain: the header ``csv.writer`` writes for ``slot`` and at least one
    label (``_header``), with LF or CRLF, then at least two slots, each block
    exactly the ``_lines`` of its bits with the line end that its first
    line has.  ``csv`` reads such a file to the same stream.
    """
    line = data[:data.find(b"\n") + 1]  # empty without a line end
    try:
        labels = next(csv.reader([line.decode("utf-8")]), [])[1:]
    except (UnicodeDecodeError, csv.Error):
        return None
    end = "\r\n" if line.endswith(b"\r\n") else "\n"
    if not labels or line != _header(labels, end):
        return None
    m = len(labels)
    pos, first, blocks = len(line), 1, []
    while pos < len(data):
        width = len(str(first))
        # the byte after the first line's bits: LF, or the CR of CRLF
        crlf = data[pos + width + 2 * m:pos + width + 2 * m + 1] == b"\r"
        size = width + 2 * m + 1 + crlf
        count = min(_CSV_BLOCK_ROWS, 10**width - first, (len(data) - pos) // size)
        if count == 0:
            return None
        rows = np.frombuffer(data, np.uint8, count * size, pos).reshape(count, size)
        bits = rows[:, width + 1:width + 2 * m:2] - ord("0")
        if (bits > 1).any() or not np.array_equal(rows, _lines(first, bits, crlf)):
            return None
        blocks.append(bits.T.copy())
        pos, first = pos + count * size, first + count
    if first < 3:
        return None
    return labels, np.concatenate(blocks, axis=1).view(np.int8)


def _parse_rows(path: Path, data: bytes):
    """(labels, values) of any stream CSV's bytes, row by row through ``csv``."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte is never a line break, so it ends a partial line
        line = len(data[:exc.start + 1].splitlines())
        raise ValueError(f"{path}:{line}: not UTF-8 text") from None
    # decoded a chunk at a time, as ``open`` reads a file
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8", newline=""))
    try:
        header = next(reader, None)
        if not header or header[0] != "slot" or len(header) < 2:
            raise ValueError(f"{path}: expected header 'slot,s1,...,sM'")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: wrong column count")
            if row[0] != str(lineno - 1):
                raise ValueError(
                    f"{path}:{lineno}: slot {row[0]}, expected {lineno - 1}"
                )
            try:
                vals = [int(v) for v in row[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-integer value") from exc
            if any(v not in (0, 1) for v in vals):
                raise ValueError(f"{path}:{lineno}: values must be 0 or 1")
            rows.append(vals)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 observation rows")
    return header[1:], np.array(rows, dtype=np.int8).T


def read_stream_csv(path: Path) -> ObservationStream:
    """Read a stream CSV; every error names the file and, if any, the line.

    Files in the plain layout that ``write_stream_csv`` and
    ``np.savetxt`` produce, with LF or CRLF line ends, are parsed by numpy
    over the file's bytes, block by block.  Every other file is decoded as
    UTF-8 and goes through ``csv`` row by row, the one source of error
    messages; a row whose slot field is not its 1-based row number is one.
    """
    data = Path(path).read_bytes()
    labels, values = _parse_plain(data) or _parse_rows(path, data)
    del data  # not held while the stream is built
    return ObservationStream(values, sensor_labels=tuple(labels))
