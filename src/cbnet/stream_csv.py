"""The stream CSV: a ``slot,s1,...,sM`` header, then one row of 0/1 per slot.

Row j (1-based) holds slot j: its slot field is the decimal j, so a dropped,
repeated or reordered row is an error, not a shift of every later slot.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np

from .observations import ObservationStream

#: rows per block written by ``write_stream_csv``
_CSV_BLOCK_ROWS = 1 << 16

#: a header that ``csv`` splits at every comma: printable ASCII, no quotes
_PLAIN_HEADER = re.compile(rb"slot,[ !#-~]*")

_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def write_stream_csv(stream: ObservationStream, path: Path) -> None:
    """``slot,s1,...,sM``, then ``n,b1,...,bM`` per slot, as ``csv.writer`` writes.

    The header goes through ``csv.writer``, which quotes labels as needed.
    A row holds only digits and commas, so rows whose slot numbers have
    the same width are written in blocks, each one uint8 matrix of
    equal-length CRLF lines.
    """
    m, n = stream.values.shape
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["slot", *stream.sensor_labels])
        fh.flush()
        for width in range(1, len(str(n)) + 1):
            lo, hi = 10 ** (width - 1), min(10**width, n + 1)
            for first in range(lo, hi, _CSV_BLOCK_ROWS):
                last = min(first + _CSV_BLOCK_ROWS, hi) - 1
                slots = np.arange(first, last + 1)
                rows = np.empty((slots.size, width + 2 * m + 2), dtype=np.uint8)
                for place in range(width):
                    rows[:, width - 1 - place] = slots // 10**place % 10 + ord("0")
                rows[:, width:-2:2] = ord(",")
                rows[:, width + 1:-2:2] = stream.values[:, first - 1:last].T + ord("0")
                rows[:, -2:] = (ord("\r"), ord("\n"))
                fh.buffer.write(rows.tobytes())


def _parse_plain(data: bytes):
    """(labels, values) of a stream CSV in the plain layout, else None.

    Plain: a ``slot,<labels>`` header of printable ASCII without quotes,
    then at least two lines ``<j>,<b>,...,<b>``, line j holding slot j
    and each b 0 or 1, every line ended by LF or CRLF, the lines of one
    slot width all ended alike, none longer than ``csv``'s field limit.
    ``csv`` reads such a file to the same stream.  Only uint8 and bool
    arrays span the bytes; the rest are one item per line.
    """
    head_end = data.find(b"\n")
    header = data[:head_end].removesuffix(b"\r")
    if (head_end < 0 or not data.endswith(b"\n")
            or not _PLAIN_HEADER.fullmatch(header)
            or len(header) > csv.field_size_limit()):
        return None
    labels = header.decode("ascii").split(",")[1:]
    m = len(labels)
    body = np.frombuffer(data, dtype=np.uint8, offset=head_end + 1)
    ends = np.flatnonzero(body == ord("\n"))
    if ends.size < 2:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    crlf = body[ends - 1] == ord("\r")
    stop = ends - crlf
    if ((stop - 2 * m - starts).min() < 1
            or (ends - starts).max() > csv.field_size_limit()):
        return None
    values = np.empty((m, ends.size), dtype=np.int8)
    for k in range(m):
        comma = stop - 2 * (m - k)
        bit = body[comma + 1] - ord("0")
        if not (body[comma] == ord(",")).all() or (bit > 1).any():
            return None
        values[k] = bit
    # line j holds slot j.  The lines of the w-digit slots lo..hi-1 have
    # equal lengths, so they form one uint8 matrix, and the digit of place
    # 10^q of lo, lo+1, ... runs through 0-9, each 10^q times, from 0
    # (from 1 for the leading digit)
    for w in range(1, len(str(ends.size)) + 1):
        lo, hi = 10 ** (w - 1), min(10**w, ends.size + 1)
        lines = slice(lo - 1, hi - 1)
        if ((stop[lines] - starts[lines] != w + 2 * m).any()
                or crlf[lines].min() != crlf[lines].max()):
            return None
        size = w + 2 * m + 1 + int(crlf[lo - 1])
        first = starts[lo - 1]
        rows = body[first:first + size * (hi - lo)].reshape(hi - lo, size)
        for q in range(w):
            cycle = np.repeat(_DIGITS, 10**q)[10**q if q == w - 1 else 0:]
            expected = np.tile(cycle, -(-(hi - lo) // cycle.size))[:hi - lo]
            if (rows[:, w - 1 - q] != expected).any():
                return None
    return labels, values


def _parse_rows(path: Path):
    """(labels, values) of any stream CSV, row by row through ``csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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
    over the file's bytes.  Every other file goes through ``csv`` row by
    row, the one source of error messages; a row whose slot field is not
    its 1-based row number is one.
    """
    parsed = _parse_plain(Path(path).read_bytes())
    labels, values = parsed if parsed is not None else _parse_rows(path)
    return ObservationStream(values, sensor_labels=tuple(labels))
