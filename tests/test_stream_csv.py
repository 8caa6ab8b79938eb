"""Stream CSV: pinned parse results and errors, and write/read round trips."""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbnet import ObservationStream
from cbnet.stream_csv import (
    _CSV_BLOCK_ROWS,
    _parse_plain,
    read_stream_csv,
    write_stream_csv,
)

HEADER_ERROR = ": expected header 'slot,s1,...,sM'"

#: name -> (file text, (values, labels) or the message after the path)
PINNED = {
    "lf": ("slot,s1,s2\n1,0,1\n2,1,0\n3,1,1\n", ([[0, 1, 1], [1, 0, 1]], ("s1", "s2"))),
    "crlf": (
        "slot,s1,s2\r\n1,0,1\r\n2,1,0\r\n3,1,1\r\n",
        ([[0, 1, 1], [1, 0, 1]], ("s1", "s2")),
    ),
    "mixed-line-ends": ("slot,s1\n1,0\r\n2,1\n", ([[0, 1]], ("s1",))),
    "cr-line-ends": ("slot,s1\r1,0\r2,1\r", ([[0, 1]], ("s1",))),
    "no-trailing-newline": ("slot,s1,s2\n1,0,1\n2,1,0", ([[0, 1], [1, 0]], ("s1", "s2"))),
    "quoted-field": ('slot,s1\n1,"0"\n2,"1"\n', ([[0, 1]], ("s1",))),
    "leading-space": ("slot,s1\n1, 0\n2,1\n", ([[0, 1]], ("s1",))),
    "trailing-space": ("slot,s1\n1,0 \n2,1\n", ([[0, 1]], ("s1",))),
    "plus-sign": ("slot,s1\n1,+1\n2,0\n", ([[1, 0]], ("s1",))),
    "leading-zero": ("slot,s1\n1,01\n2,0\n", ([[1, 0]], ("s1",))),
    "minus-zero": ("slot,s1\n1,-0\n2,1\n", ([[0, 1]], ("s1",))),
    "slot-column-unchecked": ("slot,s1\nx,0\n9,1\n", ":2: slot x, expected 1"),
    "dropped-row": ("slot,s1\n1,0\n3,1\n4,0\n", ":3: slot 3, expected 2"),
    "repeated-row": ("slot,s1\n1,0\n1,0\n2,1\n", ":3: slot 1, expected 2"),
    "swapped-rows": ("slot,s1\n2,1\n1,0\n3,1\n", ":2: slot 2, expected 1"),
    "slot-leading-zero": ("slot,s1\n01,0\n2,1\n", ":2: slot 01, expected 1"),
    "spaced-label": ("slot, s1\n1,0\n2,1\n", ([[0, 1]], (" s1",))),
    "quoted-label": ('slot,"a,b",c\n1,0,1\n2,1,0\n', ([[0, 1], [1, 0]], ("a,b", "c"))),
    "non-ascii-label": ("slot,sé\n1,0\n2,1\n", ([[0, 1]], ("sé",))),
    "not-utf-8": (b"slot,s1\n1,0\n2,\xff\n3,1\n", ":3: not UTF-8 text"),
    "not-utf-8-label": (b"slot,s\xff\n1,0\n2,1\n", ":1: not UTF-8 text"),
    "not-utf-8-cr-line-ends": (b"slot,s1\r1,0\r2,1\r\x80\r", ":4: not UTF-8 text"),
    "bad-header": ("a,b\n1,0\n2,1\n", HEADER_ERROR),
    "no-sensor-column": ("slot\n1\n2\n", HEADER_ERROR),
    "empty-file": ("", HEADER_ERROR),
    "byte-order-mark": ("﻿slot,s1\n1,0\n2,1\n", HEADER_ERROR),
    "wrong-column-count": ("slot,s1,s2\n1,0,1\n2,1\n", ":3: wrong column count"),
    "extra-column": ("slot,s1\n1,0\n2,1,1\n", ":3: wrong column count"),
    "blank-line": ("slot,s1,s2\n1,0,1\n\n2,1,0\n", ":3: wrong column count"),
    "trailing-blank-line": ("slot,s1,s2\n1,0,1\n2,1,0\n\n", ":4: wrong column count"),
    "non-integer": ("slot,s1\n1,0\n2,banana\n", ":3: non-integer value"),
    "empty-field": ("slot,s1\n1,\n2,1\n", ":2: non-integer value"),
    "value-two": ("slot,s1\n1,0\n2,2\n", ":3: values must be 0 or 1"),
    "digit-separator": ("slot,s1\n1,1_0\n2,1\n", ":2: values must be 0 or 1"),
    "one-row": ("slot,s1\n1,0\n", ": need at least 2 observation rows"),
    "header-only": ("slot,s1\n", ": need at least 2 observation rows"),
    "field-over-limit": (
        "slot,s1\n1,0\n2," + "0" * 131_073 + "\n",
        ":3: field larger than field limit (131072)",
    ),
    "slot-over-limit": (
        "slot,s1\n1,0\n" + "1" * 131_073 + ",1\n",
        ":3: field larger than field limit (131072)",
    ),
    "label-over-limit": (
        "slot," + "s" * 131_073 + "\n1,0\n2,1\n",
        ":1: field larger than field limit (131072)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_parse(tmp_path, name):
    text, expected = PINNED[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            read_stream_csv(path)
        assert str(info.value) == f"{path}{expected}"
    else:
        stream = read_stream_csv(path)
        values, labels = expected
        assert stream.values.dtype == np.int8
        assert stream.values.tolist() == values
        assert stream.sensor_labels == labels


@pytest.mark.parametrize("name", ["quoted-label", "non-ascii-label"])
def test_pinned_headers_read_in_bulk(name):
    text, (values, labels) = PINNED[name]
    parsed = _parse_plain(text.encode())
    assert parsed is not None
    assert tuple(parsed[0]) == labels
    assert parsed[1].tolist() == values


def test_long_header_read_in_bulk():
    # each label is inside the field limit, the whole header is not
    labels = [c * 50_000 for c in "abc"]
    raw = ",".join(["slot", *labels]).encode() + b"\n1,0,1,0\n2,1,0,1\n"
    parsed = _parse_plain(raw)
    assert parsed is not None
    assert parsed[0] == labels


def test_label_with_line_break_read_by_csv(tmp_path):
    stream = ObservationStream(
        np.array([[0, 1, 1], [1, 0, 1]], dtype=np.int8), sensor_labels=("a\nb", "c")
    )
    path = tmp_path / "s.csv"
    write_stream_csv(stream, path)
    assert _parse_plain(path.read_bytes()) is None
    back = read_stream_csv(path)
    assert back.sensor_labels == stream.sensor_labels
    assert np.array_equal(back.values, stream.values)


def test_duplicate_labels_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("slot,a,a\n1,0,1\n2,1,0\n")
    with pytest.raises(ValueError, match="sensor_labels must be distinct"):
        read_stream_csv(path)


def reference_bytes(stream: ObservationStream) -> bytes:
    """The stream CSV as ``csv.writer`` writes it, one row per slot."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["slot", *stream.sensor_labels])
    for n in range(stream.slot_count):
        writer.writerow([n + 1, *stream.values[:, n].tolist()])
    return out.getvalue().encode()


def reference_read(path: Path):
    """Row-by-row ``csv`` parse: (values, labels), or the error message."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header or header[0] != "slot" or len(header) < 2:
                return f"{path}: expected header 'slot,s1,...,sM'"
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    return f"{path}:{lineno}: wrong column count"
                if row[0] != str(lineno - 1):
                    return f"{path}:{lineno}: slot {row[0]}, expected {lineno - 1}"
                try:
                    vals = [int(v) for v in row[1:]]
                except ValueError:
                    return f"{path}:{lineno}: non-integer value"
                if any(v not in (0, 1) for v in vals):
                    return f"{path}:{lineno}: values must be 0 or 1"
                rows.append(vals)
        except csv.Error as exc:
            return f"{path}:{reader.line_num}: {exc}"
    if len(rows) < 2:
        return f"{path}: need at least 2 observation rows"
    if len(set(header[1:])) != len(header) - 1:
        return "sensor_labels must be distinct"
    return np.array(rows, dtype=np.int8).T.tolist(), tuple(header[1:])


def outcome(path: Path):
    try:
        stream = read_stream_csv(path)
    except ValueError as exc:
        return str(exc)
    return stream.values.tolist(), stream.sensor_labels


streams = st.builds(
    lambda m, n, p, seed: (
        np.random.default_rng(seed).random((m, n)) < p
    ).astype(np.int8),
    st.integers(1, 6),
    st.integers(2, 300),
    st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    st.integers(0, 2**32 - 1),
)
labels = st.lists(
    st.text(alphabet='s1 ,"x', min_size=1, max_size=3), min_size=6, max_size=6,
    unique=True,
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(values=streams, names=st.none() | labels)
    @example(values=np.array([[0, 1, 1]], dtype=np.int8), names=["sé"])
    def test_write_matches_csv_writer_and_reads_back(self, values, names):
        names = tuple(names[: values.shape[0]]) if names else ()
        stream = ObservationStream(values, sensor_labels=names)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_stream_csv(stream, path)
            assert path.read_bytes() == reference_bytes(stream)
            assert _parse_plain(path.read_bytes()) is not None
            back = read_stream_csv(path)
        assert np.array_equal(back.values, stream.values)
        assert back.values.dtype == np.int8
        assert back.sensor_labels == stream.sensor_labels

    @settings(max_examples=300, deadline=None)
    @given(
        values=streams,
        crlf=st.booleans(),
        edits=st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True), st.sampled_from(b'01 2,\r\n"+x')),
            max_size=3,
        ),
    )
    def test_edited_files_read_as_the_csv_parser_reads_them(self, values, crlf, edits):
        raw = bytearray(reference_bytes(ObservationStream(values)))
        if not crlf:
            raw = bytearray(raw.replace(b"\r\n", b"\n"))
        for where, byte in edits:
            raw[int(where * len(raw))] = byte
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(bytes(raw))
            assert outcome(path) == reference_read(path)

    @settings(max_examples=200, deadline=None)
    @given(
        values=streams,
        names=st.lists(
            st.text(alphabet='s1 ,"\r\n\té\'\ufeff', max_size=3), min_size=6, max_size=6
        ),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC]),
        end=st.sampled_from(["\n", "\r\n"]),
        edits=st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True),
                      st.sampled_from(b'slot1 ,"\r\n\t\'x\xc3\xa9')),
            max_size=2,
        ),
    )
    def test_headers_read_as_the_csv_parser_reads_them(
        self, values, names, quoting, end, edits
    ):
        names = names[: values.shape[0]]
        out = io.StringIO(newline="")
        csv.writer(out, quoting=quoting, lineterminator=end).writerow(["slot", *names])
        header = bytearray(out.getvalue().encode())
        written = bytes(header)
        for where, byte in edits:
            edited = header.copy()
            edited[int(where * len(edited))] = byte
            try:
                edited.decode("utf-8")
            except UnicodeDecodeError:
                continue  # an undecodable header is the csv path's error
            header = edited
        body = reference_bytes(ObservationStream(values)).split(b"\r\n", 1)[1]
        raw = bytes(header) + body.replace(b"\r\n", end.encode())
        if (quoting == csv.QUOTE_MINIMAL and header == written
                and not any("\r" in name or "\n" in name for name in names)):
            assert _parse_plain(raw) is not None  # as write_stream_csv writes it
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(raw)
            assert outcome(path) == reference_read(path)

    @settings(max_examples=200, deadline=None)
    @given(
        values=streams,
        crlf=st.booleans(),
        edit=st.sampled_from(["drop", "repeat", "swap", "renumber"]),
        where=st.floats(0, 1, exclude_max=True),
    )
    def test_row_edits_read_as_the_csv_parser_reads_them(self, values, crlf, edit, where):
        end = b"\r\n" if crlf else b"\n"
        header, *rows = reference_bytes(ObservationStream(values)).split(b"\r\n")[:-1]
        j = int(where * (len(rows) - 1))
        if edit == "drop":
            del rows[j]
        elif edit == "repeat":
            rows.insert(j, rows[j])
        elif edit == "swap":
            rows[j], rows[j + 1] = rows[j + 1], rows[j]
        else:
            slot, rest = rows[j].split(b",", 1)
            rows[j] = b"%d,%s" % (int(slot) + 1, rest)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            path.write_bytes(end.join([header, *rows, b""]))
            assert outcome(path) == reference_read(path)


class TestSlotColumn:
    """Row j must hold slot j, also where the slot widths change."""

    N = 1500

    def file_bytes(self, crlf=False):
        values = (np.random.default_rng(5).random((2, self.N)) < 0.5).astype(np.int8)
        raw = reference_bytes(ObservationStream(values))
        return raw if crlf else raw.replace(b"\r\n", b"\n")

    @pytest.mark.parametrize("crlf", [False, True])
    def test_plain_layout_read_by_numpy(self, crlf):
        raw = self.file_bytes(crlf)
        assert _parse_plain(raw) is not None

    @pytest.mark.parametrize("first_crlf", [50, 100])
    def test_line_ends_changing_midway_read_alike(self, tmp_path, first_crlf):
        lines = self.file_bytes().split(b"\n")
        # LF before the slot first_crlf, CRLF from it on
        raw = (b"\n".join(lines[:first_crlf]) + b"\n"
               + b"\r\n".join(lines[first_crlf:]))
        path = tmp_path / "s.csv"
        path.write_bytes(raw)
        assert outcome(path) == reference_read(path)
        assert read_stream_csv(path).slot_count == self.N

    @pytest.mark.parametrize("slot", [1, 9, 10, 99, 100, 999, 1000, 1499])
    @pytest.mark.parametrize("edit", ["drop", "swap", "renumber"])
    def test_out_of_place_slot_rejected(self, tmp_path, slot, edit):
        lines = self.file_bytes().split(b"\n")
        if edit == "drop":
            del lines[slot]
            found = slot + 1
        elif edit == "swap":
            lines[slot], lines[slot + 1] = lines[slot + 1], lines[slot]
            found = slot + 1
        else:
            lines[slot] = b"%d%s" % (slot + 10, lines[slot][len(str(slot)):])
            found = slot + 10
        raw = b"\n".join(lines)
        assert _parse_plain(raw) is None
        path = tmp_path / "s.csv"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            read_stream_csv(path)
        assert str(info.value) == f"{path}:{slot + 1}: slot {found}, expected {slot}"


class TestBlocks:
    """Both directions take the slots in blocks of at most _CSV_BLOCK_ROWS of one width."""

    @staticmethod
    def file_bytes(n):
        values = (np.random.default_rng(n).random((2, n)) < 0.5).astype(np.int8)
        return values, reference_bytes(ObservationStream(values))

    # 65,537 slots are one more than a block; 100,001 cross the block
    # boundary at slot 75,536 inside width 5 and the step to width 6
    @pytest.mark.parametrize("n", [65_537, 100_001])
    @pytest.mark.parametrize("crlf", [False, True])
    def test_round_trip_across_blocks(self, tmp_path, n, crlf):
        values, raw = self.file_bytes(n)
        path = tmp_path / "s.csv"
        write_stream_csv(ObservationStream(values), path)
        assert path.read_bytes() == raw
        parsed = _parse_plain(raw if crlf else raw.replace(b"\r\n", b"\n"))
        assert parsed is not None
        assert parsed[0] == ["s1", "s2"]
        assert np.array_equal(parsed[1], values)

    def test_line_end_may_change_at_a_block_boundary(self, tmp_path):
        lines = self.file_bytes(80_000)[1].split(b"\r\n")  # lines[j] holds slot j
        boundary = 10_000 + _CSV_BLOCK_ROWS
        assert boundary == 75_536
        # LF before the block of slot 75,536, CRLF from it on
        raw = b"\n".join(lines[:boundary]) + b"\n" + b"\r\n".join(lines[boundary:])
        assert _parse_plain(raw) is not None
        path = tmp_path / "s.csv"
        path.write_bytes(raw)
        assert outcome(path) == reference_read(path)
