"""The column IO layer against the row-by-row loops it replaced.

The reference writer formats one value per repr call and one row per
write; the reference reader splits and parses one row at a time.  The
writer must produce the same bytes, and the reader (numpy's C parser
where the text allows it) must accept exactly the same text, raise the
same messages and return bitwise-equal, C-contiguous columns.  The
base64 column helpers must round-trip every float64 bit pattern.
"""

import base64
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affmax import core
from affmax.core import decode_column, encode_column, read_columns, write_columns
from affmax.errors import ParameterError

MAX = np.finfo(float).max


# ---------------------------------------------------------------------------
# row-loop reference


def reference_write_columns(names, cols):
    cols = [np.asarray(c, dtype=float) for c in cols]
    buf = io.StringIO()
    buf.write(",".join(names) + "\n")
    for row in zip(*cols):
        buf.write(",".join(repr(float(x)) for x in row) + "\n")
    return buf.getvalue()


def reference_plot_text(header, cols):
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in np.column_stack(cols):
        buf.write(" ".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def reference_read_columns(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParameterError("CSV input is empty")
    names = [s.strip() for s in lines[0].split(",")]
    if len(lines) == 1:
        raise ParameterError(f"CSV input has a header ({','.join(names)}) but no data rows")
    rows = []
    for k, ln in enumerate(lines[1:], start=1):
        fields = ln.split(",")
        if len(fields) != len(names):
            raise ParameterError(
                f"CSV data row {k} has {len(fields)} fields, the header has {len(names)}")
        try:
            rows.append([float(x) for x in fields])
        except ValueError:
            raise ParameterError(f"CSV data row {k} is not numeric: {ln[:60]!r}") from None
    data = np.array(rows)
    return names, [data[:, j] for j in range(data.shape[1])]


# ---------------------------------------------------------------------------
# strategies

edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308, 1e-5,
                               1e16, 1e22, MAX, -MAX, 0.1, 1 / 3])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats


@st.composite
def column_sets(draw):
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 12))
    return [np.array(draw(st.lists(finite_floats, min_size=rows, max_size=rows)))
            for _ in range(width)]


good_fields = finite_floats.map(repr) | st.sampled_from([
    "nan", "-inf", "inf", "Infinity", " 2.5 ", "\t3", "4 ", "1_0", "+.5", "١٢"])
bad_fields = st.sampled_from(["1__0", "0x10", "abc", "", " ", "1e", ".", "1,5", "#",
                              "\x1f1"])
# every line end str.splitlines knows, not only "\n": a field ending in
# "\x0b" reads as a number where "\x0b" is whitespace, not a row break
line_ends = st.sampled_from(["\n", "\r\n", "\n\n", "\n \n", "\r", "\x0b", "\x0c",
                             "\x1c", "\x85", "\u2028"])


@st.composite
def csv_texts(draw):
    """CSV text, well formed or with ragged rows and non-numeric fields."""
    width = draw(st.integers(1, 4))
    dirty = draw(st.booleans())
    header = ",".join(draw(st.sampled_from(["eta", " zeta", "I ", "r"]))
                      for _ in range(width))
    parts = [draw(st.sampled_from(["", "\n", " \n"])), header]
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(1, width + 2)) if dirty and draw(st.booleans()) else width
        field = good_fields | bad_fields if dirty else good_fields
        parts.append(draw(line_ends))
        parts.append(",".join(draw(field) for _ in range(n)))
    parts.append(draw(st.sampled_from(["", "\n", "\n\n", "  "])))
    return "".join(parts)


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# CSV


@settings(max_examples=100)
@given(cols=column_sets())
def test_writer_bytes_match_reference_and_read_back_bitwise(cols):
    names = [f"c{j}" for j in range(len(cols))]
    buf = io.StringIO()
    write_columns(buf, names, cols)
    text = buf.getvalue()
    assert text == reference_write_columns(names, cols)
    if len(cols[0]) == 0:
        with pytest.raises(ParameterError):
            read_columns(io.StringIO(text))
        return
    got_names, got = read_columns(io.StringIO(text))
    assert got_names == names
    assert [bits(c) for c in got] == [bits(c) for c in cols]
    assert all(c.flags.c_contiguous for c in got)


@settings(max_examples=50)
@given(cols=column_sets())
def test_plot_layout_matches_reference(cols):
    names = [f"c{j}" for j in range(len(cols))]
    buf = io.StringIO()
    write_columns(buf, names, cols, sep=" ", comment="# ")
    assert buf.getvalue() == reference_plot_text("# " + " ".join(names), cols)


@settings(max_examples=300)
@given(text=csv_texts())
def test_reader_accepts_exactly_what_reference_accepts(text):
    try:
        ref = reference_read_columns(text)
    except ParameterError as exc:
        with pytest.raises(ParameterError) as err:
            read_columns(io.StringIO(text))
        assert str(err.value) == str(exc)
        return
    names, cols = read_columns(io.StringIO(text))
    assert names == ref[0]
    assert [bits(c) for c in cols] == [bits(c) for c in ref[1]]
    # on numpy's reader and on the row walk alike, as decode_column gives them
    assert all(c.flags.c_contiguous for c in cols)


@pytest.mark.parametrize("text", [
    "eta,eta\n0.0\x0b,0.0", "eta,eta\n0.0\x0c,0.0", "eta,eta\n0.0\x1c,0.0",
    "eta,eta\n0.0\u2028,0.0", "eta\n\x1f1.0", "eta\n#1.0", "eta\n1.0\r2.0,3.0"])
def test_reader_rejects_what_the_row_walk_rejects(text):
    with pytest.raises(ParameterError) as exc:
        reference_read_columns(text)
    with pytest.raises(ParameterError) as err:
        read_columns(io.StringIO(text))
    assert str(err.value) == str(exc.value)


def test_flagship_curve_reads_bitwise_without_the_row_walk(monkeypatch, curve_1e5):
    buf = io.StringIO()
    curve_1e5.to_csv(buf)
    text = buf.getvalue()

    def row_walk(text):
        raise AssertionError("curve.csv text fell back to the row walk")

    monkeypatch.setattr(core, "_read_rows", row_walk)
    names, cols = read_columns(io.StringIO(text))
    ref_names, ref_cols = reference_read_columns(text)
    assert names == ref_names == ["eta", "zeta", "I"]
    assert [bits(c) for c in cols] == [bits(c) for c in ref_cols]
    assert [bits(c) for c in cols] == [bits(c) for c in
                                       (curve_1e5.eta, curve_1e5.zeta, curve_1e5.I)]


# ---------------------------------------------------------------------------
# base64 float64 columns


any_bits = st.lists(st.integers(0, 2**64 - 1), max_size=40)


@settings(max_examples=200)
@given(raw=any_bits)
def test_base64_round_trips_every_bit_pattern(raw):
    col = np.array(raw, dtype=np.uint64).view(np.float64)
    text = encode_column(col)
    assert text.isascii()
    assert base64.b64decode(text) == col.astype("<f8").tobytes()
    back = decode_column(text)
    assert back.dtype == np.float64 and back.flags.writeable
    assert back.tobytes() == col.tobytes()


def test_base64_special_values():
    col = np.array([-0.0, 5e-324, MAX, -np.inf, np.nan])
    col = np.append(col, np.array([0x7FF8_0000_DEAD_BEEF], np.uint64).view(float))
    assert decode_column(encode_column(col)).tobytes() == col.tobytes()


@pytest.mark.parametrize("text", [
    "AAAA AAAAAAA=", "AAAAAAAAAA*=", "AAAAAAAAAAA", "AAAA", "é", [1.0, 2.0], None],
    ids=["space", "non-alphabet", "bad-padding", "short", "non-ascii", "list",
         "null"])
def test_base64_rejects_malformed(text):
    with pytest.raises(ParameterError, match="psi.r"):
        decode_column(text, "psi.r")
