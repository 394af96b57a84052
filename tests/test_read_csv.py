"""The one reader of input CSV tables and the five loaders built on it."""

import csv
import io
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecbench.errors import DataFormatError
from codecbench.metrics import ingest_external_scores
from codecbench.profiling import load_timing_csv
from codecbench.rd import load_rd_csv
from codecbench.report import parse_number, read_csv, read_number
from codecbench.subjective import _score_row, load_pvs_csv, load_scores_csv

# Each loader: its header and a row template, where {i} makes the row's id
# unique and {x} is a number cell (good value 40).
LOADERS = {
    "rd": (load_rd_csv, "codec,sequence,metric,label,bitrate_kbps,quality",
           "A,s{i},PSNR,,{x},30"),
    "scores": (load_scores_csv, "subject,p1,p2", "s{i},{x},50"),
    "pvs": (load_pvs_csv, "pvs,codec,resolution,bitrate_kbps,content",
            "p{i},HM,HD,{x},c"),
    "timing": (load_timing_csv,
               "codec,sequence,qp,wall_seconds,frame_count,fps_num,fps_den",
               "HM,s{i},32,{x},500,50,1"),
    "external": (ingest_external_scores, "frame,score", "{i},{x}"),
}


def write_table(tmp_path, name, lines):
    path = tmp_path / f"{name}.csv"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def read_table(path, columns=None):
    """read_csv's header and every row it streams, drained while the file
    is open."""
    with read_csv(path, columns) as (header, rows):
        return header, list(rows)


def fault_line(path, index):
    """The physical line that read_csv names for a fault its caller raises
    on data row `index` (from 0)."""
    with pytest.raises(DataFormatError) as exc:
        with read_csv(path) as (header, rows):
            for i, cells in enumerate(rows):
                if i == index:
                    raise DataFormatError("bad row")
    match = re.fullmatch(f"{re.escape(str(path))}:(\\d+): bad row", str(exc.value))
    assert match, str(exc.value)
    return int(match[1])


@pytest.mark.parametrize("name", LOADERS)
class TestLoaders:
    def test_bad_cell_after_blank_line_names_physical_line(self, tmp_path, name):
        load, header, row = LOADERS[name]
        lines = [header, row.format(i=0, x=40), "", row.format(i=1, x=40),
                 row.format(i=2, x="fast")]
        path = write_table(tmp_path, name, lines)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:5: "):
            load(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, name, cell):
        load, header, row = LOADERS[name]
        path = write_table(tmp_path, name, [header, row.format(i=0, x=40),
                                            row.format(i=1, x=cell)])
        where = re.escape(str(path))
        with pytest.raises(DataFormatError, match=f"^{where}:3: .*finite.*{cell}"):
            load(path)

    def test_grouped_digits_rejected(self, tmp_path, name):
        """int() and float() read 4_0 as 40; no loader does."""
        load, header, row = LOADERS[name]
        path = write_table(tmp_path, name, [header, row.format(i=0, x=40),
                                            row.format(i=1, x="4_0")])
        where = re.escape(str(path))
        with pytest.raises(DataFormatError,
                           match=f"^{where}:3: \\w+ must be a finite number, got '4_0'$"):
            load(path)

    def test_first_fault_in_file_order(self, tmp_path, name):
        """A bad cell is reported before a short row further down."""
        load, header, row = LOADERS[name]
        short = row.format(i=1, x=40).rsplit(",", 1)[0]
        path = write_table(tmp_path, name, [header, row.format(i=0, x="fast"), short])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: .*'fast'"):
            load(path)

    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    def test_repeated_column_rejected(self, tmp_path, name, position):
        """A header that names a column the loader reads twice is refused,
        whichever copy its rows would fill."""
        load, header, row = LOADERS[name]
        column = header.split(",")[position]
        cell = row.format(i=0, x=40).split(",")[position]
        path = write_table(tmp_path, name,
                           [f"{header},{column}", f"{row.format(i=0, x=40)},{cell}"])
        with pytest.raises(DataFormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: repeated column {column!r}"

    def test_extra_cell_rejected(self, tmp_path, name):
        load, header, row = LOADERS[name]
        width = header.count(",") + 1
        path = write_table(tmp_path, name, [header, row.format(i=0, x=40) + ",7"])
        where = re.escape(str(path))
        with pytest.raises(DataFormatError,
                           match=f"^{where}:2: expected {width} cells, got {width + 1}"):
            load(path)


@pytest.mark.parametrize("name,rows", [
    ("rd", ["A,s,PSNR,,1000,30", "A,s,PSNR,,2000,35", "A,s,PSNR,,4000,40"]),
    ("pvs", ["p1,HM,HD,1000,c", "p2,VTM,HD,500,c"]),
    ("timing", ["HM,s,32,40,500,50,1", "VTM,s,32,400,500,50,1"]),
    ("external", ["0,90", "1,92.5", "2,94"]),
])
def test_columns_a_loader_does_not_read_are_ignored(tmp_path, name, rows):
    """A fixed-schema table may carry extra columns, repeated or not."""
    load, header, _ = LOADERS[name]
    plain = write_table(tmp_path, "plain", [header, *rows])
    extra = write_table(tmp_path, "extra", [f"note,{header},note",
                                            *(f"a,{row},b" for row in rows)])
    assert load(extra) == load(plain)


class TestReadCsv:
    def test_cells_stripped_and_blank_rows_skipped(self, tmp_path):
        path = write_table(tmp_path, "t", ["", " a , b", "", "1 ,2", " , ", "3, 4"])
        assert read_table(path) == (["a", "b"], [["1", "2"], ["3", "4"]])
        assert [fault_line(path, i) for i in range(2)] == [4, 6]

    def test_quoted_newline_counts_physical_lines(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", '"x', 'y",1', "z,2"])
        assert read_table(path)[1] == [["x\ny", "1"], ["z", "2"]]
        assert [fault_line(path, i) for i in range(2)] == [3, 4]

    @pytest.mark.parametrize("lines", [[], ["", " ,"]], ids=["empty", "blank"])
    def test_no_header_row(self, tmp_path, lines):
        path = write_table(tmp_path, "t", lines)
        with pytest.raises(DataFormatError, match="no header row"):
            read_table(path)

    def test_missing_columns_named(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", "1,2"])
        with pytest.raises(DataFormatError, match="missing CSV columns: c, d"):
            read_table(path, columns={"a": str, "c": int, "d": float})

    def test_oversized_cell_is_a_format_error(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", "1," + "x" * 200_000])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: "):
            read_table(path)

    def test_oversized_header_cell_names_its_physical_line(self, tmp_path):
        path = write_table(tmp_path, "t", ["", "a," + "x" * 200_000, "1,2"])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: "):
            read_table(path)

    @pytest.mark.parametrize("drain", [False, True], ids=["before_first_row", "after_last_row"])
    def test_caller_fault_outside_a_row_names_the_file_alone(self, tmp_path, drain):
        path = write_table(tmp_path, "t", ["a,b", "1,2", "3,4"])
        with pytest.raises(DataFormatError) as exc:
            with read_csv(path) as (header, rows):
                if drain:
                    assert len(list(rows)) == 2
                raise DataFormatError("bad table")
        assert str(exc.value) == f"{path}: bad table"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3)), max_size=20),
           st.integers(0, 3), st.sampled_from(["", " ", ",", " , "]))
    def test_line_numbers_with_random_blank_lines(self, rows, lead, blank):
        """Each data row reports the physical line it was written on."""
        lines, expected, numbers = [blank] * lead + ["n,v"], [], []
        for value, blanks_before in rows:
            lines += [blank] * blanks_before + [f"{value},{value + 1}"]
            expected.append([str(value), str(value + 1)])
            numbers.append(len(lines))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table(Path(tmp), "t", lines)
            assert read_table(path) == (["n", "v"], expected)
            assert [fault_line(path, i) for i in range(len(rows))] == numbers


    def test_rows_stream_from_the_open_file(self, tmp_path):
        """The header is read on entry; each row only when it is reached."""
        path = write_table(tmp_path, "t", ["a,b", "1,2", "3"])
        with pytest.raises(DataFormatError, match=":3: expected 2 cells, got 1$"):
            with read_csv(path) as (header, rows):
                assert header == ["a", "b"]
                assert next(rows) == ["1", "2"]
                next(rows)

    @pytest.mark.parametrize("columns,repeated", [
        (None, "a"), ({"a": str}, "a"), ({"b": int, "a": float}, "a"), ({"b": int}, None),
    ], ids=["no_schema", "schema", "schema_reorders", "unread_column"])
    def test_a_column_read_is_named_once(self, tmp_path, columns, repeated):
        path = write_table(tmp_path, "t", ["a,b,a", "x,1,y"])
        if repeated is None:
            assert read_table(path, columns) == (["a", "b", "a"], [[1]])
        else:
            with pytest.raises(DataFormatError) as exc:
                read_table(path, columns)
            assert str(exc.value) == f"{path}: repeated column {repeated!r}"


# Cell text of a string column: spaces, commas, quotes and newlines, so
# csv.writer quotes some cells over several physical lines.
CELL_TEXT = st.text(alphabet='ab ,"\n', max_size=4)
KINDS = {str: CELL_TEXT,
         int: st.integers(-10**12, 10**12).map(str),
         float: st.floats(allow_nan=False, allow_infinity=False).map(repr)}


@st.composite
def schema_tables(draw):
    """A schema, a header naming its columns once each in random order
    among extra columns (which may repeat), and rows of cell text, each
    after 0-2 blank lines."""
    names = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True))
    schema = {name: draw(st.sampled_from(list(KINDS))) for name in names}
    header = draw(st.permutations(names + draw(st.lists(st.sampled_from("xyz"), max_size=3))))
    pad = st.sampled_from(["", " ", "  "])
    cell = {name: KINDS[schema.get(name, str)] for name in header}
    rows = draw(st.lists(st.tuples(
        st.lists(st.sampled_from(["", " ", ",", " , "]), max_size=2),
        st.tuples(*[st.builds("{}{}{}".format, pad, cell[name], pad) for name in header]),
    ), max_size=6))
    return schema, header, rows


def write_schema_table(directory, header, rows):
    """Write the table; return its path and each written row's last
    physical line."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    ends = []
    for blanks, cells in rows:
        text.write("".join(f"{blank}\n" for blank in blanks))
        writer.writerow(cells)
        ends.append(text.getvalue().count("\n"))
    path = Path(directory) / "t.csv"
    path.write_text(text.getvalue(), encoding="utf-8")
    return path, ends


class TestSchemaReader:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(schema_tables(), st.data())
    def test_rows_match_a_reader_by_header_name(self, table, data):
        """Typed rows equal each schema cell read by its header name, in
        schema order; blank rows are skipped and unread columns ignored. A
        bad number cell names its column and physical line."""
        schema, header, rows = table
        expected = [[kind(cells[header.index(name)].strip()) for name, kind in schema.items()]
                    for _, cells in rows if any(c.strip() for c in cells)]
        with tempfile.TemporaryDirectory() as tmp:
            path, ends = write_schema_table(tmp, header, rows)
            assert read_table(path, schema) == (header, expected)
            numeric = [name for name, kind in schema.items() if kind is not str]
            if not (numeric and rows):
                return
            row = data.draw(st.integers(0, len(rows) - 1))
            name = data.draw(st.sampled_from(numeric))
            integer = schema[name] is int
            bad = data.draw(st.sampled_from(["x", "4_0", "nan", "inf"] + ["1.5"] * integer))
            blanks, cells = rows[row]
            cells = list(cells)
            cells[header.index(name)] = bad
            path, ends = write_schema_table(tmp, header, rows[:row] + [(blanks, cells)]
                                            + rows[row + 1:])
            what = "an integer" if integer else "a finite number"
            with pytest.raises(DataFormatError) as exc:
                read_table(path, schema)
            assert str(exc.value) == f"{path}:{ends[row]}: {name} must be {what}, got {bad!r}"


def test_score_grid_is_read_row_by_row(tmp_path):
    """Loading a 150 x 2000 panel holds little beyond the score array."""
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 101, size=(150, 2000)).astype(str)
    scores[rng.random(scores.shape) < 0.02] = ""
    lines = ["subject," + ",".join(f"p{j}" for j in range(2000))]
    lines += [f"s{i}," + ",".join(row) for i, row in enumerate(scores)]
    path = write_table(tmp_path, "scores", lines)
    tracemalloc.start()
    try:
        matrix = load_scores_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.scores.shape == (150, 2000)
    assert peak <= 4 * matrix.scores.nbytes


class TestReadNumber:
    def test_finite_values(self):
        assert read_number("x", "1e3") == 1000.0
        assert read_number("qp", "32", int) == 32

    @pytest.mark.parametrize(
        "text,kind,what",
        [("nan", float, "a finite number"), ("-inf", float, "a finite number"),
         ("1e999", float, "a finite number"), ("", float, "a finite number"),
         ("3.5", int, "an integer"), ("inf", int, "an integer"),
         ("1_0.5", float, "a finite number"), ("3_2", int, "an integer")],
    )
    def test_rejected_values_name_file_line_and_column(self, tmp_path, text, kind, what):
        """read_number names the column; read_csv puts the file and line
        of the row in front."""
        with pytest.raises(DataFormatError) as exc:
            read_number("col", text, kind)
        assert str(exc.value) == f"col must be {what}, got {text!r}"
        path = write_table(tmp_path, "f", ["id,col", "a,1", f"b,{text}"])
        with pytest.raises(DataFormatError) as exc:
            with read_csv(path) as (header, rows):
                for cells in rows:
                    read_number("col", cells[1], kind)
        assert str(exc.value) == f"{path}:3: col must be {what}, got {text!r}"


# Cell text from the characters int() and float() treat specially, with an
# Arabic-Indic digit, which both accept as a digit; and numbers they accept
# only with `_` digit grouping (4_0, 1_000), or that float() reads as is.
NUMBER_TEXT = st.one_of(
    st.lists(st.sampled_from([*"0123456789+-.eE_ ", "nan", "inf", "\u0663"]),
             max_size=6).map("".join),
    st.integers(10, 100).map(lambda n: "_".join(str(n))),
    st.integers(0, 10**6).map("{:_}".format),
    st.floats(-1, 101).map(repr),
)


class TestNumberRule:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(NUMBER_TEXT, st.sampled_from([int, float]))
    def test_python_notation_without_grouping(self, text, kind):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if "_" in text or value is None or (kind is float and not math.isfinite(value)):
            assert parse_number(text, kind) is None
        else:
            assert parse_number(text, kind) == value

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(NUMBER_TEXT, min_size=1, max_size=4))
    def test_score_row_reads_cells_as_read_number_does(self, cells):
        """_score_row's one float() pass accepts the rows, and gives the
        values, that read_number gives cell by cell."""
        stimuli = [f"p{j}" for j in range(len(cells))]
        try:
            expected = [read_number(s, c) if c else math.nan
                        for s, c in zip(stimuli, cells)]
            for s, c, v in zip(stimuli, cells, expected):
                if c and not 0 <= v <= 100:
                    raise DataFormatError(f"score {v:g} for {s!r} outside [0, 100]")
        except DataFormatError as exc:
            expected = str(exc)
        try:
            got = list(_score_row(stimuli, cells))
        except DataFormatError as exc:
            got = str(exc)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array_equal(got, expected, equal_nan=True)
