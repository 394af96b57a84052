"""The one reader of input CSV tables and the five loaders built on it."""

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
from codecbench.report import read_csv, read_number
from codecbench.subjective import load_pvs_csv, load_scores_csv

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


def read_table(path, required=()):
    """read_csv's header and every row it streams, drained while the file
    is open."""
    with read_csv(path, required) as (header, rows):
        return header, list(rows)


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

    def test_first_fault_in_file_order(self, tmp_path, name):
        """A bad cell is reported before a short row further down."""
        load, header, row = LOADERS[name]
        short = row.format(i=1, x=40).rsplit(",", 1)[0]
        path = write_table(tmp_path, name, [header, row.format(i=0, x="fast"), short])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: .*'fast'"):
            load(path)

    def test_extra_cell_rejected(self, tmp_path, name):
        load, header, row = LOADERS[name]
        width = header.count(",") + 1
        path = write_table(tmp_path, name, [header, row.format(i=0, x=40) + ",7"])
        where = re.escape(str(path))
        with pytest.raises(DataFormatError,
                           match=f"^{where}:2: expected {width} cells, got {width + 1}"):
            load(path)


class TestReadCsv:
    def test_cells_stripped_and_blank_rows_skipped(self, tmp_path):
        path = write_table(tmp_path, "t", ["", " a , b", "", "1 ,2", " , ", "3, 4"])
        assert read_table(path, required=("a",)) == (
            ["a", "b"], [(4, ["1", "2"]), (6, ["3", "4"])]
        )

    def test_quoted_newline_counts_physical_lines(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", '"x', 'y",1', "z,2"])
        assert read_table(path)[1] == [(3, ["x\ny", "1"]), (4, ["z", "2"])]

    @pytest.mark.parametrize("lines", [[], ["", " ,"]], ids=["empty", "blank"])
    def test_no_header_row(self, tmp_path, lines):
        path = write_table(tmp_path, "t", lines)
        with pytest.raises(DataFormatError, match="no header row"):
            read_table(path)

    def test_missing_columns_named(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", "1,2"])
        with pytest.raises(DataFormatError, match="missing CSV columns: c, d"):
            read_table(path, required=("a", "c", "d"))

    def test_oversized_cell_is_a_format_error(self, tmp_path):
        path = write_table(tmp_path, "t", ["a,b", "1," + "x" * 200_000])
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}:2: "):
            read_table(path)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 3)), max_size=20),
           st.integers(0, 3), st.sampled_from(["", " ", ",", " , "]))
    def test_line_numbers_with_random_blank_lines(self, rows, lead, blank):
        """Each data row reports the physical line it was written on."""
        lines, expected = [blank] * lead + ["n,v"], []
        for value, blanks_before in rows:
            lines += [blank] * blanks_before + [f"{value},{value + 1}"]
            expected.append((len(lines), [str(value), str(value + 1)]))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_table(Path(tmp), "t", lines)
            assert read_table(path) == (["n", "v"], expected)


    def test_rows_stream_from_the_open_file(self, tmp_path):
        """The header is read on entry; each row only when it is reached."""
        path = write_table(tmp_path, "t", ["a,b", "1,2", "3"])
        with read_csv(path) as (header, rows):
            assert header == ["a", "b"]
            assert next(rows) == (2, ["1", "2"])
            with pytest.raises(DataFormatError, match=":3: expected 2 cells, got 1"):
                next(rows)


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
        assert read_number("f.csv", 2, "x", "1e3") == 1000.0
        assert read_number("f.csv", 2, "qp", "32", int) == 32

    @pytest.mark.parametrize(
        "text,kind,what",
        [("nan", float, "a finite number"), ("-inf", float, "a finite number"),
         ("1e999", float, "a finite number"), ("", float, "a finite number"),
         ("3.5", int, "an integer"), ("inf", int, "an integer")],
    )
    def test_rejected_values_name_file_line_and_column(self, text, kind, what):
        with pytest.raises(DataFormatError) as exc:
            read_number("f.csv", 7, "col", text, kind)
        assert str(exc.value) == f"f.csv:7: col must be {what}, got {text!r}"
