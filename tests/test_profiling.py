import importlib.util
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codecbench.errors import (
    ComparisonError,
    DataFormatError,
    EmptyInputError,
    InputError,
)
from codecbench.profiling import (
    FunctionCost,
    StageMapping,
    TimingRecord,
    aggregate_stages,
    default_mapping,
    load_mapping,
    load_timing_csv,
    parse_callgrind,
    parse_mapping,
    speedup,
    time_factor,
)


def record(codec="HM", sequence="seq", qp=32, wall=100.0, frames=500, fps=(50, 1)):
    return TimingRecord(
        codec_id=codec,
        sequence_id=sequence,
        qp=qp,
        wall_seconds=wall,
        frame_count=frames,
        fps_num=fps[0],
        fps_den=fps[1],
    )


class TestTimeFactor:
    def test_ten_times_real_time(self):
        assert time_factor(record(wall=100.0, frames=500, fps=(50, 1))) == 10.0

    def test_real_time_is_one(self):
        assert time_factor(record(wall=10.0, frames=500, fps=(50, 1))) == 1.0

    def test_fps_representation_invariance(self):
        a = record(fps=(50, 1))
        b = record(fps=(100, 2))
        assert time_factor(a) == time_factor(b)

    def test_positive_wall_required(self):
        with pytest.raises(InputError):
            record(wall=0.0)

    def test_positive_frames_required(self):
        with pytest.raises(InputError):
            record(frames=0)


class TestSpeedup:
    def test_identity(self):
        assert speedup(record(), record()) == 1.0

    def test_double_wall_time(self):
        assert speedup(record(wall=200.0), record(wall=100.0)) == 2.0

    def test_sequence_mismatch(self):
        with pytest.raises(ComparisonError):
            speedup(record(sequence="a"), record(sequence="b"))

    def test_duration_mismatch(self):
        with pytest.raises(ComparisonError):
            speedup(record(frames=500), record(frames=400))

    def test_reference_decode_factors(self):
        # Mean decode factors 41.4x and 12.3x on 10 s of content.
        slow = record(codec="VTM", wall=414.0, frames=500, fps=(50, 1))
        fast = record(codec="HM", wall=123.0, frames=500, fps=(50, 1))
        assert time_factor(slow) == pytest.approx(41.4)
        assert time_factor(fast) == pytest.approx(12.3)
        assert speedup(slow, fast) == pytest.approx(41.4 / 12.3, abs=1e-12)


PLAIN = """\
# comment line
version: 1
creator: test
cmd: ./encoder
events: Ir
fl=main.c
fn=foo
10 400
11 600
fn=bar
20 3000
"""

COMPRESSED = """\
events: Ir
fl=(1) main.c
fn=(1) foo
10 400
fn=(2) bar
11 111
fn=(1)
12 600
"""

WITH_CALLS = """\
events: Ir
fl=(1) a.c
fn=(1) caller
15 100
cfl=(1)
cfn=(2) callee
calls=2 20
16 800
17 50
fn=(2) callee
20 400
21 400
"""

MULTI_FILE = """\
events: Ir
fl=(1) one.c
fn=(1) shared
5 100
fl=(2) two.c
fn=(1)
6 200
fn=(2) only_two
7 50
"""


def costs_dict(text, **kwargs):
    return {fc.name: fc.self_cost for fc in parse_callgrind(io.StringIO(text), **kwargs)}


class TestParseCallgrind:
    def test_plain_totals(self):
        assert costs_dict(PLAIN) == {"foo": 1000, "bar": 3000}

    def test_name_compression(self):
        assert costs_dict(COMPRESSED) == {"foo": 1000, "bar": 111}

    def test_call_cost_excluded_from_self(self):
        # The cost line after calls= is call attribution, not caller self cost.
        assert costs_dict(WITH_CALLS) == {"caller": 150, "callee": 800}

    def test_merge_by_name_across_files(self):
        assert costs_dict(MULTI_FILE) == {"shared": 300, "only_two": 50}

    def test_block_reordering_invariance(self):
        reordered = """\
events: Ir
fl=main.c
fn=bar
20 3000
fn=foo
11 600
10 400
"""
        assert costs_dict(PLAIN) == costs_dict(reordered)

    def test_undefined_name_id(self):
        text = "events: Ir\nfl=(1) a.c\nfn=(9)\n1 100\n"
        with pytest.raises(DataFormatError, match="line 3"):
            parse_callgrind(io.StringIO(text))

    def test_non_numeric_cost(self):
        text = "events: Ir\nfl=a.c\nfn=foo\n1 abc\n"
        with pytest.raises(DataFormatError, match="non-numeric"):
            parse_callgrind(io.StringIO(text))

    def test_missing_events_header(self):
        text = "fl=a.c\nfn=foo\n1 100\n"
        with pytest.raises(DataFormatError, match="events"):
            parse_callgrind(io.StringIO(text))

    def test_subposition_count_from_positions_header(self):
        text = "events: Ir\npositions: instr line\nfl=a.c\nfn=foo\n0x1a 12 700\n"
        assert costs_dict(text) == {"foo": 700}

    def test_omitted_trailing_event_counts_are_zero(self):
        text = "events: Ir Dr\nfl=a.c\nfn=foo\n1 100 7\n2 50\n"
        assert costs_dict(text) == {"foo": 150}
        assert costs_dict(text, event="Dr") == {"foo": 7}

    def test_unknown_event_rejected(self):
        with pytest.raises(DataFormatError, match="D2"):
            parse_callgrind(io.StringIO(PLAIN), event="D2")

    def test_relative_position_markers(self):
        text = "events: Ir\nfl=a.c\nfn=foo\n10 100\n+2 200\n* 300\n-1 400\n"
        assert costs_dict(text) == {"foo": 1000}

    def test_deterministic_descending_order(self):
        names = [fc.name for fc in parse_callgrind(io.StringIO(PLAIN))]
        assert names == ["bar", "foo"]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("fn=foo\n1 100\nevents: Ir\n", "line 2: cost line before an 'events:'"),
            ("events: Ir\nfl=a.c\n1 100\n", "line 3: cost line before any fn="),
            ("events: Ir\nfn=foo\n1 100\n2 -5\n", "line 4: negative cost -5"),
            ("events: Ir Dr\nfn=foo\n1 100 x\n", "line 3: non-numeric cost 'x'"),
        ],
    )
    def test_cost_line_errors_name_the_line(self, text, message):
        event = "Dr" if "Dr" in text else None
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_callgrind(io.StringIO(text), event=event)


# Keys sharing fl's compressed-name ids besides fl itself.
FILE_KEYS = ("fi", "fe", "cfi", "cfl")

NAMESPACE_CASES = {
    **{f"{key}_refers_to_fl_id": (f"fl=(7) a.c\nfn=f\n{key}=(7)\n1 5\n", {"f": 5})
       for key in FILE_KEYS},
    **{f"fl_refers_to_{key}_id": (f"fn=f\n{key}=(7) b.h\nfl=(7)\n1 5\n", {"f": 5})
       for key in FILE_KEYS},
    "cfn_refers_to_fn_id": ("fn=(3) f\n1 5\ncfn=(3)\ncalls=1 0\n1 900\n", {"f": 5}),
    "fn_refers_to_cfn_id": ("cfn=(4) g\ncalls=1 0\n1 900\nfn=(4)\n2 6\n", {"g": 6}),
    "cob_refers_to_ob_id": ("ob=(2) lib.so\nfn=f\ncob=(2)\n1 5\n", {"f": 5}),
    "fn_id_is_not_fl_id": ("fn=(7) f\nfi=(7)\n1 5\n", "line 3: undefined name id (7)"),
    "fl_id_is_not_fn_id": ("fl=(7) a.c\nfn=(7)\n1 5\n", "line 3: undefined name id (7)"),
    "ob_id_is_not_fl_id": ("ob=(2) lib.so\nfn=f\ncfl=(2)\n", "line 4: undefined name id (2)"),
    "tab_after_id_defines": ("fn=(1)\tfoo\n1 5\nfn=(1)\n2 6\n", {"foo": 11}),
    "one_space_stripped": ("fn=(1)  foo\n1 5\n", {" foo": 5}),
    "id_then_space_refers": ("fn=(1) foo\n1 5\nfn=(1) \n2 6\n", {"foo": 11}),
    "non_decimal_id_is_a_name": ("fn=(x) foo\n1 5\n", {"(x) foo": 5}),
    "unknown_key_ignored": ("fn=f\njump=3 +1\n1 5\n", {"f": 5}),
    "key_with_space_unrecognized": ("fn=f\nx y=1\n", "line 3: unrecognized line 'x y=1'"),
}


@pytest.mark.parametrize(("body", "expected"), NAMESPACE_CASES.values(),
                         ids=NAMESPACE_CASES.keys())
def test_name_namespaces(body, expected):
    """fl/fi/fe/cfl/cfi share one table of (id) names, fn/cfn another and
    ob/cob a third."""
    text = "events: Ir\n" + body
    if isinstance(expected, str):
        with pytest.raises(DataFormatError, match=f"^{re.escape(expected)}$"):
            parse_callgrind(io.StringIO(text))
    else:
        assert costs_dict(text) == expected


GEN_PATH = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def test_parse_callgrind_matches_generator_truth(tmp_path):
    """A benchmark-shaped file (compressed ob/fl/fn/cfn names, fi/fe
    references, calls= records, relative positions): the parse equals the
    self cost planted per function."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN_PATH)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    truth = gen.callgrind(tmp_path, 3, target_lines=20_000)
    got = parse_callgrind(tmp_path / truth["file"])
    assert {fc.name: fc.self_cost for fc in got} == truth["functions"]


def oracle_costs(text, event=None):
    """Self cost per function, by splitting every line in full: the reference
    parse_callgrind must match."""
    events, n_positions, names, fn, after_calls = None, 1, {}, None, False
    costs = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if line[0] in "0123456789+-*":
            if after_calls:
                after_calls = False
                continue
            counts = [int(t) for t in line.split()[n_positions:]]
            counts += [0] * (len(events) - len(counts))
            costs[fn] += counts[events.index(event or events[0])]
        elif line.startswith("events:"):
            events = line.split()[1:]
        elif line.startswith("positions:"):
            n_positions = len(line.split()) - 1
        elif "=" in line:
            key, value = line.split("=", 1)
            ref = re.fullmatch(r"\((\d+)\)(?: (.+))?", value)
            if ref and ref.group(2):
                names[ref.group(1)] = ref.group(2)
            name = names[ref.group(1)] if ref else value
            if key == "fn":
                fn = name
                costs.setdefault(fn, 0)
            elif key == "calls":
                after_calls = True
    return sorted(costs.items(), key=lambda kv: (-kv[1], kv[0]))


FUNCTIONS = ("InterSearch::xTZSearch", "TrQuant::transformNxN", "memcpy", "fastInvCore")


@st.composite
def callgrind_texts(draw):
    """A Callgrind file and the event to select: one or two subpositions,
    up to three events, compressed and plain fn=/cfn= names, calls=
    records, omitted trailing events, and functions re-entered across
    several fn= blocks."""
    positions = draw(st.sampled_from(["line", "instr line"]))
    events = draw(st.sampled_from([["Ir"], ["Ir", "Dr"], ["Ir", "Dr", "Dw"]]))
    event = draw(st.sampled_from([None, *events]))
    lines = ["# callgrind format", "version: 1", f"positions: {positions}",
             f"events: {' '.join(events)}", "", "ob=(1) /usr/bin/enc", "fl=(1) enc.cpp"]
    defined = set()

    def fn_spec(key):
        i = draw(st.integers(0, len(FUNCTIONS) - 1))
        if draw(st.booleans()):
            return f"{key}={FUNCTIONS[i]}"
        ref = f"{key}=({i + 1})" if i in defined else f"{key}=({i + 1}) {FUNCTIONS[i]}"
        defined.add(i)
        return ref

    def cost_line():
        where = draw(st.lists(st.sampled_from(["16", "0x1a", "+1", "-2", "*"]),
                              min_size=len(positions.split()),
                              max_size=len(positions.split())))
        counts = draw(st.lists(st.integers(0, 10**9).map(str), max_size=len(events)))
        return " ".join(where + counts)

    for _ in range(draw(st.integers(1, 8))):
        lines.append(fn_spec("fn"))
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["cost", "cost", "call", "fi", "comment", "blank"]))
            if kind == "call":
                lines += [fn_spec("cfn"), f"calls={draw(st.integers(1, 9))} 10"]
                lines.append(cost_line())
            elif kind == "fi":
                lines.append("fi=(1)")
            elif kind == "comment":
                lines.append("# inlined")
            elif kind == "blank":
                lines.append("")
            else:
                lines.append(cost_line())
    return "\n".join(lines) + "\n", event


@settings(max_examples=300, deadline=None, derandomize=True)
@given(callgrind_texts())
def test_parse_callgrind_matches_oracle(case):
    text, event = case
    got = [(fc.name, fc.self_cost) for fc in parse_callgrind(io.StringIO(text), event=event)]
    assert got == oracle_costs(text, event)


class TestAggregateStages:
    MAPPING = StageMapping(rules=(("encIntra", "Intra"), ("encSearch", "ME")))

    def test_two_stage_split(self):
        costs = [FunctionCost("encIntra", 250), FunctionCost("encSearch", 750)]
        profile = aggregate_stages(costs, self.MAPPING)
        assert profile.percentages == {"Intra": 25.0, "ME": 75.0}
        assert profile.total_cost == 1000

    def test_sub_threshold_folds_into_other(self):
        costs = [
            FunctionCost("encIntra", 9),
            FunctionCost("encSearch", 991),
        ]
        profile = aggregate_stages(costs, self.MAPPING, bucket_threshold=1.0)
        assert "Intra" not in profile.percentages
        assert profile.other_bucket == ("Intra",)
        assert profile.percentages["Other"] == pytest.approx(0.9)

    def test_unmatched_goes_to_other_directly(self):
        costs = [FunctionCost("misc", 100), FunctionCost("encSearch", 900)]
        profile = aggregate_stages(costs, self.MAPPING)
        assert profile.percentages["Other"] == 10.0
        assert profile.other_bucket == ()

    def test_percentages_sum_to_hundred(self, rng):
        mapping = StageMapping(rules=(("a", "A"), ("b", "B"), ("c", "C")))
        costs = [
            FunctionCost(name, int(rng.integers(1, 10_000)))
            for name in ("a1", "a2", "b1", "c1", "zz")
        ]
        profile = aggregate_stages(costs, mapping)
        assert sum(profile.percentages.values()) == pytest.approx(100.0, abs=0.01)
        for stage, pct in profile.percentages.items():
            if stage != "Other":
                assert pct >= 1.0

    def test_catch_all_rule(self):
        mapping = StageMapping(rules=(("", "Everything"),))
        profile = aggregate_stages([FunctionCost("x", 5)], mapping)
        assert profile.percentages == {"Everything": 100.0}

    def test_first_match_wins(self):
        mapping = StageMapping(rules=(("ab", "First"), ("a", "Second")))
        profile = aggregate_stages([FunctionCost("abc", 10)], mapping)
        assert profile.percentages == {"First": 100.0}

    def test_split_function_merges_before_thresholding(self):
        profile_a = aggregate_stages(
            parse_callgrind(io.StringIO(MULTI_FILE)), self.MAPPING
        )
        single = """\
events: Ir
fl=one.c
fn=shared
5 300
fn=only_two
7 50
"""
        profile_b = aggregate_stages(
            parse_callgrind(io.StringIO(single)), self.MAPPING
        )
        assert profile_a.totals == profile_b.totals

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            aggregate_stages([], self.MAPPING)


class TestMappingFiles:
    def test_parse_with_comments(self):
        mapping = parse_mapping("# header\nxPredIntra -> Intra Pred.\n\nSAO->SAO\n")
        assert mapping.rules == (("xPredIntra", "Intra Pred."), ("SAO", "SAO"))

    def test_bad_syntax(self):
        with pytest.raises(DataFormatError, match=":2"):
            parse_mapping("a -> A\nnot a rule\n")

    def test_empty_sides_rejected(self):
        with pytest.raises(DataFormatError):
            parse_mapping(" -> Stage\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("Quant -> Tr/Inv.Tr\n")
        assert load_mapping(path).stage_for("xQuantCore") == "Tr/Inv.Tr"

    def test_default_mapping_taxonomy(self):
        mapping = default_mapping()
        assert mapping.stage_for("xDMVRSubPixelErrorSurface") == "DMVR"
        assert mapping.stage_for("EncAdaptiveLoopFilter::process") == "ALF"
        assert mapping.stage_for("SampleAdaptiveOffset::offsetBlock") == "SAO"
        assert mapping.stage_for("LoopFilter::xDeblockCU") == "Deblocking"
        assert mapping.stage_for("InterSearch::xTZSearch") == "ME"
        assert mapping.stage_for("InterPrediction::motionCompensation") == "MC"
        assert mapping.stage_for("TrQuant::transformNxN") == "Tr/Inv.Tr"
        assert mapping.stage_for("CABACWriter::coding_unit") == "Entropy"
        assert mapping.stage_for("IntraSearch::estIntraPredLumaQT") == "Intra Pred."
        assert mapping.stage_for("memcpy") == "Other"


class TestTimingCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "timing.csv"
        path.write_text(
            "codec,sequence,qp,wall_seconds,frame_count,fps_num,fps_den\n"
            "HM,CrowdRun,32,123.0,500,50,1\n"
            "VTM,CrowdRun,32,414.0,500,50,1\n"
        )
        records = load_timing_csv(path)
        assert len(records) == 2
        assert speedup(records[1], records[0]) == pytest.approx(41.4 / 12.3)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "timing.csv"
        path.write_text(
            "codec,sequence,qp,wall_seconds,frame_count,fps_num,fps_den\n"
            "HM,CrowdRun,soft,123.0,500,50,1\n"
        )
        with pytest.raises(DataFormatError, match=":2"):
            load_timing_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "timing.csv"
        path.write_text("codec,sequence,qp,wall_seconds,frame_count,fps_num\n")
        with pytest.raises(DataFormatError, match="fps_den"):
            load_timing_csv(path)
