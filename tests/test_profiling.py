import importlib.util
import os
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codecbench.errors import DataFormatError, InputError
from codecbench.profiling import (
    StageMapping,
    TimingRecord,
    aggregate_stages,
    codec_pairs,
    load_mapping,
    load_timing_csv,
    parse_callgrind,
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

    @pytest.mark.parametrize("wall,frames,fps", [
        (10.0, 10, (10**400, 1)), (10.0, 10, (1, 10**400)), (10.0, 10**400, (1, 1)),
        (1e300, 1, (10**10, 1)), (5e-324, 10**10, (1, 1)),
    ], ids=["fps_num", "fps_den", "frame_count", "factor_overflow", "factor_underflow"])
    def test_duration_and_factor_within_float_range(self, wall, frames, fps):
        with pytest.raises(InputError, match="^duration or time factor is not a positive "
                                             "finite float$"):
            record(wall=wall, frames=frames, fps=fps)


class TestCodecPairs:
    def test_pairs_within_each_group_in_sorted_order(self):
        groups = {("seqA", 22): "VTM HM AV1", ("seqA", 37): "VTM HM",
                  ("seqB", 27): "HM AV1 VTM JM", ("seqB", 32): "HM"}
        records = [record(codec, seq, qp) for (seq, qp), codecs in groups.items()
                   for codec in codecs.split()]
        random.Random(5).shuffle(records)
        pairs = codec_pairs(records)
        assert [(a.sequence_id, a.qp, a.codec_id, b.codec_id) for a, b in pairs] == [
            ("seqA", 22, "AV1", "HM"), ("seqA", 22, "AV1", "VTM"), ("seqA", 22, "HM", "VTM"),
            ("seqA", 37, "HM", "VTM"),
            ("seqB", 27, "AV1", "HM"), ("seqB", 27, "AV1", "JM"), ("seqB", 27, "AV1", "VTM"),
            ("seqB", 27, "HM", "JM"), ("seqB", 27, "HM", "VTM"), ("seqB", 27, "JM", "VTM"),
        ]
        assert all((a.sequence_id, a.qp) == (b.sequence_id, b.qp) for a, b in pairs)

    def test_no_pairs_without_two_records_of_a_group(self):
        assert codec_pairs([]) == []
        assert codec_pairs([record("HM", qp=22), record("VTM", qp=27)]) == []


class TestSpeedup:
    def test_identity(self):
        assert speedup(record(), record()) == 1.0

    def test_double_wall_time(self):
        assert speedup(record(wall=200.0), record(wall=100.0)) == 2.0

    def test_sequence_mismatch(self):
        message = "cannot compare different sequences 'a' and 'b'"
        with pytest.raises(InputError, match=message):
            speedup(record(sequence="a"), record(sequence="b"))

    def test_duration_mismatch(self):
        with pytest.raises(InputError, match="content durations differ: 10s vs 8s"):
            speedup(record(frames=500), record(frames=400))

    def test_duration_mismatch_names_the_records(self):
        a = record(codec="HM", sequence="s", qp=22, frames=500)
        b = record(codec="VTM", sequence="s", qp=22, frames=1000)
        message = "s qp22: HM and VTM content durations differ: 10s vs 20s"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            speedup(a, b)

    @pytest.mark.parametrize("walls", [(1e300, 1e-300), (1e-300, 1e300)])
    def test_ratio_beyond_float_range_names_the_pair(self, walls):
        a = record(codec="HM", sequence="s", qp=22, wall=walls[0])
        b = record(codec="VTM", sequence="s", qp=22, wall=walls[1])
        message = "s qp22: HM / VTM speedup is not a positive finite float"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            speedup(a, b)

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


def write(directory, text):
    path = Path(directory) / "callgrind.out"
    path.write_text(text)
    return path


def costs_dict(text, **kwargs):
    """parse_callgrind over text written to a file of a fresh directory."""
    with tempfile.TemporaryDirectory() as directory:
        return parse_callgrind(write(directory, text), **kwargs)


def fault(tmp_path, text, **kwargs):
    """The message of the DataFormatError that parsing text raises, with the
    file's path in front replaced by `cg.out`."""
    path = write(tmp_path, text)
    with pytest.raises(DataFormatError) as exc:
        parse_callgrind(path, **kwargs)
    return str(exc.value).replace(str(path), "cg.out", 1)


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

    def test_undefined_name_id(self, tmp_path):
        text = "events: Ir\nfl=(1) a.c\nfn=(9)\n1 100\n"
        assert fault(tmp_path, text) == "cg.out:3: undefined name id (9)"

    def test_non_numeric_cost(self, tmp_path):
        text = "events: Ir\nfl=a.c\nfn=foo\n1 abc\n"
        assert fault(tmp_path, text) == "cg.out:4: non-numeric cost 'abc'"

    def test_missing_events_header(self, tmp_path):
        # A fault found in no single line names the file alone.
        text = "# no header\nfl=a.c\nfn=foo\n"
        assert fault(tmp_path, text) == "cg.out: missing 'events:' header"

    def test_subposition_count_from_positions_header(self):
        text = "events: Ir\npositions: instr line\nfl=a.c\nfn=foo\n0x1a 12 700\n"
        assert costs_dict(text) == {"foo": 700}

    def test_omitted_trailing_event_counts_are_zero(self):
        text = "events: Ir Dr\nfl=a.c\nfn=foo\n1 100 7\n2 50\n"
        assert costs_dict(text) == {"foo": 150}
        assert costs_dict(text, event="Dr") == {"foo": 7}

    def test_unknown_event_rejected(self, tmp_path):
        assert fault(tmp_path, PLAIN, event="D2") == (
            "cg.out:5: event 'D2' not declared (events: Ir)"
        )

    def test_relative_position_markers(self):
        text = "events: Ir\nfl=a.c\nfn=foo\n10 100\n+2 200\n* 300\n-1 400\n"
        assert costs_dict(text) == {"foo": 1000}

    def test_first_appearance_order(self):
        assert list(costs_dict(PLAIN)) == ["foo", "bar"]
        assert list(costs_dict(COMPRESSED)) == ["foo", "bar"]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("fn=foo\n1 100\nevents: Ir\n",
             "cg.out:2: cost line before an 'events:' header"),
            ("events: Ir\nfl=a.c\n1 100\n", "cg.out:3: cost line before any fn="),
            ("events: Ir\nfn=foo\n1 100\n2 -5\n", "cg.out:4: negative cost -5"),
            ("events: Ir Dr\nfn=foo\n1 100 x\n", "cg.out:3: non-numeric cost 'x'"),
        ],
    )
    def test_cost_line_errors_name_the_line(self, tmp_path, text, message):
        event = "Dr" if "Dr" in text else None
        assert fault(tmp_path, text, event=event) == message

    @pytest.mark.parametrize("as_source", [str, os.fsencode, Path],
                             ids=["str", "bytes", "PathLike"])
    def test_path_in_front_of_errors(self, tmp_path, as_source):
        path = tmp_path / "callgrind.out"
        path.write_text("events: Ir\nfn=foo\n1 abc\n")
        message = f"{path}:3: non-numeric cost 'abc'"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_callgrind(as_source(path))


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
    "fn_id_is_not_fl_id": ("fn=(7) f\nfi=(7)\n1 5\n", "cg.out:3: undefined name id (7)"),
    "fl_id_is_not_fn_id": ("fl=(7) a.c\nfn=(7)\n1 5\n", "cg.out:3: undefined name id (7)"),
    "ob_id_is_not_fl_id": ("ob=(2) lib.so\nfn=f\ncfl=(2)\n",
                           "cg.out:4: undefined name id (2)"),
    "tab_after_id_defines": ("fn=(1)\tfoo\n1 5\nfn=(1)\n2 6\n", {"foo": 11}),
    "one_space_stripped": ("fn=(1)  foo\n1 5\n", {" foo": 5}),
    "id_then_space_refers": ("fn=(1) foo\n1 5\nfn=(1) \n2 6\n", {"foo": 11}),
    "non_decimal_id_is_a_name": ("fn=(x) foo\n1 5\n", {"(x) foo": 5}),
    "unknown_key_ignored": ("fn=f\njump=3 +1\n1 5\n", {"f": 5}),
    "key_with_space_unrecognized": ("fn=f\nx y=1\n",
                                    "cg.out:3: unrecognized line 'x y=1'"),
}


@pytest.mark.parametrize(("body", "expected"), NAMESPACE_CASES.values(),
                         ids=NAMESPACE_CASES.keys())
def test_name_namespaces(tmp_path, body, expected):
    """fl/fi/fe/cfl/cfi share one table of (id) names, fn/cfn another and
    ob/cob a third."""
    text = "events: Ir\n" + body
    if isinstance(expected, str):
        assert fault(tmp_path, text) == expected
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
    assert parse_callgrind(tmp_path / truth["file"]) == truth["functions"]


def oracle_costs(text, event=None):
    """Self cost per function in first-appearance order, by splitting every
    line in full: the reference parse_callgrind must match."""
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
    return costs


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
    got = costs_dict(text, event=event)
    assert list(got.items()) == list(oracle_costs(text, event).items())


def aggregate_one(costs, mapping, **kwargs):
    """aggregate_stages over one input without a path: its one profile."""
    [profile] = aggregate_stages([(None, costs)], mapping, **kwargs)
    return profile


class TestAggregateStages:
    MAPPING = StageMapping(rules=(("encIntra", "Intra"), ("encSearch", "ME")))

    def test_two_stage_split(self):
        profile = aggregate_one({"encIntra": 250, "encSearch": 750}, self.MAPPING)
        assert profile.percentages == {"Intra": 25.0, "ME": 75.0}
        assert profile.total_cost == 1000

    def test_sub_threshold_folds_into_other(self):
        costs = {"encIntra": 9, "encSearch": 991}
        profile = aggregate_one(costs, self.MAPPING, bucket_threshold=1.0)
        assert "Intra" not in profile.percentages
        assert profile.other_bucket == ("Intra",)
        assert profile.percentages["Other"] == pytest.approx(0.9)

    def test_unmatched_goes_to_other_directly(self):
        profile = aggregate_one({"misc": 100, "encSearch": 900}, self.MAPPING)
        assert profile.percentages["Other"] == 10.0
        assert profile.other_bucket == ()

    def test_percentages_sum_to_hundred(self, rng):
        mapping = StageMapping(rules=(("a", "A"), ("b", "B"), ("c", "C")))
        costs = {name: int(rng.integers(1, 10_000))
                 for name in ("a1", "a2", "b1", "c1", "zz")}
        profile = aggregate_one(costs, mapping)
        assert sum(profile.percentages.values()) == pytest.approx(100.0, abs=0.01)
        for stage, pct in profile.percentages.items():
            if stage != "Other":
                assert pct >= 1.0

    def test_catch_all_rule(self):
        mapping = StageMapping(rules=(("", "Everything"),))
        profile = aggregate_one({"x": 5}, mapping)
        assert profile.percentages == {"Everything": 100.0}

    def test_first_match_wins(self):
        mapping = StageMapping(rules=(("ab", "First"), ("a", "Second")))
        profile = aggregate_one({"abc": 10}, mapping)
        assert profile.percentages == {"First": 100.0}

    def test_split_function_merges_before_thresholding(self):
        profile_a = aggregate_one(costs_dict(MULTI_FILE), self.MAPPING)
        single = """\
events: Ir
fl=one.c
fn=shared
5 300
fn=only_two
7 50
"""
        profile_b = aggregate_one(costs_dict(single), self.MAPPING)
        assert profile_a.totals == profile_b.totals

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty cost list"):
            aggregate_one({}, self.MAPPING)

    @pytest.mark.parametrize(("costs", "message"), [
        ({}, "bad.out: empty cost list"), ({"encIntra": 0}, "bad.out: total cost is zero"),
    ])
    def test_fault_names_its_input(self, costs, message):
        inputs = [("good.out", {"encIntra": 5}), ("bad.out", costs)]
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            aggregate_stages(inputs, self.MAPPING)

    def test_stages_in_report_order(self):
        # Descending percent, then name: equal stages keep no input order.
        mapping = StageMapping(rules=(("b", "Beta"), ("a", "Alpha"), ("g", "Gamma")))
        profile = aggregate_one({"b": 30, "a": 30, "g": 40, "zz": 0}, mapping)
        assert list(profile.totals) == ["Gamma", "Alpha", "Beta", "Other"]
        assert list(profile.percentages) == list(profile.totals)


def oracle_aggregate(inputs, mapping, bucket_threshold):
    """aggregate_stages as a two-branch loop per input over the run's stages:
    Other is skipped in the sorted pass and its unmapped cost added after
    it. A stage folds when it is below the threshold in every input, and a
    stage an input lacks reads 0 there."""
    raws = []
    for costs in inputs:
        raw = {}
        for name, cost in costs.items():
            stage = mapping.stage_for(name)
            raw[stage] = raw.get(stage, 0) + cost
        raws.append((raw, sum(costs.values())))
    run = set().union(*(raw for raw, _ in raws))
    profiles = []
    for raw, total in raws:
        folded, bucket = {}, []
        for stage in sorted(run):
            if stage == "Other":
                continue
            if all(100.0 * r.get(stage, 0) / t < bucket_threshold for r, t in raws):
                bucket.append(stage)
                folded["Other"] = folded.get("Other", 0) + raw.get(stage, 0)
            else:
                folded[stage] = raw.get(stage, 0)
        if "Other" in run:
            folded["Other"] = folded.get("Other", 0) + raw.get("Other", 0)
        percent = {s: 100.0 * c / total for s, c in folded.items()}
        order = sorted(folded, key=lambda s: (-percent[s], s))
        profiles.append(([(s, folded[s]) for s in order], tuple(bucket), total))
    return profiles


_STAGE_COSTS = st.one_of(
    st.integers(0, 3), st.integers(0, 10**15),
    st.floats(0, 1e15, allow_nan=False, allow_infinity=False),
)
# One input: its stages' function costs, and the costs of unmapped functions.
_PROFILE = st.tuples(
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "Other"]),
        st.lists(_STAGE_COSTS, min_size=1, max_size=3), max_size=12,
    ),
    st.lists(_STAGE_COSTS, max_size=3),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    inputs=st.lists(_PROFILE, min_size=1, max_size=3),
    threshold=st.one_of(st.sampled_from([0.0, 1.0, 100.0]), st.floats(0, 100)),
)
def test_aggregate_stages_matches_two_branch_fold(inputs, threshold):
    # A function "|S|k" maps to stage S alone, "xk" to no stage: Other.
    mapping = StageMapping(rules=tuple(
        (f"|{s}|", s) for s in sorted({s for stages, _ in inputs for s in stages})))
    runs = []
    for stages, unmapped in inputs:
        costs = {f"|{s}|{k}": c for s, cs in stages.items() for k, c in enumerate(cs)}
        costs.update((f"x{k}", c) for k, c in enumerate(unmapped))
        assume(costs and sum(costs.values()) > 0)
        runs.append(costs)
    profiles = aggregate_stages([(None, costs) for costs in runs], mapping,
                                bucket_threshold=threshold)
    expected = oracle_aggregate(runs, mapping, threshold)
    assert len(profiles) == len(expected)
    for profile, (totals, bucket, total) in zip(profiles, expected):
        assert list(profile.totals.items()) == totals
        assert profile.other_bucket == bucket
        assert profile.total_cost == total


def mapping_file(tmp_path, text):
    path = tmp_path / "map.txt"
    path.write_text(text)
    return path


class TestMappingFiles:
    def test_parse_with_comments(self, tmp_path):
        path = mapping_file(tmp_path, "# header\nxPredIntra -> Intra Pred.\n\nSAO->SAO\n")
        assert load_mapping(path).rules == (("xPredIntra", "Intra Pred."), ("SAO", "SAO"))

    def test_bad_syntax(self, tmp_path):
        with pytest.raises(DataFormatError, match=":2"):
            load_mapping(mapping_file(tmp_path, "a -> A\nnot a rule\n"))

    @pytest.mark.parametrize("as_source", [Path, os.fsencode], ids=["path", "bytes"])
    def test_file_fault_names_file_and_line(self, tmp_path, as_source):
        path = tmp_path / "map.txt"
        path.write_text("a -> A\nnot a rule\n")
        with pytest.raises(DataFormatError) as exc:
            load_mapping(as_source(path))
        assert str(exc.value) == f"{path}:2: expected 'pattern -> stage', got 'not a rule'"

    def test_empty_sides_rejected(self, tmp_path):
        path = mapping_file(tmp_path, "# rules\n -> Stage\n")
        with pytest.raises(DataFormatError) as exc:
            load_mapping(path)
        assert str(exc.value) == f"{path}:2: empty pattern or stage in '-> Stage'"

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("Quant -> Tr/Inv.Tr\n")
        assert load_mapping(path).stage_for("xQuantCore") == "Tr/Inv.Tr"

    def test_default_mapping_taxonomy(self):
        mapping = load_mapping()
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
