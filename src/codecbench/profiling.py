"""Real-time factors from timing records and Callgrind-profile stage
aggregation.

Only self cost is aggregated: inclusive attribution across the recursion
cycles of a partitioning search is ill-defined for automated reports,
while self-cost percentages are stable. Costs come from the first
declared event (typically Ir, the instruction count) unless another
event column is selected.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, groupby, starmap
from operator import attrgetter

from .errors import DataFormatError, InputError
from .report import named_errors, open_input, read_csv

OTHER_STAGE = "Other"
BUCKET_THRESHOLD = 1.0  # percent

TIMING_CSV_COLUMNS = {"codec": str, "sequence": str, "qp": int, "wall_seconds": float,
                      "frame_count": int, "fps_num": int, "fps_den": int}


@dataclass(frozen=True)
class TimingRecord:
    codec_id: str
    sequence_id: str
    qp: int
    wall_seconds: float
    frame_count: int
    fps_num: int
    fps_den: int

    def __post_init__(self):
        if not self.wall_seconds > 0:
            raise InputError(f"wall_seconds must be positive, got {self.wall_seconds}")
        if self.frame_count <= 0:
            raise InputError(f"frame_count must be positive, got {self.frame_count}")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise InputError(
                f"degenerate duration: fps {self.fps_num}:{self.fps_den}"
            )
        try:
            factor = time_factor(self)
        except (OverflowError, ZeroDivisionError):  # a duration beyond float range
            factor = math.inf
        if not 0 < factor < math.inf:
            raise InputError("duration or time factor is not a positive finite float")

    @property
    def duration(self) -> float:
        return self.frame_count * self.fps_den / self.fps_num


def time_factor(record: TimingRecord) -> float:
    """Wall-clock time divided by content duration; 1.0 means real time."""
    return record.wall_seconds / record.duration


def speedup(a: TimingRecord, b: TimingRecord) -> float:
    """How many times slower record a runs than record b."""
    if a.sequence_id != b.sequence_id:
        raise InputError(
            f"cannot compare different sequences "
            f"{a.sequence_id!r} and {b.sequence_id!r}"
        )
    if abs(a.duration - b.duration) > 1e-9 * max(a.duration, b.duration):
        raise InputError(
            f"{a.sequence_id} qp{a.qp}: {a.codec_id} and {b.codec_id} content "
            f"durations differ: {a.duration:g}s vs {b.duration:g}s"
        )
    ratio = time_factor(a) / time_factor(b)
    if not 0 < ratio < math.inf:
        raise InputError(
            f"{a.sequence_id} qp{a.qp}: {a.codec_id} / {b.codec_id} speedup "
            "is not a positive finite float"
        )
    return ratio


def codec_pairs(records) -> list[tuple[TimingRecord, TimingRecord]]:
    """Every two records of one (sequence, qp), as (a, b) with a's codec id
    first, sorted by sequence, qp and codec id."""
    ordered = sorted(records, key=attrgetter("sequence_id", "qp", "codec_id"))
    return [pair for _, group in groupby(ordered, attrgetter("sequence_id", "qp"))
            for pair in combinations(group, 2)]


# A specification or header key.
_WORD = re.compile(r"\w+")

# First characters of a cost line: a position, relative (+N, -N) or
# repeated (*), then the event counts.
_COST_START = frozenset("0123456789+-*")

# Position-specification key -> the compressed-name namespace it shares.
_NAMESPACE = {
    **dict.fromkeys(("fl", "fi", "fe", "cfl", "cfi"), "fl"),
    **dict.fromkeys(("fn", "cfn"), "fn"),
    **dict.fromkeys(("ob", "cob"), "ob"),
}


def parse_callgrind(path, event: str | None = None) -> dict[str, int]:
    """Per-function self cost of a Callgrind output file, {name: cost} in
    the order the functions first appear.

    Handles string compression (`fn=(id) name` defines, `fn=(id)` refers),
    subposition counts from the `positions:` header, omitted trailing
    event columns, and call records: the cost line following `calls=`
    carries inclusive call cost and is excluded from the caller's self
    cost. Functions split across several source files merge by name.
    A format error names the file and its line, by named_errors.
    """
    events: list[str] | None = None
    event_index = 0
    n_positions = 1
    # Token index of the selected event on a cost line; set by the headers.
    idx = 1
    # Per namespace: "(id)" text -> name, so a bare reference is one lookup.
    names: dict[str, dict[str, str]] = {ns: {} for ns in _NAMESPACE.values()}
    current_fn: str | None = None
    block = 0  # self cost of current_fn in this fn= block
    skip_next_cost = False
    costs: dict[str, int] = {}

    with named_errors(path) as where, open_input(path) as lines:
        try:
            for lineno, line in enumerate(lines, start=1):
                # Most lines of a profile are cost lines: test for them first,
                # on the raw line, and split only as far as the selected event.
                if line[:1] in _COST_START:
                    if skip_next_cost:
                        skip_next_cost = False
                        continue
                    if events is None:
                        raise DataFormatError("cost line before an 'events:' header")
                    if current_fn is None:
                        raise DataFormatError("cost line before any fn=")
                    tokens = line.split(None, idx + 1)
                    # Trailing zero event counts may be omitted.
                    if idx < len(tokens):
                        try:
                            value = int(tokens[idx])
                        except ValueError:
                            raise DataFormatError(
                                f"non-numeric cost {tokens[idx]!r}"
                            ) from None
                        if value < 0:
                            raise DataFormatError(f"negative cost {value}")
                        block += value
                    continue

                line = line.rstrip("\n")
                if not line.strip() or line.startswith("#"):
                    continue

                key, sep, value = line.partition("=")
                if sep:
                    namespace = _NAMESPACE.get(key)
                    if namespace is not None:
                        table = names[namespace]
                        name = table.get(value) or _define_or_resolve(table, value)
                        if key == "fn":
                            if current_fn is not None:
                                costs[current_fn] = costs.get(current_fn, 0) + block
                            current_fn, block = name, 0
                        continue
                    if key == "calls":
                        skip_next_cost = True
                        continue
                    if _WORD.fullmatch(key):
                        # Remaining specification keys (jump targets etc.)
                        # carry no self cost.
                        continue

                key, sep, value = line.partition(":")
                if sep and _WORD.fullmatch(key):
                    if key == "events":
                        events = value.split()
                        if not events:
                            raise DataFormatError("empty events header")
                        if event is not None:
                            if event not in events:
                                raise DataFormatError(
                                    f"event {event!r} not declared "
                                    f"(events: {' '.join(events)})"
                                )
                            event_index = events.index(event)
                    elif key == "positions":
                        n_positions = max(1, len(value.split()))
                    idx = n_positions + event_index
                    continue

                raise DataFormatError(f"unrecognized line {line[:60]!r}")
        except DataFormatError:
            where.line = lineno
            raise
        if events is None:
            raise DataFormatError("missing 'events:' header")
    if current_fn is not None:
        costs[current_fn] = costs.get(current_fn, 0) + block
    return costs


def _define_or_resolve(table: dict[str, str], value: str) -> str:
    """The name a value gives: `(id) name` defines id, `(id)` refers to it,
    anything else is the name itself."""
    if value[:1] != "(":
        return value
    num, sep, rest = value[1:].partition(")")
    if not (sep and num.isdecimal()):
        return value
    if rest[:1].isspace():
        rest = rest[1:]
    ref = f"({num})"
    if rest:
        table[ref] = rest
        return rest
    if ref not in table:
        raise DataFormatError(f"undefined name id ({num})")
    return table[ref]


@dataclass(frozen=True)
class StageMapping:
    """Ordered (substring pattern -> stage) rules; first match wins."""

    rules: tuple[tuple[str, str], ...]

    def stage_for(self, function_name: str) -> str:
        for pattern, stage in self.rules:
            if pattern in function_name:
                return stage
        return OTHER_STAGE


@dataclass(frozen=True)
class StageProfile:
    """Stage costs in report order: descending percent of the total, then
    stage name."""

    totals: dict[str, int]
    other_bucket: tuple[str, ...]
    total_cost: int

    @property
    def percentages(self) -> dict[str, float]:
        return {s: 100.0 * c / self.total_cost for s, c in self.totals.items()}


def aggregate_stages(
    inputs, mapping: StageMapping, bucket_threshold: float = BUCKET_THRESHOLD
) -> list[StageProfile]:
    """One StageProfile per (path, costs) input, in input order: its
    {function: self cost} folded into named stages with percentages of its
    total. Unmatched functions land in "Other"; every other stage below the
    threshold in every input folds into it too, listed in name order as the
    bucket. A stage an input lacks reads cost 0, so every profile lists the
    same stages. An empty or zero-cost input fails under named_errors(path).
    """
    tallies = []
    for path, costs in inputs:
        with named_errors(path):
            if not costs:
                raise InputError("empty cost list")
            total = sum(costs.values())
            if total <= 0:
                raise InputError("total cost is zero")
        raw: dict[str, int] = {}
        for name, cost in costs.items():
            stage = mapping.stage_for(name)
            raw[stage] = raw.get(stage, 0) + cost
        tallies.append((raw, total))

    names = set().union(*(raw for raw, _ in tallies))
    bucket = tuple(s for s in sorted(names - {OTHER_STAGE})
                   if all(100.0 * raw.get(s, 0) / total < bucket_threshold
                          for raw, total in tallies))
    profiles = []
    for raw, total in tallies:
        folded = {s: raw.get(s, 0) for s in names.difference(bucket)}
        if bucket:
            folded[OTHER_STAGE] = sum(raw.get(s, 0) for s in bucket) + raw.get(OTHER_STAGE, 0)
        order = sorted(folded, key=lambda s: (-100.0 * folded[s] / total, s))
        profiles.append(StageProfile({s: folded[s] for s in order}, bucket, total))
    return profiles


def load_mapping(path=None) -> StageMapping:
    """The `pattern -> stage` lines of the mapping file at path, or with
    None the built-in codec stage taxonomy (copy the packaged file to
    customize); `#` starts a full-line comment."""
    if path is None:
        packaged = resources.files("codecbench") / "data/default_stage_map.txt"
        with resources.as_file(packaged) as path:
            return load_mapping(path)
    rules = []
    with named_errors(path) as where, open_input(path) as fp:
        for where.line, raw in enumerate(fp.read().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            pattern, sep, stage = line.partition("->")
            if not sep:
                raise DataFormatError(f"expected 'pattern -> stage', got {line!r}")
            pattern = pattern.strip()
            stage = stage.strip()
            if not pattern or not stage:
                raise DataFormatError(f"empty pattern or stage in {line!r}")
            rules.append((pattern, stage))
    return StageMapping(rules=tuple(rules))


def load_timing_csv(path) -> list[TimingRecord]:
    """Read timing records, at most one per (codec, sequence, qp)."""
    records: dict[tuple[str, str, int], TimingRecord] = {}
    with read_csv(path, TIMING_CSV_COLUMNS) as (_, rows):
        for record in starmap(TimingRecord, rows):
            key = (record.codec_id, record.sequence_id, record.qp)
            if key in records:
                raise DataFormatError("duplicate timing record {}/{}/qp{}".format(*key))
            records[key] = record
    return list(records.values())
