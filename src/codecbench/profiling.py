"""Real-time factors from timing records and Callgrind-profile stage
aggregation.

Only self cost is aggregated: inclusive attribution across the recursion
cycles of a partitioning search is ill-defined for automated reports,
while self-cost percentages are stable. Costs come from the first
declared event (typically Ir, the instruction count) unless another
event column is selected.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import partial
from importlib import resources
from operator import itemgetter

from .errors import DataFormatError, InputError
from .report import open_input, read_csv, read_number

OTHER_STAGE = "Other"
BUCKET_THRESHOLD = 1.0  # percent
MAPPING_ENV_VAR = "CODECBENCH_STAGE_MAP"

TIMING_CSV_HEADER = (
    "codec", "sequence", "qp", "wall_seconds", "frame_count", "fps_num", "fps_den",
)


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
            f"content durations differ: {a.duration:g}s vs {b.duration:g}s"
        )
    return time_factor(a) / time_factor(b)


@dataclass(frozen=True)
class FunctionCost:
    name: str
    self_cost: int


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


def parse_callgrind(source, event: str | None = None) -> list[FunctionCost]:
    """Accumulate per-function self cost from a Callgrind output file.

    Handles string compression (`fn=(id) name` defines, `fn=(id)` refers),
    subposition counts from the `positions:` header, omitted trailing
    event columns, and call records: the cost line following `calls=`
    carries inclusive call cost and is excluded from the caller's self
    cost. Functions split across several source files merge by name.
    Format errors in a file opened from a path name the file; errors on a
    caller's stream keep the bare `line N: ...` message.
    """
    if not isinstance(source, (str, bytes, os.PathLike)):
        return _parse_callgrind_lines(source, event)
    with open_input(source) as fp:
        try:
            return _parse_callgrind_lines(fp, event)
        except DataFormatError as exc:
            raise DataFormatError(f"{os.fsdecode(source)}: {exc}") from None


def _parse_callgrind_lines(lines, event):
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

    for lineno, line in enumerate(lines, start=1):
        # Most lines of a profile are cost lines: test for them first, on
        # the raw line, and split only as far as the selected event.
        if line[:1] in _COST_START:
            if skip_next_cost:
                skip_next_cost = False
                continue
            if events is None:
                raise DataFormatError(
                    f"line {lineno}: cost line before an 'events:' header"
                )
            if current_fn is None:
                raise DataFormatError(f"line {lineno}: cost line before any fn=")
            tokens = line.split(None, idx + 1)
            # Trailing zero event counts may be omitted.
            if idx < len(tokens):
                try:
                    value = int(tokens[idx])
                except ValueError:
                    raise DataFormatError(
                        f"line {lineno}: non-numeric cost {tokens[idx]!r}"
                    ) from None
                if value < 0:
                    raise DataFormatError(f"line {lineno}: negative cost {value}")
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
                name = table.get(value) or _define_or_resolve(table, value, lineno)
                if key == "fn":
                    if current_fn is not None:
                        costs[current_fn] = costs.get(current_fn, 0) + block
                    current_fn, block = name, 0
                continue
            if key == "calls":
                skip_next_cost = True
                continue
            if _WORD.fullmatch(key):
                # Remaining specification keys (jump targets etc.) carry no self cost.
                continue

        key, sep, value = line.partition(":")
        if sep and _WORD.fullmatch(key):
            if key == "events":
                events = value.split()
                if not events:
                    raise DataFormatError(f"line {lineno}: empty events header")
                if event is not None:
                    if event not in events:
                        raise DataFormatError(
                            f"line {lineno}: event {event!r} not declared "
                            f"(events: {' '.join(events)})"
                        )
                    event_index = events.index(event)
            elif key == "positions":
                n_positions = max(1, len(value.split()))
            idx = n_positions + event_index
            continue

        raise DataFormatError(f"line {lineno}: unrecognized line {line[:60]!r}")

    if events is None:
        raise DataFormatError("missing 'events:' header")
    if current_fn is not None:
        costs[current_fn] = costs.get(current_fn, 0) + block
    return [
        FunctionCost(name, cost)
        for name, cost in sorted(costs.items(), key=lambda kv: (-kv[1], kv[0]))
    ]


def _define_or_resolve(table: dict[str, str], value: str, lineno: int) -> str:
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
        raise DataFormatError(f"line {lineno}: undefined name id ({num})")
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
    totals: dict[str, int]
    percentages: dict[str, float]
    other_bucket: tuple[str, ...]
    total_cost: int


def aggregate_stages(
    costs, mapping: StageMapping, bucket_threshold: float = BUCKET_THRESHOLD
) -> StageProfile:
    """Fold function costs into named stages with percentages of the total.

    Stages below the threshold are merged into "Other"; unmatched
    functions land there directly.
    """
    costs = list(costs)
    if not costs:
        raise InputError("empty cost list")
    total = sum(fc.self_cost for fc in costs)
    if total <= 0:
        raise InputError("total cost is zero")

    raw: dict[str, int] = {}
    for fc in costs:
        stage = mapping.stage_for(fc.name)
        raw[stage] = raw.get(stage, 0) + fc.self_cost

    folded: dict[str, int] = {}
    bucket = []
    for stage in sorted(raw):
        if stage == OTHER_STAGE:
            continue
        percent = 100.0 * raw[stage] / total
        if percent < bucket_threshold:
            bucket.append(stage)
            folded[OTHER_STAGE] = folded.get(OTHER_STAGE, 0) + raw[stage]
        else:
            folded[stage] = raw[stage]
    if OTHER_STAGE in raw:
        folded[OTHER_STAGE] = folded.get(OTHER_STAGE, 0) + raw[OTHER_STAGE]

    percentages = {s: 100.0 * c / total for s, c in folded.items()}
    return StageProfile(
        totals=folded,
        percentages=percentages,
        other_bucket=tuple(bucket),
        total_cost=total,
    )


def parse_mapping(text: str, origin: str = "<mapping>") -> StageMapping:
    """Parse `pattern -> stage` lines; `#` starts a full-line comment."""
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pattern, sep, stage = line.partition("->")
        if not sep:
            raise DataFormatError(
                f"{origin}:{lineno}: expected 'pattern -> stage', got {line!r}"
            )
        pattern = pattern.strip()
        stage = stage.strip()
        if not pattern or not stage:
            raise DataFormatError(
                f"{origin}:{lineno}: empty pattern or stage in {line!r}"
            )
        rules.append((pattern, stage))
    return StageMapping(rules=tuple(rules))


def load_mapping(path) -> StageMapping:
    with open_input(path) as fp:
        return parse_mapping(fp.read(), origin=str(path))


def default_mapping() -> StageMapping:
    """Built-in codec stage taxonomy; copy the packaged file to customize."""
    text = (
        resources.files("codecbench")
        .joinpath("data/default_stage_map.txt")
        .read_text(encoding="utf-8")
    )
    return parse_mapping(text, origin="default_stage_map.txt")


def load_timing_csv(path) -> list[TimingRecord]:
    records = []
    with read_csv(path, TIMING_CSV_HEADER) as (header, rows):
        pick = itemgetter(*map(header.index, TIMING_CSV_HEADER))
        for lineno, cells in rows:
            codec, sequence, qp, wall, frames, fps_num, fps_den = pick(cells)
            cell = partial(read_number, path, lineno)
            try:
                records.append(TimingRecord(
                    codec, sequence, cell("qp", qp, int), cell("wall_seconds", wall),
                    cell("frame_count", frames, int), cell("fps_num", fps_num, int),
                    cell("fps_den", fps_den, int),
                ))
            except InputError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return records
