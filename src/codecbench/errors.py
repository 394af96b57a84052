"""Exception hierarchy shared by all codecbench modules.

Two branches matter for the CLI: InputError maps to exit code 2
(bad arguments, mismatched or insufficient inputs) and DataFormatError
maps to exit code 3 (malformed files); within a branch the message tells
errors apart. A class stays only where a handler must catch it apart
from its branch, as `mos` catches StatsError to skip one ANOVA factor.
"""


class CodecBenchError(Exception):
    pass


class InputError(CodecBenchError):
    """User or input-data problem (CLI exit code 2)."""


class DataFormatError(CodecBenchError):
    """Malformed file contents (CLI exit code 3)."""


class StatsError(InputError):
    """Statistical operation precondition violated."""
