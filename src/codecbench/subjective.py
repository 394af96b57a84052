"""Subjective score panels: MOS, confidence intervals, outlier screening
and one-way ANOVA.

The confidence interval is 1.95 * stddev / sqrt(N) with a population
stddev (squared deviations, divided by N). The 1.95 multiplier is the
default and can be overridden (e.g. 1.96 for an exact 95% interval).
Screening is a single pass: each subject is correlated against the
all-subjects MOS vector and retained when min(Pearson, Spearman)
reaches the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DataFormatError, InputError, StatsError
from .report import read_csv, read_number

CI_CONSTANT = 1.95
SCREENING_THRESHOLD = 0.75
FACTORS = ("codec", "resolution", "bitrate", "content")
PVS_CSV_HEADER = ("pvs", "codec", "resolution", "bitrate_kbps", "content")


@dataclass(frozen=True)
class StimulusInfo:
    """Factor annotations of one processed video sequence (PVS)."""

    codec: str
    resolution: str
    bitrate_kbps: float
    content: str

    def level(self, factor: str):
        if factor == "bitrate":
            return self.bitrate_kbps
        if factor not in FACTORS:
            raise StatsError(f"unknown factor {factor!r}; expected one of {FACTORS}")
        return getattr(self, factor)


@dataclass(eq=False)
class ScoreMatrix:
    """Subjects x stimuli grid of raw scores on [0, 100]; NaN marks missing.

    Each stimulus's MOS is memoised on first use, so edit `scores` before
    taking any MOS from the matrix, or build a new matrix.
    """

    subjects: tuple[str, ...]
    stimuli: tuple[str, ...]
    scores: np.ndarray
    meta: dict[str, StimulusInfo] | None = None

    def __post_init__(self):
        self.subjects = tuple(self.subjects)
        self.stimuli = tuple(self.stimuli)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.subjects), len(self.stimuli)):
            raise DataFormatError(
                f"score grid {self.scores.shape} does not match "
                f"{len(self.subjects)} subjects x {len(self.stimuli)} stimuli"
            )
        # nan (missing) compares false both ways.
        if np.any((self.scores < 0) | (self.scores > 100)):
            raise DataFormatError("scores must lie in [0, 100]")
        # Column of each stimulus; the first occurrence wins, as with index().
        self._column_of = {}
        for i, stimulus in enumerate(self.stimuli):
            self._column_of.setdefault(stimulus, i)
        self._mos_of = {}

    def column(self, stimulus: str) -> np.ndarray:
        """Present (non-missing) scores for one stimulus."""
        try:
            idx = self._column_of[stimulus]
        except KeyError:
            raise InputError(f"unknown stimulus {stimulus!r}") from None
        col = self.scores[:, idx]
        return col[~np.isnan(col)]

    def with_subjects(self, keep: list[str]) -> "ScoreMatrix":
        rows = [self.subjects.index(s) for s in keep]
        return ScoreMatrix(
            subjects=tuple(keep),
            stimuli=self.stimuli,
            scores=self.scores[rows, :].copy(),
            meta=self.meta,
        )

    def without_stimuli(self, drop) -> "ScoreMatrix":
        drop = set(drop)
        keep = [i for i, s in enumerate(self.stimuli) if s not in drop]
        return ScoreMatrix(
            subjects=self.subjects,
            stimuli=tuple(self.stimuli[i] for i in keep),
            scores=self.scores[:, keep].copy(),
            meta=self.meta,
        )


@dataclass(frozen=True)
class MosPoint:
    stimulus: str
    mos: float
    ci95: float
    n: int


@dataclass(frozen=True)
class SubjectScreen:
    subject: str
    pearson: float
    spearman: float
    retained: bool
    note: str = ""


@dataclass(frozen=True)
class ScreeningResult:
    threshold: float
    subjects: tuple[SubjectScreen, ...]
    discarded: tuple[str, ...]


@dataclass(frozen=True)
class AnovaResult:
    factor: str
    df_between: int
    df_within: int
    f_stat: float
    p_value: float


def mos(matrix: ScoreMatrix, stimulus: str) -> float:
    """Mean opinion score over present scores for one stimulus."""
    # Each MOS point and every ANOVA factor read the same per-stimulus MOS.
    value = matrix._mos_of.get(stimulus)
    if value is None:
        value = matrix._mos_of[stimulus] = _column_mos(
            matrix.column(stimulus), stimulus
        )
    return value


def ci95(matrix: ScoreMatrix, stimulus: str, constant: float = CI_CONSTANT) -> float:
    """Half-width of the confidence interval around the MOS."""
    return _column_ci95(matrix.column(stimulus), stimulus, constant)


def mos_point(matrix: ScoreMatrix, stimulus: str, constant: float = CI_CONSTANT) -> MosPoint:
    col = matrix.column(stimulus)
    return MosPoint(
        stimulus=stimulus,
        mos=mos(matrix, stimulus),
        ci95=_column_ci95(col, stimulus, constant),
        n=int(col.size),
    )


def _column_mos(col: np.ndarray, stimulus: str) -> float:
    if col.size == 0:
        raise StatsError(f"stimulus {stimulus!r} has no scores")
    return float(np.mean(col))


def _column_ci95(col: np.ndarray, stimulus: str, constant: float) -> float:
    if col.size < 2:
        raise StatsError(
            f"stimulus {stimulus!r} needs at least 2 scores for a CI, "
            f"got {col.size}"
        )
    mean = float(np.mean(col))
    delta = math.sqrt(float(np.mean((col - mean) ** 2)))
    return constant * delta / math.sqrt(col.size)


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError(f"correlation inputs differ in length: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise StatsError("correlation needs at least 2 samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0 or sy == 0:
        raise StatsError("correlation undefined for constant input")
    return float(dx @ dy) / (sx * sy)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties receive the average of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inverse]


def spearman(x, y) -> float:
    """Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise StatsError(f"correlation inputs differ in length: {x.shape} vs {y.shape}")
    return pearson(_ranks(x), _ranks(y))


def screen_subjects(
    matrix: ScoreMatrix, threshold: float = SCREENING_THRESHOLD
) -> tuple[ScreeningResult, ScoreMatrix]:
    """Discard subjects whose min(Pearson, Spearman) against the MOS is low.

    The MOS reference is computed once over all subjects; each subject is
    correlated on the stimuli they actually scored. Subjects with constant
    scores (or too few) cannot be correlated and are treated as -1,
    flagged rather than aborting the screening. A threshold that no
    subject reaches is an error, since nothing would be left to analyse.
    """
    if len(matrix.subjects) < 3:
        raise StatsError(f"screening needs >= 3 subjects, got {len(matrix.subjects)}")
    if len(matrix.stimuli) < 3:
        raise StatsError(f"screening needs >= 3 stimuli, got {len(matrix.stimuli)}")

    mos_vector = np.empty(len(matrix.stimuli), dtype=np.float64)
    for j, stimulus in enumerate(matrix.stimuli):
        mos_vector[j] = mos(matrix, stimulus)

    screens = []
    for i, subject in enumerate(matrix.subjects):
        row = matrix.scores[i, :]
        present = ~np.isnan(row)
        xs = row[present]
        ys = mos_vector[present]
        note = ""
        if xs.size < 2:
            p = s = -1.0
            note = "fewer than 2 scored stimuli"
        elif np.ptp(xs) == 0:
            p = s = -1.0
            note = "constant scores"
        elif np.ptp(ys) == 0:
            p = s = -1.0
            note = "constant MOS reference"
        else:
            p = pearson(xs, ys)
            s = spearman(xs, ys)
        screens.append(
            SubjectScreen(
                subject=subject,
                pearson=p,
                spearman=s,
                retained=min(p, s) >= threshold,
                note=note,
            )
        )

    retained = [s.subject for s in screens if s.retained]
    if not retained:
        raise StatsError(
            f"no subject reached the screening threshold {threshold:g}; "
            f"all {len(screens)} subjects would be discarded"
        )
    discarded = tuple(s.subject for s in screens if not s.retained)
    result = ScreeningResult(
        threshold=threshold, subjects=tuple(screens), discarded=discarded
    )
    return result, matrix.with_subjects(retained)


def anova_oneway(matrix: ScoreMatrix, factor: str) -> AnovaResult:
    """Classical one-way ANOVA of per-stimulus MOS grouped by a factor.

    Observations are the MOS values of the matrix's stimuli; the factor
    level of each stimulus comes from the attached metadata.
    """
    if factor not in FACTORS:
        raise StatsError(f"unknown factor {factor!r}; expected one of {FACTORS}")
    if matrix.meta is None:
        raise InputError("score matrix carries no stimulus metadata")

    groups: dict[object, list[float]] = {}
    for stimulus in matrix.stimuli:
        info = matrix.meta.get(stimulus)
        if info is None:
            raise InputError(f"no metadata for stimulus {stimulus!r}")
        groups.setdefault(info.level(factor), []).append(mos(matrix, stimulus))

    k = len(groups)
    if k < 2:
        raise StatsError(f"factor {factor!r} has fewer than 2 levels")
    for level, values in groups.items():
        if len(values) < 2:
            raise StatsError(
                f"factor {factor!r} level {level!r} has fewer than 2 observations"
            )

    observations = [v for values in groups.values() for v in values]
    n = len(observations)
    grand = sum(observations) / n
    means = [sum(v) / len(v) for v in groups.values()]
    ssb = sum(len(v) * (m - grand) ** 2 for v, m in zip(groups.values(), means))
    ssw = sum((x - m) ** 2 for v, m in zip(groups.values(), means) for x in v)
    df_between = k - 1
    df_within = n - k
    msw = ssw / df_within
    if msw == 0:
        f_stat = 0.0 if ssb == 0 else math.inf
    else:
        f_stat = (ssb / df_between) / msw
    return AnovaResult(
        factor=factor,
        df_between=df_between,
        df_within=df_within,
        f_stat=f_stat,
        p_value=f_survival(f_stat, df_between, df_within),
    )


def f_survival(f_stat: float, df1: int, df2: int) -> float:
    """P(F > f) for the F distribution with (df1, df2) degrees of freedom.

    This is the regularized incomplete beta I_x(df2/2, df1/2) at
    x = df2 / (df2 + df1 f), evaluated by the continued fraction of
    Numerical Recipes' betacf (modified Lentz), on the side of the mean
    where it converges fast. Its front factor x^a (1-x)^b / B(a, b) is
    taken as in TOMS 708 (DiDonato & Morris), with Stirling corrections in
    place of ln Gamma differences that would cancel at large arguments.
    """
    if df1 < 1 or df2 < 1:
        raise StatsError(f"invalid degrees of freedom ({df1}, {df2})")
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    if x in (0.0, 1.0):  # F infinite, or negligible against df2 / df1
        return x
    a, b = df2 / 2.0, df1 / 2.0
    y = 1.0 - x
    front = math.exp(_log_beta_front(a, b, x, y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2n / (2n (2n - 1)): Stirling's series in 1/z^(2n-1), to ~1e-16 at z = 8.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _stirling_correction(z: float) -> float:
    """ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), for z >= 8."""
    w = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * w + c
    return acc / z


def _log_beta_front(a: float, b: float, x: float, y: float) -> float:
    """ln(x^a y^b / B(a, b)) for y = 1 - x.

    ln Gamma of a large argument carries an absolute error of ~1e-16 times
    its size, so no two of them are subtracted: arguments from 8 up enter
    through Stirling's series instead (TOMS 708 brcomp and algdiv).
    """
    p, q = min(a, b), max(a, b)
    if p >= 8:
        # Expanded around the peak x0 = a / (a + b), where lam = 0.
        lam = a - (a + b) * x if x < y else (a + b) * y - b
        return (a * _log_ratio(x, a / (a + b), -lam / a)
                + b * _log_ratio(y, b / (a + b), lam / b)
                + 0.5 * math.log(a * b / (a + b)) - _HALF_LN_2PI
                - _stirling_correction(a) - _stirling_correction(b)
                + _stirling_correction(a + b))
    log_powers = a * math.log(x) + b * math.log1p(-x)
    if q < 8:
        return log_powers - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)
    # ln Gamma(q) - ln Gamma(p + q), from the series at q and p + q.
    log_ratio = (_stirling_correction(q) - _stirling_correction(p + q)
                 - (q - 0.5) * math.log1p(p / q) - p * math.log(p + q) + p)
    return log_powers - math.lgamma(p) - log_ratio


def _log_ratio(x: float, x0: float, e: float) -> float:
    """ln(x / x0) where x / x0 = 1 + e."""
    return math.log1p(e) if abs(e) <= 0.5 else math.log(x / x0)


# Terms of the continued fraction before giving up: it needs on the order
# of sqrt(max(a, b)), fewer than 60 for d2 up to 5000.
_FRACTION_TERMS = 10_000
_TINY = 1e-300
_EPSILON = 2.0 ** -52


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) a B(a, b) / (x^a (1-x)^b),
    for x below (a + 1) / (a + b + 2), by the modified Lentz method."""
    c = 1.0
    d = 1.0 / ((1.0 - (a + b) * x / (a + 1.0)) or _TINY)
    h = d
    for m in range(1, _FRACTION_TERMS):
        # The even then the odd term of the fraction.
        for term in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 / ((1.0 + term * d) or _TINY)
            c = (1.0 + term / c) or _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPSILON:
            return h
    raise StatsError(f"incomplete beta did not converge for a={a:g}, b={b:g}, x={x!r}")


def load_scores_csv(path) -> ScoreMatrix:
    """Read a subjects x stimuli score grid.

    First column is `subject`, remaining columns are PVS ids; empty cells
    mark missing scores. Each row is checked and turned into numbers as
    it is read, so only the numeric grid is held.
    """
    with read_csv(path) as (header, rows):
        if header[0].lower() != "subject":
            raise DataFormatError(f"{path}: first column must be 'subject'")
        stimuli = header[1:]
        if len(set(stimuli)) != len(stimuli):
            raise DataFormatError(f"{path}: duplicate stimulus columns")
        subjects, grid = {}, []  # subjects: an ordered set, as dict keys
        for lineno, cells in rows:
            if cells[0] in subjects:
                raise DataFormatError(f"{path}: duplicate subject ids")
            subjects[cells[0]] = None
            grid.append(_score_row(path, lineno, stimuli, cells[1:]))
    scores = np.array(grid, dtype=np.float64).reshape(len(grid), len(stimuli))
    return ScoreMatrix(subjects=tuple(subjects), stimuli=tuple(stimuli), scores=scores)


def _score_row(path, lineno, stimuli, cells) -> np.ndarray:
    """One row of scores; a cell that is not a finite number in [0, 100]
    is a format error naming its line and stimulus."""
    # One float() pass; only a failing row is re-read to name its cell.
    try:
        row = np.array([float(c) if c else math.nan for c in cells], dtype=np.float64)
    except ValueError:
        for column, text in zip(stimuli, cells):
            if text:
                read_number(path, lineno, column, text)
    # Missing cells are nan too: only a non-empty cell outside [0, 100] is bad.
    for j in np.flatnonzero(~((row >= 0) & (row <= 100))):
        if cells[j]:
            value = read_number(path, lineno, stimuli[j], cells[j])
            raise DataFormatError(
                f"{path}:{lineno}: score {value:g} for {stimuli[j]!r} outside [0, 100]"
            )
    return row


def load_pvs_csv(path) -> dict[str, StimulusInfo]:
    """Read PVS metadata: pvs,codec,resolution,bitrate_kbps,content."""
    meta: dict[str, StimulusInfo] = {}
    with read_csv(path, PVS_CSV_HEADER) as (header, rows):
        pick = itemgetter(*map(header.index, PVS_CSV_HEADER))
        for lineno, cells in rows:
            pvs, codec, resolution, bitrate, content = pick(cells)
            if pvs in meta:
                raise DataFormatError(f"{path}:{lineno}: duplicate PVS id {pvs!r}")
            bitrate_kbps = read_number(path, lineno, "bitrate_kbps", bitrate)
            meta[pvs] = StimulusInfo(codec, resolution, bitrate_kbps, content)
    return meta
