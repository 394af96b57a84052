import math
import re
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import f as f_distribution
from scipy.stats import rankdata

from codecbench.errors import DataFormatError, InputError, StatsError
from codecbench.subjective import (
    FACTORS,
    MosPoint,
    ScoreMatrix,
    StimulusInfo,
    anova_oneway,
    f_survival,
    load_pvs_csv,
    load_scores_csv,
    mos_point,
    mos_rows,
    pearson,
    screen_subjects,
    spearman,
)


def matrix_from(scores, meta=None, subjects=None, stimuli=None):
    scores = np.asarray(scores, dtype=np.float64)
    subjects = subjects or tuple(f"s{i}" for i in range(scores.shape[0]))
    stimuli = stimuli or tuple(f"p{j}" for j in range(scores.shape[1]))
    return ScoreMatrix(subjects=subjects, stimuli=stimuli, scores=scores, meta=meta)


def f_sf_numeric(f_stat, d1, d2):
    """Survival probability by numeric integration of the F density."""
    ln_beta = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)

    def pdf(x):
        ln = (
            0.5 * (d1 * math.log(d1 * x) + d2 * math.log(d2))
            - 0.5 * (d1 + d2) * math.log(d1 * x + d2)
            - math.log(x)
            - ln_beta
        )
        return math.exp(ln)

    value, _ = quad(pdf, f_stat, np.inf, limit=400)
    return value


def annotate(stimuli):
    return {
        pvs: StimulusInfo(codec=f"c{j % 2}", resolution="HD",
                          bitrate_kbps=float(j + 1), content=f"t{j}")
        for j, pvs in enumerate(stimuli)
    }


class TestImmutableMatrix:
    @pytest.mark.parametrize("scores,subjects,message", [
        ([[60.0, 70.0], [80.0, 90.0]], ("a",),
         "score grid (2, 2) does not match 1 subjects x 2 stimuli"),
        ([[60.0, 101.0]], None, "scores must lie in [0, 100]"),
    ], ids=["grid_shape", "score_101"])
    def test_scores_checked(self, scores, subjects, message):
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            matrix_from(scores, subjects=subjects)

    def test_attributes_cannot_be_assigned(self):
        m = matrix_from([[60.0, 70.0]])
        for name, value in [("meta", {}), ("scores", np.zeros((1, 2))),
                            ("subjects", ("x",))]:
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, value)

    def test_scores_are_read_only(self):
        m = matrix_from([[60.0, 70.0]])
        with pytest.raises(ValueError, match="read-only"):
            m.scores[0, 0] = 10.0
        assert not m.scores.flags.writeable

    def test_callers_array_neither_aliased_nor_frozen(self):
        scores = np.array([[60.0, 70.0], [80.0, 90.0]])
        m = matrix_from(scores)
        assert mos_point(m, "p0").mos == 70.0
        assert scores.flags.writeable
        assert not np.shares_memory(m.scores, scores)
        scores[0, 0] = 0.0
        assert m.scores[0, 0] == 60.0
        assert mos_point(m, "p0").mos == 70.0

    def test_read_only_array_kept(self):
        scores = np.array([[60.0, 70.0]])
        scores.flags.writeable = False
        assert matrix_from(scores).scores is scores

    def test_loaded_grid_is_read_only(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject,p1,p2\nalice,50,60\nbob,,70\n")
        assert not load_scores_csv(path).scores.flags.writeable

    def test_derived_matrices_keep_meta(self):
        stimuli = ("p0", "p1", "p2")
        meta = annotate(stimuli)
        m = matrix_from([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]],
                        meta=meta, stimuli=stimuli)
        fewer_subjects = m.with_subjects(["s1"])
        assert fewer_subjects.meta is meta
        assert fewer_subjects.scores.tolist() == [[40.0, 50.0, 60.0]]
        assert not fewer_subjects.scores.flags.writeable
        fewer_stimuli = m.without_stimuli(["p1"])
        assert fewer_stimuli.meta is meta
        assert fewer_stimuli.stimuli == ("p0", "p2")
        assert fewer_stimuli.scores.tolist() == [[10.0, 30.0], [40.0, 60.0]]
        assert m.scores.tolist() == [[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]

    @pytest.mark.parametrize("derive", [
        lambda m: m.with_subjects([s for i, s in enumerate(m.subjects) if i % 10]),
        lambda m: m.without_stimuli(m.stimuli[::10]),
    ], ids=["with_subjects", "without_stimuli"])
    def test_derived_grid_copied_once(self, derive):
        """Deriving from a 150 x 2000 panel holds one copy of the subset."""
        rng = np.random.default_rng(3)
        scores = rng.integers(0, 101, size=(150, 2000)).astype(np.float64)
        scores[rng.random(scores.shape) < 0.02] = math.nan
        m = matrix_from(scores)
        tracemalloc.start()
        try:
            derived = derive(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert derived.scores.shape in ((135, 2000), (150, 1800))
        assert peak <= 1.5 * derived.scores.nbytes

    def test_unknown_subject(self):
        m = matrix_from([[60, 70], [80, 90]])
        with pytest.raises(InputError, match="^unknown subject 's9'$"):
            m.with_subjects(["s0", "s9"])

    def test_unknown_stimulus(self):
        m = matrix_from([[60, 70, 80], [80, 90, 70]])
        with pytest.raises(InputError, match="^unknown stimulus 'p9'$"):
            m.without_stimuli(["p1", "p9"])

    def test_repeated_subject_rejected(self):
        with pytest.raises(InputError, match="^repeated subject id 'a'$"):
            matrix_from([[20, 90], [20, 80], [20, 70]], subjects=("a", "b", "a"))

    def test_derived_repeated_id_rejected(self):
        m = matrix_from([[60, 70], [80, 90]], subjects=("a", "b"))
        with pytest.raises(InputError, match="^repeated subject id 'a'$"):
            m.with_subjects(["a", "a"])
        with pytest.raises(InputError, match="^repeated stimulus id 'p0'$"):
            replace(m, stimuli=("p0", "p0"))

    def test_partial_metadata_lists_every_missing_id(self):
        stimuli = ("p0", "p1", "p2", "p3")
        meta = annotate(("p1", "p3"))
        with pytest.raises(InputError, match="^no metadata for PVS ids: p0, p2$"):
            matrix_from([[1.0, 2.0, 3.0, 4.0]], meta=meta, stimuli=stimuli)
        m = matrix_from([[1.0, 2.0, 3.0, 4.0]], stimuli=stimuli)
        with pytest.raises(InputError, match="^no metadata for PVS ids: p0, p2$"):
            replace(m, meta=meta)
        assert m.without_stimuli(["p0", "p2"]).meta is None

    def test_replace_binds_metadata(self):
        stimuli = ("p0", "p1", "p2", "p3")
        m = matrix_from([[10.0, 20.0, 30.0, 40.0]], stimuli=stimuli)
        annotated = replace(m, meta=annotate(stimuli))
        assert annotated.scores is m.scores
        assert anova_oneway(annotated, "codec").df_between == 1


class TestMos:
    def test_mean(self):
        m = matrix_from([[60], [70], [80]])
        assert mos_point(m, "p0").mos == 70.0

    def test_single_score(self):
        m = matrix_from([[42.5]])
        message = "^stimulus 'p0' needs at least 2 scores for a CI, got 1$"
        with pytest.raises(StatsError, match=message):
            mos_point(m, "p0")

    def test_four_scores(self):
        m = matrix_from([[60], [70], [80], [90]])
        assert mos_point(m, "p0").mos == 75.0

    def test_ignores_missing(self):
        m = matrix_from([[60], [math.nan], [80]])
        assert mos_point(m, "p0").mos == 70.0

    def test_empty_column(self):
        m = matrix_from([[math.nan], [math.nan]])
        with pytest.raises(StatsError, match="^stimulus 'p0' has no scores$"):
            mos_point(m, "p0")


class TestColumn:
    def test_unknown_stimulus(self):
        m = matrix_from([[60, 70], [80, 90]])
        with pytest.raises(InputError, match="unknown stimulus 'p9'"):
            mos_point(m, "p9")

    def test_repeated_stimulus_rejected(self):
        # A repeated id would name only its first column.
        with pytest.raises(InputError, match="^repeated stimulus id 'a'$"):
            matrix_from([[60, 70, 10], [80, 90, 20]], stimuli=("a", "b", "a"))


class TestCi95:
    def test_constant_scores(self):
        m = matrix_from([[70], [70], [70]])
        assert mos_point(m, "p0").ci95 == 0.0

    def test_hand_value(self):
        m = matrix_from([[60], [70], [80], [90]])
        # population stddev sqrt(125), times 1.95 / sqrt(4)
        assert mos_point(m, "p0").ci95 == pytest.approx(10.9009, abs=1e-4)

    def test_two_level_scores(self):
        m = matrix_from([[50], [50], [100], [100]])
        assert mos_point(m, "p0").ci95 == pytest.approx(24.375, abs=1e-12)

    def test_needs_two_scores(self):
        m = matrix_from([[50], [math.nan]])
        with pytest.raises(StatsError, match="needs at least 2 scores for a CI, got 1$"):
            mos_point(m, "p0")

    def test_constant_override(self):
        m = matrix_from([[60], [70], [80], [90]])
        assert mos_point(m, "p0", constant=1.96).ci95 == pytest.approx(
            1.96 * math.sqrt(125) / 2, abs=1e-12
        )

    def test_scales_linearly_about_mean(self, rng):
        scores = rng.uniform(20, 80, 8)
        scaled = scores.mean() + 0.5 * (scores - scores.mean())
        m1 = matrix_from(scores.reshape(-1, 1))
        m2 = matrix_from(scaled.reshape(-1, 1))
        assert mos_point(m2, "p0").ci95 == pytest.approx(
            0.5 * mos_point(m1, "p0").ci95, abs=1e-12
        )

    def test_subject_permutation_invariant(self, rng):
        scores = rng.uniform(0, 100, 6)
        m1 = matrix_from(scores.reshape(-1, 1))
        m2 = matrix_from(scores[::-1].reshape(-1, 1))
        p1, p2 = mos_point(m1, "p0"), mos_point(m2, "p0")
        assert p1.mos == pytest.approx(p2.mos, abs=1e-12)
        assert p1.ci95 == pytest.approx(p2.ci95, abs=1e-12)

    def test_mos_point_bundles_n(self):
        m = matrix_from([[60], [70], [80], [90]])
        point = mos_point(m, "p0")
        assert (point.mos, point.n) == (75.0, 4)
        assert point.ci95 == pytest.approx(10.9009, abs=1e-4)

    def test_overflowing_half_width_names_the_stimulus(self):
        m = matrix_from([[60], [70], [80], [90]])
        with pytest.raises(InputError, match="^stimulus 'p0': CI half-width overflows"):
            mos_point(m, "p0", constant=1e308)


class TestMosRows:
    META = {"p0": StimulusInfo("HM", "HD", 1000.0, "A"),
            "p1": StimulusInfo("VTM", "UHD", 650.0, "A")}

    def test_point_then_rd_keys(self):
        m = matrix_from([[60, 10], [70, 20], [80, 30], [90, 40]], meta=self.META)
        rows = mos_rows(m, constant=1.96)
        for row, stimulus in zip(rows, m.stimuli):
            point = mos_point(m, stimulus, constant=1.96)
            assert [row[k] for k in ("pvs", "mos", "ci95", "n")] == [
                stimulus, point.mos, point.ci95, point.n]
            assert (row["metric"], row["label"], row["quality"]) == ("MOS", stimulus, point.mos)
        assert [(r["codec"], r["sequence"], r["bitrate_kbps"]) for r in rows] == [
            ("HM", "A@HD", 1000.0), ("VTM", "A@UHD", 650.0)]

    def test_matrix_without_metadata(self):
        with pytest.raises(InputError, match="^score matrix carries no stimulus metadata$"):
            mos_rows(matrix_from([[50.0, 60.0], [55.0, 65.0]]))


@pytest.mark.parametrize("bitrate", [0.0, -1.0, math.nan])
def test_stimulus_bitrate_must_be_positive(bitrate):
    with pytest.raises(InputError, match="^bitrate_kbps must be positive, got "):
        StimulusInfo("HM", "HD", bitrate, "A")


class TestCorrelations:
    def test_pearson_affine(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [2 * v + 3 for v in x]
        assert pearson(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_negation(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_pearson_constant_rejected(self):
        with pytest.raises(StatsError):
            pearson([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("fn,x,y,message", [
        (pearson, [1, 2, 3], [1, 2], "correlation inputs differ in length: (3,) vs (2,)"),
        (pearson, [1], [2], "correlation needs at least 2 samples"),
        (spearman, [1, 2, 3], [1, 2], "correlation inputs differ in length: (3,) vs (2,)"),
    ], ids=["pearson_lengths", "pearson_one_sample", "spearman_lengths"])
    def test_inputs_checked(self, fn, x, y, message):
        with pytest.raises(StatsError, match=f"^{re.escape(message)}$"):
            fn(x, y)

    def test_pearson_affine_invariance(self, rng):
        x = rng.uniform(0, 100, 12)
        y = rng.uniform(0, 100, 12)
        base = pearson(x, y)
        assert pearson(3 * x + 7, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.1 * y - 4) == pytest.approx(base, abs=1e-12)

    def test_spearman_monotone(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [math.exp(v) for v in x]
        assert spearman(x, y) == pytest.approx(1.0, abs=1e-12)

    def test_spearman_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_spearman_ties_average_ranks(self):
        # y = (9, 9, 1) ranks to (2.5, 2.5, 1)
        assert spearman([1, 2, 3], [9, 9, 1]) == pytest.approx(
            pearson([1, 2, 3], [2.5, 2.5, 1.0]), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=40)
    )
    def test_spearman_is_pearson_of_rankdata_on_ties(self, pairs):
        x = np.array([p[0] for p in pairs], dtype=np.float64)
        y = np.array([p[1] for p in pairs], dtype=np.float64)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            with pytest.raises(StatsError):
                spearman(x, y)
            return
        assert spearman(x, y) == pearson(rankdata(x), rankdata(y))

    def test_spearman_monotone_transform_invariance(self, rng):
        x = rng.uniform(0, 100, 10)
        y = rng.uniform(0, 100, 10)
        base = spearman(x, y)
        assert spearman(np.exp(x / 50), y) == pytest.approx(base, abs=1e-12)


def consistent_panel(n_subjects=10, n_stimuli=5, reversed_subjects=()):
    """Subjects score an increasing pattern, offset per subject; reversed
    subjects grade it backwards."""
    base = np.linspace(20, 80, n_stimuli)
    rows = []
    names = []
    for i in range(n_subjects):
        name = f"s{i}"
        names.append(name)
        if name in reversed_subjects:
            rows.append(100 - base)
        else:
            rows.append(base + i)
    return matrix_from(np.array(rows), subjects=tuple(names))


class TestScreening:
    def test_all_consistent_retained(self):
        result, filtered = screen_subjects(consistent_panel())
        assert result.discarded == ()
        assert len(filtered.subjects) == 10
        assert all(s.retained and s.pearson > 0.99 for s in result.subjects)

    def test_reversed_subject_discarded(self):
        result, filtered = screen_subjects(
            consistent_panel(reversed_subjects=("s7",))
        )
        assert result.discarded == ("s7",)
        assert "s7" not in filtered.subjects
        screen = {s.subject: s for s in result.subjects}["s7"]
        assert min(screen.pearson, screen.spearman) == pytest.approx(-1.0, abs=1e-9)

    def test_constant_subject_flagged_not_fatal(self):
        scores = consistent_panel(n_subjects=5).scores.copy()
        scores[2, :] = 50.0
        result, filtered = screen_subjects(matrix_from(scores))
        screen = {s.subject: s for s in result.subjects}["s2"]
        assert screen.pearson == -1.0 and screen.note == "constant scores"
        assert "s2" in result.discarded
        assert "s2" not in filtered.subjects

    def test_threshold_is_min_of_both(self):
        result, _ = screen_subjects(consistent_panel(), threshold=0.75)
        for s in result.subjects:
            assert s.retained == (min(s.pearson, s.spearman) >= 0.75)

    def test_idempotent_on_consistent_panel(self):
        panel = consistent_panel(reversed_subjects=("s3",))
        first, filtered = screen_subjects(panel)
        second, refiltered = screen_subjects(filtered)
        assert second.discarded == ()
        assert refiltered.subjects == filtered.subjects

    def test_no_subject_retained_is_an_error(self):
        panel = matrix_from(
            np.array([[10.0, 50.0, 90.0], [20.0, 40.0, 95.0], [90.0, 50.0, 10.0]]),
            subjects=("a", "b", "c"),
        )
        with pytest.raises(StatsError, match="no subject reached the screening threshold 1"):
            screen_subjects(panel, threshold=1.0)

    def test_minimum_panel_size(self):
        with pytest.raises(StatsError):
            screen_subjects(consistent_panel(n_subjects=2))
        with pytest.raises(StatsError):
            screen_subjects(consistent_panel(n_stimuli=2))


def two_group_matrix(group_a, group_b, factor="codec"):
    """One subject row per observation spread over per-group stimuli."""
    n = len(group_a) + len(group_b)
    scores = np.full((1, n), math.nan)
    meta = {}
    stimuli = []
    values = list(group_a) + list(group_b)
    for j, value in enumerate(values):
        pvs = f"p{j}"
        stimuli.append(pvs)
        scores[0, j] = value
        side = "A" if j < len(group_a) else "B"
        meta[pvs] = StimulusInfo(
            codec=side, resolution="HD", bitrate_kbps=1000 + j, content=f"c{j}"
        )
    return matrix_from(scores, meta=meta, stimuli=tuple(stimuli), subjects=("s0",))


class TestAnova:
    def test_equal_groups(self):
        m = two_group_matrix([1, 2, 3], [1, 2, 3])
        result = anova_oneway(m, "codec")
        assert result.f_stat == 0.0
        assert result.p_value == 1.0

    def test_hand_computed_groups(self):
        m = two_group_matrix([10, 12, 14], [20, 22, 24])
        result = anova_oneway(m, "codec")
        assert result.f_stat == pytest.approx(37.5, abs=1e-9)
        assert (result.df_between, result.df_within) == (1, 4)
        assert result.p_value == pytest.approx(0.00364, abs=1e-4)
        assert result.p_value == pytest.approx(f_sf_numeric(37.5, 1, 4), abs=1e-10)

    def test_duplicated_groups_f_zero(self, rng):
        values = list(rng.uniform(10, 90, 4))
        n = 3 * len(values)
        scores = np.array(values * 3).reshape(1, n)
        meta = {}
        stimuli = []
        for j in range(n):
            pvs = f"p{j}"
            stimuli.append(pvs)
            meta[pvs] = StimulusInfo(
                codec=f"g{j // len(values)}", resolution="HD",
                bitrate_kbps=100 + j, content=f"c{j}",
            )
        m = matrix_from(scores, meta=meta, stimuli=tuple(stimuli), subjects=("s0",))
        result = anova_oneway(m, "codec")
        assert result.f_stat == pytest.approx(0.0, abs=1e-20)
        assert result.p_value == 1.0

    def test_two_group_f_equals_t_squared(self, rng):
        for _ in range(20):
            a = rng.uniform(0, 100, int(rng.integers(3, 8)))
            b = rng.uniform(0, 100, int(rng.integers(3, 8)))
            result = anova_oneway(two_group_matrix(a, b), "codec")
            n1, n2 = len(a), len(b)
            sp2 = ((n1 - 1) * np.var(a, ddof=1) + (n2 - 1) * np.var(b, ddof=1)) / (
                n1 + n2 - 2
            )
            t = (a.mean() - b.mean()) / math.sqrt(sp2 * (1 / n1 + 1 / n2))
            assert result.f_stat == pytest.approx(t * t, abs=1e-9 * max(1.0, t * t))

    def test_degenerate_level(self):
        m = two_group_matrix([10, 12], [20])
        with pytest.raises(StatsError, match="fewer than 2 observations"):
            anova_oneway(m, "codec")

    def test_single_level(self):
        m = two_group_matrix([10, 12], [20, 22])
        with pytest.raises(StatsError, match="fewer than 2 levels"):
            anova_oneway(m, "resolution")

    def test_missing_metadata(self):
        with pytest.raises(InputError, match="^no metadata for PVS ids: p0, p1$"):
            matrix_from([[50.0, 60.0]], meta={})

    def test_matrix_without_metadata(self):
        with pytest.raises(InputError, match="carries no stimulus metadata"):
            anova_oneway(matrix_from([[50.0, 60.0]]), "codec")

    def test_unknown_factor(self):
        m = two_group_matrix([10, 12], [20, 22])
        with pytest.raises(StatsError) as exc:
            anova_oneway(m, "bogus")
        assert str(exc.value) == f"unknown factor 'bogus'; expected one of {FACTORS}"

    def test_mos_taken_once_per_stimulus(self, rng, monkeypatch):
        # Screening, MOS points at two CI constants and all four ANOVA
        # factors share one average of each stimulus's scores per matrix.
        scores = rng.uniform(0, 100, (6, 24))
        scores[rng.uniform(size=scores.shape) < 0.2] = math.nan
        stimuli = tuple(f"p{j}" for j in range(24))
        meta = {
            pvs: StimulusInfo(
                codec=f"c{j % 2}", resolution=f"r{j % 3}",
                bitrate_kbps=float(j % 4 + 1), content=f"t{j % 6}",
            )
            for j, pvs in enumerate(stimuli)
        }
        columns = {pvs: col[~np.isnan(col)] for pvs, col in zip(stimuli, scores.T)}
        averaged = []
        mean = np.mean

        def counting(a, *args, **kwargs):
            averaged.append(np.array(a, dtype=np.float64))
            return mean(a, *args, **kwargs)

        m = matrix_from(scores, meta=meta, stimuli=stimuli)
        monkeypatch.setattr(np, "mean", counting)
        screen_subjects(m, threshold=-1.0)
        points = [mos_point(m, pvs) for pvs in stimuli]
        again = [mos_point(m, pvs, constant=1.96) for pvs in stimuli]
        results = [anova_oneway(m, factor) for factor in FACTORS]
        monkeypatch.undo()
        for pvs, col in columns.items():
            assert sum(np.array_equal(a, col) for a in averaged) == 1, pvs

        for point, other in zip(points, again):
            col = columns[point.stimulus]
            assert point.mos == float(np.mean(col))
            assert (other.mos, other.n) == (point.mos, point.n)
        for factor, result in zip(FACTORS, results):
            fresh = matrix_from(scores, meta=meta, stimuli=stimuli)
            assert anova_oneway(fresh, factor) == result


# Score grids with holes: columns hold 0, 1 or more present scores.
SCORE_GRIDS = st.integers(1, 5).flatmap(
    lambda subjects: st.lists(
        st.lists(st.one_of(st.just(math.nan), st.floats(0, 100)),
                 min_size=subjects, max_size=subjects),
        min_size=1, max_size=6,
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(SCORE_GRIDS, st.floats(0.5, 3.0))
def test_statistics_match_per_column_formulas(columns, constant):
    m = matrix_from(np.array(columns).T)
    for j, stimulus in enumerate(m.stimuli):
        col = np.array(columns[j])
        col = col[~np.isnan(col)]
        if col.size == 0:
            with pytest.raises(StatsError, match=f"^stimulus '{stimulus}' has no scores$"):
                mos_point(m, stimulus, constant)
            continue
        if col.size == 1:
            message = (f"^stimulus '{stimulus}' needs at least 2 scores for a CI, "
                       f"got {col.size}$")
            with pytest.raises(StatsError, match=message):
                mos_point(m, stimulus, constant)
            continue
        mean = float(np.mean(col))
        stddev = math.sqrt(float(np.mean((col - mean) ** 2)))
        half_width = constant * stddev / math.sqrt(col.size)
        point = MosPoint(stimulus, mean, half_width, col.size)
        assert mos_point(m, stimulus, constant) == point


# The relative bound README states for f_survival against scipy's betainc
# over d1 1-60, d2 1-5000 and F 1e-4-1e4, wherever betainc >= 1e-200.
F_SURVIVAL_REL = 1e-12

# P(F > f) to 40 digits, computed with mpmath at 60-digit working precision
# from the exact value of each double f: the four ANOVA factors of the seed-1
# `tables` benchmark panel, and a deep-tail point where scipy's betainc
# returns 7.0757e-286.
F_SURVIVAL_REFERENCE = [
    (3, 1996, 9.35949865573639, 3.830692641692376578448894696298084872698e-6),
    (2, 1997, 3.414959783236356, 0.03306984862672093024563777125054381427121),
    (5, 1994, 2.016135362165653, 0.0734741667962173467090811121948541978818),
    (39, 1960, 1.141805005862866, 0.2530810482692505954464826327209460404013),
    (51, 1000, 67.68750009458527, 8.335200235369927543537178925880744240765e-286),
]


class TestFSurvival:
    def test_degrees_of_freedom_checked(self):
        with pytest.raises(StatsError, match=r"^invalid degrees of freedom \(0, 5\)$"):
            f_survival(1.0, 0, 5)

    def test_matches_numeric_integration(self, rng):
        for _ in range(20):
            d1 = int(rng.integers(1, 12))
            d2 = int(rng.integers(2, 40))
            f = float(rng.uniform(0.05, 20))
            assert f_survival(f, d1, d2) == pytest.approx(
                f_sf_numeric(f, d1, d2), rel=1e-8, abs=1e-12
            )

    def test_matches_scipy_at_table_scale(self, rng):
        # Degrees of freedom of a per-factor ANOVA over ~2000 stimuli.
        for _ in range(200):
            d1 = int(rng.integers(1, 50))
            d2 = int(rng.integers(40, 2001))
            f = float(rng.uniform(0.05, 20))
            assert f_survival(f, d1, d2) == pytest.approx(
                f_distribution.sf(f, d1, d2), rel=1e-10, abs=1e-300
            )

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(st.integers(1, 60), st.integers(1, 5000),
           st.floats(-4, 4).map(lambda e: 10.0 ** e))
    def test_matches_betainc(self, d1, d2, f):
        # scipy at the same x, as a test-only oracle.
        expected = betainc(d2 / 2, d1 / 2, d2 / (d2 + d1 * f))
        assume(expected >= 1e-200)
        assert f_survival(f, d1, d2) == pytest.approx(expected, rel=F_SURVIVAL_REL, abs=0)

    @pytest.mark.parametrize("d1,d2,f,expected", F_SURVIVAL_REFERENCE)
    def test_matches_high_precision_reference(self, d1, d2, f, expected):
        assert f_survival(f, d1, d2) == pytest.approx(expected, rel=F_SURVIVAL_REL, abs=0)

    def test_zero_statistic(self):
        assert f_survival(0.0, 3, 10) == 1.0

    def test_infinite_and_negligible_statistic(self):
        assert f_survival(math.inf, 3, 10) == 0.0
        assert f_survival(1e-300, 3, 10) == 1.0

    def test_fraction_that_never_converges_raises(self):
        # A NaN statistic slips past the range checks; the continued fraction
        # then runs out of terms instead of returning NaN.
        with pytest.raises(StatsError, match="^incomplete beta did not converge for "):
            f_survival(math.nan, 1, 9)

    def test_monotone_decreasing(self):
        values = [f_survival(f, 2, 8) for f in (0.1, 1.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestLoaders:
    def test_scores_csv(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject,p1,p2\nalice,50,60\nbob,,70\n")
        m = load_scores_csv(path)
        assert m.subjects == ("alice", "bob")
        assert m.stimuli == ("p1", "p2")
        assert math.isnan(m.scores[1, 0])
        assert m.scores[1, 1] == 70.0

    def test_scores_csv_bad_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("viewer,p1\nalice,50\n")
        with pytest.raises(DataFormatError):
            load_scores_csv(path)

    def test_scores_csv_out_of_range(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("subject,p1\nalice,105\n")
        with pytest.raises(DataFormatError):
            load_scores_csv(path)

    def test_pvs_csv(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text(
            "pvs,codec,resolution,bitrate_kbps,content\n"
            "p1,HM,HD,1500,CrowdRun\n"
        )
        meta = load_pvs_csv(path)
        assert meta["p1"].codec == "HM"
        assert meta["p1"].bitrate_kbps == 1500.0
        assert meta["p1"].level("bitrate") == 1500.0

    def test_pvs_csv_missing_column(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("pvs,codec,resolution,content\np1,HM,HD,CrowdRun\n")
        with pytest.raises(DataFormatError, match="bitrate_kbps"):
            load_pvs_csv(path)
