import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import f as f_distribution
from scipy.stats import rankdata

from codecbench import subjective
from codecbench.errors import DataFormatError, InputError, StatsError
from codecbench.subjective import (
    FACTORS,
    ScoreMatrix,
    StimulusInfo,
    anova_oneway,
    ci95,
    f_survival,
    load_pvs_csv,
    load_scores_csv,
    mos,
    mos_point,
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


class TestMos:
    def test_mean(self):
        m = matrix_from([[60], [70], [80]])
        assert mos(m, "p0") == 70.0

    def test_single_score(self):
        m = matrix_from([[42.5]])
        assert mos(m, "p0") == 42.5

    def test_four_scores(self):
        m = matrix_from([[60], [70], [80], [90]])
        assert mos(m, "p0") == 75.0

    def test_ignores_missing(self):
        m = matrix_from([[60], [math.nan], [80]])
        assert mos(m, "p0") == 70.0

    def test_empty_column(self):
        m = matrix_from([[math.nan], [math.nan]])
        with pytest.raises(StatsError):
            mos(m, "p0")


class TestColumn:
    def test_unknown_stimulus(self):
        m = matrix_from([[60, 70], [80, 90]])
        with pytest.raises(InputError, match="unknown stimulus 'p9'"):
            m.column("p9")

    def test_repeated_stimulus_returns_first_column(self):
        m = matrix_from([[60, 70, 10], [80, 90, 20]], stimuli=("a", "b", "a"))
        assert m.column("a").tolist() == [60.0, 80.0]
        assert m.column("b").tolist() == [70.0, 90.0]


class TestCi95:
    def test_constant_scores(self):
        m = matrix_from([[70], [70], [70]])
        assert ci95(m, "p0") == 0.0

    def test_hand_value(self):
        m = matrix_from([[60], [70], [80], [90]])
        # population stddev sqrt(125), times 1.95 / sqrt(4)
        assert ci95(m, "p0") == pytest.approx(10.9009, abs=1e-4)

    def test_two_level_scores(self):
        m = matrix_from([[50], [50], [100], [100]])
        assert ci95(m, "p0") == pytest.approx(24.375, abs=1e-12)

    def test_needs_two_scores(self):
        m = matrix_from([[50], [math.nan]])
        with pytest.raises(StatsError):
            ci95(m, "p0")

    def test_constant_override(self):
        m = matrix_from([[60], [70], [80], [90]])
        assert ci95(m, "p0", constant=1.96) == pytest.approx(
            1.96 * math.sqrt(125) / 2, abs=1e-12
        )

    def test_scales_linearly_about_mean(self, rng):
        scores = rng.uniform(20, 80, 8)
        scaled = scores.mean() + 0.5 * (scores - scores.mean())
        m1 = matrix_from(scores.reshape(-1, 1))
        m2 = matrix_from(scaled.reshape(-1, 1))
        assert ci95(m2, "p0") == pytest.approx(0.5 * ci95(m1, "p0"), abs=1e-12)

    def test_subject_permutation_invariant(self, rng):
        scores = rng.uniform(0, 100, 6)
        m1 = matrix_from(scores.reshape(-1, 1))
        m2 = matrix_from(scores[::-1].reshape(-1, 1))
        assert mos(m1, "p0") == pytest.approx(mos(m2, "p0"), abs=1e-12)
        assert ci95(m1, "p0") == pytest.approx(ci95(m2, "p0"), abs=1e-12)

    def test_mos_point_bundles_n(self):
        m = matrix_from([[60], [70], [80], [90]])
        point = mos_point(m, "p0")
        assert (point.mos, point.n) == (75.0, 4)
        assert point.ci95 == pytest.approx(10.9009, abs=1e-4)


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
        m = consistent_panel(n_subjects=5)
        m.scores[2, :] = 50.0
        result, filtered = screen_subjects(m)
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
        m = matrix_from([[50.0, 60.0]], meta={})
        with pytest.raises(InputError, match="no metadata for stimulus 'p0'"):
            anova_oneway(m, "codec")

    def test_mos_taken_once_per_stimulus(self, rng, monkeypatch):
        scores = rng.uniform(0, 100, (6, 24))
        scores[rng.uniform(size=scores.shape) < 0.2] = math.nan
        stimuli = tuple(f"p{j}" for j in range(24))
        meta = {
            pvs: StimulusInfo(
                codec=f"c{j % 2}", resolution=f"r{j % 3}",
                bitrate_kbps=float(j % 4), content=f"t{j % 6}",
            )
            for j, pvs in enumerate(stimuli)
        }
        taken = []
        column_mos = subjective._column_mos

        def counting(col, stimulus):
            taken.append(stimulus)
            return column_mos(col, stimulus)

        monkeypatch.setattr(subjective, "_column_mos", counting)
        m = matrix_from(scores, meta=meta, stimuli=stimuli)
        points = [mos_point(m, pvs) for pvs in stimuli]
        results = [anova_oneway(m, factor) for factor in FACTORS]
        assert sorted(taken) == sorted(stimuli)

        for point in points:
            col = scores[:, stimuli.index(point.stimulus)]
            assert point.mos == float(np.mean(col[~np.isnan(col)]))
        for factor, result in zip(FACTORS, results):
            fresh = matrix_from(scores, meta=meta, stimuli=stimuli)
            assert anova_oneway(fresh, factor) == result


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
