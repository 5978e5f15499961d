import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttalab.metrics import bonferroni, mae, psnr, ssim, untested_label, wilcoxon_signed_rank
from ttalab.pipeline import metrics_summary

rng = np.random.default_rng(99)


class TestMae:
    def test_identical(self):
        a = rng.random((8, 8))
        assert mae(a, a) == 0.0

    def test_constant(self):
        assert mae(np.ones((4, 4)), np.full((4, 4), 0.25)) == pytest.approx(0.75)

    def test_matches_loop_oracle(self):
        a, b = rng.random((5, 6)), rng.random((5, 6))
        ref = sum(abs(a[i, j] - b[i, j]) for i in range(5) for j in range(6)) / 30
        assert mae(a, b) == pytest.approx(ref, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mae(np.ones(3), np.ones(4))


class TestPsnr:
    def test_closed_form(self):
        got = psnr(np.ones((4, 4)), np.full((4, 4), 0.5))
        assert got == pytest.approx(10 * math.log10(1 / 0.25), abs=1e-3)
        assert got == pytest.approx(6.0206, abs=1e-3)

    def test_identical_raises(self):
        a = rng.random((4, 4))
        with pytest.raises(ValueError, match="identical"):
            psnr(a, a)

    def test_nonpositive_max_raises(self):
        with pytest.raises(ValueError, match="positive"):
            psnr(-np.ones((3, 3)), np.zeros((3, 3)))

    def test_matches_formula_oracle(self):
        a = rng.random((6, 6)) * 0.9 + 0.05
        b = rng.random((6, 6)) * 0.9 + 0.05
        ref = 10 * math.log10(a.max() ** 2 / np.mean((a - b) ** 2))
        assert psnr(a, b) == pytest.approx(ref, abs=1e-6)

    def test_monotone_in_noise(self):
        base = rng.random((16, 16)) * 0.8 + 0.1
        vals = []
        for scale in (0.01, 0.03, 0.09, 0.27):
            noisy = base + scale * rng.standard_normal((16, 16))
            vals.append(psnr(base, noisy))  # base is the generated image: one peak
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestSsim:
    def test_identity(self):
        a = rng.random((8, 8))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-6)

    def test_zero_variance_closed_form(self):
        got = ssim(np.full((4, 4), 0.5), np.full((4, 4), 0.25))
        ref = (2 * 0.5 * 0.25 + 1e-4) / (0.5 ** 2 + 0.25 ** 2 + 1e-4)
        assert got == pytest.approx(ref, abs=1e-4)
        assert got == pytest.approx(0.80006, abs=1e-4)

    def test_symmetric(self):
        for _ in range(5):
            a, b = rng.random((7, 7)), rng.random((7, 7))
            assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-7)

    def test_no_clamping_can_go_negative(self):
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        assert ssim(a, 1.0 - a) < 0.0


def wilcoxon_enumeration_oracle(a, b):
    """Literal 2^n sign-flip enumeration of the two-sided exact p-value."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    n = len(d)
    absd = np.abs(d)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(n)
    sv = absd[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    w_obs = ranks[d > 0].sum()
    n_le = n_ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        n_le += w <= w_obs + 1e-12
        n_ge += w >= w_obs - 1e-12
    total = 2 ** n
    return min(1.0, 2.0 * min(n_le / total, n_ge / total))


class TestWilcoxon:
    def test_all_zero_differences(self):
        a = rng.random(8)
        with pytest.raises(ValueError, match="all differences zero"):
            wilcoxon_signed_rank(a, a.copy())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(np.ones(6), np.ones(7))

    def test_too_few_nonzero(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        b = a.copy()
        b[0] += 1.0
        with pytest.raises(ValueError, match=">= 5"):
            wilcoxon_signed_rank(a, b)

    def test_non_finite_differences_rejected(self):
        with pytest.raises(ValueError, match="6 non-finite differences of 6"):
            wilcoxon_signed_rank(np.full(6, np.nan), np.arange(6.0))
        a, b = np.arange(1.0, 8.0) + 0.5, np.arange(1.0, 8.0)
        a[3], b[5] = np.nan, np.inf
        with pytest.raises(ValueError, match="2 non-finite differences of 7"):
            wilcoxon_signed_rank(a, b)

    def test_untested_labels(self):
        notes = {}
        for a, b in [(np.ones(6), np.ones(6)), (np.arange(6.0) + [1, 1, 1, 0, 0, 0], np.arange(6.0)),
                     (np.full(6, np.nan), np.arange(6.0))]:
            with pytest.raises(ValueError) as err:
                wilcoxon_signed_rank(a, b)
            notes[str(err.value)] = untested_label(str(err.value))
        assert list(notes.values()) == ["all-zero", "n=3<5", "non-finite"]
        assert untested_label("something else") == "untested"

    def test_n6_all_positive(self):
        a = np.arange(1.0, 7.0) + 0.5
        b = np.arange(1.0, 7.0)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(2 / 64, abs=1e-12)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_exact_matches_enumeration(self, n):
        r = np.random.default_rng(n)
        for _ in range(4):
            a = r.normal(size=n)
            b = r.normal(size=n)
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                wilcoxon_enumeration_oracle(a, b), abs=1e-12)

    def test_exact_with_tied_magnitudes(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([0.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0])  # |d| all 1
        assert wilcoxon_signed_rank(a, b) == pytest.approx(
            wilcoxon_enumeration_oracle(a, b), abs=1e-12)

    def test_approximation_close_to_exact_at_n20(self):
        import ttalab.metrics as M
        r = np.random.default_rng(3)
        for _ in range(10):
            a = r.normal(size=20)
            b = r.normal(size=20) + 0.3
            exact = wilcoxon_signed_rank(a, b)
            d = (a - b)
            d = d[d != 0]
            ranks = M._average_ranks(np.abs(d))
            approx = M._normal_approx_two_sided(ranks, float(ranks[d > 0].sum()))
            assert abs(approx - exact) < 0.01

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=5, max_size=10),
           st.integers(0, 2 ** 31 - 1))
    def test_property_exact_vs_enumeration(self, vals, seed):
        a = np.asarray(vals)
        b = a + np.random.default_rng(seed).normal(size=len(a))
        d = a - b
        if (d != 0).sum() < 5:
            return
        assert wilcoxon_signed_rank(a, b) == pytest.approx(
            wilcoxon_enumeration_oracle(a, b), abs=1e-12)


class TestBonferroni:
    def test_single_significant(self):
        assert bonferroni([0.04], 0.05) == [(0.04, True)]

    def test_ten_not_significant_at_threshold(self):
        out = bonferroni([0.006] + [0.5] * 9, 0.05)
        assert out[0] == (0.006, False)  # threshold 0.005, strict <

    def test_ten_significant_below_threshold(self):
        out = bonferroni([0.004] + [0.5] * 9, 0.05)
        assert out[0] == (0.004, True)

    def test_untested_counts_in_m_and_is_never_significant(self):
        out = bonferroni([None, 0.004] + [0.5] * 8, 0.05)
        assert out[:2] == [(None, False), (0.004, True)]

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            bonferroni([0.01], 1.5)


class TestMetricsSummary:
    def test_aggregates(self):
        rows = [{"triggered": t, "mae_tta": m, "psnr_tta": p, "ssim_tta": s}
                for t, m, p, s in [(True, 0.1, 20.0, 0.9), (True, 0.3, 10.0, 0.5),
                                   (False, 0.2, 15.0, -0.1)]]
        s = metrics_summary(rows, "tta")
        assert s["A"]["mae"]["mean"] == pytest.approx(0.2)
        assert s["A"]["mae"]["std"] >= 0.0
        assert s["B"]["mae"]["mean"] == pytest.approx(0.2)
        assert s["ssim_negative_count"] == 1
        assert s["n_A"] == 3 and s["n_B"] == 2
