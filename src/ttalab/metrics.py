"""Image quality metrics and paired nonparametric comparison machinery.

PSNR takes the maximum intensity of the *generated* image as its peak. SSIM
is the global single-window formula with image-wide moments and fixed
stability constants for a data range of 1 (images rescaled to [0,1]); it is
not clamped, so slightly negative values are possible and are surfaced by
the harness.
"""

from __future__ import annotations

import math
import re

import numpy as np


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return x, y


def mae(y_hat, y) -> float:
    """Mean absolute pixel difference."""
    a, b = _pair(y_hat, y)
    return float(np.abs(a - b).mean())


def psnr(y_hat, y) -> float:
    """10*log10(MAX^2 / MSE), MAX the generated image's maximum.

    Raises on identical images (MSE 0) and on a non-positive MAX.
    """
    a, b = _pair(y_hat, y)
    mse = float(np.square(a - b).mean())
    if mse == 0.0:
        raise ValueError("identical images: PSNR undefined")
    mx = float(a.max())
    if mx <= 0.0:
        raise ValueError(f"maximum intensity must be positive, got {mx}")
    return float(10.0 * math.log10(mx * mx / mse))


# SSIM stability constants (K1 L)^2 and (K2 L)^2 for a data range L of 1
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


def ssim(y_hat, y) -> float:
    """Global single-window SSIM from image-wide means, variances, covariance."""
    a, b = _pair(y_hat, y)
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    num = (2.0 * mu_a * mu_b + _SSIM_C1) * (2.0 * cov + _SSIM_C2)
    den = (mu_a ** 2 + mu_b ** 2 + _SSIM_C1) * (var_a + var_b + _SSIM_C2)
    return float(num / den)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank (two-sided) + Bonferroni

_EXACT_LIMIT = 25
_MIN_NONZERO = 5


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sv = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided(ranks: np.ndarray, w_plus: float) -> float:
    # average ranks are multiples of 1/2; double them to get integer weights,
    # then count sign assignments by dynamic programming over rank sums
    scaled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(scaled.sum())
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    for r in scaled:
        nxt = dist.copy()
        nxt[r:] += dist[:total + 1 - r]
        dist = nxt
    denom = 2.0 ** len(ranks)
    w2 = int(np.rint(2.0 * w_plus))
    p_le = dist[:w2 + 1].sum() / denom
    p_ge = dist[w2:].sum() / denom
    return float(min(1.0, 2.0 * min(p_le, p_ge)))


def _normal_approx_two_sided(ranks: np.ndarray, w_plus: float) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction over groups of equal |difference|
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(((counts ** 3 - counts) / 48.0).sum())
    if var <= 0:
        raise ValueError("degenerate rank variance")
    delta = w_plus - mu
    cc = 0.5 * np.sign(delta)
    z = (delta - cc) / math.sqrt(var)
    return float(min(1.0, math.erfc(abs(z) / math.sqrt(2.0))))


def wilcoxon_signed_rank(paired_a, paired_b) -> float:
    """Two-sided p-value for the paired signed-rank test.

    Every difference must be finite: a NaN or infinite one has no rank.
    Zero differences are dropped; at least 5 must remain. The null
    distribution is exact (sign enumeration) for n <= 25 and a tie- and
    continuity-corrected normal approximation beyond.
    """
    a = np.asarray(paired_a, dtype=np.float64)
    b = np.asarray(paired_b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"need equal-length 1-D samples, got {a.shape} vs {b.shape}")
    d = a - b
    non_finite = int(np.count_nonzero(~np.isfinite(d)))
    if non_finite:
        raise ValueError(f"{non_finite} non-finite differences of {d.size}")
    d = d[d != 0.0]
    if d.size == 0:
        raise ValueError("all differences zero")
    if d.size < _MIN_NONZERO:
        raise ValueError(f"need >= {_MIN_NONZERO} non-zero differences, got {d.size}")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if d.size <= _EXACT_LIMIT:
        return _exact_two_sided(ranks, w_plus)
    return _normal_approx_two_sided(ranks, w_plus)


def untested_label(note: str) -> str:
    """A short, space-free reason for the ValueError note of an untested pair:
    all-zero, n=<count><5 for too few non-zero differences, non-finite, or
    else untested."""
    if note == "all differences zero":
        return "all-zero"
    too_few = re.fullmatch(r"need >= (\d+) non-zero differences, got (\d+)", note)
    if too_few:
        return f"n={too_few[2]}<{too_few[1]}"
    if "non-finite" in note:
        return "non-finite"
    return "untested"


def bonferroni(p_values, alpha: float) -> list[tuple[float | None, bool]]:
    """Flag each p-value significant iff p < alpha/m (strict), m = len(p_values).

    None stands for an untested hypothesis: it counts in m and is never
    significant.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    ps = [None if p is None else float(p) for p in p_values]
    if len(ps) == 0:
        raise ValueError("empty p-value list")
    threshold = alpha / len(ps)
    return [(p, p is not None and p < threshold) for p in ps]
