"""Correctness checks on the output of one benchmark run.

Every check is an independent computation or a property the method must have;
none compares against a stored copy of an earlier output. Row checks name the
rows they reject (those samples count as failed); run checks judge the run as
a whole.
"""

from __future__ import annotations

import math

import numpy as np

IMAGE_METRICS = ("mae", "psnr", "ssim")
# A gate error may differ from the calibration error of the same sample by this
# share: a batched or reordered computation of the same quantity moves it by ulps.
GATE_RTOL = 1e-5


def nearest_rank_tau(errors, percentile: float) -> float:
    """Nearest-rank percentile in plain numpy: the ceil(p*n/100)-th smallest."""
    vals = np.sort(np.asarray(errors, dtype=np.float64))
    rank = int(np.ceil(percentile * len(vals) / 100.0))
    return float(vals[min(max(rank, 1), len(vals)) - 1])


def margin_tau(errors, below: int) -> float:
    """The threshold the run gates with: midway between the below-th and the
    (below+1)-th smallest error. Exactly `below` samples sit under it, none on
    it, so a gate error that moves by ulps cannot change which samples trigger."""
    vals = np.sort(np.asarray(errors, dtype=np.float64))
    return float((vals[below - 1] + vals[below]) / 2.0)


def _same(a: float, b: float) -> bool:
    """Bitwise equality that also holds for two NaNs (PSNR of identical images)."""
    return a == b or (math.isnan(a) and math.isnan(b))


def row_failures(rows: list[dict], tau: float, strategy: str, k: int, m_steps: int) -> dict:
    """Map check name -> indices of rows that fail it."""
    failures: dict[str, list[int]] = {}

    def fail(name: str, i: int) -> None:
        failures.setdefault(name, []).append(i)

    full_space = 2 ** k - 1
    fs_max = k * (k + 1) // 2
    for i, r in enumerate(rows):
        if r["triggered"] != (r["eps_unadapted"] > tau):
            fail("trigger_iff_eps_above_tau", i)
        budget = (r["configs_evaluated"], r["adapt_steps_total"], r["forwards_total"])
        if not r["triggered"]:
            if budget != (0, 0, 0):
                fail("untriggered_zero_budget", i)
            if (r["omega"] != "" or not _same(r["eps_best"], r["eps_unadapted"])
                    or not all(_same(r[f"{m}_tta"], r[f"{m}_base"]) for m in IMAGE_METRICS)):
                fail("untriggered_output_unchanged", i)
            continue
        configs, steps, forwards = budget
        if strategy == "grid" and (configs != full_space or steps != full_space * m_steps):
            fail("grid_budget", i)
        if strategy == "fs" and not (k <= configs <= fs_max and steps == configs * m_steps):
            fail("fs_budget", i)
        if forwards != steps:
            fail("one_forward_per_step", i)
        if not r["eps_best"] <= r["eps_unadapted"]:
            fail("eps_best_not_above_unadapted", i)
    return failures


def run_failures(*, rows: list[dict], setups: list[dict], percentile: float,
                 checksums_after: tuple[str, str], expect_mae_gain: bool,
                 recomputed_mae: list[tuple[float, float]]) -> list[str]:
    """Names of the run-level checks that fail.

    setups: one record per stack built from nothing (tau from
    calibrate_threshold, the calibration errors it came from, model
    checksums); the run used the first. tau is transductive, so row i of
    every round was scored as errors[i], up to GATE_RTOL.
    recomputed_mae: (reported, recomputed in numpy) MAE pairs for sampled rows.
    """
    failed = []
    first = setups[0]
    tau, errors = first["tau"], first["errors"]
    if any((s["tau"], s["errors"], s["checksums"]) != (tau, errors, first["checksums"])
           for s in setups):
        failed.append("setup_deterministic")
    if nearest_rank_tau(errors, percentile) != tau:
        failed.append("tau_nearest_rank")
    if len(rows) % len(errors) or any(
            not math.isclose(r["eps_unadapted"], errors[i % len(errors)], rel_tol=GATE_RTOL)
            for i, r in enumerate(rows)):
        failed.append("gate_matches_calibration")
    if list(checksums_after) != list(first["checksums"]):
        failed.append("frozen_checksums")
    if expect_mae_gain:
        trig = [r for r in rows if r["triggered"]]
        if not trig or not (np.mean([r["mae_tta"] for r in trig])
                            < np.mean([r["mae_base"] for r in trig])):
            failed.append("mae_gain_on_triggered")
    if not recomputed_mae or any(not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
                                 for a, b in recomputed_mae):
        failed.append("mae_recomputed")
    return failed


def numpy_mae(output: np.ndarray, target: np.ndarray) -> float:
    """MAE on the [0,1] scale the report uses: images live in [-1,1]."""
    return float(np.mean(np.abs(output.astype(np.float64) - target.astype(np.float64))) / 2.0)
