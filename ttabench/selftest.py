#!/usr/bin/env python3
"""Self-test of the benchmark at toy size; takes seconds.

    python3 ttabench/selftest.py

Runs one round of each workload's code path on a toy stack (5 layers, 16x16,
a few samples), requires every check to pass on the real result, then
corrupts copies of that result one way at a time and requires the check
meant for each corruption to reject it. Exits 1 on the first miss.
"""

from __future__ import annotations

import copy
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOY_STREAMS = {"ood-grid": (1, 2), "ood-fs": (1, 3), "id-stream": (15, 1)}


def _nudge(value: float) -> float:
    import numpy as np
    return float(np.nextafter(value, np.inf))


def corruptions(rows: list[dict], tau: float):
    """(description, check expected to fire, corrupted rows, tau to judge with)."""
    trig = next(i for i, r in enumerate(rows) if r["triggered"])
    untrig = next(i for i, r in enumerate(rows) if not r["triggered"])

    def edit(i, **kw):
        out = copy.deepcopy(rows)
        out[i].update(kw)
        return out

    r, u = rows[trig], rows[untrig]
    yield ("flipped trigger", "trigger_iff_eps_above_tau",
           edit(untrig, triggered=True), tau)
    yield ("flipped trigger (adapted row reported as gated out)", "trigger_iff_eps_above_tau",
           edit(trig, triggered=False), tau)
    yield ("wrong configuration counter", "budget",
           edit(trig, configs_evaluated=r["configs_evaluated"] + 1), tau)
    yield ("wrong step counter", "budget",
           edit(trig, adapt_steps_total=r["adapt_steps_total"] - 1,
                forwards_total=r["forwards_total"] - 1), tau)
    yield ("wrong forward counter", "one_forward_per_step",
           edit(trig, forwards_total=r["forwards_total"] + 1), tau)
    yield ("budget on an untriggered row", "untriggered_zero_budget",
           edit(untrig, adapt_steps_total=1), tau)
    yield ("changed untriggered output", "untriggered_output_unchanged",
           edit(untrig, mae_tta=_nudge(u["mae_tta"])), tau)
    yield ("changed untriggered eps_best", "untriggered_output_unchanged",
           edit(untrig, eps_best=_nudge(u["eps_best"])), tau)
    yield ("adapted error above unadapted", "eps_best_not_above_unadapted",
           edit(trig, eps_best=_nudge(r["eps_unadapted"])), tau)


def main() -> int:
    from run import THREAD_VARS

    for var in THREAD_VARS:  # before the first numpy import
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import harness

    misses = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'MISS'} {what}")
        if not ok:
            misses.append(what)

    harness.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=harness.WORK_ROOT) as tmp:
        for name, (n_id, n_ood) in TOY_STREAMS.items():
            workload = replace(harness.WORKLOADS[name], id_test=n_id, ood_test=n_ood)
            cfg = harness.make_config(workload, 0, Path(tmp) / name, stack=harness.TOY_STACK)
            rec = harness.build_stack(cfg)
            task, suite, dataset = rec["task"], rec["suite"], rec["dataset"]
            tau = harness.run_tau(cfg, rec)
            rows, times, _, raised = harness.run_rounds(cfg, dataset, task, suite, tau,
                                                        seconds=1e-9)
            verdict = harness.judge(cfg, dataset, task, suite, [rec], rows)
            expect(len(times) == 1 and raised == 0 and not verdict["failed_checks"]
                   and sum(r["triggered"] for r in rows) == n_ood,
                   f"{name}: clean toy round passes every check {verdict['failed_checks']}")

            k, m = task.num_levels, cfg.steps
            # the untriggered sample nearest tau, its gate error one ulp higher
            edge = max((i for i, r in enumerate(rows) if not r["triggered"]),
                       key=lambda i: rows[i]["eps_unadapted"])
            bumped = copy.deepcopy(rows)
            bumped[edge]["eps_unadapted"] = bumped[edge]["eps_best"] = _nudge(
                rows[edge]["eps_unadapted"])
            fired = checks.row_failures(bumped, tau, cfg.strategy, k, m)
            expect(not fired, f"{name}: the sample nearest tau one ulp higher still passes "
                              f"{sorted(fired)}")
            for what, check, bad, judged_tau in corruptions(rows, tau):
                fired = checks.row_failures(bad, judged_tau, cfg.strategy, k, m)
                hit = any(check in key for key in fired)
                expect(hit, f"{name}: {what} -> {check} {sorted(fired)}")

            # judged with a gain on the triggered subset, so the gain check has
            # something to lose whatever the toy stack's quality
            gained = [dict(r, mae_tta=r["mae_base"] - 0.01) if r["triggered"] else r
                      for r in rows]

            def run_fail(**kw):
                args = dict(rows=gained, setups=[rec], percentile=cfg.percentile,
                            checksums_after=tuple(rec["checksums"]),
                            expect_mae_gain=True, recomputed_mae=[(0.5, 0.5)])
                args.update(kw)
                return checks.run_failures(**args)

            base = run_fail()
            other = dict(rec, tau=_nudge(rec["tau"]))
            trig_worse = [dict(r, mae_tta=r["mae_base"] + 0.01) if r["triggered"] else r
                          for r in rows]
            shifted = copy.deepcopy(gained)
            shifted[0]["eps_unadapted"] *= 1.0 + 10 * checks.GATE_RTOL
            ulp_off = copy.deepcopy(gained)
            ulp_off[0]["eps_unadapted"] = _nudge(ulp_off[0]["eps_unadapted"])
            expect(not run_fail(rows=ulp_off),
                   f"{name}: a gate error one ulp off calibration passes {run_fail(rows=ulp_off)}")
            cases = [
                ("tau off the nearest rank", "tau_nearest_rank", dict(setups=[other])),
                ("gate error differs from calibration", "gate_matches_calibration",
                 dict(rows=shifted)),
                ("set-ups disagree", "setup_deterministic", dict(setups=[rec, other])),
                ("model changed by the run", "frozen_checksums",
                 dict(checksums_after=(rec["checksums"][0], "0" * 64))),
                ("no MAE gain on the triggered subset", "mae_gain_on_triggered",
                 dict(rows=trig_worse)),
                ("reported MAE differs from numpy's", "mae_recomputed",
                 dict(recomputed_mae=[(0.5, 0.5 + 1e-6)])),
            ]
            for what, check, kw in cases:
                fired = run_fail(**kw)
                expect(check in fired and check not in base, f"{name}: {what} -> {check}")
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
