import builtins
import csv
import dataclasses
import errno
import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

import ttalab.pipeline as P
import ttalab.tensor as T
from ttalab.data import SPLITS, SyntheticTaskSpec, synthesize
from ttalab.metrics import bonferroni
from ttalab.pipeline import (RunConfig, arm_labels, compare_strategies, metrics_summary,
                             pipeline_run, read_report_csv, write_wilcoxon_csv)
from ttalab.tensor import NumericError, parse_tnsr, tnsr_bytes


def tiny_config(workdir, **kw) -> RunConfig:
    data = SyntheticTaskSpec(train=24, calib=16, id_test=12, ood_test=12,
                             image_size=16, noise_sigma=0.2, seed=3)
    base = dict(workdir=str(workdir), seed=3, data=data,
                task_hold=2, task_decay=2, recon_hold=1, recon_decay=3,
                steps=2, strategy="fs")
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("tinyrun")
    cfg = tiny_config(workdir)
    report = pipeline_run(cfg)
    return cfg, report


class TestRunConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, strategy="tpe", percentile=90.0)
        back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg

    def test_unknown_strategy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="strategy"):
            tiny_config(tmp_path, strategy="simulated-annealing")

    def test_percentile_bounds(self, tmp_path):
        with pytest.raises(ValueError, match="percentile"):
            tiny_config(tmp_path, percentile=100.0)

    def test_zero_decay_epochs_valid(self, tmp_path):
        cfg = tiny_config(tmp_path, task_decay=0, recon_decay=0)
        assert cfg.task_schedule().total_epochs == cfg.task_hold

    def test_example_config_is_the_defaults(self):
        example = Path(__file__).resolve().parents[1] / "configs" / "example.json"
        assert RunConfig.from_dict(json.loads(example.read_text())) == \
            RunConfig(workdir="runs/demo")


class TestPipelineRun:
    def test_artifacts_exist(self, tiny_run):
        _, report = tiny_run
        for name in ("report.csv", "summary.json", "budget.csv", "manifest.json"):
            assert (report.run_dir / name).exists()

    def test_row_count_and_schema(self, tiny_run):
        _, report = tiny_run
        assert len(report.rows) == 24  # id_test + ood_test
        back = read_report_csv(report.run_dir / "report.csv")
        assert len(back) == len(report.rows)
        assert back[0].keys() >= {"sample_id", "split", "triggered", "eps_unadapted",
                                  "mae_tta", "ssim_base"}

    def test_gating_accounting(self, tiny_run):
        _, report = tiny_run
        triggered = [r for r in report.rows if r["triggered"]]
        nonzero_budget = [r for r in report.rows if r["configs_evaluated"] > 0]
        assert report.summary["n_triggered"] == len(triggered) == len(nonzero_budget)

    def test_untriggered_rows_identical_to_baseline(self, tiny_run):
        _, report = tiny_run
        for r in report.rows:
            if not r["triggered"]:
                assert r["configs_evaluated"] == 0
                assert r["adapt_steps_total"] == 0
                assert r["mae_tta"] == r["mae_base"]
                assert r["ssim_tta"] == r["ssim_base"]

    def test_monotone_safety_on_triggered(self, tiny_run):
        _, report = tiny_run
        for r in report.rows:
            if r["triggered"]:
                assert r["eps_best"] <= r["eps_unadapted"]

    def test_reproducible_from_same_config(self, tiny_run, tmp_path):
        cfg, report = tiny_run
        again = pipeline_run(cfg)  # reuses checkpoints
        assert again.tau == report.tau
        assert [r["eps_best"] for r in again.rows] == \
            [r["eps_best"] for r in report.rows]
        a = (report.run_dir / "report.csv").read_text()
        b = (again.run_dir / "report.csv").read_text()
        assert a == b

    def test_checkpoint_reuse_across_percentiles(self, tiny_run):
        cfg, _ = tiny_run
        import time
        t0 = time.time()
        report90 = pipeline_run(cfg.with_overrides(percentile=90.0))
        assert time.time() - t0 < 60  # no retraining
        assert report90.run_dir.name != ""

    def test_calibration_split_binomial_range(self, tiny_run):
        # p95 gate on an in-distribution test split: triggered fraction stays
        # within a generous binomial envelope
        _, report = tiny_run
        id_rows = [r for r in report.rows if r["split"] == "id_test"]
        frac = sum(r["triggered"] for r in id_rows) / len(id_rows)
        assert frac <= 0.5


class TestStrategiesThroughPipeline:
    def test_rand10_budget_smaller_than_grid(self, tiny_run):
        cfg, grid_report = tiny_run
        # k=3 so |Omega|=7 < 10: rand10 samples everything, budgets equal;
        # use rand-vs-grid counters per triggered sample instead
        grid = pipeline_run(cfg.with_overrides(strategy="grid"))
        for r in grid.rows:
            if r["triggered"]:
                assert r["configs_evaluated"] == 7
                assert r["adapt_steps_total"] == 7 * cfg.steps

    def test_static_all_adapts_everything(self, tiny_run):
        cfg, _ = tiny_run
        report = pipeline_run(cfg.with_overrides(strategy="static-all"))
        assert report.summary["n_triggered"] == len(report.rows)
        for r in report.rows:
            assert r["configs_evaluated"] == 1
            assert r["adapt_steps_total"] == cfg.steps
            assert r["omega"] == "1+2+3"


class TestCompare:
    def test_self_comparison_all_zero(self, tiny_run):
        _, report = tiny_run
        comparison = compare_strategies([("fs", report.rows), ("fs2", report.rows)])
        for cell in comparison["cells"].values():
            for m in ("ssim", "mae", "psnr"):
                assert cell[m]["p"] is None
                assert "zero" in cell[m]["note"]

    def test_alpha_corr_recorded(self, tiny_run):
        _, report = tiny_run
        rows_b = [dict(r) for r in report.rows]
        for r in rows_b:
            r["mae_tta"] += 0.01
        comparison = compare_strategies([("a", report.rows), ("b", rows_b),
                                         ("c", report.rows)])
        assert comparison["m"] == 3
        assert comparison["alpha_corr"] == pytest.approx(0.05 / 3)

    def test_each_metric_is_one_bonferroni_family(self, tiny_run, monkeypatch):
        _, report = tiny_run
        rows_b = [dict(r) for r in report.rows]
        for r in rows_b:
            r["mae_tta"] += 0.01
        calls = []

        def spy(p_values, alpha):
            calls.append(list(p_values))
            return bonferroni(p_values, alpha)

        monkeypatch.setattr(P, "bonferroni", spy)
        comparison = compare_strategies([("a", report.rows), ("b", rows_b),
                                         ("c", report.rows)])
        cells = comparison["cells"]
        assert calls == [[cells[pair][m]["p"] for pair in cells] for m in ("ssim", "mae", "psnr")]
        assert len(cells) == 3 and calls[0] == [None, None, None]

    def test_known_shift_significant(self, tiny_run):
        _, report = tiny_run
        rows_b = [dict(r) for r in report.rows]
        rng = np.random.default_rng(0)
        for r in rows_b:
            for m in ("mae_tta", "ssim_tta", "psnr_tta"):
                r[m] = r[m] + 0.05 + 0.001 * rng.random()  # strictly worse everywhere
        comparison = compare_strategies([("base", report.rows), ("worse", rows_b)])
        cell = comparison["cells"]["base|worse"]
        for m in ("ssim", "mae", "psnr"):
            assert cell[m]["p"] < 0.05
            assert cell[m]["significant"]

    def test_repeat_runs_averaged(self, tiny_run):
        _, report = tiny_run
        r1 = [dict(r) for r in report.rows]
        r2 = [dict(r) for r in report.rows]
        for r in r1:
            r["mae_tta"] += 0.02
        for r in r2:
            r["mae_tta"] -= 0.02
        comparison = compare_strategies([("rand10", r1), ("rand10", r2),
                                         ("grid", report.rows)])
        cell = comparison["cells"]["grid|rand10"]
        assert cell["mae"]["p"] is None  # averaged back to equality

    def test_non_finite_cell_untested(self, tiny_run):
        _, report = tiny_run
        rows_a = [dict(r) for r in report.rows]
        rows_b = [dict(r) for r in report.rows]
        for r in rows_b:
            r["mae_tta"] += 0.05
            r["psnr_tta"] += 1.0
        rows_a[0]["psnr_tta"] = float("nan")  # NaN in every run of arm a
        comparison = compare_strategies([("a", rows_a), ("b", rows_b), ("a", rows_a)])
        cell = comparison["cells"]["a|b"]
        assert cell["mae"]["p"] is not None
        assert cell["psnr"] == {"p": None, "significant": False,
                                "note": f"1 non-finite differences of {len(rows_a)}"}

    def test_arms_group_repeat_seeds_only(self, tiny_run):
        cfg, _ = tiny_run
        runs = {"grid_s0": dict(strategy="grid", seed=0),
                "grid_s1": dict(strategy="grid", seed=1, workdir="elsewhere", dump_traces=True),
                "fs_p95": dict(strategy="fs"),
                "fs_p90": dict(strategy="fs", percentile=90.0)}
        configs = [cfg.with_overrides(**kw).to_dict() for kw in runs.values()]
        assert arm_labels(configs, list(runs)) == ["grid", "grid", "fs_p95", "fs_p90"]

    def test_sample_id_mismatch_rejected(self, tiny_run):
        _, report = tiny_run
        truncated = report.rows[:-1]
        with pytest.raises(ValueError, match="mismatch"):
            compare_strategies([("a", report.rows), ("b", truncated)])

    def test_shuffled_rows_compare_equal(self, tiny_run):
        _, report = tiny_run
        rng = np.random.default_rng(1)
        rows_b = [dict(r) for r in report.rows]
        for r in rows_b:
            for m in ("mae_tta", "ssim_tta", "psnr_tta"):
                r[m] += 0.01 * rng.standard_normal()
        ref = compare_strategies([("a", report.rows), ("b", rows_b), ("b", report.rows)])
        shuffled = [rows_b[i] for i in rng.permutation(len(rows_b))]
        assert compare_strategies([("a", report.rows), ("b", shuffled),
                                   ("b", report.rows)]) == ref

    def test_repeat_run_over_other_samples_rejected(self, tiny_run):
        _, report = tiny_run
        other = [dict(r) for r in report.rows]
        other[0]["sample_id"] = "not_in_the_first_run"
        with pytest.raises(ValueError, match="mismatch"):
            compare_strategies([("a", report.rows), ("b", report.rows), ("a", other)])

    def test_wilcoxon_csv_written(self, tiny_run, tmp_path):
        _, report = tiny_run
        rows_b = [dict(r) for r in report.rows]
        for r in rows_b:
            r["mae_tta"] += 0.05
        comparison = compare_strategies([("a", report.rows), ("b", rows_b)])
        out = tmp_path / "w.csv"
        write_wilcoxon_csv(comparison, out)
        text = out.read_text()
        assert "alpha_corr" in text and "mae:" in text


    def test_wilcoxon_csv_says_why_untested(self, tiny_run, tmp_path):
        _, report = tiny_run
        rows_a = [dict(r) for r in report.rows[:10]]
        rows_b = [dict(r) for r in rows_a]
        for r in rows_b[:3]:  # the arms differ on 3 of 10 samples
            for m in ("mae_tta", "ssim_tta", "psnr_tta"):
                r[m] += 0.05
        rows_b[5]["psnr_tta"] = float("nan")
        comparison = compare_strategies([("a", rows_a), ("b", rows_b),
                                         ("c", [dict(r) for r in rows_a])])
        out = tmp_path / "w.csv"
        write_wilcoxon_csv(comparison, out)
        rows = {row[0]: row[1:] for row in csv.reader(out.read_text().splitlines())}
        assert rows["a"] == ["-", "ssim:n=3<5 mae:n=3<5 psnr:non-finite",
                             "ssim:all-zero mae:all-zero psnr:all-zero"]
        assert "need >= 5 non-zero differences, got 3" in json.dumps(comparison)


class TestReportFiles:
    def test_budget_csv_is_report_csv_projected(self, tiny_run):
        _, report = tiny_run
        report_lines = (report.run_dir / "report.csv").read_text().splitlines()
        budget_lines = (report.run_dir / "budget.csv").read_text().splitlines()
        columns = ["sample_id", "triggered", "configs_evaluated", "adapt_steps_total",
                   "forwards_total"]
        assert budget_lines[0] == ",".join(columns)
        assert len(budget_lines) == len(report_lines) == len(report.rows) + 1
        for full, budget in zip(csv.DictReader(report_lines), csv.DictReader(budget_lines)):
            assert budget == {k: full[k] for k in columns}


class TestSummary:
    def test_summary_structure(self, tiny_run):
        _, report = tiny_run
        s = report.summary
        assert s["schema_version"] == 1
        for scope in ("A", "B"):
            for m in ("mae", "psnr", "ssim"):
                assert "mean" in s["with_tta"][scope][m]
                assert s["with_tta"][scope][m]["std"] >= 0 or \
                    np.isnan(s["with_tta"][scope][m]["std"])

    def test_stage_seconds(self, tiny_run):
        _, report = tiny_run
        s = json.loads((report.run_dir / "summary.json").read_text())
        stages = s["stage_seconds"]
        assert set(stages) == {"data", "task", "suite", "calibrate", "tta"}
        assert all(v >= 0 for v in stages.values())
        assert s["runtime_seconds"] == stages["tta"]

    def test_failed_configs_counted_outside_report_csv(self, tiny_run, monkeypatch):
        cfg, report = tiny_run
        assert report.summary["failed_configs"] == 0

        def raising(*args, **kwargs):
            raise NumericError("injected")

        # conv2d_1x1 runs only in the level adaptors: every configuration fails
        monkeypatch.setattr(T, "conv2d_1x1", raising)
        failing = pipeline_run(cfg.with_overrides(strategy="be", percentile=50.0))
        s = json.loads((failing.run_dir / "summary.json").read_text())
        evaluated = sum(r["configs_evaluated"] for r in failing.rows)
        assert s["failed_configs"] == evaluated > 0
        header = (failing.run_dir / "report.csv").read_text().splitlines()[0]
        assert header.split(",") == P.REPORT_COLUMNS

    def test_metrics_summary_subset(self, tiny_run):
        _, report = tiny_run
        summary = metrics_summary(report.rows, "tta")
        assert summary["n_B"] == report.summary["n_triggered"]

    def test_all_nan_subset_metric_is_nan(self, tiny_run):
        _, report = tiny_run
        rows = [dict(r) for r in report.rows]
        assert any(r["triggered"] for r in rows) and not all(r["triggered"] for r in rows)
        for r in rows:
            if r["triggered"]:
                r["psnr_tta"] = float("nan")  # an identical image has no PSNR
        summary = metrics_summary(rows, "tta")  # a RuntimeWarning would raise here
        assert np.isnan(summary["B"]["psnr"]["mean"]) and np.isnan(summary["B"]["psnr"]["std"])
        assert np.isfinite(summary["A"]["psnr"]["mean"])


class TestImageMetricsOnce:
    def test_one_call_per_untriggered_row(self, tiny_run, monkeypatch):
        cfg, report = tiny_run
        dataset = P.ensure_dataset(cfg)
        task = P.ensure_task(cfg, dataset)
        suite = P.ensure_suite(cfg, task, dataset)
        calls = []
        metrics = P._image_metrics

        def counting(output, target):
            calls.append(output)
            return metrics(output, target)

        monkeypatch.setattr(P, "_image_metrics", counting)
        rows = P.run_tta(cfg, task, suite, dataset, report.tau)
        n_triggered = sum(r["triggered"] for r in rows)
        assert 0 < n_triggered < len(rows)
        assert len(calls) == len(rows) + n_triggered
        assert rows == report.rows

    def test_all_failing_sample_reuses_its_gate_pass(self, small_stack, tmp_path, monkeypatch):
        ds, task, suite = small_stack
        unadapted, metric_calls = [], []
        forward, metrics = type(task).forward_trace, P._image_metrics

        def counting_forward(model, x, feature_hook=None):
            if feature_hook is None:  # adapted passes hook the level adaptors in
                unadapted.append(x)
            return forward(model, x, feature_hook)

        def counting_metrics(output, target):
            metric_calls.append(output)
            return metrics(output, target)

        def raising(*args, **kwargs):
            raise NumericError("injected")

        # conv2d_1x1 runs only in the level adaptors: every configuration fails at once
        monkeypatch.setattr(T, "conv2d_1x1", raising)
        monkeypatch.setattr(type(task), "forward_trace", counting_forward)
        monkeypatch.setattr(P, "_image_metrics", counting_metrics)
        cfg = RunConfig(workdir=str(tmp_path), strategy="grid", steps=3)
        sid = ds.samples["ood_test"][0][0]
        [row] = P.run_tta(cfg, task, suite, ds, tau=0.0, sample_ids={sid})
        assert row["triggered"] and row["failed_configs"] == row["configs_evaluated"] == 7
        assert row["eps_best"] == row["eps_unadapted"]
        assert len(unadapted) == 1 and len(metric_calls) == 1
        assert (row["mae_tta"], row["ssim_tta"]) == (row["mae_base"], row["ssim_base"])


def test_run_tta_builds_its_runner_from_every_setting(small_stack, tmp_path, monkeypatch):
    """run_tta sets every TtaRunner field it does not bind to the stack, and
    the benchmark's recompute_mae builds its runner from the same settings."""
    ds, task, suite = small_stack
    cfg = RunConfig(workdir=str(tmp_path))
    settings = {f.name for f in dataclasses.fields(P.TtaRunner)} - {"task", "suite"}
    calls = []

    def recording(runner_class):
        return lambda **kwargs: calls.append(set(kwargs) - {"task", "suite"}) or \
            runner_class(**kwargs)

    monkeypatch.setattr(P, "TtaRunner", recording(P.TtaRunner))
    P.run_tta(cfg, task, suite, ds, tau=0.0, sample_ids=set())
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "ttabench"))
    import harness
    monkeypatch.setattr(harness, "TtaRunner", recording(harness.TtaRunner))
    harness.recompute_mae(cfg, ds, task, suite, 0.0, rows=[])
    assert settings == {"m_steps", "adaptor_lr", "adaptor_width", "loss_weights", "seed"}
    assert calls == [settings, settings]


class TestTraces:
    def test_dump_traces_writes_json(self, tmp_path):
        cfg = tiny_config(tmp_path / "tr", dump_traces=True, strategy="fs",
                          percentile=85.0)
        report = pipeline_run(cfg)
        trace_dir = report.run_dir / "traces"
        triggered = [r for r in report.rows if r["triggered"]]
        if triggered:  # gate depends on the draw; only assert consistency
            files = list(trace_dir.glob("*.json"))
            assert len(files) == len(triggered)
            payload = json.loads(files[0].read_text())
            assert "traces" in payload and len(payload["traces"]) >= 1

    def test_sample_filter_keeps_stream_index(self, tmp_path):
        cfg = tiny_config(tmp_path / "tr", dump_traces=True, strategy="grid",
                          tau_transductive=True, percentile=50.0)
        report = pipeline_run(cfg)
        fired = [r["sample_id"] for r in report.rows if r["triggered"]]
        quiet = [r["sample_id"] for r in report.rows if not r["triggered"]]
        wanted = {fired[-1], quiet[-1]}  # late in the stream, so the index matters
        dataset = P.ensure_dataset(cfg)
        task = P.ensure_task(cfg, dataset)
        suite = P.ensure_suite(cfg, task, dataset)
        out = tmp_path / "filtered"
        rows = P.run_tta(cfg, task, suite, dataset, report.tau, trace_dir=out,
                         sample_ids=wanted)
        assert [r for r in report.rows if r["sample_id"] in wanted] == rows
        assert [f.name for f in out.iterdir()] == [f"{fired[-1]}.json"]
        run_file = report.run_dir / "traces" / f"{fired[-1]}.json"
        assert (out / f"{fired[-1]}.json").read_bytes() == run_file.read_bytes()


# one changed value per RunConfig field
_FIELD_CHANGES = {
    "seed": 4, "n_layers": 5, "base_channels": 8, "max_channels": 32, "task_lr": 1e-3,
    "task_hold": 3, "task_decay": 3, "recon_lr": 2e-3, "recon_hold": 2, "recon_decay": 4,
    "strategy": "grid", "percentile": 90.0, "steps": 3, "adaptor_lr": 1e-2,
    "tau_transductive": True, "dump_traces": True,
    "workdir": None, "data": None,  # built from the base config in the test
}


class TestRunIdentity:
    """Each RunConfig field either moves a run's directory or is refused in it."""

    def test_table_covers_every_field(self):
        assert set(_FIELD_CHANGES) == {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("field", sorted(_FIELD_CHANGES))
    def test_changed_field_moves_or_is_refused(self, tmp_path, field):
        base = tiny_config(tmp_path / "w")
        value = {"workdir": str(tmp_path / "other"),
                 "data": dataclasses.replace(base.data, ood_test=13)}.get(field,
                                                                         _FIELD_CHANGES[field])
        changed = dataclasses.replace(base, **{field: value})
        assert getattr(changed, field) != getattr(base, field)
        claimed = P.open_run_dir(base)
        (claimed / "report.csv").write_text("")  # base's run has finished
        if Path(changed.workdir) / "runs" / changed.run_name() != claimed:
            assert P.open_run_dir(changed) != claimed  # the identity moved
        elif field == "dump_traces":  # traces do not change what a run computes
            assert P.open_run_dir(changed) == claimed
        else:
            key = "data.ood_test" if field == "data" else field
            with pytest.raises(P.RunConflict, match=key):
                P.open_run_dir(changed)

    def test_pipeline_refuses_before_any_work(self, tmp_path):
        base = tiny_config(tmp_path)
        (P.open_run_dir(base) / "traces").mkdir()  # a dump of base's run
        with pytest.raises(P.RunConflict, match="adaptor_lr"):
            pipeline_run(dataclasses.replace(base, adaptor_lr=1e-2))
        assert not (tmp_path / "data").exists()

    def test_claim_without_outputs_passes_on(self, tmp_path):
        base = tiny_config(tmp_path)
        run_dir = P.open_run_dir(base)
        changed = dataclasses.replace(base, task_lr=1e-3)
        assert P.open_run_dir(changed) == run_dir
        saved = json.loads((run_dir / "manifest.json").read_text())["config"]
        assert saved["task_lr"] == 1e-3
        (run_dir / "traces").mkdir()
        with pytest.raises(P.RunConflict, match="task_lr"):
            P.open_run_dir(base)

    def test_manifest_with_a_removed_field_refused(self, tmp_path):
        base = tiny_config(tmp_path)
        run_dir = P.open_run_dir(base)
        (run_dir / "report.csv").write_text("")
        manifest = run_dir / "manifest.json"
        saved = json.loads(manifest.read_text())
        saved["config"]["tpe_trials"] = 20
        manifest.write_text(json.dumps(saved))
        with pytest.raises(P.RunConflict, match="tpe_trials"):
            P.open_run_dir(base)
        # the fixed settings were fields before, so older manifests name them
        saved["config"].update(batch_size=8, adaptor_width=8, loss_weights=[1.0, 1.0, 1.0])
        manifest.write_text(json.dumps(saved))
        with pytest.raises(P.RunConflict, match="adaptor_width, batch_size, loss_weights"):
            P.open_run_dir(base)

    def test_outputs_without_manifest_refused(self, tmp_path):
        base = tiny_config(tmp_path, strategy="grid")
        run_dir = P.open_run_dir(base)
        (run_dir / "report.csv").write_text("grid's rows")
        (run_dir / "manifest.json").unlink()
        with pytest.raises(P.RunConflict, match=re.escape(str(run_dir))):
            P.open_run_dir(dataclasses.replace(base, adaptor_lr=0.5))
        assert not (run_dir / "manifest.json").exists()
        assert (run_dir / "report.csv").read_text() == "grid's rows"

    def test_outputs_beside_cut_off_manifest_refused(self, tmp_path):
        base = tiny_config(tmp_path)
        run_dir = P.open_run_dir(base)
        (run_dir / "report.csv").write_text("")
        (run_dir / "manifest.json").write_text('{"schema_ver')
        with pytest.raises(P.RunConflict, match=re.escape(str(run_dir))):
            P.open_run_dir(base)
        assert (run_dir / "manifest.json").read_text() == '{"schema_ver'

    def test_failed_run_then_changed_config(self, tiny_run, monkeypatch):
        cfg = dataclasses.replace(tiny_run[0], percentile=80.0)

        def fail(*args, **kwargs):
            raise NumericError("non-finite values in a test stage")

        with monkeypatch.context() as m:
            m.setattr(P, "run_tta", fail)
            with pytest.raises(NumericError):
                pipeline_run(cfg)
        report = pipeline_run(dataclasses.replace(cfg, adaptor_lr=1e-2))
        assert (report.run_dir / "report.csv").exists()
        saved = json.loads((report.run_dir / "manifest.json").read_text())["config"]
        assert saved["adaptor_lr"] == 1e-2

    def test_finished_run_kept(self, tiny_run):
        cfg, report = tiny_run
        before = {f.name: f.read_bytes() for f in report.run_dir.iterdir() if f.is_file()}
        with pytest.raises(P.RunConflict, match="adaptor_lr"):
            pipeline_run(dataclasses.replace(cfg, adaptor_lr=1e-2))
        assert {f.name: f.read_bytes() for f in report.run_dir.iterdir()
                if f.is_file()} == before


class TestArtifactReuse:
    """A stage reuses its artifact only when its config slice and upstream hash match."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"task": 0, "suite": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(P, "train_task", counting("task", P.train_task))
        monkeypatch.setattr(P, "train_recon_suite", counting("suite", P.train_recon_suite))
        return calls

    @staticmethod
    def build(cfg):
        dataset = P.ensure_dataset(cfg)
        task = P.ensure_task(cfg, dataset)
        suite = P.ensure_suite(cfg, task, dataset)
        return task.checksum(), suite.checksum()

    @staticmethod
    def config(workdir, **data):
        spec = dict(train=8, calib=2, id_test=2, ood_test=2, image_size=16, seed=5)
        spec.update(data)
        return RunConfig(workdir=str(workdir), data=SyntheticTaskSpec(**spec), n_layers=5,
                         base_channels=4, max_channels=8, task_hold=1, task_decay=0,
                         recon_hold=1, recon_decay=0)

    def test_unchanged_config_reuses_both(self, tmp_path, counted):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        assert self.build(cfg) == first
        assert counted == {"task": 1, "suite": 1}

    def test_changed_noise_retrains_task_and_suite(self, tmp_path, counted):
        first = self.build(self.config(tmp_path))
        second = self.build(self.config(tmp_path, noise_sigma=0.5))
        assert counted == {"task": 2, "suite": 2}
        assert second[0] != first[0] and second[1] != first[1]

    @pytest.mark.parametrize("override", [dict(task_lr=1e-3), dict(task_hold=2),
                                          dict(n_layers=6), dict(base_channels=8),
                                          dict(seed=1)])
    def test_changed_task_training_retrains_task_and_suite(self, tmp_path, counted, override):
        cfg = self.config(tmp_path)
        self.build(cfg)
        self.build(cfg.with_overrides(**override))
        assert counted == {"task": 2, "suite": 2}

    def test_changed_recon_schedule_retrains_suite_only(self, tmp_path, counted):
        cfg = self.config(tmp_path)
        self.build(cfg)
        self.build(cfg.with_overrides(recon_lr=5e-4))
        assert counted == {"task": 1, "suite": 2}

    def test_unloadable_suite_logged_and_retrained(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        self.build(cfg)
        blob = next((tmp_path / "recon").glob("member_*/layer0.weight.tnsr"))
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF  # the manifest's sha256 no longer matches
        blob.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            self.build(cfg)
        assert counted == {"task": 1, "suite": 2}
        assert "retraining" in caplog.text

    def test_corrupt_task_blob_logged_and_retrained(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        blob = tmp_path / "task" / "layer0.weight.tnsr"
        data = bytearray(blob.read_bytes())
        data[-1] ^= 0xFF  # the manifest's sha256 no longer matches
        blob.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "retraining" in caplog.text
        # the retrained task has the fresh build's checksum, which the suite's
        # provenance names, so the suite is reused
        assert second == first
        assert counted == {"task": 2, "suite": 1}

    def test_missing_task_blob_logged_and_retrained(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        (tmp_path / "task" / "layer0.weight.tnsr").unlink()
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "retraining" in caplog.text
        assert second == first
        assert counted == {"task": 2, "suite": 1}

    def test_missing_suite_blob_logged_and_retrained(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        next((tmp_path / "recon").glob("member_*/layer0.weight.tnsr")).unlink()
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "retraining" in caplog.text
        assert second == first
        assert counted == {"task": 1, "suite": 2}

    @pytest.mark.parametrize("damage", ["flipped", "missing"])
    def test_damaged_sample_logged_and_regenerated(self, tmp_path, caplog, damage):
        cfg = self.config(tmp_path)
        first = P.ensure_dataset(cfg)
        sha = P._dataset_sha(cfg)
        split_file = tmp_path / "data" / "train.x.tnsr"
        clean = split_file.read_bytes()
        if damage == "missing":
            split_file.unlink()
        else:
            data = bytearray(clean)
            data[-1] ^= 0xFF  # still a valid TNSR file, but not the indexed content
            split_file.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = P.ensure_dataset(cfg)
        assert "regenerating" in caplog.text
        assert P._dataset_sha(cfg) == sha and split_file.read_bytes() == clean
        for (x0, y0), (x1, y1) in zip(first.pairs("train"), second.pairs("train")):
            assert np.array_equal(x0, x1) and np.array_equal(y0, y1)

    @pytest.mark.parametrize("damage", ["one sample short", "cut short"])
    def test_short_split_file_named_and_regenerated(self, tmp_path, caplog, damage):
        cfg = self.config(tmp_path)
        P.ensure_dataset(cfg)
        split_file = tmp_path / "data" / "train.x.tnsr"
        clean = split_file.read_bytes()
        if damage == "one sample short":  # a well-formed file whose header says 7, not 8
            split_file.write_bytes(tnsr_bytes(parse_tnsr(clean)[:-1]))
        else:
            split_file.write_bytes(clean[:-4])
        with pytest.raises(ValueError, match=re.escape(str(split_file))):
            P.load_dataset(tmp_path / "data")
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            P.ensure_dataset(cfg)
        assert "regenerating" in caplog.text and str(split_file) in caplog.text
        assert split_file.read_bytes() == clean

    def test_version_1_data_regenerated_once(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        data = tmp_path / "data"
        index = json.loads((data / "index.json").read_text())
        # rewrite the directory in version 1's layout, one TNSR file per sample
        # and array, whose paths and bytes in order give the same content hash
        h = hashlib.sha256()
        for split, samples in P.load_dataset(data).samples.items():
            (data / split).mkdir(exist_ok=True)
            for i, (_, x, y) in enumerate(samples):
                for name, arr in (("x", x), ("y", y)):
                    rel = f"{split}/{i:04d}.{name}.tnsr"
                    (data / rel).write_bytes(tnsr_bytes(arr))
                    h.update(rel.encode())
                    h.update(tnsr_bytes(arr))
                for name in "xy":
                    (data / f"{split}.{name}.tnsr").unlink(missing_ok=True)
        assert h.hexdigest() == index["content_sha256"]
        (data / "index.json").write_text(json.dumps({**index, "version": 1}))
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "regenerating" in caplog.text and "version 1" in caplog.text
        assert second == first
        assert counted == {"task": 1, "suite": 1}
        assert P._dataset_sha(cfg) == index["content_sha256"]
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=P.__name__):
            assert self.build(cfg) == first
        assert caplog.text == ""
        assert (data / "train" / "0000.x.tnsr").exists()  # left for the user to delete

    def test_write_cut_off_leaves_whole_files_and_regenerates(self, tmp_path, monkeypatch,
                                                              caplog):
        P.ensure_dataset(self.config(tmp_path))
        data = tmp_path / "data"
        index = (data / "index.json").read_bytes()
        real_open = builtins.open

        class DiskFull:
            """A file that takes its header, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, blob):
                if self.f.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.f.write(blob)

        def opening(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return DiskFull(f) if Path(file).name.startswith("calib.y.tnsr") else f

        cfg = self.config(tmp_path, noise_sigma=0.3)
        monkeypatch.setattr(builtins, "open", opening)
        with pytest.raises(OSError, match="No space left"):
            P.ensure_dataset(cfg)
        monkeypatch.undo()
        assert sorted(p.name for p in data.iterdir()) == \
            ["calib.x.tnsr", "calib.y.tnsr", "id_test.x.tnsr", "id_test.y.tnsr", "index.json",
             "ood_test.x.tnsr", "ood_test.y.tnsr", "train.x.tnsr", "train.y.tnsr"]
        for path in data.glob("*.tnsr"):
            parse_tnsr(path.read_bytes(), path)
        assert (data / "index.json").read_bytes() == index
        with caplog.at_level(logging.INFO, logger=P.__name__):
            dataset = P.ensure_dataset(cfg)
        assert "regenerating" in caplog.text
        fresh = synthesize(cfg.data)
        for split in SPLITS:
            for (x0, y0), (x1, y1) in zip(fresh.pairs(split), dataset.pairs(split)):
                assert np.array_equal(x0, x1) and np.array_equal(y0, y1)
        assert P.load_dataset(data).spec.noise_sigma == 0.3

    def test_empty_task_manifest_logged_and_retrained(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        (tmp_path / "task" / "manifest.json").write_text("")  # a save cut off after truncating
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "retraining" in caplog.text
        assert second == first
        assert counted == {"task": 2, "suite": 1}

    def test_truncated_data_index_logged_and_regenerated(self, tmp_path, caplog):
        cfg = self.config(tmp_path)
        first = P.ensure_dataset(cfg)
        sha = P._dataset_sha(cfg)
        index = tmp_path / "data" / "index.json"
        text = index.read_text()
        index.write_text(text[:len(text) // 2])
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = P.ensure_dataset(cfg)
        assert "regenerating" in caplog.text
        assert index.read_text() == text and P._dataset_sha(cfg) == sha
        for (x0, y0), (x1, y1) in zip(first.pairs("train"), second.pairs("train")):
            assert np.array_equal(x0, x1) and np.array_equal(y0, y1)

    def test_changed_data_spec_logged_and_regenerated(self, tmp_path, caplog):
        P.ensure_dataset(self.config(tmp_path))
        with caplog.at_level(logging.INFO, logger=P.__name__):
            P.ensure_dataset(self.config(tmp_path, noise_sigma=0.3))
        assert "regenerating" in caplog.text and "'noise_sigma': 0.3" in caplog.text
        assert P.load_dataset(tmp_path / "data").spec.noise_sigma == 0.3

    def test_version_1_checkpoints_retrained_once(self, tmp_path, counted, caplog):
        cfg = self.config(tmp_path)
        first = self.build(cfg)
        for name in ("task", "recon"):
            path = tmp_path / name / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["version"] = 1
            if name == "recon":  # version 1 listed a member's blobs in its own manifest
                del manifest["params"], manifest["trained"]
                (path.parent / "member_x" / "manifest.json").write_text("{}")
            path.write_text(json.dumps(manifest))
        with caplog.at_level(logging.WARNING, logger=P.__name__):
            second = self.build(cfg)
        assert "retraining" in caplog.text and "version 1" in caplog.text
        assert counted == {"task": 2, "suite": 2}
        assert self.build(cfg) == second == first
        assert counted == {"task": 2, "suite": 2}
        recon = tmp_path / "recon"
        assert list(recon.rglob("manifest.json")) == [recon / "manifest.json"]
