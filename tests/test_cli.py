import json
from dataclasses import replace

import pytest

import ttalab.cli as cli
from ttalab.cli import main
from ttalab.pipeline import RunConfig


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = {
        "workdir": str(root / "w"),
        "seed": 4,
        "data": {"kind": "denoise", "image_size": 16, "train": 20, "calib": 12,
                 "id_test": 8, "ood_test": 8, "noise_sigma": 0.2, "noise_mix": 0.5,
                 "shift": {"noise_mult": 2.0, "gamma": 1.0, "blur": 0.0}, "seed": 4},
        "task_hold": 2, "task_decay": 2,
        "recon_hold": 1, "recon_decay": 2,
        "steps": 2,
        "strategy": "fs",
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return root, cfg_path


def test_gen_data(cli_workspace, capsys):
    root, cfg = cli_workspace
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert (root / "w" / "data" / "index.json").exists()
    assert "48 sample pairs" in capsys.readouterr().out


def test_train_and_calibrate(cli_workspace, capsys):
    root, cfg = cli_workspace
    assert main(["train-task", "--config", str(cfg)]) == 0
    assert (root / "w" / "task" / "manifest.json").exists()
    assert main(["train-recon", "--config", str(cfg)]) == 0
    assert (root / "w" / "recon" / "manifest.json").exists()
    assert main(["calibrate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "tau" in out


def test_run_tta_and_evaluate(cli_workspace, capsys):
    root, cfg = cli_workspace
    assert main(["run-tta", "--config", str(cfg), "--strategy", "fs",
                 "--percentile", "90"]) == 0
    run_dir = root / "w" / "runs" / "fs_p90_M2_seed4"
    assert (run_dir / "report.csv").exists()
    capsys.readouterr()
    assert main(["evaluate", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "with-TTA" in out and "no-TTA" in out


def test_compare(cli_workspace, capsys, tmp_path):
    root, cfg = cli_workspace
    assert main(["run-tta", "--config", str(cfg), "--strategy", "be",
                 "--percentile", "90"]) == 0
    out_stem = tmp_path / "cmp"
    assert main(["compare",
                 str(root / "w" / "runs" / "fs_p90_M2_seed4"),
                 str(root / "w" / "runs" / "be_p90_M2_seed4"),
                 "--out", str(out_stem)]) == 0
    assert out_stem.with_suffix(".csv").exists()
    assert out_stem.with_suffix(".json").exists()
    payload = json.loads(out_stem.with_suffix(".json").read_text())
    assert payload["strategies"] == ["be", "fs"]


def test_compare_keeps_percentiles_apart(cli_workspace, capsys, tmp_path):
    root, cfg = cli_workspace
    runs = root / "w" / "runs"
    for percentile in ("90", "80"):
        assert main(["run-tta", "--config", str(cfg), "--strategy", "grid",
                     "--percentile", percentile]) == 0
    out_stem = tmp_path / "cmp"
    assert main(["compare", str(runs / "grid_p90_M2_seed4"), str(runs / "grid_p80_M2_seed4"),
                 str(runs / "fs_p90_M2_seed4"), "--out", str(out_stem)]) == 0
    payload = json.loads(out_stem.with_suffix(".json").read_text())
    assert payload["strategies"] == ["fs", "grid_p80_M2_seed4", "grid_p90_M2_seed4"]


def test_dump_traces(cli_workspace, capsys):
    root, cfg = cli_workspace
    assert main(["dump-traces", "--config", str(cfg), "--strategy", "grid",
                 "--percentile", "85", "--sample-id", "ood_test-0000"]) == 0
    out = capsys.readouterr().out
    assert "trace files" in out


def test_dump_traces_honours_tpe_config(cli_workspace, tmp_path, capsys):
    root, cfg = cli_workspace
    tpe_cfg = tmp_path / "tpe.json"
    tpe_cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                                   "tpe_trials": 3, "tpe_start": 2}))
    assert main(["dump-traces", "--config", str(tpe_cfg), "--strategy", "tpe",
                 "--tau-transductive", "--percentile", "5",
                 "--sample-id", "ood_test-0000"]) == 0
    trace = root / "w" / "runs" / "tpe_p5_M2_seed4" / "traces" / "ood_test-0000.json"
    payload = json.loads(trace.read_text())
    assert len(payload["traces"]) == 3


def test_dump_traces_of_two_strategies_both_remain(cli_workspace, capsys):
    root, cfg = cli_workspace
    for strategy in ("grid", "fs"):
        assert main(["dump-traces", "--config", str(cfg), "--strategy", strategy,
                     "--tau-transductive", "--percentile", "6",
                     "--sample-id", "ood_test-0001"]) == 0
    for strategy, configs in (("grid", 7), ("fs", None)):
        trace = root / "w" / "runs" / f"{strategy}_p6_M2_seed4" / "traces" / "ood_test-0001.json"
        payload = json.loads(trace.read_text())
        assert configs is None or len(payload["traces"]) == configs
    assert not (root / "w" / "traces").exists()


def test_run_with_other_config_refused(cli_workspace, capsys):
    root, cfg = cli_workspace
    args = ["run-tta", "--config", str(cfg), "--strategy", "fs", "--percentile", "75"]
    assert main(args) == 0
    report = root / "w" / "runs" / "fs_p75_M2_seed4" / "report.csv"
    before = report.read_bytes()
    capsys.readouterr()
    assert main(args + ["--adaptor-lr", "0.01", "--tau-transductive"]) == 2
    err = capsys.readouterr().err
    assert "adaptor_lr" in err and "tau_transductive" in err
    assert report.read_bytes() == before
    assert main(args + ["--dump-traces"]) == 0  # traces do not change what a run computes


def test_percentile_takes_any_value_inside_range(cli_workspace, capsys):
    _, cfg = cli_workspace
    assert main(["calibrate", "--config", str(cfg), "--percentile", "99.5"]) == 0
    assert "p99.5" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["100", "0", "nan"])
def test_percentile_outside_range_rejected(cli_workspace, capsys, value):
    _, cfg = cli_workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", "--config", str(cfg), "--percentile", value])
    assert exit_info.value.code == 2
    assert "not in (0, 100)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--noise-mult", "-1"), ("--shift-gamma", "0"), ("--shift-blur", "-0.5"),
])
def test_invalid_shift_flag_rejected(cli_workspace, capsys, flag, value):
    _, cfg = cli_workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", "--config", str(cfg), flag, value])
    assert exit_info.value.code == 2
    assert "invalid config" in capsys.readouterr().err


def test_unknown_strategy_flag_rejected(cli_workspace):
    _, cfg = cli_workspace
    with pytest.raises(SystemExit):
        main(["run-tta", "--config", str(cfg), "--strategy", "bogus"])


def test_retrain_reason_logged_to_stderr(tmp_path, capsys):
    config = {"workdir": str(tmp_path / "w"), "n_layers": 5, "base_channels": 4,
              "max_channels": 8, "task_hold": 1, "task_decay": 0,
              "data": {"image_size": 16, "train": 8, "calib": 2, "id_test": 2, "ood_test": 2}}
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_text(json.dumps(config))
    second.write_text(json.dumps({**config, "task_lr": 1e-3}))
    assert main(["train-task", "--config", str(first)]) == 0
    capsys.readouterr()
    assert main(["train-task", "--config", str(second)]) == 0
    err = capsys.readouterr().err
    assert "retraining" in err and "'base_lr': 0.001" in err


@pytest.mark.parametrize("field, value", [
    ("steps", 0), ("adaptor_width", 0), ("batch_size", 0), ("loss_weights", [1.0, -1.0, 1.0]),
    ("tpe_start", 21), ("tpe_gamma", 2.0), ("tpe_candidates", 0), ("n_layers", 4),
    ("base_channels", 0), ("seed", -1), ("adaptor_lr", -1.0), ("task_lr", 0.0),
    ("recon_hold", -1), ("percentile", 100.0), ("strategy", "anneal"), ("psnr_max", "peak"),
    ("stepz", 3), ("data", {"shift": {"noise_mul": 3}}), ("loss_weights", 1.0), ("steps", "5"),
    ("steps", 2.5), ("n_layers", 7.0),
])
def test_invalid_config_rejected_before_any_work(cli_workspace, tmp_path, capsys, field, value):
    _, cfg = cli_workspace
    bad = {**json.loads(cfg.read_text()), "workdir": str(tmp_path / "w"), field: value}
    with pytest.raises(ValueError):
        RunConfig.from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", "--config", str(path)])
    assert exit_info.value.code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("n_layers, image_size", [(7, 24), (9, 16), (5, 12), (8, 40)])
def test_image_size_the_recon_suite_cannot_encode_rejected(cli_workspace, tmp_path, capsys,
                                                           n_layers, image_size):
    _, cfg = cli_workspace
    bad = json.loads(cfg.read_text())
    bad.update(workdir=str(tmp_path / "w"), n_layers=n_layers,
               data={**bad["data"], "image_size": image_size})
    with pytest.raises(ValueError, match="data.image_size .* n_layers"):
        RunConfig.from_dict(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SystemExit) as exit_info:
        main(["train-task", "--config", str(path)])
    assert exit_info.value.code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("n_layers, image_size", [(5, 8), (6, 16), (7, 16), (7, 32), (8, 48),
                                                  (9, 32)])
def test_image_size_the_recon_suite_can_encode_accepted(n_layers, image_size):
    cfg = RunConfig(n_layers=n_layers, data=replace(RunConfig().data, image_size=image_size))
    assert (cfg.n_layers, cfg.data.image_size) == (n_layers, image_size)


def test_every_field_flag_sets_its_field(cli_workspace, monkeypatch, tmp_path):
    root, cfg_path = cli_workspace
    seen = []
    monkeypatch.setattr(cli, "_run", lambda args, cfg: seen.append(cfg) or 0)
    fields = {"workdir": str(tmp_path / "elsewhere"), "seed": 11, "strategy": "tpe",
              "percentile": 42.5, "steps": 3, "adaptor_lr": 0.02, "tau_transductive": True,
              "fs_faithful_pseudocode": True, "psnr_max": "range", "dump_traces": True}
    shift = {"noise_mult": 3.5, "gamma": 1.25, "blur": 0.75}
    argv = ["run-tta", "--config", str(cfg_path),
            "--workdir", fields["workdir"], "--seed", "11", "--strategy", "tpe",
            "--percentile", "42.5", "--steps", "3", "--adaptor-lr", "0.02",
            "--tau-transductive", "--fs-faithful-pseudocode", "--psnr-max", "range",
            "--dump-traces", "--noise-mult", "3.5", "--shift-gamma", "1.25",
            "--shift-blur", "0.75"]
    assert main(argv) == 0
    (cfg,) = seen
    for name, value in fields.items():
        assert getattr(cfg, name) == value, name
    base = RunConfig.from_dict(json.loads(cfg_path.read_text()))
    data = replace(base.data, shift=replace(base.data.shift, **shift))
    assert cfg == base.with_overrides(data=data, **fields)
