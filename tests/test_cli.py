import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

import ttalab.cli as cli
from ttalab.cli import main
from ttalab.data import SPLITS
from ttalab.pipeline import REPORT_COLUMNS, RunConfig, write_csv

SPLIT_FILES = sorted(f"{s}.{a}.tnsr" for s in SPLITS for a in "xy")
REPO = Path(__file__).resolve().parents[1]


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


def test_gen_data_pgm_previews_stay_per_sample(tmp_path, capsys):
    config = {"workdir": str(tmp_path / "w"),
              "data": {"image_size": 16, "train": 3, "calib": 2, "id_test": 2, "ood_test": 2}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["gen-data", "--config", str(tmp_path / "c.json"), "--dump-pgm"]) == 0
    data = tmp_path / "w" / "data"
    assert sorted(p.name for p in data.glob("*.tnsr")) == SPLIT_FILES
    assert sorted(p.name for p in (data / "train").iterdir()) == \
        [f"{i:04d}.{a}.pgm" for i in range(3) for a in "xy"]


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
    assert main(["pipeline", "--config", str(cfg), "--strategy", "fs",
                 "--percentile", "90"]) == 0
    run_dir = root / "w" / "runs" / "fs_p90_M2_seed4"
    assert (run_dir / "report.csv").exists()
    capsys.readouterr()
    assert main(["evaluate", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "with-TTA" in out and "no-TTA" in out


def test_compare(cli_workspace, capsys, tmp_path):
    root, cfg = cli_workspace
    assert main(["pipeline", "--config", str(cfg), "--strategy", "be",
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
        assert main(["pipeline", "--config", str(cfg), "--strategy", "grid",
                     "--percentile", percentile]) == 0
    out_stem = tmp_path / "cmp"
    assert main(["compare", str(runs / "grid_p90_M2_seed4"), str(runs / "grid_p80_M2_seed4"),
                 str(runs / "fs_p90_M2_seed4"), "--out", str(out_stem)]) == 0
    payload = json.loads(out_stem.with_suffix(".json").read_text())
    assert payload["strategies"] == ["fs", "grid_p80_M2_seed4", "grid_p90_M2_seed4"]


def test_fs_and_fs_literal_share_a_workdir(cli_workspace, capsys, tmp_path):
    root, cfg = cli_workspace
    runs = root / "w" / "runs"
    for strategy in ("fs", "fs-literal"):
        assert main(["pipeline", "--config", str(cfg), "--strategy", strategy,
                     "--percentile", "70"]) == 0
    out_stem = tmp_path / "cmp"
    assert main(["compare", str(runs / "fs_p70_M2_seed4"), str(runs / "fs-literal_p70_M2_seed4"),
                 "--out", str(out_stem)]) == 0
    payload = json.loads(out_stem.with_suffix(".json").read_text())
    assert payload["strategies"] == ["fs", "fs-literal"]


def _cut_off_last_row(report):
    """report.csv as a run killed while writing its last row leaves it."""
    text = report.read_text()
    report.write_text(text[:text.rindex(",", 0, len(text) - 1)])


def _written_run(workdir, ids=("a", "b"), **config):
    """A run directory of RunConfig(**config) whose report.csv has one all-zero row per id."""
    cfg = RunConfig(**config)
    run_dir = workdir / cfg.run_name()
    run_dir.mkdir(parents=True)
    write_csv([{**dict.fromkeys(REPORT_COLUMNS, 0), "sample_id": sid} for sid in ids],
              run_dir / "report.csv", REPORT_COLUMNS)
    (run_dir / "manifest.json").write_text(json.dumps({"config": cfg.to_dict()}))
    return run_dir


@pytest.mark.parametrize("case, message", [
    ("no report.csv", "report.csv"), ("no manifest.json", "manifest.json"),
    ("cut-off manifest", "line 1 column"), ("other samples", "sample-id mismatch"),
    ("colliding labels", "share a directory name"), ("one arm", "two distinct"),
    ("one run", "two reports"), ("cut-off row", "report.csv: line 3 does not have"),
])
def test_bad_compare_input_is_an_error(tmp_path, capsys, case, message):
    second = {"colliding labels": dict(adaptor_lr=0.5), "one arm": dict(seed=1)}
    runs = [_written_run(tmp_path / "w1"),
            _written_run(tmp_path / "w2", ("a", "c") if case == "other samples" else ("a", "b"),
                         **second.get(case, dict(strategy="fs")))]
    if case == "no report.csv":
        (runs[1] / "report.csv").unlink()
    elif case == "no manifest.json":
        (runs[1] / "manifest.json").unlink()
    elif case == "cut-off manifest":
        (runs[1] / "manifest.json").write_text('{"schema_ver')
    elif case == "one run":
        runs.pop()
    elif case == "cut-off row":
        _cut_off_last_row(runs[1] / "report.csv")
    out_stem = tmp_path / "cmp"
    assert main(["compare", *map(str, runs), "--out", str(out_stem)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ttalab: error:") and message in err
    assert not out_stem.with_suffix(".json").exists()


@pytest.mark.parametrize("manifest", ['{"schema_version": 1}', '{"schema_ver'],
                         ids=["no config", "cut off"])
def test_compare_names_the_bad_manifest(tmp_path, capsys, manifest):
    runs = [_written_run(tmp_path / "w1"), _written_run(tmp_path / "w2", strategy="fs")]
    bad = runs[1] / "manifest.json"
    bad.write_text(manifest)
    assert main(["compare", *map(str, runs), "--out", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err.startswith(f"ttalab: error: {bad}: ")


@pytest.mark.parametrize("case, message", [("no report.csv", "report.csv"),
                                           ("bad value", "could not convert"),
                                           ("cut-off row", "report.csv: line 3 does not have")])
def test_bad_evaluate_input_is_an_error(tmp_path, capsys, case, message):
    run_dir = _written_run(tmp_path)
    if case == "no report.csv":
        (run_dir / "report.csv").unlink()
    elif case == "cut-off row":
        _cut_off_last_row(run_dir / "report.csv")
    else:
        write_csv([{**dict.fromkeys(REPORT_COLUMNS, 0), "sample_id": "a", "mae_tta": "n/a"}],
                  run_dir / "report.csv", REPORT_COLUMNS)
    assert main(["evaluate", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ttalab: error:") and message in err


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("content", ["header only", "empty"])
def test_report_without_rows_is_an_error(tmp_path, capsys, command, content):
    # a run killed after writing the header (or before) leaves no rows to score
    runs = [_written_run(tmp_path / "w1"), _written_run(tmp_path / "w2", strategy="fs")]
    for run_dir in runs:
        write_csv([], run_dir / "report.csv", REPORT_COLUMNS)
        if content == "empty":
            (run_dir / "report.csv").write_text("")
    out_stem = tmp_path / "cmp"
    args = (["evaluate", str(runs[0])] if command == "evaluate"
            else ["compare", *map(str, runs), "--out", str(out_stem)])
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"ttalab: error: {runs[0] / 'report.csv'}: holds no sample")
    assert captured.out == ""
    assert not out_stem.with_suffix(".json").exists()


def test_dump_traces(cli_workspace, capsys):
    root, cfg = cli_workspace
    assert main(["dump-traces", "--config", str(cfg), "--strategy", "grid",
                 "--percentile", "85", "--sample-id", "ood_test-0000"]) == 0
    out = capsys.readouterr().out
    assert "trace files" in out


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
    args = ["pipeline", "--config", str(cfg), "--strategy", "fs", "--percentile", "75"]
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
        main(["pipeline", "--config", str(cfg), "--strategy", "bogus"])


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


def test_pipeline_data_is_two_files_per_split(tmp_path, capsys):
    config = {"workdir": str(tmp_path / "w"), "n_layers": 5, "base_channels": 4,
              "max_channels": 8, "task_hold": 1, "task_decay": 0, "recon_hold": 1,
              "recon_decay": 0, "steps": 1,
              "data": {"image_size": 16, "train": 8, "calib": 2, "id_test": 2, "ood_test": 2}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(tmp_path / "c.json")]) == 0
    assert sorted(p.name for p in (tmp_path / "w" / "data").iterdir()) == \
        sorted(SPLIT_FILES + ["index.json"])


@pytest.mark.parametrize("field, value", [
    ("steps", 0), ("tpe_start", 21), ("tpe_gamma", 2.0),
    ("loss_weights", [1.0, 1.0, 1.0]),  # a removed field, refused as unknown
    ("tpe_candidates", 0), ("n_layers", 4), ("base_channels", 0), ("seed", -1),
    ("adaptor_lr", -1.0), ("task_lr", 0.0), ("recon_hold", -1), ("percentile", 100.0),
    ("strategy", "anneal"), ("psnr_max", "peak"), ("stepz", 3), ("steps", "5"), ("steps", 2.5),
    ("data", {"shift": {"noise_mul": 3}}), ("n_layers", 7.0), ("fs_faithful_pseudocode", True),
    ("tpe_trials", 20), ("psnr_max", "generated"),
    # removed fields, refused as unknown whatever their value
    ("adaptor_width", 0), ("batch_size", 0), ("loss_weights", 1.0),
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


def test_missing_config_file_is_an_error(tmp_path, capsys):
    missing = tmp_path / "nosuch.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["calibrate", "--config", str(missing), "--workdir", str(tmp_path / "w")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and str(missing) in err
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
              "dump_traces": True}
    shift = {"noise_mult": 3.5, "gamma": 1.25, "blur": 0.75}
    argv = ["pipeline", "--config", str(cfg_path),
            "--workdir", fields["workdir"], "--seed", "11", "--strategy", "tpe",
            "--percentile", "42.5", "--steps", "3", "--adaptor-lr", "0.02",
            "--tau-transductive", "--dump-traces", "--noise-mult", "3.5", "--shift-gamma", "1.25",
            "--shift-blur", "0.75"]
    assert main(argv) == 0
    (cfg,) = seen
    for name, value in fields.items():
        assert getattr(cfg, name) == value, name
    base = RunConfig.from_dict(json.loads(cfg_path.read_text()))
    data = replace(base.data, shift=replace(base.data.shift, **shift))
    assert cfg == base.with_overrides(data=data, **fields)


def test_every_readme_command_parses(monkeypatch):
    """Each `ttalab ...` line of the README's code blocks parses, and its
    config (configs/example.json) loads, from the repo root."""
    commands, in_block = [], False
    for line in (REPO / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("ttalab "):
            commands.append(line)
    assert len(commands) >= 8
    monkeypatch.chdir(REPO)
    monkeypatch.setattr(cli, "_run", lambda args, cfg: 0)
    for command in commands:
        try:
            code = main(shlex.split(command)[1:])
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 0, command
