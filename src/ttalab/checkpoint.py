"""Checkpoints: a manifest.json plus one TNSR blob per parameter tensor.

Round trips are bitwise-lossless; every blob's SHA-256 is recorded in the
manifest and verified on load.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .recon import ReconSuite
from .tasknet import TaskModel
from .tensor import Tensor, read_tnsr, write_tnsr

_CKPT_VERSION = 1


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_params(root: Path, named: list[tuple[str, Tensor]]) -> list[dict]:
    entries = []
    for name, t in named:
        fname = f"{name}.tnsr"
        write_tnsr(root / fname, t.data)
        entries.append({"name": name, "file": fname, "sha256": _sha256_file(root / fname)})
    return entries


def _read_params(root: Path, entries: list[dict], named: list[tuple[str, Tensor]]) -> None:
    by_name = dict(named)
    if set(by_name) != {e["name"] for e in entries}:
        raise ValueError(f"checkpoint parameter set mismatch under {root}")
    for e in entries:
        path = root / e["file"]
        if _sha256_file(path) != e["sha256"]:
            raise ValueError(f"checkpoint blob corrupt: {path}")
        data = read_tnsr(path)
        target = by_name[e["name"]]
        if data.shape != target.data.shape:
            raise ValueError(f"architecture mismatch for {e['name']}: "
                             f"{data.shape} vs {target.data.shape}")
        target.data = data


def _named_layer_params(layers) -> list[tuple[str, Tensor]]:
    out = []
    for i, layer in enumerate(layers):
        out.append((f"layer{i}.weight", layer.weight))
        out.append((f"layer{i}.bias", layer.bias))
    return out


def save_task(model: TaskModel, path, provenance: dict | None = None) -> None:
    """provenance: what the model was built from, kept verbatim in the manifest."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = _write_params(root, _named_layer_params(model.layers))
    manifest = {"kind": "task_model", "version": _CKPT_VERSION,
                "config": model.config_dict(),
                "layer_specs": [layer.spec.to_dict() for layer in model.layers],
                "params": entries, "provenance": provenance}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_task(path) -> TaskModel:
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("kind") != "task_model":
        raise ValueError(f"{root}: not a task model checkpoint")
    if manifest.get("version") != _CKPT_VERSION:
        raise ValueError(f"{root}: unsupported checkpoint version {manifest.get('version')}")
    cfg = manifest["config"]
    model = TaskModel(n_layers=cfg["n_layers"], io_channels=cfg["io_channels"],
                      image_size=cfg["image_size"], base_channels=cfg["base_channels"],
                      max_channels=cfg["max_channels"], seed=cfg["seed"])
    specs = manifest.get("layer_specs")
    if specs is not None and len(specs) != len(model.layers):
        raise ValueError(f"{root}: layer list does not match the rebuilt architecture")
    _read_params(root, manifest["params"], _named_layer_params(model.layers))
    model.trained_epochs = cfg.get("trained_epochs", 0)
    return model


def save_suite(suite: ReconSuite, path, provenance: dict | None = None) -> None:
    """provenance: what the suite was built from, kept verbatim in the manifest."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    members = {}
    for key in suite.member_keys():
        sub = f"member_{key}"
        subdir = root / sub
        subdir.mkdir(exist_ok=True)
        ae = suite.members[key]
        entries = _write_params(subdir, _named_layer_params(ae.layers))
        sub_manifest = {"kind": "autoencoder", "version": _CKPT_VERSION,
                        "config": ae.config_dict(), "params": entries}
        (subdir / "manifest.json").write_text(json.dumps(sub_manifest, indent=2))
        members[str(key)] = {"dir": sub, "trained": bool(suite.trained[key])}
    manifest = {"kind": "recon_suite", "version": _CKPT_VERSION,
                "task_layers": suite.n_layers, "num_levels": suite.num_levels,
                "seed": suite.seed, "members": members, "provenance": provenance}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_suite(path, task: TaskModel) -> ReconSuite:
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("kind") != "recon_suite":
        raise ValueError(f"{root}: not a reconstruction suite checkpoint")
    if manifest.get("version") != _CKPT_VERSION:
        raise ValueError(f"{root}: unsupported checkpoint version {manifest.get('version')}")
    if manifest["task_layers"] != task.n_layers:
        raise ValueError(f"architecture mismatch: suite was trained against "
                         f"{manifest['task_layers']} layers, task model has {task.n_layers}")
    suite = ReconSuite(task, seed=manifest["seed"])
    for key in suite.member_keys():
        entry = manifest["members"][str(key)]
        subdir = root / entry["dir"]
        sub_manifest = json.loads((subdir / "manifest.json").read_text())
        _read_params(subdir, sub_manifest["params"],
                     _named_layer_params(suite.members[key].layers))
        suite.trained[key] = bool(entry["trained"])
    return suite
