"""Checkpoints: one manifest.json plus one TNSR blob per parameter tensor.

A task model keeps its blobs at layer<i>.<weight|bias>.tnsr, a recon suite at
member_<key>/layer<i>.<weight|bias>.tnsr. The manifest at the checkpoint's
root lists every blob with its SHA-256, taken from the bytes as they are
written. Loading reads each blob once and checks its hash before parsing it.
Round trips are bitwise-lossless. A checkpoint of another version (version 1
kept one sub-manifest per suite member) fails to load with ValueError.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .data import replacing
from .recon import ReconSuite
from .tasknet import TaskModel
from .tensor import Tensor, parse_tnsr, tnsr_bytes

_CKPT_VERSION = 2


def _named_params(layers, prefix: str = "") -> list[tuple[str, Tensor]]:
    return [(f"{prefix}layer{i}.{attr}", getattr(layer, attr))
            for i, layer in enumerate(layers) for attr in ("weight", "bias")]


def _suite_params(suite: ReconSuite) -> list[tuple[str, Tensor]]:
    return [p for key in suite.member_keys()
            for p in _named_params(suite.members[key].layers, f"member_{key}/")]


def _save(path, kind: str, named: list[tuple[str, Tensor]], fields: dict) -> None:
    """Write every blob under path, then the manifest: kind, version, fields, blobs.

    Each file is written beside its name and moved there once complete, so a
    save cut off midway leaves no partial file under a final name.
    """
    root = Path(path)
    entries = []
    for name, t in named:
        fname = f"{name}.tnsr"
        blob = tnsr_bytes(t.data)
        (root / fname).parent.mkdir(parents=True, exist_ok=True)
        with replacing(root / fname) as f:
            f.write(blob)
        entries.append({"name": name, "file": fname, "sha256": hashlib.sha256(blob).hexdigest()})
    for stale in root.glob("member_*/manifest.json"):  # left by a version-1 suite
        stale.unlink()
    manifest = {"kind": kind, "version": _CKPT_VERSION, **fields, "params": entries}
    with replacing(root / "manifest.json") as f:
        f.write(json.dumps(manifest, indent=2).encode())


def _load(path, kind: str, build):
    """build(manifest) -> (object, its named params); the blobs are read into
    those params after their set, hashes and shapes are checked."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    if manifest.get("kind") != kind:
        raise ValueError(f"{root}: not a {kind} checkpoint")
    if manifest.get("version") != _CKPT_VERSION:
        raise ValueError(f"{root}: unsupported checkpoint version {manifest.get('version')}")
    obj, named = build(manifest)
    by_name = dict(named)
    entries = manifest["params"]
    if set(by_name) != {e["name"] for e in entries}:
        raise ValueError(f"checkpoint parameter set mismatch under {root}")
    for e in entries:
        path = root / e["file"]
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != e["sha256"]:
            raise ValueError(f"checkpoint blob corrupt: {path}")
        data = parse_tnsr(blob, path)
        target = by_name[e["name"]]
        if data.shape != target.data.shape:
            raise ValueError(f"architecture mismatch for {e['name']}: "
                             f"{data.shape} vs {target.data.shape}")
        target.data = data
    return obj


def save_task(model: TaskModel, path, provenance: dict | None = None) -> None:
    """provenance: what the model was built from, kept verbatim in the manifest."""
    _save(path, "task_model", _named_params(model.layers),
          {"config": model.config_dict(), "provenance": provenance})


def load_task(path) -> TaskModel:
    def build(manifest):
        cfg = dict(manifest["config"])
        trained_epochs = cfg.pop("trained_epochs")
        model = TaskModel(**cfg)
        model.trained_epochs = trained_epochs
        return model, _named_params(model.layers)

    return _load(path, "task_model", build)


def save_suite(suite: ReconSuite, path, provenance: dict | None = None) -> None:
    """provenance: what the suite was built from, kept verbatim in the manifest."""
    trained = {str(key): bool(suite.trained[key]) for key in suite.member_keys()}
    _save(path, "recon_suite", _suite_params(suite),
          {"task_layers": suite.n_layers, "num_levels": suite.num_levels, "seed": suite.seed,
           "trained": trained, "provenance": provenance})


def load_suite(path, task: TaskModel) -> ReconSuite:
    def build(manifest):
        if manifest["task_layers"] != task.n_layers:
            raise ValueError(f"architecture mismatch: suite was trained against "
                             f"{manifest['task_layers']} layers, task model has {task.n_layers}")
        suite = ReconSuite(task, seed=manifest["seed"])
        for key in suite.member_keys():
            suite.trained[key] = manifest["trained"][str(key)]
        return suite, _suite_params(suite)

    return _load(path, "recon_suite", build)
