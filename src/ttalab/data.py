"""Synthetic-shift benchmark data: procedural clean images, paired tasks, TNSR on disk.

Clean images are superpositions of Gaussian blobs and rectangles squashed into
(-1,1), so both smooth structure and edges exist for SSIM to measure. Every
sample is generated from its own RNG stream keyed by (seed, split, index):
datasets are byte-identical across runs and machines for a given spec.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .tensor import parse_tnsr, tnsr_header

SPLITS = ("train", "calib", "id_test", "ood_test")
_SPLIT_CODES = {name: i for i, name in enumerate(SPLITS)}
_STYLE_TASK_GAMMA = 0.5
_INDEX_VERSION = 2


@dataclass(frozen=True)
class ShiftParams:
    """OOD perturbations relative to the training distribution."""

    noise_mult: float = 2.0
    gamma: float = 1.0
    blur: float = 0.0

    def __post_init__(self):
        if self.noise_mult < 0:
            raise ValueError("noise_mult must be non-negative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.blur < 0:
            raise ValueError("blur must be non-negative")


@dataclass(frozen=True)
class SyntheticTaskSpec:
    kind: str = "denoise"  # denoise: y = clean, x = clean + noise; style: y = remap(clean)
    image_size: int = 32
    train: int = 512
    calib: int = 128
    id_test: int = 256
    ood_test: int = 256
    noise_sigma: float = 0.2
    # fraction of the noise drawn from a spatially-correlated (smooth) field:
    # structured corruption survives translation, white noise mostly does not
    noise_mix: float = 0.7
    shift: ShiftParams = field(default_factory=ShiftParams)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("denoise", "style"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.image_size < 8 or self.image_size % 4 != 0:
            raise ValueError("image_size must be >= 8 and divisible by 4")
        for split in SPLITS:
            if getattr(self, split) <= 0:
                raise ValueError(f"{split} size must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not 0.0 <= self.noise_mix <= 1.0:
            raise ValueError("noise_mix must be in [0,1]")

    def split_size(self, split: str) -> int:
        return getattr(self, split)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "SyntheticTaskSpec":
        return from_json(SyntheticTaskSpec, d)


def from_json(cls, d, where: str = ""):
    """cls(**d) for a dataclass cls, nested dataclass fields built from dicts.

    Raises ValueError naming the field (dotted below the top level) of an
    unknown key, or of a value whose JSON type is not its default's.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{where[:-1] or cls.__name__} must be an object, got {d!r}")
    defaults = {f.name: f.default_factory() if f.default is MISSING else f.default
                for f in fields(cls)}
    kwargs = {}
    for key, value in d.items():
        if key not in defaults:
            raise ValueError(f"unknown field {where}{key}")
        default = defaults[key]
        if is_dataclass(default):
            value = from_json(type(default), value, f"{where}{key}.")
        elif not _json_type_matches(value, default):
            raise ValueError(f"{where}{key} must be {_JSON_TYPE_NAMES[type(default)]}, "
                             f"got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


_JSON_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _json_type_matches(value, default) -> bool:
    """An int passes for a float."""
    want = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, bool) == isinstance(default, bool) and isinstance(value, want)


def _filter_axes(img: np.ndarray, sigma: float, axes) -> np.ndarray:
    """gaussian_filter along the given axes only, in ascending order."""
    radius = int(4.0 * float(sigma) + 0.5)
    taps = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = phi / phi.sum()
    out = img
    for axis in axes:
        pad = [(0, 0)] * img.ndim
        pad[axis] = (radius, radius)
        padded = np.moveaxis(np.pad(out.astype(np.float64), pad, mode="symmetric"), axis, 0)
        n = out.shape[axis]
        acc = padded[radius:radius + n] * weights[radius]
        for j in range(radius, 0, -1):
            acc += (padded[radius - j:radius - j + n] + padded[radius + j:radius + j + n]) \
                * weights[radius + j]
        out = np.moveaxis(acc, 0, axis).astype(img.dtype)
    return out


def gaussian_filter(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with reflected borders, of the input's dtype.

    Bitwise equal to scipy.ndimage.gaussian_filter(img, sigma) at its
    defaults (mode "reflect", truncate 4): the same normalised weights,
    float64 taps summed centre first and then outermost pair first, and a
    cast back to the input dtype after each axis.
    """
    return _filter_axes(img, sigma, range(img.ndim))


def _contrast_remap(img: np.ndarray, gamma: float) -> np.ndarray:
    u = np.clip((img + 1.0) / 2.0, 0.0, 1.0)
    return (2.0 * np.power(u, gamma) - 1.0).astype(np.float32)


# samples synthesised together: their stacked float64 arrays stay near 1 MB
# each at the default 32x32 images
_BLOCK = 128


def _synthesize_block(spec: SyntheticTaskSpec, split: str,
                      indices: range) -> tuple[np.ndarray, np.ndarray]:
    """x and y of split's samples at indices, each [n, 1, S, S] float32 in [-1, 1].

    Each sample draws from its own RNG, keyed by (seed, split, index): three
    Gaussian blobs (centre, width, signed amplitude), one rectangle (corner,
    size, signed amplitude), then its white and its smooth noise field. The
    image arithmetic runs on the stacked [n, S, S] arrays, elementwise and
    per sample (the blurs along the image axes, the smooth field's std over
    each image), so every sample is bitwise the same in any block.
    """
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    size, n, mix = spec.image_size, len(indices), spec.noise_mix
    blobs = np.empty((4, 3, n, 1, 1))  # cx, cy, width, amplitude per blob
    rect = np.empty((5, n, 1, 1))  # x0, y0, width, height, amplitude
    white = np.empty((n, size, size))
    smooth = np.empty((n, size, size))
    for j, index in enumerate(indices):
        rng = np.random.default_rng((spec.seed, _SPLIT_CODES[split], index))
        for b in range(3):
            blobs[:2, b, j, 0, 0] = rng.uniform(0.15, 0.85, size=2)
            blobs[2, b, j] = rng.uniform(0.10, 0.22)
            blobs[3, b, j] = rng.uniform(0.5, 0.9) * rng.choice([-1.0, 1.0])
        rect[:2, j, 0, 0] = rng.uniform(0.1, 0.6, size=2)
        rect[2:4, j, 0, 0] = rng.uniform(0.2, 0.35, size=2)
        rect[4, j] = rng.uniform(0.4, 0.7) * rng.choice([-1.0, 1.0])
        white[j] = rng.standard_normal((size, size))
        if mix != 0.0:
            smooth[j] = rng.standard_normal((size, size))

    # fixed component counts and tight amplitude ranges keep per-image
    # reconstruction difficulty uniform, which keeps the eps_y calibration tight
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / (size - 1)
    img = np.zeros((n, size, size), dtype=np.float64)
    for cx, cy, s, amp in blobs.transpose(1, 0, 2, 3, 4):
        img += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * s * s)))
    x0, y0, w, h, amp = rect
    img += amp * ((xx >= x0) & (xx <= x0 + w) & (yy >= y0) & (yy <= y0 + h))
    clean = np.tanh(1.2 * img).astype(np.float32)

    y = clean if spec.kind == "denoise" else _contrast_remap(clean, _STYLE_TASK_GAMMA)
    shifted = split == "ood_test"
    base = clean
    if shifted and spec.shift.gamma != 1.0:
        base = _contrast_remap(base, spec.shift.gamma)
    if shifted and spec.shift.blur > 0.0:
        base = _filter_axes(base, spec.shift.blur, (1, 2))
    noise = white
    if mix != 0.0:
        smooth = _filter_axes(smooth, 2.5, (1, 2))
        smooth /= smooth.std(axis=(1, 2), keepdims=True) + 1e-12
        noise = (1.0 - mix) * white + mix * smooth
    sigma = spec.noise_sigma * (spec.shift.noise_mult if shifted else 1.0)
    x = np.clip(base + sigma * noise, -1.0, 1.0).astype(np.float32)
    return x[:, None], y[:, None]


def make_pair(spec: SyntheticTaskSpec, split: str, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (x, y) pair, both [1,S,S] float32 in [-1,1]."""
    x, y = _synthesize_block(spec, split, range(index, index + 1))
    return x[0], y[0]


@dataclass
class Dataset:
    spec: SyntheticTaskSpec
    # split -> list of (sample_id, x, y)
    samples: dict[str, list[tuple[str, np.ndarray, np.ndarray]]]

    def pairs(self, split: str) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(x, y) for _, x, y in self.samples[split]]


def synthesize(spec: SyntheticTaskSpec) -> Dataset:
    """Generate the whole dataset in memory, _BLOCK samples at a time."""
    samples = {}
    for split in SPLITS:
        n = spec.split_size(split)
        samples[split] = []
        for start in range(0, n, _BLOCK):
            xs, ys = _synthesize_block(spec, split, range(start, min(start + _BLOCK, n)))
            samples[split] += [(f"{split}-{start + j:04d}", x, y)
                               for j, (x, y) in enumerate(zip(xs, ys))]
    return Dataset(spec=spec, samples=samples)


def _split_files(root: Path, split: str) -> tuple[Path, Path]:
    return root / f"{split}.x.tnsr", root / f"{split}.y.tnsr"


def _hashed_payloads(h, split: str, index: int, x: np.ndarray, y: np.ndarray) -> list[bytes]:
    """The TNSR payloads of sample index's x and y, after feeding them to the content hash h.

    The hash is index version 1's, from when each sample had its own files:
    per sample, in split and index order and x before y, that file's relative
    path and its TNSR bytes (header, then payload).
    """
    payloads = []
    for name, arr in (("x", x), ("y", y)):
        payload = np.asarray(arr, dtype="<f4").tobytes()
        h.update(f"{split}/{index:04d}.{name}.tnsr".encode())
        h.update(tnsr_header(arr.shape))
        h.update(payload)
        payloads.append(payload)
    return payloads


@contextmanager
def replacing(path: Path):
    """A sibling temporary file, open for writing bytes; it replaces path if the block succeeds."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def gen_dataset(spec: SyntheticTaskSpec, outdir, dump_pgm: bool = False) -> Dataset:
    """Write each split as two TNSR files plus a JSON index under outdir; returns the dataset.

    <split>.x.tnsr and <split>.y.tnsr each hold the split's [n, 1, S, S]
    array. Each file is written beside its final name and moved there once
    complete, index.json last. The index's content_sha256 is taken from the
    samples as they are written (see _hashed_payloads for its definition).
    """
    root = Path(outdir)
    root.mkdir(parents=True, exist_ok=True)
    ds = synthesize(spec)
    h = hashlib.sha256()
    for split in SPLITS:
        samples = ds.samples[split]
        head = tnsr_header((len(samples), 1, spec.image_size, spec.image_size))
        fx_path, fy_path = _split_files(root, split)
        with replacing(fx_path) as fx, replacing(fy_path) as fy:
            fx.write(head)
            fy.write(head)
            for i, (_, x, y) in enumerate(samples):
                px, py = _hashed_payloads(h, split, i, x, y)
                fx.write(px)
                fy.write(py)
        if dump_pgm:
            (root / split).mkdir(exist_ok=True)
            for i, (_, x, y) in enumerate(samples):
                write_pgm(root / f"{split}/{i:04d}.x.pgm", x[0])
                write_pgm(root / f"{split}/{i:04d}.y.pgm", y[0])
    index = {
        "version": _INDEX_VERSION,
        "spec": spec.to_dict(),
        "splits": {s: spec.split_size(s) for s in SPLITS},
        "content_sha256": h.hexdigest(),
    }
    with replacing(root / "index.json") as f:
        f.write(json.dumps(index, indent=2).encode())
    return ds


def load_dataset(path) -> Dataset:
    """The dataset under path, after its content hash is checked against the index.

    Each file is read once; its samples are views of the split's array.
    """
    root = Path(path)
    index = json.loads((root / "index.json").read_text())
    if index.get("version") != _INDEX_VERSION:
        raise ValueError(f"unsupported dataset index version {index.get('version')}")
    spec = SyntheticTaskSpec.from_dict(index["spec"])
    h = hashlib.sha256()
    samples = {}
    for split in SPLITS:
        shape = (index["splits"][split], 1, spec.image_size, spec.image_size)
        arrays = []
        for file in _split_files(root, split):
            arr = parse_tnsr(file.read_bytes(), file)
            if arr.shape != shape:
                raise ValueError(f"{file}: shape {arr.shape}, the index asks for {shape}")
            arrays.append(arr)
        samples[split] = [(f"{split}-{i:04d}", x, y) for i, (x, y) in enumerate(zip(*arrays))]
        for i, (_, x, y) in enumerate(samples[split]):
            _hashed_payloads(h, split, i, x, y)
    if h.hexdigest() != index["content_sha256"]:
        raise ValueError(f"dataset content hash mismatch under {root}")
    return Dataset(spec=spec, samples=samples)


def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM from a [-1,1] grayscale image."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim == 3 and img.shape[0] == 1:
        img = img[0]
    if img.ndim != 2:
        raise ValueError(f"PGM wants a 2-D image, got shape {img.shape}")
    u8 = np.clip(np.rint((img + 1.0) / 2.0 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(u8.tobytes())
