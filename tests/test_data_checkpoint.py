import builtins
import errno
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ttalab
from ttalab.checkpoint import load_suite, load_task, save_suite, save_task
from ttalab.data import (ShiftParams, SyntheticTaskSpec, gaussian_filter, gen_dataset,
                         load_dataset, make_pair, synthesize, write_pgm)
from ttalab.tasknet import TaskModel


def tiny_spec(**kw):
    base = dict(train=6, calib=4, id_test=4, ood_test=4, image_size=16, seed=5)
    base.update(kw)
    return SyntheticTaskSpec(**base)


class TestSyntheticData:
    def test_images_in_range_and_shape(self):
        spec = tiny_spec()
        ds = synthesize(spec)
        for split in ("train", "calib", "id_test", "ood_test"):
            for _, x, y in ds.samples[split]:
                assert x.shape == (1, 16, 16) and y.shape == (1, 16, 16)
                assert x.dtype == np.float32 and y.dtype == np.float32
                assert x.min() >= -1.0 and x.max() <= 1.0
                assert y.min() >= -1.0 and y.max() <= 1.0

    def test_denoise_pairs_y_is_clean(self):
        spec = tiny_spec(noise_sigma=0.0)
        x, y = make_pair(spec, "train", 0)
        assert np.array_equal(x, y)  # zero noise: x == clean == y

    def test_style_remaps(self):
        spec = tiny_spec(kind="style", noise_sigma=0.0)
        x, y = make_pair(spec, "train", 0)
        assert not np.array_equal(x, y)

    def test_deterministic_per_seed(self):
        a = synthesize(tiny_spec())
        b = synthesize(tiny_spec())
        for split in a.samples:
            for (ia, xa, ya), (ib, xb, yb) in zip(a.samples[split], b.samples[split]):
                assert ia == ib
                assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_different_seed_differs(self):
        a = make_pair(tiny_spec(seed=1), "train", 0)[0]
        b = make_pair(tiny_spec(seed=2), "train", 0)[0]
        assert not np.array_equal(a, b)

    def test_disjoint_ids(self):
        ds = synthesize(tiny_spec())
        ids = [sid for split in ds.samples for sid, _, _ in ds.samples[split]]
        assert len(ids) == len(set(ids))

    def test_unit_shift_is_negative_control(self):
        spec = tiny_spec(shift=ShiftParams(noise_mult=1.0, gamma=1.0, blur=0.0))
        x_ood, _ = make_pair(spec, "ood_test", 3)
        # same rng stream layout, same sigma: statistically indistinguishable
        assert abs(float(np.std(x_ood)) - float(np.std(make_pair(spec, "id_test", 3)[0]))) < 0.25

    def test_shift_params_alter_ood_only(self):
        strong = tiny_spec(shift=ShiftParams(noise_mult=4.0))
        weak = tiny_spec(shift=ShiftParams(noise_mult=1.0))
        assert np.array_equal(make_pair(strong, "id_test", 0)[0],
                              make_pair(weak, "id_test", 0)[0])
        assert not np.array_equal(make_pair(strong, "ood_test", 0)[0],
                                  make_pair(weak, "ood_test", 0)[0])

    @pytest.mark.parametrize("kw", [dict(), dict(kind="style", shift=ShiftParams(gamma=1.5, blur=1.2)),
                                    dict(noise_mix=0.0)], ids=["default", "gamma-blur", "white"])
    def test_blocks_equal_single_pairs(self, kw):
        # 130 samples span two synthesis blocks; a pair alone is a block of one
        spec = tiny_spec(train=130, ood_test=130, **kw)
        ds = synthesize(spec)
        for split, samples in ds.samples.items():
            assert len(samples) == spec.split_size(split)
            for i, (sid, x, y) in enumerate(samples):
                x1, y1 = make_pair(spec, split, i)
                assert sid == f"{split}-{i:04d}"
                assert np.array_equal(x, x1) and np.array_equal(y, y1)

    def test_zero_train_size_rejected(self):
        with pytest.raises(ValueError, match="train size"):
            tiny_spec(train=0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tiny_spec(kind="superres")

    @pytest.mark.parametrize("field, value", [
        ("noise_mult", -0.5), ("gamma", 0.0), ("gamma", -1.0), ("blur", -0.1),
    ])
    def test_invalid_shift_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ShiftParams(**{field: value})
        with pytest.raises(ValueError, match=field):
            SyntheticTaskSpec.from_dict({"shift": {field: value}})


class TestGaussianFilter:
    CASES = [((32, 32), 2.5), ((32, 32), 1.0), ((64, 48), 0.7), ((16, 16), 2.5),
             ((8, 8), 2.5), ((4, 5), 3.0), ((32, 32), 1.2), ((7,), 1.5), ((3, 4, 5), 1.0)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,sigma", CASES)
    def test_bitwise_equal_to_scipy(self, shape, sigma, dtype):
        ndimage = pytest.importorskip("scipy.ndimage")
        img = np.random.default_rng(len(shape) * 100 + shape[-1]).standard_normal(shape)
        img = img.astype(dtype)
        ours = gaussian_filter(img, sigma)
        assert ours.dtype == img.dtype
        assert np.array_equal(ours, ndimage.gaussian_filter(img, sigma))

    def test_radius_beyond_image_reflects(self):
        # sigma 3 on 4 samples: radius 12 reflects the line several times over
        line = np.array([1.0, 2.0, 3.0, 4.0])
        taps = np.arange(-12, 13)
        w = np.exp(-taps ** 2 / 18.0)
        w /= w.sum()
        period = np.concatenate([line, line[::-1]])  # d c b a | a b c d | d c b a
        ref = [sum(wk * period[(i + k) % 8] for wk, k in zip(w, taps)) for i in range(4)]
        assert np.allclose(gaussian_filter(line, 3.0), ref, rtol=1e-12)

    def test_constant_image_unchanged(self):
        img = np.full((9, 7), 0.25, np.float32)
        assert np.allclose(gaussian_filter(img, 2.0), img, atol=1e-7)

    def test_import_does_not_load_scipy(self):
        src = str(Path(ttalab.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import ttalab, ttalab.cli; "
                "print('scipy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "False"


class TestDatasetOnDisk:
    def test_round_trip(self, tmp_path):
        spec = tiny_spec()
        ds = gen_dataset(spec, tmp_path / "d")
        back = load_dataset(tmp_path / "d")
        assert back.spec == spec
        for split in ds.samples:
            for (ia, xa, ya), (ib, xb, yb) in zip(ds.samples[split], back.samples[split]):
                assert ia == ib
                assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_byte_identical_regeneration(self, tmp_path):
        spec = tiny_spec()
        gen_dataset(spec, tmp_path / "a")
        gen_dataset(spec, tmp_path / "b")
        ha = json.loads((tmp_path / "a" / "index.json").read_text())["content_sha256"]
        hb = json.loads((tmp_path / "b" / "index.json").read_text())["content_sha256"]
        assert ha == hb

    def test_corruption_detected(self, tmp_path):
        spec = tiny_spec()
        gen_dataset(spec, tmp_path / "d")
        victim = tmp_path / "d" / "train.x.tnsr"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="hash mismatch"):
            load_dataset(tmp_path / "d")

    def test_each_file_read_once(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        reads = []
        read_bytes = Path.read_bytes

        def counting(path):
            reads.append(str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        gen_dataset(spec, tmp_path / "d")
        assert reads == []  # the hash is taken from the bytes as they are written
        load_dataset(tmp_path / "d")
        files = [str(p) for p in (tmp_path / "d").rglob("*.tnsr")]
        assert sorted(reads) == sorted(files)

    @pytest.mark.parametrize("shift,digest", [
        (ShiftParams(), "77752a817d499fbabd584d3f9d044948cbbd31e826d0d8eab3c737664a739fbb"),
        (ShiftParams(blur=1.2, gamma=1.5),
         "03c67d19522a49e3f698cc5cff6cc95623e4efe4a6431f2b639f0e09e093a88c"),
    ])
    def test_default_content_hash_pinned(self, tmp_path, shift, digest):
        # the bytes of the default benchmark data, as first generated with scipy's filter
        gen_dataset(SyntheticTaskSpec(shift=shift), tmp_path / "d")
        assert json.loads((tmp_path / "d" / "index.json").read_text())["content_sha256"] == digest

    def test_pgm_preview(self, tmp_path):
        img = np.linspace(-1, 1, 64, dtype=np.float32).reshape(8, 8)
        write_pgm(tmp_path / "p.pgm", img)
        blob = (tmp_path / "p.pgm").read_bytes()
        assert blob.startswith(b"P5\n8 8\n255\n")
        assert len(blob) == len(b"P5\n8 8\n255\n") + 64


class TestCheckpoints:
    def test_task_round_trip(self, tmp_path, small_stack):
        _, task, _ = small_stack
        save_task(task, tmp_path / "task")
        back = load_task(tmp_path / "task")
        assert back.checksum() == task.checksum()
        assert back.trained_epochs == task.trained_epochs

    def test_suite_round_trip(self, tmp_path, small_stack):
        _, task, suite = small_stack
        save_suite(suite, tmp_path / "suite")
        back = load_suite(tmp_path / "suite", task)
        assert back.checksum() == suite.checksum()
        assert back.all_trained()

    def test_truncated_blob_rejected(self, tmp_path, small_stack):
        _, task, _ = small_stack
        save_task(task, tmp_path / "task")
        victim = tmp_path / "task" / "layer0.weight.tnsr"
        victim.write_bytes(victim.read_bytes()[:-4])
        with pytest.raises(ValueError, match="corrupt"):
            load_task(tmp_path / "task")

    def test_tampered_blob_rejected(self, tmp_path, small_stack):
        _, task, _ = small_stack
        save_task(task, tmp_path / "task")
        victim = tmp_path / "task" / "layer1.bias.tnsr"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt"):
            load_task(tmp_path / "task")

    def test_architecture_mismatch_rejected(self, tmp_path, small_stack):
        _, task, suite = small_stack
        save_suite(suite, tmp_path / "suite")
        other = TaskModel(n_layers=5, image_size=16, seed=0)
        with pytest.raises(ValueError, match="architecture mismatch"):
            load_suite(tmp_path / "suite", other)

    def test_version_gate(self, tmp_path, small_stack):
        _, task, suite = small_stack
        save_task(task, tmp_path / "task")
        save_suite(suite, tmp_path / "suite")
        for name in ("task", "suite"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            manifest["version"] = 99
            (tmp_path / name / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_task(tmp_path / "task")
        with pytest.raises(ValueError, match="version"):
            load_suite(tmp_path / "suite", task)

    def test_one_manifest_lists_every_blob(self, tmp_path, small_stack):
        _, task, suite = small_stack
        save_task(task, tmp_path / "task")
        save_suite(suite, tmp_path / "suite")
        for name in ("task", "suite"):
            root = tmp_path / name
            assert [p.relative_to(root) for p in root.rglob("manifest.json")] == \
                [Path("manifest.json")]
            manifest = json.loads((root / "manifest.json").read_text())
            assert sorted(e["file"] for e in manifest["params"]) == \
                sorted(str(p.relative_to(root)) for p in root.rglob("*.tnsr"))
        assert (tmp_path / "suite" / "member_y" / "layer3.bias.tnsr").exists()

    def test_save_cut_off_midway_keeps_the_earlier_checkpoint(self, tmp_path, small_stack,
                                                              monkeypatch):
        _, task, _ = small_stack
        save_task(task, tmp_path / "task")
        other = load_task(tmp_path / "task")
        other.layers[0].weight.data = other.layers[0].weight.data + 1.0
        real_open = io.open

        class DiskFull:
            """A blob file that takes half its bytes, then runs out of space."""

            def __init__(self, f):
                self.f = f

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def filling(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            return DiskFull(f) if "w" in mode and ".tnsr" in str(file) else f

        with monkeypatch.context() as m:
            # Path.write_bytes opens through io.open, a bare open() through builtins
            m.setattr(io, "open", filling)
            m.setattr(builtins, "open", filling)
            with pytest.raises(OSError, match="No space"):
                save_task(other, tmp_path / "task")
        assert load_task(tmp_path / "task").checksum() == task.checksum()
        assert sorted(p.name for p in (tmp_path / "task").iterdir()) == \
            sorted(f"layer{i}.{a}.tnsr" for i in range(len(task.layers))
                   for a in ("weight", "bias")) + ["manifest.json"]

    def test_each_blob_read_once(self, tmp_path, small_stack, monkeypatch):
        _, task, suite = small_stack
        reads = []
        real_open = io.open

        def counting(file, mode="r", *args, **kwargs):
            if "r" in mode and str(file).endswith(".tnsr"):
                reads.append(str(file))
            return real_open(file, mode, *args, **kwargs)

        # Path.read_bytes opens through io.open, a bare open() through builtins
        monkeypatch.setattr(io, "open", counting)
        monkeypatch.setattr(builtins, "open", counting)
        save_task(task, tmp_path / "task")
        save_suite(suite, tmp_path / "suite")
        assert reads == []  # the hashes are taken from the bytes as they are written
        back_task = load_task(tmp_path / "task")
        back_suite = load_suite(tmp_path / "suite", back_task)
        assert sorted(reads) == sorted(str(p) for p in tmp_path.rglob("*.tnsr"))
        assert back_task.checksum() == task.checksum()
        assert back_suite.checksum() == suite.checksum()
