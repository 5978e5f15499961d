"""Spans around ttalab's public functions, and direct calls at the model's shapes.

The traced run installs wrappers on module attributes for its own duration
only; the untraced run never imports this file's wrappers. Spans record name,
start, end and the span that caused them, and stay in memory: per-layer
metrics are totals, self times and counts derived from them.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from ttalab import adaptors as A
from ttalab import layers as L
from ttalab import pipeline as P
from ttalab import recon as R
from ttalab import search as S
from ttalab import tensor as T
from ttalab.adaptors import Configuration, adapt_steps, init_adaptors
from ttalab.tasknet import translate

REPEATS = 15


class Tracer:
    """Wraps callables in place; spans are (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.results: dict[str, list] = defaultdict(list)
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, keep_result: bool = False) -> None:
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._open[-1] if self._open else -1))
            self._open.append(idx)
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self.spans[idx] = (name, start, time.perf_counter(), self.spans[idx][3])
                self._open.pop()
            if keep_result:
                self.results[name].append(out)
            return out

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def count_conv_flops(self) -> None:
        """Count conv FLOPs (forward plus the backward the tape will run) inside
        adapt_steps spans: 2*MACs forward, and as much again per operand that
        needs a gradient."""
        for attr in ("conv2d", "conv2d_1x1"):
            orig = getattr(T, attr)

            def wrapper(x, kernel, *args, _orig=orig, **kwargs):
                out = _orig(x, kernel, *args, **kwargs)
                if self.inside("adapt_steps"):
                    cout, cin, kh, kw = kernel.data.shape
                    batch = out.data.size // cout
                    fwd = 2.0 * batch * cin * kh * kw * cout
                    grads = T.grad_enabled() * (x.requires_grad + kernel.requires_grad)
                    self.counts["conv_flop"] += fwd * (1 + grads)
                return out

            setattr(T, attr, wrapper)
            self._installed.append((T, attr, orig))

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def child_total(self, parent: str, child: str) -> float:
        return sum(end - start for n, start, end, p in self.spans
                   if n == child and p >= 0 and self.spans[p][0] == parent)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def install_setup_spans(tr: Tracer) -> None:
    tr.wrap(P, "gen_dataset", "data.gen")
    tr.wrap(P, "train_task", "tasknet.train")
    tr.wrap(R, "collect_level_tensors", "recon.collect")
    tr.wrap(R, "train_autoencoder", "recon.train_member")
    tr.wrap(P, "save_task", "checkpoint.save")
    tr.wrap(P, "save_suite", "checkpoint.save")


def install_run_spans(tr: Tracer) -> None:
    tr.wrap(P, "run_tta", "run_tta")
    tr.wrap(S.TtaRunner, "run_sample", "run_sample", keep_result=True)
    tr.wrap(S.TtaRunner, "unadapted", "gate")
    tr.wrap(S, "translate", "translate")
    for fn in ("grid_search", "forward_selection"):
        tr.wrap(S, fn, "search")
    tr.wrap(S.AdaptEvaluator, "evaluate", "evaluate")
    tr.wrap(S, "adapt_steps", "adapt_steps", keep_result=True)
    tr.wrap(A, "zero_grads", "step_bwd")
    tr.wrap(A, "backward", "step_bwd")
    tr.wrap(A, "adam_step", "adam")
    for fn in ("mae", "psnr", "ssim"):
        tr.wrap(P, fn, "image_metric")
    tr.count_conv_flops()


def setup_metrics(tr: Tracer, cfg, calibrate_s: float) -> dict:
    epochs = cfg.task_schedule().total_epochs
    train_s = tr.total("tasknet.train")
    member_s = tr.durations("recon.train_member")
    out = {
        "data.gen_s": (tr.total("data.gen"), "s"),
        "tasknet.train_s": (train_s, "s"),
        "tasknet.train_samples_per_s": (cfg.data.train * epochs / train_s, "samples/s"),
        "recon.collect_s": (tr.total("recon.collect"), "s"),
        "recon.train_s": (sum(member_s), "s"),
        "checkpoint.save_s": (tr.total("checkpoint.save"), "s"),
        "pipeline.calibrate_s": (calibrate_s, "s"),
    }
    # train_recon_suite trains the members in member_keys() order: x, 1..k, y
    keys = ["x"] + [str(i) for i in range(1, len(member_s) - 1)] + ["y"]
    for key, sec in zip(keys, member_s):
        out[f"recon.train_s.{key}"] = (sec, "s")
    return out


def _tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it;
    the median alone below forty samples."""
    n = len(values)
    pct = 50.0
    if n >= 40:
        pct = max(q for q in (75.0, 90.0, 95.0, 99.0, 99.9) if n * (1 - q / 100) >= 10)
    return float(np.percentile(values, pct)), pct


def run_metrics(tr: Tracer, rows: list[dict], rate: float, host_speed: float) -> dict:
    n = len(rows)
    trig = [r for r in rows if r["triggered"]]
    gate = tr.total("gate")
    search = tr.total("search")
    run_tta = tr.total("run_tta")
    steps = sum(len(t.steps) for t in tr.results["adapt_steps"])
    configs = len(tr.results["adapt_steps"])
    fwd_s = tr.total("adapt_steps") - tr.child_total("adapt_steps", "step_bwd") \
        - tr.child_total("adapt_steps", "adam")
    step_s = tr.total("adapt_steps") / steps
    sample_s = [end - start for (name, start, end, _), out in
                zip((s for s in tr.spans if s[0] == "run_sample"), tr.results["run_sample"])
                if out.triggered]
    tail, tail_pct = _tail(sample_s)
    mae_b = np.mean([r["mae_base"] for r in trig])
    mae_t = np.mean([r["mae_tta"] for r in trig])
    return {
        "trace.samples_per_s": (rate, "samples/s"),
        "trace.host_speed": (host_speed, "ratio"),
        "tensor.conv_gflop_per_step": (tr.counts["conv_flop"] / steps / 1e9, "GFLOP"),
        "tensor.conv_gflops": (tr.counts["conv_flop"] / steps / 1e9 / step_s, "GFLOP/s"),
        "tasknet.translate_ms": (1e3 * tr.total("translate") / tr.calls("translate"), "ms"),
        "adaptors.adapt_steps_ms": (1e3 * tr.total("adapt_steps") / configs, "ms"),
        "adaptors.step_fwd_ms": (1e3 * fwd_s / steps, "ms"),
        "adaptors.step_bwd_ms": (1e3 * tr.child_total("adapt_steps", "step_bwd") / steps, "ms"),
        "adaptors.adam_ms": (1e3 * tr.child_total("adapt_steps", "adam") / steps, "ms"),
        "adaptors.updates_per_config": (tr.calls("adam") / configs, "count"),
        "adaptors.improved_ratio": (sum(t.best_step > 1 for t in tr.results["adapt_steps"])
                                    / configs, "ratio"),
        "adaptors.failed_configs": (sum(t.failed for t in tr.results["adapt_steps"]), "count"),
        "search.triggered": (len(trig), "count"),
        "search.trigger_ratio": (len(trig) / n, "ratio"),
        "search.configs_per_sample": (np.mean([r["configs_evaluated"] for r in trig]), "count"),
        "search.steps_per_sample": (np.mean([r["adapt_steps_total"] for r in trig]), "count"),
        "search.sample_s_p50": (float(np.median(sample_s)), "s"),
        "search.sample_s_tail": (tail, "s"),
        "search.sample_s_tail_pct": (tail_pct, "percentile"),
        "search.config_ms": (1e3 * tr.total("evaluate") / tr.calls("evaluate"), "ms"),
        "search.mae_gain_pct": (100.0 * (mae_b - mae_t) / mae_b, "%"),
        "search.eps_gain": (np.mean([r["eps_unadapted"] - r["eps_best"] for r in trig]), "eps"),
        "pipeline.gate_ms": (1e3 * gate / tr.calls("gate"), "ms"),
        "pipeline.gate_calls_per_sample": (tr.calls("gate") / n, "count"),
        "pipeline.bookkeeping_ms": (1e3 * (run_tta - gate - search) / n, "ms"),
        "pipeline.search_share": (search / run_tta, "ratio"),
        "pipeline.gate_bookkeeping_share": ((run_tta - search) / run_tta, "ratio"),
        "metrics.image_metrics_ms": (1e3 * tr.total("image_metric") / n, "ms"),
    }


def _median_ms(fn, repeats: int = REPEATS) -> float:
    return 1e3 * float(np.median([fn() for _ in range(repeats)]))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def direct_metrics(task, suite, x: np.ndarray, batch_size: int, m_steps: int) -> dict:
    """Direct calls at the shapes one forward of the task model really uses."""
    out = {}
    calls = []
    orig = T.conv2d

    def capture(inp, kernel, stride=1, padding=0):
        calls.append((inp.data.copy(), kernel, stride, padding))
        return orig(inp, kernel, stride=stride, padding=padding)

    T.conv2d = capture
    try:
        with T.no_grad():
            trace = translate(task, T.Tensor(x))
    finally:
        T.conv2d = orig
    for depth, (inp, kernel, stride, padding) in enumerate(calls, start=1):
        def fwd():
            with T.no_grad():
                return _timed(lambda: T.conv2d(T.Tensor(inp), kernel, stride, padding))

        def bwd(batch: int, train: bool):
            xt = T.Tensor(np.repeat(inp[None], batch, axis=0) if batch > 1 else inp,
                          requires_grad=not (train and depth == 1))
            kt = T.Tensor(kernel.data, requires_grad=train)
            loss = T.tensor_sum(T.conv2d(xt, kt, stride, padding))
            return _timed(lambda: T.backward(loss))

        out[f"tensor.conv2d_fwd_ms.d{depth}"] = (_median_ms(fwd), "ms")
        out[f"tensor.conv2d_bwd_ms.d{depth}"] = (_median_ms(lambda: bwd(1, False)), "ms")
        out[f"tensor.conv2d_train_bwd_ms.d{depth}"] = (
            _median_ms(lambda: bwd(batch_size, True)), "ms")

    members = {"x": T.Tensor(x), "y": trace.output}
    for i in range(1, task.num_levels + 1):
        members[i] = R.concat_symmetric(trace, i, task.n_layers)
    for key, value in members.items():
        def member():
            with T.no_grad():
                return _timed(lambda: suite.member_error(key, value))
        out[f"recon.member_error_ms.{key}"] = (_median_ms(member), "ms")

    tr = Tracer()
    tr.wrap(L.ConvLayer, "forward", "layer")
    tr.wrap(T, "conv2d", "conv")
    try:
        def bias_act():
            before = len(tr.spans)
            with T.no_grad():
                translate(task, T.Tensor(x))
            new = tr.spans[before:]
            return sum(e - s for n, s, e, _ in new if n == "layer") - \
                sum(e - s for n, s, e, _ in new if n == "conv")
        out["layers.bias_act_ms"] = (_median_ms(bias_act), "ms")
    finally:
        tr.restore()

    tr = Tracer()
    tr.wrap(A, "backward", "backward")
    try:
        full = Configuration.of(range(1, task.num_levels + 1))
        for rep in range(REPEATS // m_steps + 1):
            adapt_steps(task, suite, init_adaptors(task, seed=rep), full, x, m_steps)
        out["tensor.backward_ms"] = (1e3 * float(np.median(tr.durations("backward"))), "ms")
    finally:
        tr.restore()
    return out
