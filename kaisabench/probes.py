"""Outside-in span recording for the traced benchmark run.

Every span comes from a wrapper installed by this module on an object the
benchmark built itself: the loader iteration, ``forward_loss``, the loss's
``backward``, ``optimizer.step``, ``KFAC.step``, the ``pre.kernels`` backend
methods, the ``KFACLayer`` public methods and the rank's communicator (plus
the ``wait`` of the handles it returns).  Nothing inside ``src/repro`` is
touched.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.observability import Tracer
from repro.observability.export import write_chrome_trace
from repro.observability.tracer import SpanRecord

# Span name -> layer family.  A span only counts towards a family metric when
# its parent is not of the same family, so a kernel that calls another kernel
# of its family (structured_eigen -> symmetric_eigen) is counted once.
FAMILY = {
    "data.batch": "data",
    "model.forward": "forward",
    "tensor.backward": "backward",
    "optim.step": "optim",
    "kfac.step": "kfac",
    "kernels.symmetric_eigen": "eigen",
    "kernels.batched_symmetric_eigen": "eigen",
    "kernels.structured_eigen": "eigen",
    "kernels.fused_decay_update": "decay",
    "kernels.precondition_contract": "precondition",
    "kernels.kl_clip_accumulate": "kl_clip",
    "kernels.kl_clip_scale": "kl_clip",
    "layer.compute_batch_factors": "layer",
    "layer.update_factors": "layer",
    "layer.precondition": "layer",
}
KERNEL_METHODS = (
    "symmetric_eigen",
    "batched_symmetric_eigen",
    "structured_eigen",
    "fused_decay_update",
    "precondition_contract",
    "kl_clip_accumulate",
    "kl_clip_scale",
)
LAYER_METHODS = ("compute_batch_factors", "update_factors", "precondition")
COMM_METHODS = ("allreduce_average", "allreduce_sum", "broadcast", "barrier", "iallreduce_average", "ibroadcast")
#: Eigen calls are bucketed by the last axis of the factor handed to the kernel.
EIGEN_BUCKETS = (("dim_le_32", 0, 32), ("dim_33_256", 33, 256), ("dim_gt_256", 257, None))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into the owning probe's span list
    rank: int
    step: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Probe:
    """Span recorder for one rank; used only from that rank's thread."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.step = 0
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0, parent, self.rank, self.step, attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def in_span(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return timed

    # ------------------------------------------------------------ installers
    def instrument(self, forward_loss: Callable, optimizer, pre, comm) -> Callable:
        """Install every wrapper and return the timed ``forward_loss``."""
        optimizer.step = self.wrap("optim.step", optimizer.step)
        pre.step = self.wrap("kfac.step", pre.step)
        self._instrument_kernels(pre)
        for layer in pre.layers.values():
            owner = {"layer": layer.name}
            for method in LAYER_METHODS:
                wrapped = self.wrap(f"layer.{method}", getattr(layer, method), lambda *a, _owner=owner, **k: _owner)
                setattr(layer, method, wrapped)
        for method in COMM_METHODS:
            setattr(comm, method, self._comm_wrapper(method, getattr(comm, method)))
        return self._forward_wrapper(forward_loss)

    def _instrument_kernels(self, pre) -> None:
        def eigen_attrs(factor, *args, **kwargs):
            if isinstance(factor, (list, tuple)):  # batched: a list of same-shape factors
                return {"dim": int(factor[0].shape[-1]) if factor else 0, "count": len(factor)}
            owner = next(
                (f"{name}/{which}" for name, layer in pre.layers.items()
                 for which, held in (("A", layer.factor_a), ("G", layer.factor_g)) if held is factor),
                None,
            )
            return {"dim": int(factor.shape[-1]), "count": 1, "layer": owner}

        kernels = pre.kernels
        for method in KERNEL_METHODS:
            attrs = eigen_attrs if method.endswith("eigen") else None
            setattr(kernels, method, self.wrap(f"kernels.{method}", getattr(kernels, method), attrs))

    def _forward_wrapper(self, forward_loss: Callable) -> Callable:
        @functools.wraps(forward_loss)
        def timed_forward(model, batch):
            with self.span("model.forward"):
                loss = forward_loss(model, batch)
            return _TimedLoss(loss, self)

        return timed_forward

    def _comm_wrapper(self, method: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(f"comm.{method}", kfac=self.in_span("kfac.step")):
                result = fn(*args, **kwargs)
            if method.startswith("i"):
                # Nonblocking posts: the blocked time is the post plus the wait.
                result.wait = self._wait_wrapper(result.wait)
            return result

        return timed

    def _wait_wrapper(self, wait: Callable) -> Callable:
        @functools.wraps(wait)
        def timed_wait(*args, **kwargs):
            with self.span("comm.wait", kfac=self.in_span("kfac.step")):
                return wait(*args, **kwargs)

        return timed_wait

    def counts_towards_family(self, span: Span) -> bool:
        family = FAMILY.get(span.name)
        if family is None or span.parent is None:
            return True
        return FAMILY.get(self.spans[span.parent].name) != family


class _TimedLoss:
    """The loss tensor as the Trainer sees it: ``item`` plus a timed ``backward``.

    ``Tensor`` uses ``__slots__``, so its ``backward`` cannot be replaced on
    the instance; the Trainer only calls these two methods on the loss.
    """

    def __init__(self, loss, probe: Probe) -> None:
        self._loss = loss
        self._probe = probe

    def item(self):
        return self._loss.item()

    def backward(self, *args, **kwargs):
        with self._probe.span("tensor.backward"):
            return self._loss.backward(*args, **kwargs)


# ---------------------------------------------------------------- reporting
def _mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(probes: Sequence[Probe], timed_steps: Sequence[int], inv_freq: int, factor_freq: int) -> Dict[str, float]:
    """Per-layer metrics over the timed steps of one traced training run.

    Times are the mean over ranks and steps of the time a rank spent in the
    layer during one step: every timed step, or only the steps on the named
    cadence (``*_per_refresh``, ``*_per_factor_step``, ``kfac.refresh_step_ms``).
    """
    world = len(probes)
    steps = list(timed_steps)
    refresh = [s for s in steps if s % inv_freq == 0]
    non_refresh = [s for s in steps if s % inv_freq != 0]
    factor_steps = [s for s in steps if s % factor_freq == 0]
    wanted = set(steps)
    per_step: Dict[tuple, float] = {}  # (family or span name, rank, step) -> ms
    eigen_ms = {name: 0.0 for name, _, _ in EIGEN_BUCKETS}
    eigen_calls = {name: 0 for name, _, _ in EIGEN_BUCKETS}
    for probe in probes:
        for span in probe.spans:
            if span.step not in wanted or not probe.counts_towards_family(span):
                continue
            key = FAMILY.get(span.name, span.name)
            if span.name.startswith("comm."):
                key = "comm.kfac" if span.attrs.get("kfac") else "comm.grad_sync"
            per_step[(key, span.rank, span.step)] = per_step.get((key, span.rank, span.step), 0.0) + span.ms
            if key == "eigen":
                dim = span.attrs["dim"]
                bucket = next(name for name, low, high in EIGEN_BUCKETS if low <= dim and (high is None or dim <= high))
                eigen_ms[bucket] += span.ms
                eigen_calls[bucket] += span.attrs["count"]

    def step_mean(key: str, over: Sequence[int]) -> float:
        return _mean([per_step.get((key, rank, s), 0.0) for rank in range(world) for s in over])

    per_refresh = max(len(refresh), 1) * world
    metrics = {
        "data.batch_ms": step_mean("data", steps),
        "model.forward_ms": step_mean("forward", steps),
        "tensor.backward_ms": step_mean("backward", steps),
        "optim.step_ms": step_mean("optim", steps),
        "kfac.step_ms": step_mean("kfac", non_refresh),
        "kfac.refresh_step_ms": step_mean("kfac", refresh),
        "kernels.eigen_ms_per_refresh": step_mean("eigen", refresh),
        "kernels.eigen_calls_per_refresh": sum(eigen_calls.values()) / per_refresh,
        "kernels.decay_update_ms_per_factor_step": step_mean("decay", factor_steps),
        "kernels.precondition_ms": step_mean("precondition", steps),
        "kernels.kl_clip_ms": step_mean("kl_clip", steps),
        "comm.grad_sync_blocked_ms": step_mean("comm.grad_sync", steps),
        "comm.kfac_blocked_ms": step_mean("comm.kfac", steps),
    }
    for name, _, _ in EIGEN_BUCKETS:
        metrics[f"kernels.eigen_ms_per_refresh.{name}"] = eigen_ms[name] / per_refresh
        metrics[f"kernels.eigen_calls_per_refresh.{name}"] = eigen_calls[name] / per_refresh
    return metrics


def cadence_counts(probes: Sequence[Probe], timed_steps: Sequence[int]) -> Dict[str, int]:
    """How many timed steps ran an eigen refresh and a factor update (any rank)."""
    wanted = set(timed_steps)
    eigen_steps, factor_steps = set(), set()
    for probe in probes:
        for span in probe.spans:
            if span.step not in wanted:
                continue
            if FAMILY.get(span.name) == "eigen":
                eigen_steps.add(span.step)
            elif span.name == "layer.update_factors":
                factor_steps.add(span.step)
    return {"eigen_refresh_steps": len(eigen_steps), "factor_update_steps": len(factor_steps)}


def layer_table(probes: Sequence[Probe], timed_steps: Sequence[int]) -> List[Dict[str, Any]]:
    """Per preconditioned layer x stage x rank: calls and milliseconds."""
    wanted = set(timed_steps)
    rows: Dict[tuple, List[float]] = {}
    for probe in probes:
        for span in probe.spans:
            if span.step not in wanted or span.attrs.get("layer") is None:
                continue
            if span.name.startswith("layer."):
                stage = span.name.split(".", 1)[1]
                layer = span.attrs["layer"]
            elif probe.counts_towards_family(span):  # an eigen kernel call owned by one factor
                layer, which = span.attrs["layer"].rsplit("/", 1)
                stage = f"eigen_{which}"
            else:
                continue
            rows.setdefault((layer, stage, span.rank), []).append(span.ms)
    return [
        {"layer": layer, "stage": stage, "rank": rank, "calls": len(ms), "total_ms": sum(ms), "mean_ms": sum(ms) / len(ms)}
        for (layer, stage, rank), ms in sorted(rows.items())
    ]


def write_artifacts(directory: Path, stem: str, probes: Sequence[Probe], timed_steps: Sequence[int]) -> Dict[str, str]:
    """Write the Chrome trace and the layer table; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    tracers = []
    for probe in probes:
        tracer = Tracer(rank=probe.rank)
        for span in probe.spans:
            depth, parent = 0, span.parent
            while parent is not None:
                depth, parent = depth + 1, probe.spans[parent].parent
            attrs = dict(span.attrs, step=span.step, parent=span.parent)
            category = FAMILY.get(span.name, span.name.split(".")[0])
            tracer.spans.append(SpanRecord(span.name, category, span.start, span.end, span.rank, depth, None, attrs))
        tracers.append(tracer)
    trace_path = write_chrome_trace(directory / f"{stem}.trace.json", tracers)
    table_path = directory / f"{stem}.layers.json"
    table_path.write_text(json.dumps(layer_table(probes, timed_steps), indent=1))
    return {"trace": str(trace_path), "layer_table": str(table_path)}
