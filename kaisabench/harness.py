"""Train the benchmark workloads through the public API and measure them.

One *training run* builds a workload on every rank (``build_workload`` ->
``KFAC.from_config`` -> ``Trainer``), takes one warm-up step, then times a
fixed number of ``Trainer.train_step`` calls in a closed loop: each rank
starts its next step when the previous one returns.  The ranks are threads
of one ``run_spmd`` world.  Only the paper's knobs reach the program: the
workload's ``SMALL_WORKLOADS`` config and ``grad_worker_frac``; every other
``KFACConfig`` field and ``Trainer`` seam keeps its default.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import KFAC
from repro.distributed import run_spmd, shard_batch
from repro.experiments import build_workload, make_optimizer
from repro.training import Trainer

from .probes import Probe, cadence_counts, layer_metrics, write_artifacts

#: Untraced training runs per seed, at least, so every run can check that
#: the same seed reproduces the same losses and parameters bit for bit.
MIN_RUNS = 2
#: Set-up samples per result, at least; extra set-ups are taken when the
#: training runs alone give fewer.
MIN_SETUPS = 3


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    model: str  # a build_workload name; its SMALL_WORKLOADS entry is the config
    world_size: int
    grad_worker_frac: float
    steps: int  # timed steps per training run, after the warm-up step
    #: Workload seeds derived from one --seed; final_loss is their mean.
    seeds_per_run: int = 1

    def seeds(self, seed: int) -> List[int]:
        return [seed * self.seeds_per_run + k for k in range(self.seeds_per_run)]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # ResNet losses spread widely across seeds after a few epochs, so the
        # runs stop after one eigen refresh and final_loss averages 4 seeds.
        WorkloadSpec("resnet_1rank", "cifar_resnet", 1, 1.0, 10, seeds_per_run=4),
        WorkloadSpec("bert_memopt_2rank", "bert", 2, 0.5, 30),
        WorkloadSpec("resnet_commopt_2rank", "cifar_resnet", 2, 1.0, 10, seeds_per_run=4),
    )
}


@dataclass
class RankRun:
    """What one rank reports from one training run."""

    setup_start: float
    setup_end: float
    loop_start: float
    loop_end: float
    losses: List[float]  # timed steps only
    step_s: List[float]
    refresh: List[bool]  # whether each timed step refreshed the eigen state
    param_digest: str
    memory: Dict[str, int]
    inv_update_freq: int
    factor_update_freq: int
    global_batch: int


@dataclass
class TrainingRun:
    seed: int
    ranks: List[RankRun] = field(default_factory=list)
    probes: List[Probe] = field(default_factory=list)
    comm_calls: int = 0
    comm_bytes: int = 0
    error: Optional[str] = None

    @property
    def global_losses(self) -> List[float]:
        """Per timed step, the mean of the ranks' losses (equal shards)."""
        return [sum(step) / len(step) for step in zip(*(r.losses for r in self.ranks))]

    @property
    def final_loss(self) -> float:
        freq = self.ranks[0].inv_update_freq
        return statistics.fmean(self.global_losses[-freq:])

    @property
    def slowest_step_s(self) -> List[float]:
        return [max(step) for step in zip(*(r.step_s for r in self.ranks))]

    @property
    def setup_s(self) -> float:
        return max(r.setup_end for r in self.ranks) - min(r.setup_start for r in self.ranks)

    @property
    def loop_s(self) -> float:
        return max(r.loop_end for r in self.ranks) - min(r.loop_start for r in self.ranks)

    def failures(self) -> List[str]:
        """Why this run's output is wrong; empty when it is correct."""
        if self.error is not None:
            return [self.error]
        problems = []
        if not all(math.isfinite(loss) for r in self.ranks for loss in r.losses):
            problems.append("non-finite loss")
        if len({r.param_digest for r in self.ranks}) != 1:
            problems.append("ranks hold different parameters at the end")
        return problems


def _shard(batch, rows: slice):
    if isinstance(batch, dict):
        return {key: value[rows] for key, value in batch.items()}
    return tuple(value[rows] for value in batch)


def _batches(loader):
    while True:
        yield from loader


def _param_digest(model) -> str:
    # Parameters only: BatchNorm running statistics are per-rank buffers that
    # data parallelism does not average.
    digest = hashlib.blake2b(digest_size=16)
    for name, param in model.named_parameters():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def train_once(spec: WorkloadSpec, seed: int, trace: bool = False, steps: Optional[int] = None) -> TrainingRun:
    """One training run of ``spec`` on ``spec.world_size`` threaded ranks."""
    steps = spec.steps if steps is None else steps
    run = TrainingRun(seed, probes=[Probe(rank) for rank in range(spec.world_size)] if trace else [])
    marks: Dict[str, Any] = {}

    def program(comm) -> RankRun:
        setup_start = time.perf_counter()
        workload = build_workload(spec.model, seed=seed)
        config = workload.config
        optimizer = make_optimizer(
            config.baseline_optimizer,
            workload.model.parameters(),
            lr=config.kfac_lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        pre = KFAC.from_config(
            workload.model,
            config.kfac_config(grad_worker_frac=spec.grad_worker_frac),
            comm=comm,
            skip_modules=workload.kfac_skip_modules,
        )
        forward_loss = workload.forward_loss
        probe = run.probes[comm.rank] if trace else None
        if probe is not None:
            forward_loss = probe.instrument(forward_loss, optimizer, pre, comm)
        trainer = Trainer(workload.model, optimizer, forward_loss, preconditioner=pre, comm=comm)
        rows = shard_batch(config.batch_size, comm.rank, comm.world_size)
        batches = _batches(workload.train_loader)

        def next_batch():
            if probe is None:
                return _shard(next(batches), rows)
            with probe.span("data.batch"):
                return _shard(next(batches), rows)

        trainer.train_step(next_batch())  # warm-up: KFAC step 0 builds factors and eigen state
        setup_end = time.perf_counter()
        if comm.rank == 0:
            # Every step-0 collective has completed once any rank leaves step 0,
            # and no step-1 collective can complete before this rank posts it.
            marks["log"], marks["events"] = comm.log, len(comm.log.events)
        losses, step_s, refresh = [], [], []
        loop_start = time.perf_counter()
        for _ in range(steps):
            if probe is not None:
                probe.step = pre.steps
            refresh.append(pre.steps % pre.inv_update_freq == 0)
            batch = next_batch()
            start = time.perf_counter()
            losses.append(trainer.train_step(batch))
            step_s.append(time.perf_counter() - start)
        loop_end = time.perf_counter()
        return RankRun(
            setup_start, setup_end, loop_start, loop_end, losses, step_s, refresh,
            _param_digest(workload.model), pre.memory_usage(), pre.inv_update_freq,
            pre.factor_update_freq, config.batch_size,
        )

    try:
        run.ranks = run_spmd(spec.world_size, program)
    except RuntimeError as exc:  # run_spmd re-raises a rank's exception after joining every rank
        cause = exc.__cause__ or exc
        run.error = f"rank exception: {type(cause).__name__}: {cause}"
        return run
    events = marks["log"].events[marks["events"]:]
    run.comm_calls = len(events)
    run.comm_bytes = sum(event.nbytes for event in events)
    return run


def _median(values) -> float:
    return float(statistics.median(values))


def _ms(seconds: float) -> float:
    return seconds * 1e3


@dataclass
class PassResult:
    """Training runs of one measurement pass (all traced, or all untraced)."""

    runs: List[TrainingRun]

    @property
    def good(self) -> List[TrainingRun]:
        return [run for run in self.runs if not run.failures()]

    def step_p50_ms(self) -> float:
        return _ms(_median([s for run in self.good for s in run.slowest_step_s]))

    def refresh_step_p50_ms(self) -> float:
        return _ms(_median([s for run in self.good for s, r in zip(run.slowest_step_s, run.ranks[0].refresh) if r]))

    def first_by_seed(self) -> Dict[int, TrainingRun]:
        firsts: Dict[int, TrainingRun] = {}
        for run in self.good:
            firsts.setdefault(run.seed, run)
        return firsts

    def final_loss(self) -> float:
        return statistics.fmean(run.final_loss for run in self.first_by_seed().values())

    def repeat_problems(self) -> List[str]:
        """Runs of one seed must agree bitwise on losses and parameters."""
        firsts = self.first_by_seed()
        if any(run.global_losses != firsts[run.seed].global_losses for run in self.good):
            return ["losses differ between runs of the same seed"]
        if any(run.ranks[0].param_digest != firsts[run.seed].ranks[0].param_digest for run in self.good):
            return ["parameters differ between runs of the same seed"]
        return []


def measure_pass(spec: WorkloadSpec, seeds: List[int], deadline: float, trace: bool, min_runs: int) -> PassResult:
    """Train the seeds in turn until the next run would end after ``deadline``."""
    runs: List[TrainingRun] = []
    walls: List[float] = []
    while len(runs) < min_runs or time.perf_counter() + statistics.fmean(walls) <= deadline:
        start = time.perf_counter()
        runs.append(train_once(spec, seeds[len(runs) % len(seeds)], trace=trace))
        # Free the finished run's model graph now, so garbage from earlier
        # runs neither inflates the peak RSS nor is collected inside a timed step.
        gc.collect()
        walls.append(time.perf_counter() - start)
    return PassResult(runs)


def run_workload(spec: WorkloadSpec, seed: int, seconds: float, trace: bool, out_dir: Path) -> Dict[str, Any]:
    """Measure one workload: the result object plus its details."""
    start = time.perf_counter()
    seeds = spec.seeds(seed)
    if trace:
        # Half the time untraced, half traced, on the first seed: the
        # difference is the overhead, and the two must train to the same bits.
        plain = measure_pass(spec, seeds[:1], start + seconds / 2, trace=False, min_runs=1)
        traced = measure_pass(spec, seeds[:1], start + seconds, trace=True, min_runs=1)
        passes = [plain, traced]
    else:
        plain = measure_pass(spec, seeds, start + seconds, trace=False, min_runs=MIN_RUNS * len(seeds))
        # Set-up-only runs (warm-up step, no timed steps) top up the set-up samples.
        setups = PassResult([train_once(spec, seeds[0], steps=0) for _ in range(MIN_SETUPS - len(plain.runs))])
        passes = [plain, setups]
    runs = [run for p in passes for run in p.runs]
    failed = sum(1 for run in runs if run.failures())
    problems = sorted({problem for run in runs for problem in run.failures()})
    metrics: Dict[str, float] = {}
    details: Dict[str, Any] = {
        "workload_seeds": sorted({run.seed for run in runs}),
        "training_runs": len(runs),
        "steps_timed_per_run": spec.steps,
        "error_rate": failed / len(runs),
    }
    if any(p.runs and not p.good for p in passes):
        problems.append("no training run completed")
    else:
        for p in passes:
            problems += p.repeat_problems()
        if trace:
            first = traced.good[0]
            if (first.final_loss, first.ranks[0].param_digest) != (plain.good[0].final_loss, plain.good[0].ranks[0].param_digest):
                problems.append("the traced run trained to different bits than the untraced one")
            timed = list(range(1, spec.steps + 1))
            metrics = traced_metrics(spec, plain, traced, timed)
            details["cadence"] = cadence_counts(first.probes, timed)
            details["artifacts"] = write_artifacts(out_dir, f"{spec.name}-seed{seed}", first.probes, timed)
        else:
            metrics = end_to_end_metrics(spec, plain, [run.setup_s for p in passes for run in p.good])
    details["problems"] = problems
    return {"correct": not problems, "attempted": len(runs), "failed": failed, "metrics": metrics, "details": details}


def end_to_end_metrics(spec: WorkloadSpec, plain: PassResult, setups: List[float]) -> Dict[str, float]:
    good = plain.good
    samples = sum(spec.steps * run.ranks[0].global_batch for run in good)
    return {
        "samples_per_s": samples / sum(run.loop_s for run in good),
        "step_p50_ms": plain.step_p50_ms(),
        "refresh_step_p50_ms": plain.refresh_step_p50_ms(),
        "final_loss": plain.final_loss(),
        "precond_mem_mb": max(r.memory["total"] for r in good[0].ranks) / 1e6,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "setup_s": _median(setups),
    }


def traced_metrics(spec: WorkloadSpec, plain: PassResult, traced: PassResult, timed: List[int]) -> Dict[str, float]:
    first = traced.good[0]
    metrics = layer_metrics(first.probes, timed, first.ranks[0].inv_update_freq, first.ranks[0].factor_update_freq)
    metrics["comm.calls_per_step"] = first.comm_calls / spec.steps
    metrics["comm.bytes_per_step"] = first.comm_bytes / spec.steps
    metrics["memory.factor_mb"] = max(r.memory["factors"] for r in first.ranks) / 1e6
    metrics["memory.eigen_mb"] = max(r.memory["eigen"] for r in first.ranks) / 1e6
    untraced = plain.step_p50_ms()
    metrics["trace.overhead_pct"] = (traced.step_p50_ms() - untraced) / untraced * 100.0
    return metrics
