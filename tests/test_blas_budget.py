"""Tests for run_spmd's per-rank BLAS thread budget (repro.distributed.blas).

The real-library tests read the bundled OpenBLAS thread counts from inside the
rank threads; the rule tests swap in fake libraries so they hold on any core
count.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest

from repro import KFAC
from repro.distributed import blas, run_spmd, shard_batch, threaded
from repro.distributed.blas import OpenBLASLibrary, blas_thread_budget, blas_threads, usable_cores
from repro.experiments import build_workload, make_optimizer
from repro.training import Trainer

needs_openblas = pytest.mark.skipif(not blas.openblas_libraries(), reason="no bundled OpenBLAS found")


def _read_threads(comm):
    return blas_threads()


class FakeOpenBLAS:
    """A library stand-in whose thread count lives in a Python attribute."""

    def __init__(self, name: str, threads: int) -> None:
        self.threads = threads
        self.library = OpenBLASLibrary(name, lambda: self.threads, self._set)

    def _set(self, threads: int) -> None:
        self.threads = threads


@pytest.fixture
def fake_libraries(monkeypatch):
    """Two fake OpenBLAS libraries at 8 threads on a pretend 8-core host."""
    fakes = [FakeOpenBLAS("numpy", 8), FakeOpenBLAS("scipy", 8)]
    monkeypatch.setattr(blas, "openblas_libraries", lambda: tuple(fake.library for fake in fakes))
    monkeypatch.setattr(threaded, "usable_cores", lambda: 8)
    return fakes


# ----------------------------------------------------------------- real OpenBLAS
@needs_openblas
def test_both_bundled_libraries_are_found():
    names = sorted(blas_threads())
    assert any("openblas64_" in name for name in names)  # numpy's ILP64 copy
    assert any("openblas64_" not in name for name in names)  # scipy's LP64 copy (eigh)


@needs_openblas
def test_two_rank_world_reads_cores_over_world_size():
    before = blas_threads()
    ranks = run_spmd(2, _read_threads)
    expected = {name: max(1, min(count, usable_cores() // 2)) for name, count in before.items()}
    assert ranks == [expected, expected]
    assert blas_threads() == before


@needs_openblas
def test_one_rank_world_keeps_its_count():
    before = blas_threads()
    assert run_spmd(1, _read_threads) == [before]
    assert blas_threads() == before


@needs_openblas
def test_world_larger_than_core_count_clamps_to_one():
    world_size = usable_cores() + 1
    ranks = run_spmd(world_size, _read_threads)
    assert all(set(counts.values()) == {1} for counts in ranks)


@needs_openblas
def test_counts_restored_after_return_and_after_rank_raises():
    before = blas_threads()
    run_spmd(2, _read_threads)
    assert blas_threads() == before

    def failing(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 fails")
        return blas_threads()

    with pytest.raises(RuntimeError, match="rank 1 failed"):
        run_spmd(2, failing)
    assert blas_threads() == before


# ------------------------------------------------------------------- the rule
def test_fake_world_gets_cores_over_world_size(fake_libraries):
    assert run_spmd(2, _read_threads) == [{"numpy": 4, "scipy": 4}] * 2
    assert run_spmd(16, _read_threads)[0] == {"numpy": 1, "scipy": 1}
    assert [fake.threads for fake in fake_libraries] == [8, 8]


def test_preset_lower_count_is_never_raised(fake_libraries):
    fake_libraries[1].threads = 1  # e.g. OPENBLAS_NUM_THREADS=1 for scipy's copy
    assert run_spmd(2, _read_threads) == [{"numpy": 4, "scipy": 1}] * 2
    assert run_spmd(1, _read_threads) == [{"numpy": 8, "scipy": 1}]
    assert [fake.threads for fake in fake_libraries] == [8, 1]


def test_overlapping_budgets_restore_when_the_last_exits(fake_libraries):
    outer, inner = blas_thread_budget(4), blas_thread_budget(2)
    outer.__enter__()
    inner.__enter__()
    assert [fake.threads for fake in fake_libraries] == [2, 2]
    outer.__exit__(None, None, None)  # exits first, but another budget is live
    assert [fake.threads for fake in fake_libraries] == [2, 2]
    with blas_thread_budget(6):  # a later, wider budget never raises a count
        assert [fake.threads for fake in fake_libraries] == [2, 2]
    inner.__exit__(None, None, None)
    assert [fake.threads for fake in fake_libraries] == [8, 8]


def test_budget_restores_when_the_block_raises(fake_libraries):
    with pytest.raises(KeyError):
        with blas_thread_budget(1):
            assert [fake.threads for fake in fake_libraries] == [1, 1]
            raise KeyError("boom")
    assert [fake.threads for fake in fake_libraries] == [8, 8]


def test_concurrent_budgets_never_raise_and_restore_once(fake_libraries):
    # Budgets entered and left from many threads at once: inside a budget of
    # n the count is at most n, and the original comes back after the last.
    seen = []

    def worker(threads):
        for _ in range(200):
            with blas_thread_budget(threads):
                seen.append((threads, fake_libraries[0].threads))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(n,)) for n in (1, 2, 3, 4, 6, 8)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in workers)
    assert len(seen) == 6 * 200
    assert all(1 <= count <= threads for threads, count in seen)
    assert [fake.threads for fake in fake_libraries] == [8, 8]


def test_no_openblas_makes_the_budget_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "openblas_libraries", lambda: ())
    assert blas_threads() == {}
    with blas_thread_budget(1):
        assert blas_threads() == {}
    assert run_spmd(2, lambda comm: comm.rank) == [0, 1]


# ------------------------------------------------- training under the budget
def _train_cifar_resnet(steps: int = 3):
    """A 2-rank COMM-OPT cifar_resnet run; returns per-rank (losses, digest, blas counts)."""

    def program(comm):
        workload = build_workload("cifar_resnet", seed=0)
        config = workload.config
        optimizer = make_optimizer(
            config.baseline_optimizer, workload.model.parameters(), lr=config.kfac_lr, momentum=config.momentum
        )
        pre = KFAC.from_config(workload.model, config.kfac_config(grad_worker_frac=1.0), comm=comm)
        trainer = Trainer(workload.model, optimizer, workload.forward_loss, preconditioner=pre, comm=comm)
        rows = shard_batch(config.batch_size, comm.rank, comm.world_size)
        batches = iter(workload.train_loader)
        losses = [trainer.train_step(tuple(value[rows] for value in next(batches))) for _ in range(steps)]
        digest = hashlib.blake2b(digest_size=16)
        for param in workload.model.parameters():
            digest.update(np.ascontiguousarray(param.data).tobytes())
        return losses, digest.hexdigest(), blas_threads()

    return run_spmd(2, program)


def test_two_rank_cifar_resnet_repeats_bitwise_under_the_budget():
    first, second = _train_cifar_resnet(), _train_cifar_resnet()
    assert first == second
    (losses_0, digest_0, threads_0), (losses_1, digest_1, threads_1) = first
    assert digest_0 == digest_1  # replicas stay identical
    assert np.all(np.isfinite(losses_0))
    assert threads_0 == threads_1 == {name: max(1, min(n, usable_cores() // 2)) for name, n in blas_threads().items()}
