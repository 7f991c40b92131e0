import concurrent.futures
import os
import signal
import time

import pytest

from motionpipe import workers
from motionpipe.errors import WorkerError


def usable_cpus(monkeypatch, count=2, blas_threads=1):
    """Let _worker_count see ``count`` CPUs and OpenBLAS at ``blas_threads``, on any machine."""
    monkeypatch.setattr(workers, "_blas_threads",
                        lambda: (lambda: blas_threads, lambda threads: None))
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(count)))


def record_forks(monkeypatch, path):
    """Append the calling process's id to ``path`` whenever fork_map forks."""
    for name in ("_fork_each", "_pool"):
        real = getattr(workers, name)

        def recorded(*args, _real=real):
            with open(path, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return _real(*args)

        monkeypatch.setattr(workers, name, recorded)
    return lambda: [int(line) for line in open(path)] if os.path.exists(path) else []


def _no_pool(*args, **kwargs):
    raise AssertionError("the light path started a process pool")


def test_light_path_runs_the_first_task_here_and_forks_the_second(monkeypatch):
    usable_cpus(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    outcomes = workers.fork_map({"a": os.getpid, "b": os.getpid})
    assert list(outcomes) == ["a", "b"]
    here, child = (workers.take(outcome) for outcome in outcomes.values())
    assert here == os.getpid() and child != os.getpid()


def test_light_path_returns_errors_in_order(monkeypatch):
    def fail(message):
        raise ValueError(message)

    usable_cpus(monkeypatch)
    outcomes = workers.fork_map({0: lambda: fail("here"), 1: lambda: fail("child")})
    assert [str(error) for _, error in outcomes.values()] == ["here", "child"]


@pytest.mark.parametrize("tasks", [2, 3], ids=["light", "pool"])
def test_no_fork_inside_a_worker_or_while_a_task_runs_here(monkeypatch, tmp_path, tasks):
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")

    def nested():
        inner = workers.fork_map({0: os.getpid, 1: os.getpid})
        return os.getpid(), [workers.take(outcome) for outcome in inner.values()]

    outcomes = workers.fork_map({k: nested for k in range(tasks)})
    for pid, inner in (workers.take(outcome) for outcome in outcomes.values()):
        assert inner == [pid, pid]
    assert forks() == [os.getpid()]


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_light_child_fails_its_task(monkeypatch):
    usable_cpus(monkeypatch)
    outcomes = workers.fork_map({0: lambda: "here", 1: _kill_self})
    assert workers.take(outcomes[0]) == "here"
    with pytest.raises(WorkerError, match=r"ended without a result \(killed by SIGKILL\)"):
        workers.take(outcomes[1])


def test_a_killed_pool_worker_fails_the_lowest_task_still_running(monkeypatch):
    usable_cpus(monkeypatch)
    # task 0 is still running when task 1's worker dies; 2 and 3 never start
    tasks = {0: lambda: time.sleep(30), 1: _kill_self, 2: os.getpid, 3: os.getpid}
    start = time.monotonic()
    outcomes = workers.fork_map(tasks)
    assert time.monotonic() - start < 20  # the pool stopped task 0's worker
    assert list(outcomes) == [0]
    with pytest.raises(WorkerError, match=r"ended without a result \(killed by SIGKILL\)"):
        workers.take(outcomes[0])
