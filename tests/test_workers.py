import errno
import functools
import mmap
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from motionpipe import workers
from motionpipe.errors import WorkerError


def usable_cpus(monkeypatch, count=2, blas_threads=1):
    """Let _worker_count see ``count`` CPUs and OpenBLAS at ``blas_threads``, on any machine."""
    monkeypatch.setattr(workers, "_blas_threads",
                        lambda: (lambda: blas_threads, lambda threads: None))
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(range(count)))


def record_forks(monkeypatch, path):
    """Append the calling process's id to ``path`` whenever fork_map forks its workers."""
    real = workers._run_on_workers

    def recorded(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(workers, "_run_on_workers", recorded)
    return lambda: [int(pid) for pid in path.read_text().split()] if path.exists() else []


@pytest.mark.parametrize("tasks", [2, 5])
def test_every_task_runs_on_one_of_two_forked_workers(monkeypatch, tasks):
    usable_cpus(monkeypatch)
    values = workers.fork_map({name: os.getpid for name in "abcde"[:tasks]})
    assert list(values) == list("abcde"[:tasks])
    pids = set(values.values())
    assert len(pids) == 2 and os.getpid() not in pids


def test_light_path_returns_errors_in_order(monkeypatch, tmp_path):
    def fail(message, delay):
        time.sleep(delay)
        (tmp_path / message).touch()
        raise ValueError(message)

    usable_cpus(monkeypatch)
    # task 1 fails at once, task 0 only later: the error raised is the first task's
    with pytest.raises(ValueError, match="^task 0$"):
        workers.fork_map({0: functools.partial(fail, "task 0", 0.3),
                          1: functools.partial(fail, "task 1", 0.0)})
    assert sorted(os.listdir(tmp_path)) == ["task 0", "task 1"]  # both failed


@pytest.mark.parametrize("tasks", [2, 3], ids=["light", "pool"])  # as many tasks as workers, more
def test_no_fork_inside_a_worker_or_while_a_task_runs_here(monkeypatch, tmp_path, tasks):
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")

    def nested():
        return os.getpid(), list(workers.fork_map({0: os.getpid, 1: os.getpid}).values())

    values = workers.fork_map({k: nested for k in range(tasks)})
    assert len(values) == tasks
    for pid, inner in values.values():
        assert inner == [pid, pid]
    assert forks() == [os.getpid()]


def test_an_idle_worker_exits_while_another_still_runs(monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    first = tmp_path / "first"

    def record_pid():
        first.write_text(str(os.getpid()))

    def wait_for_the_first_worker_to_end():
        deadline = time.monotonic() + 5
        while (not first.exists() or not first.read_text()) and time.monotonic() < deadline:
            time.sleep(0.01)
        while time.monotonic() < deadline:
            try:
                os.kill(int(first.read_text()), 0)  # reaped: no such process
            except ProcessLookupError:
                return True
            time.sleep(0.01)
        return False

    values = workers.fork_map({0: record_pid, 1: wait_for_the_first_worker_to_end})
    assert values[1] is True


def test_a_failed_fork_leaves_no_worker_and_no_pipe(monkeypatch):
    usable_cpus(monkeypatch)
    real_fork, forks = os.fork, []

    def fork_once():
        forks.append(os.getpid())
        if len(forks) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(workers.os, "fork", fork_once)
    with pytest.raises(BlockingIOError):
        workers.fork_map({0: os.getpid, 1: os.getpid})
    with pytest.raises(ChildProcessError):  # the first worker was killed and reaped
        os.waitpid(-1, os.WNOHANG)
    # and conftest's no_pipe_left checks that the four pipe ends of each worker are closed


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_light_child_fails_its_task(monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    finished = tmp_path / "finished"
    with pytest.raises(WorkerError, match=r"ended without a result \(killed by SIGKILL\)") as info:
        workers.fork_map({0: functools.partial(finished.write_text, "here"), 1: _kill_self})
    assert info.value.task == 1
    assert finished.read_text() == "here"  # task 0 finished


def test_a_killed_worker_fails_its_own_task_and_the_running_one_finishes(monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    died, finished, started = tmp_path / "died", tmp_path / "finished", tmp_path / "started"

    def kill_self():
        died.touch()
        _kill_self()

    def finish_after_the_death():
        deadline = time.monotonic() + 30
        while not died.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.2)  # time for fork_map to see the other worker end
        finished.write_text("finished")

    # task 0 is still running when task 1's worker dies; 2 and 3 never start
    tasks = {0: finish_after_the_death, 1: kill_self, 2: started.touch, 3: started.touch}
    with pytest.raises(WorkerError, match=r"ended without a result \(killed by SIGKILL\)") as info:
        workers.fork_map(tasks)
    assert info.value.task == 1
    assert finished.read_text() == "finished"
    assert not started.exists()


@pytest.fixture
def ctrl_c_raises():
    """SIGINT raises KeyboardInterrupt during the test, as in a foreground shell, even
    when pytest inherited SIGINT ignored (a background job of a script starts so)."""
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, previous)


def test_ctrl_c_kills_and_reaps_every_worker(monkeypatch, ctrl_c_raises):
    usable_cpus(monkeypatch)
    here = os.getpid()

    def interrupt():
        os.kill(here, signal.SIGINT)  # as Ctrl-C does, but to this process alone
        time.sleep(30)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        workers.fork_map({0: interrupt, 1: lambda: time.sleep(30), 2: os.getpid})
    assert time.monotonic() - start < 5
    with pytest.raises(ChildProcessError):  # no worker left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_ctrl_c_during_a_fork_is_not_lost():
    # CPython runs a Python signal handler inside the at-fork callbacks too,
    # where a KeyboardInterrupt is reported and dropped; an at-fork hook
    # cannot be unregistered, so the probe runs in a child interpreter
    probe = textwrap.dedent("""
        import os, signal; signal.signal(signal.SIGINT, signal.default_int_handler)
        from motionpipe import workers
        workers._blas_threads = lambda: (lambda: 1, lambda threads: None)
        os.sched_getaffinity = lambda pid: {0, 1}
        os.register_at_fork(before=lambda: os.kill(os.getpid(), signal.SIGINT))
        try:
            workers.fork_map({0: os.getpid, 1: os.getpid})
            print("returned")
        except KeyboardInterrupt:
            print("interrupted")
        try:
            os.waitpid(-1, os.WNOHANG)
            print("a child is left")
        except ChildProcessError:
            print("no child")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(workers.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.stdout.splitlines() == ["interrupted", "no child"], result.stderr


# ---------------------------------------------------------------------------
# Phases: fork_map(*phases) on the same workers
# ---------------------------------------------------------------------------

def test_a_later_phase_sees_every_earlier_task(monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")
    slots = np.frombuffer(mmap.mmap(-1, 8 * 3), dtype=np.float64)  # shared with the workers

    def write(k, delay):
        time.sleep(delay)  # task 0 ends last, after the other worker has gone idle
        slots[k] = k + 1
        return os.getpid()

    values = workers.fork_map({k: functools.partial(write, k, 0.3 if k == 0 else 0.0)
                               for k in range(3)},
                              {name: lambda: (os.getpid(), slots.tolist())
                               for name in ("read0", "read1")})
    assert list(values) == [0, 1, 2, "read0", "read1"]
    writers = {values[k] for k in range(3)}
    readers = {values[name][0] for name in ("read0", "read1")}
    assert len(writers) == 2 and os.getpid() not in writers and readers <= writers
    for name in ("read0", "read1"):
        assert values[name][1] == [1.0, 2.0, 3.0]
    assert forks() == [os.getpid()]  # one fork for both phases


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_a_failed_phase_starts_no_later_task(monkeypatch, tmp_path, how):
    usable_cpus(monkeypatch)
    started, finished = tmp_path / "started", tmp_path / "finished"

    def fail():
        time.sleep(0.2)  # the other task of the phase finishes first
        if how == "killed":
            _kill_self()
        raise ValueError("phase 1")

    def finish():
        finished.write_text(str(os.getpid()))

    with pytest.raises(WorkerError if how == "killed" else ValueError) as info:
        workers.fork_map({0: fail, 1: finish}, {k: started.touch for k in (2, 3)})
    if how == "killed":
        assert info.value.task == 0
    assert int(finished.read_text()) != os.getpid()  # task 1 finished, in a worker
    assert not started.exists()


def test_a_worker_killed_while_it_waits_for_a_phase_leaves_the_tasks_to_the_other(
        monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    pids, real_fork = tmp_path / "pids", os.fork

    def fork():
        pid = real_fork()
        if pid:
            with open(pids, "a") as fh:
                fh.write(f"{pid}\n")
        return pid

    monkeypatch.setattr(workers.os, "fork", fork)

    def kill_the_waiting_worker():
        for pid in map(int, pids.read_text().split()):
            if pid != os.getpid():
                os.kill(pid, signal.SIGKILL)
        time.sleep(0.3)  # time for fork_map to see that worker end
        return os.getpid()

    values = workers.fork_map({0: kill_the_waiting_worker}, {1: os.getpid, 2: os.getpid})
    assert list(values) == [0, 1, 2]
    assert {values[1], values[2]} == {values[0]} != {os.getpid()}


def test_phases_run_in_order_inside_a_worker(monkeypatch, tmp_path):
    usable_cpus(monkeypatch)
    forks = record_forks(monkeypatch, tmp_path / "forks")

    def phased():
        order = []
        values = workers.fork_map({k: functools.partial(order.append, k) for k in "ab"},
                                  {k: functools.partial(order.append, k) for k in "cd"})
        return os.getpid(), list(values), order

    values = workers.fork_map({k: phased for k in range(2)})
    assert list(values) == [0, 1]
    for pid, names, order in values.values():
        assert pid != os.getpid() and names == order == list("abcd")
    assert forks() == [os.getpid()]


def test_phases_run_in_order_here_and_stop_at_a_failure(monkeypatch):
    usable_cpus(monkeypatch, count=1)
    order = []

    def fail():
        order.append("b")
        raise ValueError("b")

    with pytest.raises(ValueError, match="^b$"):
        workers.fork_map({"a": functools.partial(order.append, "a"), "b": fail},
                         {"c": functools.partial(order.append, "c")})
    assert order == ["a", "b"]
    with pytest.raises(ValueError, match="repeat"):
        workers.fork_map({0: os.getpid}, {0: os.getpid})
