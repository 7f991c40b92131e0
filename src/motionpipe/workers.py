"""Forked workers: the one way this package runs work on a second CPU.

``fork_map`` runs a dict of tasks on this process and forked children and
hands their outcomes back in order; its docstring says when nothing forks.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import pickle
import sys

import numpy as np

from .errors import WorkerError

# The tasks of the running fork_map, by position.  Set before any fork, so
# that children inherit the tasks' inputs instead of unpickling them, and
# so that a child, or this process while it runs the first task, sees that
# a fork_map is running.
_forked_tasks: list = []

# At most this many workers: the count the fold-parallel speed-up and the
# workers' memory (each about as large as a serial run) were measured at.
_MAX_WORKERS = 2


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    # listed, not globbed: warm runs look too, and importing glob takes about 1 ms
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if "openblas" not in name:
            continue
        lib = ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            getter = lib.scipy_openblas_get_num_threads64_
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter = lib.scipy_openblas_set_num_threads64_
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread in the block, then restore its count.

    Set here, before any fork, so workers inherit one thread and start none:
    setting it inside a freshly forked worker starts a new OpenBLAS thread
    that busy-waits on a CPU the other worker needs.
    """
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_threads = threads
    count = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(count)


def _stage_functions_replaced() -> bool:
    """Whether a public function of the stage modules is no longer the one defined.

    A tracer or profiler that replaces such a function with a wrapper records
    its calls in this process, where a forked worker's calls never arrive.
    The table is built once every stage module has loaded, at the end of
    ``pipeline``'s import, so it is looked up here, not imported with this module.
    """
    from . import pipeline

    return any(getattr(module, name, None) is not fn
               for (module, name), fn in pipeline._STAGE_FUNCTIONS.items())


def _worker_count(pending: int) -> int:
    """Workers for ``pending`` tasks: one per usable CPU, at most _MAX_WORKERS.

    One (run in-process) on the conditions ``fork_map`` lists, but for
    nesting, which ``fork_map`` checks itself.  Two workers at OpenBLAS's
    default thread count oversubscribe the CPUs and run several times
    slower than one process.
    """
    threads = _blas_threads()
    if pending < 2 or threads is None or threads[0]() != 1 or _stage_functions_replaced():
        return 1
    return min(_MAX_WORKERS, len(os.sched_getaffinity(0)), pending)


def _outcome(task):
    """(value, None) of calling ``task``, or (None, the exception it raised)."""
    try:
        return task(), None
    except Exception as exc:
        return None, exc


def _forked_task(index: int):
    """Run task ``index`` in a worker: (value, exception, fit audit calls).

    The exception is returned, not raised: the executor would replace its
    cause, from which the CLI picks the exit code, and a failed task's audit
    calls still reach the parent.
    """
    from . import pipeline

    calls = []
    pipeline.fit_audit = lambda stage, fold, ids: calls.append((stage, fold, ids))
    return *_outcome(_forked_tasks[index]), calls


def _worker_error(exitcode) -> WorkerError:
    """The error of a task whose worker ended without its result.

    ``exitcode`` is as multiprocessing reports it (minus the signal number
    for a killed process), or None where it is not known.
    """
    import signal

    how = ""
    if exitcode is not None and exitcode < 0:
        try:
            how = f" (killed by {signal.Signals(-exitcode).name})"
        except ValueError:  # a signal without a name
            how = f" (killed by signal {-exitcode})"
    elif exitcode:
        how = f" (exit code {exitcode})"
    return WorkerError(f"a worker process ended without a result{how}")


def _run_child(index: int, fd: int):
    """In a freshly forked child: run task ``index``, write its outcome to ``fd``, exit.

    Never returns, so the child never runs its parent's code after the fork.
    """
    code = 1
    try:
        data = pickle.dumps(_forked_task(index))
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    except BaseException:  # the parent reports the task as ended without a result
        import traceback

        traceback.print_exc()
        raise  # no further than the finally clause, which ends the child
    finally:
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(Exception):
                stream.flush()
        os._exit(code)


def _fork_each() -> dict:
    """The light path: task 0 here, each further task in a child of its own.

    Returns {index: (value, exception, fit audit calls)}.  Task 0's audit
    calls are made here, as it runs, before the children's are replayed.
    """
    for stream in (sys.stdout, sys.stderr):  # a child must not write this output again
        stream.flush()
    children = {}
    try:
        for index in range(1, len(_forked_tasks)):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(index, write_fd)
            os.close(write_fd)
            children[index] = pid, read_fd
        done = {0: (*_outcome(_forked_tasks[0]), ())}
        for index in list(children):
            pid, read_fd = children[index]
            with os.fdopen(read_fd, "rb") as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[index]
            # a child exits 0 only once its outcome is written in full
            done[index] = pickle.loads(data) if code == 0 else (None, _worker_error(code), ())
        return done
    finally:
        for pid, read_fd in children.values():  # interrupted: no child outlives the call
            with contextlib.suppress(OSError):  # closed already, if it was read
                os.close(read_fd)
            os.kill(pid, 9)  # SIGKILL; an unreaped child still has its pid
            os.waitpid(pid, 0)


def _pool(workers: int) -> dict:
    """Every task on ``workers`` pooled worker processes, in order.

    Returns {index: (value, exception, fit audit calls)} for the tasks that
    ended.  If a worker dies, the lowest-index task still running fails with
    a WorkerError, and the pool stops the other workers.
    """
    import multiprocessing
    import signal
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    done = {}
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        queue = iter(range(len(_forked_tasks)))
        running = {pool.submit(_forked_task, i): i for i in itertools.islice(queue, workers)}
        processes = list(pool._processes.values())  # a fork pool starts all at the first submit
        while running:
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                error = future.exception()
                done[running.pop(future)] = future.result() if error is None else (None, error, ())
            if all(error is None for _, error, _ in done.values()):
                with contextlib.suppress(BrokenProcessPool):  # its running tasks fail below
                    running.update((pool.submit(_forked_task, i), i)
                                   for i in itertools.islice(queue, len(finished)))
    broken = sorted(i for i, (_, error, _) in done.items() if isinstance(error, BrokenProcessPool))
    if broken:
        # the dead worker's exit code; the pool ends the others with SIGTERM
        codes = [p.exitcode for p in processes if p.exitcode not in (None, 0, -signal.SIGTERM)]
        done[broken[0]] = None, _worker_error(codes[0] if codes else None), ()
        for i in broken[1:]:
            del done[i]
    return done


def fork_map(tasks: dict) -> dict:
    """Run ``tasks``, {name: callable}: {name: (value, exception)} for those that ran.

    No more tasks than workers (a fixed split's two folds, the two halves
    of an SVM fit) take the light path: this process runs the first task
    itself and forks one child for each further task, which sends its
    outcome back over a pipe and exits.  Longer task lists go to a pool of
    forked workers.  Tasks start in order and none starts once one has
    failed, so a caller that takes the outcomes in order meets the first
    failure before any task that never ran.  If a worker ends without a
    result (killed by the OOM killer, say), the lowest-index task still
    running fails with a WorkerError.  Once forked, the running tasks finish
    after a failure, and the fit audit calls of every finished task are
    replayed here, in order.

    Everything runs in this process, in order, when:
    - there are fewer than two tasks, or one usable CPU;
    - numpy's OpenBLAS thread-count functions are missing, or this process
      does not hold OpenBLAS at one thread (see one_blas_thread);
    - a public stage function is wrapped (see _stage_functions_replaced);
    - this process is a worker, or is running the first task of a fork_map:
      a nested fork would double the process count.

    The workers fork (not spawn) so that the tasks' inputs, monkeypatches
    and warning filters carry over without pickling, and so that they
    inherit the one BLAS thread this process holds.
    """
    global _forked_tasks
    workers = 1 if _forked_tasks else _worker_count(len(tasks))
    if workers < 2:
        outcomes = {}
        for name, task in tasks.items():
            outcomes[name] = _outcome(task)
            if outcomes[name][1] is not None:
                break
        return outcomes
    from . import pipeline

    _forked_tasks = list(tasks.values())
    try:
        done = _fork_each() if len(tasks) <= workers else _pool(workers)
    finally:
        _forked_tasks = []
    names = list(tasks)
    outcomes = {}
    for i in sorted(done):
        value, error, calls = done[i]
        for call in calls:
            pipeline._audit(*call)
        outcomes[names[i]] = value, error
    return outcomes


def take(outcome):
    """The value of a (value, exception) outcome; raises the exception."""
    value, error = outcome
    if error is not None:
        raise error
    return value
