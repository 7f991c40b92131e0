"""Forked workers: the one way this package runs work on a second CPU.

``fork_map`` runs dicts of tasks, phase after phase, on the same
persistent forked workers and returns their values in task order, or
raises the first failed task's exception; its docstring says when
nothing forks.
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
# that workers inherit the tasks' inputs instead of unpickling them, and
# so that a worker sees that it is one.
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
    """Workers for phases of at most ``pending`` tasks: one per usable CPU, at most _MAX_WORKERS.

    One (run in-process) on the conditions ``fork_map`` lists, but inside
    a worker, which ``fork_map`` checks itself.  Two workers at OpenBLAS's
    default thread count oversubscribe the CPUs and run several times
    slower than one process.
    """
    threads = _blas_threads()
    if pending < 2 or threads is None or threads[0]() != 1 or _stage_functions_replaced():
        return 1
    return min(_MAX_WORKERS, len(os.sched_getaffinity(0)), pending)


def _worker_error(task, status: int) -> WorkerError:
    """The error of ``task``, whose worker ended, with wait status ``status``, without its outcome."""
    import signal

    code = os.waitstatus_to_exitcode(status)
    how = f" (exit code {code})" if code > 0 else ""
    if code < 0:
        try:
            how = f" (killed by {signal.Signals(-code).name})"
        except ValueError:  # a signal without a name
            how = f" (killed by signal {-code})"
    return WorkerError(f"a worker process ended without a result{how}", task)


def _serve(commands: int, results: int):
    """In a forked worker: run each task index read from ``commands``, send back its outcome.

    An outcome is (value, exception), pickled behind its 8-byte length
    into ``results``.  The exception is sent, not raised, so that its
    cause, from which the CLI picks the exit code, reaches the parent.
    Ctrl-C is left to the parent, which kills the workers, and a worker
    whose parent is gone exits quietly.  Never returns: a worker never
    runs its parent's code.
    """
    import signal

    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with os.fdopen(commands, "rb") as tasks, os.fdopen(results, "wb") as out:
            while index := tasks.read(4):  # until the parent closes the command pipe
                try:
                    outcome = _forked_tasks[int.from_bytes(index, "little")](), None
                except Exception as exc:
                    outcome = None, exc
                data = pickle.dumps(outcome)
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
        code = 0
    except BrokenPipeError:  # the result pipe has no reader: the parent is gone
        pass
    except BaseException:  # the parent reports the running task as ended without a result
        import traceback

        traceback.print_exc()
        raise  # no further than the finally clause, which ends the worker
    finally:
        for stream in (sys.stdout, sys.stderr):
            with contextlib.suppress(Exception):
                stream.flush()
        os._exit(code)


@contextlib.contextmanager
def _sigint_held():
    """Hold back a SIGINT in the block, then hand it to SIGINT's Python handler.

    CPython drops the KeyboardInterrupt of a handler run inside an at-fork
    callback, so a Ctrl-C during a fork would be lost.
    """
    import signal
    import threading

    handler, caught = signal.getsignal(signal.SIGINT), []
    held = callable(handler) and threading.current_thread() is threading.main_thread()
    if held:  # Python handlers are set and run in the main thread only
        signal.signal(signal.SIGINT, lambda *args: caught.append(args))
    try:
        yield
    finally:
        if held:
            signal.signal(signal.SIGINT, handler)
        if caught:
            handler(*caught[0])


def _run_on_workers(count: int, names: list, waits: list) -> dict:
    """Every task on ``count`` forked workers: {index: (value, exception)}.

    Task ``i`` may start once ``waits[i]`` tasks have finished: the tasks
    of the phases before its own.  Each idle worker is handed the next task
    index over its command pipe once that task may start and while no task
    has failed, and sends each outcome back over its result pipe.  This
    process only forks, waits, reads and reaps.  A worker that ends without
    its task's full outcome fails that task with a WorkerError that names
    it by its entry in ``names``; the other running tasks finish.  One that
    ends while it waits for a phase fails nothing: a worker that runs an
    earlier task takes the rest.  No worker outlives the call.
    """
    import select
    import signal

    for stream in (sys.stdout, sys.stderr):  # a worker must not write this output again
        stream.flush()
    done = {}
    queue = 0  # the next task to start
    running = {}  # each worker's result pipe -> [pid, its command pipe, its task or None]

    def feed():  # hand out the tasks that may start; end the commands once none will
        nonlocal queue
        failed = any(e is not None for _, e in done.values())
        for worker in running.values():
            if worker[2] is not None or worker[1].closed:
                continue
            if failed or queue == len(waits):
                worker[1].close()  # the worker exits
            elif len(done) >= waits[queue]:  # every task of the earlier phases has finished
                worker[2], queue = queue, queue + 1
                with contextlib.suppress(BrokenPipeError):  # it died: its task fails at the EOF
                    worker[1].write(worker[2].to_bytes(4, "little"))

    try:
        for _ in range(count):
            # A worker inherits every pipe end open here, so it closes those of
            # the workers forked before it: while a later worker holds an
            # earlier one's command pipe open for writing, the earlier worker
            # never sees its commands end, and it cannot exit before the later.
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            with _sigint_held():  # until the worker is in running, where it is reaped
                try:
                    pid = os.fork()
                except OSError:
                    for fd in (task_r, task_w, result_r, result_w):
                        os.close(fd)
                    raise
                if pid == 0:
                    for results, (_, commands, _) in running.items():
                        results.close()
                        commands.close()
                    os.close(task_w)
                    os.close(result_r)
                    _serve(task_r, result_w)
                running[os.fdopen(result_r, "rb")] = [pid, os.fdopen(task_w, "wb", buffering=0),
                                                      None]
                os.close(task_r)
                os.close(result_w)
        feed()
        while running:
            for results in select.select(list(running), [], [])[0]:
                worker = running[results]
                header = results.read(8)  # an outcome's length, then the outcome
                data = results.read(int.from_bytes(header, "little"))
                if len(header) == 8 and len(data) == int.from_bytes(header, "little"):
                    done[worker[2]] = pickle.loads(data)
                    worker[2] = None
                else:  # the worker ended
                    results.close()
                    worker[1].close()
                    status = os.waitpid(worker[0], 0)[1]
                    del running[results]
                    if worker[2] is not None:
                        done[worker[2]] = None, _worker_error(names[worker[2]], status)
                feed()
        return done
    finally:
        for results, (pid, commands, _) in running.items():  # interrupted
            results.close()
            commands.close()
            os.kill(pid, signal.SIGKILL)  # an unreaped worker still has its pid
            os.waitpid(pid, 0)


def fork_map(*phases: dict) -> dict:
    """Run each phase's tasks, {name: callable}: {name: value}, in task order.

    The phases run in order on the same workers: a task of a later phase
    starts only once every task of the earlier phases has finished, so it
    sees their effects on shared memory.  Names are distinct across phases.
    This process forks its workers once per call and hands each idle
    worker the next task; it runs no task itself.  Tasks start in order and
    none starts once one has failed; the running tasks finish, and then the
    exception of the first failed task, in task order, is raised.  A worker
    that ends without its task's outcome (killed by the OOM killer, say)
    fails that task, its own, with a WorkerError that names the task and
    gives its exit signal.

    Everything runs in this process, phase by phase, in order, up to the
    first failure, which is raised, when:
    - no phase has two tasks, or there is one usable CPU;
    - numpy's OpenBLAS thread-count functions are missing, or this process
      does not hold OpenBLAS at one thread (see one_blas_thread);
    - a public stage function is wrapped (see _stage_functions_replaced);
    - this process is a worker: a nested fork would double the process count.

    The workers fork (not spawn) so that the tasks' inputs, monkeypatches
    and warning filters carry over without pickling, and so that they
    inherit the one BLAS thread this process holds.
    """
    global _forked_tasks
    names = [name for phase in phases for name in phase]
    if len(set(names)) < len(names):
        raise ValueError("task names repeat across phases")
    tasks = [task for phase in phases for task in phase.values()]
    workers = 1 if _forked_tasks else _worker_count(max(map(len, phases), default=0))
    if workers < 2:
        return {name: task() for name, task in zip(names, tasks)}
    # task i waits for the tasks of the phases before its own
    waits = [start for start, phase in zip(itertools.accumulate(map(len, phases), initial=0),
                                           phases) for _ in phase]
    _forked_tasks = tasks
    try:
        done = _run_on_workers(workers, names, waits)
    finally:
        _forked_tasks = []
    for i in sorted(done):
        if done[i][1] is not None:
            raise done[i][1]
    return {name: done[i][0] for i, name in enumerate(names)}
