import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped.

    ``multiprocessing.active_children()`` does not see children made with a
    plain ``os.fork``, so this asks the kernel: after the test, this process
    must have no children at all.
    """
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no children
    assert False, ("a child process is still running" if pid == 0
                   else f"child process {pid} ended (status {status}) but was not reaped")


def _open_pipes():
    """{descriptor: pipe} of this process's open pipe file descriptors, from /proc/self/fd."""
    pipes = {}
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the descriptor listdir itself used, closed since
            continue
        if target.startswith("pipe:"):
            pipes[int(fd)] = target
    return pipes


@pytest.fixture(autouse=True)
def no_pipe_left():
    """Fail a test that leaves a pipe file descriptor open in this process (on Linux)."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = _open_pipes()
    yield
    left = {fd: pipe for fd, pipe in _open_pipes().items() if before.get(fd) != pipe}
    assert not left, f"pipe file descriptors left open: {left}"
