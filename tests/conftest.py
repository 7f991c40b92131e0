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
