import ast
import collections
import dataclasses
import errno
import os
import pathlib
import signal

import numpy as np
import pytest

from motionpipe import arrays, flow, pipeline
from motionpipe.errors import DataFormatError


def test_float32_and_byte_arrays_keep_their_kind(tmp_path):
    path = tmp_path / "kinds.arrays"
    arrays.write(path, params=np.array([1.5, -2.0], dtype=np.float32), spec=b"fc 2\n")
    assert path.read_bytes() == (
        b"ARR1" b"\x02\x00\x00\x00"
        b"\x06\x00\x00\x00" b"params" b"<f4" b"\x01\x00\x00\x00" b"\x02\x00\x00\x00"
        b"\x00\x00\xc0\x3f" b"\x00\x00\x00\xc0"  # 1.5, -2.0
        b"\x04\x00\x00\x00" b"spec" b"|u1" b"\x01\x00\x00\x00" b"\x05\x00\x00\x00"
        b"fc 2\n"
    )
    stored = arrays.load(path, params=("<f4", (2,)), spec=("|u1", (None,)))
    assert stored["params"].dtype == np.float32 and stored["params"].tolist() == [1.5, -2.0]
    assert stored["spec"].tobytes() == b"fc 2\n"
    with pytest.raises(DataFormatError, match=r"array 'params' is <f4 \(2,\), expected <f8"):
        arrays.load(path, params=("<f8", (2,)))


def test_an_empty_array_too_large_for_numpy_is_a_format_error(tmp_path):
    path = tmp_path / "huge.arrays"
    arrays.write(path, empty=np.zeros((0, 1, 1, 1)))
    blob = bytearray(path.read_bytes())
    blob[-12:] = np.array([2**31] * 3, dtype="<u4").tobytes()  # (0, 2**31, 2**31, 2**31)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError, match="too large"):
        arrays.load(path)


class _FullDisk:
    """A file that takes the first bytes it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:3])
        raise OSError(errno.ENOSPC, "No space left on device")


_WRITES = {
    "arrays.write": lambda path: arrays.write(path, loss=np.arange(5.0)),
    "pipeline._put": lambda path: pipeline._put(str(path.parent), path.name, "fold,accuracy\n"),
    "flow.write_pgm": lambda path: flow.write_pgm(flow.Frame(np.zeros((8, 8))), path),
}


@pytest.mark.parametrize("write", _WRITES.values(), ids=_WRITES.keys())
def test_a_failed_write_leaves_the_previous_file_and_no_temporary(tmp_path, monkeypatch, write):
    path = tmp_path / "target"
    path.write_bytes(b"previous bytes")
    real_open = open
    monkeypatch.setattr(arrays, "open", lambda *args: _FullDisk(real_open(*args)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == b"previous bytes"
    assert os.listdir(tmp_path) == ["target"]

    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"previous bytes"
    assert os.listdir(tmp_path) == ["target"]


def test_a_report_write_killed_before_its_rename_leaves_the_previous_report(tmp_path):
    path = tmp_path / "accuracy.csv"
    path.write_bytes(b"previous bytes")
    pid = os.fork()
    if pid == 0:  # the child dies by SIGKILL once the temporary is written, before the rename
        try:
            os.replace = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
            pipeline._put(str(tmp_path), "accuracy.csv", "fold,accuracy\n")
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    assert path.read_bytes() == b"previous bytes"
    assert (tmp_path / "accuracy.csv.tmp").read_bytes() == b"fold,accuracy\n"

    pipeline._put(str(tmp_path), "accuracy.csv", "fold,accuracy\n")
    assert path.read_bytes() == b"fold,accuracy\n"
    assert os.listdir(tmp_path) == ["accuracy.csv"]


def test_a_report_that_holds_its_text_already_is_left_as_it_is(tmp_path):
    pipeline._put(str(tmp_path), "accuracy.csv", "fold,accuracy\n")
    inode = os.stat(tmp_path / "accuracy.csv").st_ino
    pipeline._put(str(tmp_path), "accuracy.csv", "fold,accuracy\n")
    assert os.stat(tmp_path / "accuracy.csv").st_ino == inode
    pipeline._put(str(tmp_path), "accuracy.csv", "overall,1.0\n")
    assert (tmp_path / "accuracy.csv").read_bytes() == b"overall,1.0\n"


# The readers that may parse file bytes themselves: every other reader goes through arrays.load.
_BYTE_READERS = {("arrays", None), ("flow", "read_pgm")}


def _byte_parsing_calls(tree):
    """(top-level definition or None, call) of each np.frombuffer or struct.unpack_from
    call in ``tree`` that reads a buffer other than anonymous memory, ``mmap.mmap(-1, ...)``."""
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("frombuffer", "unpack_from")):
                continue
            buffer = call.args[0] if call.args else None
            if (isinstance(buffer, ast.Call) and ast.unparse(buffer.func) == "mmap.mmap"
                    and buffer.args and ast.unparse(buffer.args[0]) == "-1"):
                continue
            yield owner, ast.unparse(call)


def test_only_the_listed_readers_parse_file_bytes():
    found = []
    for path in sorted(pathlib.Path(arrays.__file__).parent.glob("*.py")):
        for owner, call in _byte_parsing_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.stem, None) not in _BYTE_READERS and (path.stem, owner) not in _BYTE_READERS:
                found.append(f"{path.stem}.{owner}: {call}")
    assert found == []


# What starts a process or a thread; only workers, the one way to use the second CPU, may.
_PROCESS_MODULES = ("multiprocessing", "concurrent", "subprocess", "threading")


def _process_starters(tree):
    """Each import of a _PROCESS_MODULES module and each use of os.fork in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("os.fork", "os.forkpty"):
                yield ast.unparse(node)
            continue
        yield from (name for name in names if name.split(".")[0] in _PROCESS_MODULES)


def test_only_workers_starts_processes_or_threads():
    found = []
    for path in sorted(pathlib.Path(arrays.__file__).parent.glob("*.py")):
        if path.stem != "workers":
            found += [f"{path.stem}: {name}" for name in
                      _process_starters(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    workers_tree = ast.parse(pathlib.Path(arrays.__file__).with_name("workers.py").read_text())
    assert {"os.fork", "threading"} <= set(_process_starters(workers_tree))  # the check sees them


# Public functions and methods that nothing in src uses, each with its reason.
_UNUSED_PUBLIC = {
    "cli.main": "the console entry point, which pyproject.toml names",
    "flow.write_pgm": "the frame writer of the benchmark's inputs and the tests' fixtures",
}


def _name_counts(node):
    """How often each name and attribute name occurs under ``node``."""
    return collections.Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                               if isinstance(n, (ast.Name, ast.Attribute)))


def _attribute_counts(node):
    """How often each attribute name occurs under ``node``, as in ``x.name``."""
    return collections.Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_function_is_used_in_src():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(pathlib.Path(arrays.__file__).parent.glob("*.py"))]
    counts = sum((_name_counts(tree) for _, tree in trees), collections.Counter())
    unused = [f"{module}.{node.name}" for module, tree in trees for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and counts[node.name] == _name_counts(node)[node.name]]
    # a method is reached as an attribute, so a local variable of its name does not count
    counts = sum((_attribute_counts(tree) for _, tree in trees), collections.Counter())
    unused += [f"{module}.{cls.name}.{node.name}" for module, tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and counts[node.name] == _attribute_counts(node)[node.name]]
    stray = [name for name in unused if name not in _UNUSED_PUBLIC]
    assert not stray, f"public functions and methods that nothing in src uses: {', '.join(stray)}"


# Public functions with a parameter default that no src call relies on, each with its reason.
_UNRELIED_DEFAULTS = {
    "cnn.batch_gradients": "out: the tests' gradient checks call it without a buffer",
    "corpus.generate_synthetic_corpus": "noise_sigma: the benchmark's input generator "
                                        "relies on it",
}


def _calls_of(module, tree, functions):
    """(``module.name`` key, call) of each call in ``tree`` of one of ``functions``;
    ``functools.partial(f, ...)`` counts as a call of ``f``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if ast.unparse(node.func) == "functools.partial" and node.args:
            node = ast.Call(node.args[0], node.args[1:], node.keywords)
        if isinstance(node.func, ast.Name):
            key = f"{module}.{node.func.id}"
        elif isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            key = f"{node.func.value.id}.{node.func.attr}"
        else:
            continue
        if key in functions:
            yield key, node


def _defaulted(fn) -> list:
    """The names of ``fn``'s parameters that have a default."""
    positional = fn.args.posonlyargs + fn.args.args
    return ([a.arg for a in positional[len(positional) - len(fn.args.defaults):]]
            + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d])


def _relied_on(fn, call) -> set:
    """The defaulted parameters of ``fn`` that ``call`` leaves to their default:
    all of them for a call with ``*`` or ``**``."""
    defaulted = set(_defaulted(fn))
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return defaulted
    positional = fn.args.posonlyargs + fn.args.args
    return defaulted - {a.arg for a in positional[:len(call.args)]} - {k.arg for k in call.keywords}


def test_every_parameter_default_is_relied_on_in_src():
    trees = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(pathlib.Path(arrays.__file__).parent.glob("*.py"))]
    functions = {f"{module}.{node.name}": node for module, tree in trees for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    relied = collections.defaultdict(set)
    for module, tree in trees:
        for key, call in _calls_of(module, tree, functions):
            relied[key] |= _relied_on(functions[key], call)
    unrelied = {key: [name for name in _defaulted(fn) if name not in relied[key]]
                for key, fn in functions.items()}
    unrelied = {key: names for key, names in unrelied.items() if names}
    stray = [f"{key}({', '.join(names)})" for key, names in unrelied.items()
             if key not in _UNRELIED_DEFAULTS]
    assert not stray, f"parameter defaults that no src call relies on: {', '.join(stray)}"
    assert set(unrelied) == set(_UNRELIED_DEFAULTS)  # no entry outlives its default


# Where a setting's range may be checked, each with its reason.  PipelineConfig is
# the one gate: it makes or calls every such check, so no stage function repeats one.
_SETTING_CHECKS = {
    "pipeline.PipelineConfig": "the gate every setting passes, from a config file or an option",
    "pipeline._field_value": "each value's type, as a config file or an option gives it",
    "flow.check_alpha": "alpha's range, which the flow's float32 precision bounds; "
                        "PipelineConfig calls it",
    "cnn.TrainConfig": "the CNN settings and the seed; PipelineConfig builds one",
    "svm.KernelParams": "gamma's range; PipelineConfig builds one, and so does svm.load_model "
                        "from a file's gamma",
}


def _raised_messages(tree):
    """(top-level definition, message) of each ``raise E(message, ...)`` in ``tree`` whose
    message is a string; each formatted value of an f-string reads as ``{}``."""
    for top in tree.body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args):
                continue
            message = node.exc.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                yield top.name, message.value
            elif isinstance(message, ast.JoinedStr):
                yield top.name, "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                        for part in message.values)


def test_only_the_config_checks_a_setting():
    names = {f.name for f in dataclasses.fields(pipeline.PipelineConfig)} | {"{}"}
    found = collections.defaultdict(list)
    for path in sorted(pathlib.Path(arrays.__file__).parent.glob("*.py")):
        for top, message in _raised_messages(ast.parse(path.read_text(encoding="utf-8"))):
            head, must, _ = message.partition(" must")
            if must and head in names:
                found[f"{path.stem}.{top}"].append(message)
    stray = [f"{place}: {message!r}" for place, messages in found.items()
             if place not in _SETTING_CHECKS for message in messages]
    assert not stray, f"settings checked outside PipelineConfig's checks: {'; '.join(stray)}"
    assert set(found) == set(_SETTING_CHECKS)  # no entry outlives its check


def test_the_batch_step_checks_nothing():
    # train and extract_features check their input once per call, not once per batch
    tree = ast.parse(pathlib.Path(arrays.__file__).with_name("cnn.py").read_text(encoding="utf-8"))
    step = {"_forward_batch", "_backward_batch", "cross_entropy", "batch_gradients"}
    found = {node.name: any(isinstance(n, ast.Raise) for n in ast.walk(node))
             for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in step}
    assert found == dict.fromkeys(step, False)
