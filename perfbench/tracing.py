"""Spans recorded around named public functions of the motionpipe modules.

The pipeline looks its stage functions up on their modules at call time
(``pca.fit(...)``, ``cnn.train(...)``), so replacing a module attribute
with a timing wrapper puts a span around every call, including calls
from inside the same module.  Spans stay in memory and are written out
once the run ends; self time is computed from them afterwards.  Work in
a function that is not wrapped counts as self time of its nearest wrapped
caller, so ``svm.chi2_gram`` includes ``chi2_distance_matrix``.  A name
the program no longer defines is skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("flow", "corpus", "pca", "cnn", "svm", "pipeline", "cli")


def _estimate_flow_attrs(args, kwargs, result):
    prev = args[0] if args else kwargs["prev"]
    iterations = kwargs.get("iterations", args[3] if len(args) > 3 else 100)
    height, width = prev.intensity.shape
    return height * width * iterations


def _pca_fit_attrs(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    return samples.shape[1]


def _chi2_gram_attrs(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    rows, d = x.shape
    return rows * result.shape[1] * d * 8 / 2**20


def _svm_fit_attrs(args, kwargs, result):
    return sum(int(m.support_indices.size) for m in result.machines)


# One number per call, derived from the call's shapes: work (H*W*iterations),
# PCA input dimension, the chi-squared kernel's S x S x d temporary in MB,
# and the support vectors of a fitted SVM.
ATTRS = {
    "flow.estimate_flow": _estimate_flow_attrs,
    "pca.fit": _pca_fit_attrs,
    "svm.chi2_gram": _chi2_gram_attrs,
    "svm.fit": _svm_fit_attrs,
}


class Tracer:
    """Wraps module attributes; records [name, start, end, parent, run, attr] spans."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self._stack: list = []

    def install(self, names) -> None:
        """Wrap each dotted ``layer.function`` name that the module defines."""
        for qualname in names:
            layer, _, name = qualname.partition(".")
            module = importlib.import_module(f"motionpipe.{layer}")
            fn = getattr(module, name, None)
            if inspect.isfunction(fn):
                setattr(module, name, self._wrap(qualname, fn))

    def _wrap(self, qualname, fn):
        attrs = ATTRS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                try:
                    span[5] = attrs(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # signature changed: the derived number goes missing, the call does not
            return result

        return wrapper


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
