"""In-memory span recorder for the traced benchmark run.

Wraps module-level functions so that every call records a span
``(id, parent, name, start, end, failed, nested, size)`` in memory; the
spans are written out once, when the run ends.  ``nested`` marks a span
that sits inside another span of the same name, so inclusive times can
skip it and never count the same interval twice.  ``size`` carries an
optional per-call quantity (matrix order for a factorization, points for a
branch).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# Modules whose public functions are traced.
LAYER_MODULES = ("solver", "continuation", "spectral", "codim2", "studies",
                 "lattice")

FIELDS = ("id", "parent", "name", "start", "end", "failed", "nested", "size")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._active = {}

    def wrap(self, owner, attr, name, size=None):
        """Replace ``owner.attr`` by a wrapper that records one span per call."""
        original = getattr(owner, attr)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            span = [len(spans), stack[-1][0] if stack else -1, name, clock(),
                    0.0, False, depth > 0, None]
            spans.append(span)
            stack.append(span)
            active[name] = depth + 1
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                active[name] = depth
                stack.pop()
            if size is not None:
                span[7] = size(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": FIELDS,
                       "spans": self.spans}, fh)


def install(run_id):
    """Trace the package's layer boundaries and the sparse LU it calls."""
    import scipy.sparse.linalg

    tracer = Tracer(run_id)
    for mod_name in LAYER_MODULES:
        module = importlib.import_module(f"snaklat.{mod_name}")
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                tracer.wrap(module, attr, f"{mod_name}.{attr}",
                            size=_branch_points if
                            attr == "continue_branch" else None)
    # the manifest writer is private but is one of the CLI's output writers
    cli = importlib.import_module("snaklat.cli")
    tracer.wrap(cli, "_write_manifest", "cli._write_manifest")
    # solver, continuation and codim2 look splu up on scipy.sparse.linalg at
    # call time; ARPACK's shift-invert binds its own copy and stays untraced.
    tracer.wrap(scipy.sparse.linalg, "splu", "factor.splu",
                size=lambda args, result: args[0].shape[0])
    return tracer


def _branch_points(args, branch):
    return len(branch.points)
