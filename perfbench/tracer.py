"""Run one `defectbethe` invocation with spans around each module's functions.

Usage: python perfbench/tracer.py SPANS_FILE ARG...   (with src on PYTHONPATH)

Wraps every public module-level function of the package, on its home module
and on every package module that imported it by name, then calls
`defectbethe.cli.main(ARG...)`.  Spans stay in memory and are written to
SPANS_FILE as JSON at exit.  Nothing is printed, so stdout is byte-identical
to the untraced `python -m defectbethe ARG...`.

A span is [id, name, start, end, parent, thread, ok, n]: `ok` is false when
the call raised, and `n` is a per-function work count (log_gamma points,
gamma_product terms, quad evaluations, embedded dimension).
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types

T_START = time.perf_counter()

MODULES = ["special_functions", "spin_algebra", "lax_operators",
           "amplitudes", "spin_chain", "physics_checks", "cli"]

# called once per quadrature node (~10^5 times per sweep): counted through
# the terms the routes return instead of wrapped
UNWRAPPED = {"kernel_hat"}


def _size(args, result):
    # callers pass a scalar (one point) or an ndarray
    return int(getattr(args[0], "size", 1))


def _terms(args, result):
    return int(result.terms_used)


def _neval(args, result):
    return int(result[2])


def _dim(args, result):
    return int(result.shape[0])


WORK_COUNTS = {
    "special_functions.log_gamma": _size,
    "special_functions.gamma_product": _terms,
    "special_functions.fourier_sine_integral": _neval,
    "lax_operators.two_site_operator": _dim,
}


class Recorder:
    """Span store with one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        self.main_thread = threading.main_thread().ident

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, count, args, kwargs):
        stack = self._stack()
        # a pool worker's first span was caused by the main thread's top span
        source = stack or self._stacks.get(self.main_thread, ())
        try:
            parent = source[-1][0]
        except IndexError:
            parent = None
        sid = next(self._ids)
        stack.append((sid, name))
        ok, n = False, 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter()
            stack.pop()
            if ok and count is not None:
                n = count(args, result)
            self.spans.append([sid, name, start, end, parent,
                               threading.get_ident(), ok, n])
        return result

    def wrap(self, name, fn):
        count = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, count, args, kwargs)
        return traced


def install(recorder):
    """Patch the package's functions in place; returns the cli module."""
    mods = {m: importlib.import_module(f"defectbethe.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_") and attr not in UNWRAPPED):
                wrapped[fn] = recorder.wrap(f"{short}.{attr}", fn)
    for mod in mods.values():
        for attr, fn in list(vars(mod).items()):
            if isinstance(fn, types.FunctionType) and fn in wrapped:
                setattr(mod, attr, wrapped[fn])

    cli = mods["cli"]
    cli.Emitter.emit = recorder.wrap("cli.emit", cli.Emitter.emit)

    # LAPACK eigvals as `chain diagonalize` calls it; other callers keep
    # the time in their own span
    np = cli.np
    eigvals = np.linalg.eigvals

    @functools.wraps(eigvals)
    def traced_eigvals(*args, **kwargs):
        top = recorder.current()
        if top is not None and top[1] == "cli.main":
            return recorder.call("cli.eigvals", eigvals, None, args, kwargs)
        return eigvals(*args, **kwargs)
    np.linalg.eigvals = traced_eigvals
    return cli


def main(argv):
    spans_file, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    cli = install(recorder)
    t_imported = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        t_end = time.perf_counter()
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "t_imported": t_imported,
                       "t_end": t_end, "main_thread": recorder.main_thread,
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
