"""Run the quasispin CLI once with every layer boundary recorded as a span.

    python bench/traced_cli.py SPANS_PREFIX T_SPAWN -- CLI_ARGS...

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux). The package is
traced from outside: each plain function and public method that a module's
``__all__`` lists, plus the scan ``meanfield._sign_change_roots``, is wrapped,
and the wrapper is rebound in every ``quasispin.*`` namespace that holds the
original, so ``from .meanfield import gap_solve`` bindings are caught too.
``pathlib.Path.write_bytes`` and ``sys.stdout.write`` are wrapped as the
``cli.write`` span. Nothing inside the package changes, and names that do not
exist are skipped.

Spans stay in memory as flat arrays and are written when the CLI returns:
``SPANS_PREFIX.json`` holds the name table and the process timestamps,
``SPANS_PREFIX.bin`` the arrays, in the order of ``ARRAYS``.
"""

import time

T_BOOT = time.monotonic()

import array  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

LAYERS = ("thermal", "meanfield", "exact", "sweep", "cli")
# Private functions that are a layer of their own: the scan-and-bisect loop
# shared by critical_temperatures and phase_map.
EXTRA = {"meanfield": ("_sign_change_roots",)}
# Span name, array typecode; one entry per span in each array.
ARRAYS = (("name", "i"), ("parent", "q"), ("start", "d"), ("end", "d"), ("value", "d"))


def _max_residual(args, result):
    import numpy as np

    return float(np.max(np.abs(getattr(result, "residual", 0.0))))


# Counts taken at the same boundary as the span, stored as the span's value.
OBSERVERS = {
    "meanfield.gap_solve": _max_residual,
    "meanfield._sign_change_roots": lambda args, result: len(result),
    "sweep.serialize": lambda args, result: len(result),
    "exact.dicke_spectrum": lambda args, result: result.energies.nbytes,
    "exact.gibbs_observables": lambda args, result: args[0].energies.nbytes,
}


class Recorder:
    """Span arrays plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.arrays = {key: array.array(code) for key, code in ARRAYS}
        self.stack = [-1]

    def wrap(self, fn, name, observe=None):
        nid = len(self.names)
        self.names.append(name)
        names, parents = self.arrays["name"], self.arrays["parent"]
        starts, ends, values = self.arrays["start"], self.arrays["end"], self.arrays["value"]
        stack, clock = self.stack, time.monotonic

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            values.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                values[index] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, prefix, header):
        header = dict(header, names=self.names, spans=len(self.arrays["name"]))
        pathlib.Path(prefix + ".json").write_text(json.dumps(header), encoding="utf-8")
        with open(prefix + ".bin", "wb") as handle:
            for key, _ in ARRAYS:
                self.arrays[key].tofile(handle)


def _rebind(original, wrapper):
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "quasispin":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def install(recorder):
    for layer in LAYERS:
        module = importlib.import_module(f"quasispin.{layer}")
        for attr in (*getattr(module, "__all__", ()), *EXTRA.get(layer, ())):
            obj = getattr(module, attr, None)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                _rebind(obj, recorder.wrap(obj, name, OBSERVERS.get(name)))
            elif inspect.isclass(obj):
                for method, member in list(vars(obj).items()):
                    if not method.startswith("_") and inspect.isfunction(member):
                        setattr(obj, method, recorder.wrap(member, f"{name}.{method}"))
    pathlib.Path.write_bytes = recorder.wrap(
        pathlib.Path.write_bytes, "cli.write", lambda args, result: memoryview(args[1]).nbytes
    )
    sys.stdout = _Stdout(
        sys.stdout,
        recorder.wrap(
            sys.stdout.write, "cli.write", lambda args, result: len(args[0].encode("utf-8"))
        ),
    )


class _Stdout:
    """Stand-in for sys.stdout whose write is traced (TextIOWrapper's is read-only)."""

    def __init__(self, stream, write):
        self._stream = stream
        self.write = write

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main():
    prefix, t_spawn, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_PREFIX T_SPAWN -- CLI_ARGS...")
    import quasispin.cli

    t_imported = time.monotonic()
    recorder = Recorder()
    install(recorder)
    code = quasispin.cli.main(argv)
    t_end = time.monotonic()
    sys.stdout.flush()
    recorder.dump(
        prefix,
        {
            "t_spawn": float(t_spawn),
            "t_boot": T_BOOT,
            "t_imported": t_imported,
            "t_end": t_end,
            "invocation": pathlib.Path(prefix).name,
            "argv": argv,
            "exit": code,
        },
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
