"""Outside-in span tracing of the fracstab layers.

`Tracer.install` wraps every public callable of the layer modules at the
names their callers look them up by: in every other module that imports
it and in the package namespace, so each span records the calling module
(its *site*).  A module's calls to its own functions cross no layer
boundary and are not traced, except in `cli`, whose subcommands are built
from its own public stages (load, format).  Public methods of public
classes, and hand-written constructors, are wrapped on the class, so every
caller goes through them.  The certificate JSON that `cli` writes inline
is traced through the `json` name `cli` looks up.

Spans are kept in memory as ``[id, parent, name, site, start, end, attrs]``
lists (times from `time.perf_counter`) and written out once, by `dump`.
The program itself is not modified; a process that never calls `install`
runs untraced.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
import weakref

LAYERS = ("cli", "psi_space", "fraccalc", "rhs_expr", "specfun", "solver", "stability")

#: the fields of a span record
ID, PARENT, NAME, SITE, START, END, ATTRS = range(7)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class _JsonProxy:
    """Stands in for the `json` module inside `fracstab.cli`."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._solved: set = set()
        self._attrs = {
            "fraccalc.FracIntegralOperator": self._table_attrs,
            "fraccalc.FracIntegralOperator.apply": self._apply_attrs,
            "solver.picard_solve": self._solve_attrs,
            "stability.perturb_and_check": self._report_attrs,
        }

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name: str, site: str | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = self._attrs.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, site, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = clock()
                rec[ATTRS] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[END] = clock()
            if attrs is not None:
                rec[ATTRS] = attrs(fn, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack
        rec = [len(self.spans), stack[-1] if stack else -1, name, "bench", 0.0, 0.0, None]
        self.spans.append(rec)
        stack.append(rec[ID])
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            rec[END] = time.perf_counter()

    def _serial(self, op) -> int:
        serial = self._serials.get(op)
        if serial is None:
            serial = self._serials[op] = len(self._serials)
        return serial

    def _table_attrs(self, fn, args, kwargs, out):
        op = args[0]
        return {"op": self._serial(op), "n": op.mesh.n}

    def _apply_attrs(self, fn, args, kwargs, out):
        op, u = args[0], (args[1] if len(args) > 1 else kwargs["u"])
        return {"op": self._serial(op), "n": op.mesh.n, "w": float(u.weight_exp)}

    def _solve_attrs(self, fn, args, kwargs, out):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        base = bound.arguments.get("forcing") is None
        attrs = {"iterations": out.iterations, "n": bound.arguments["mesh"].n, "base": base}
        if base:
            key = (bound.arguments["p"], bound.arguments["mesh"].n)
            attrs["repeat"] = key in self._solved
            self._solved.add(key)
        return attrs

    def _report_attrs(self, fn, args, kwargs, out):
        return {
            "trials": len(out.rows),
            "errors": sum(r.verdict == "error" for r in out.rows),
            "refined": sum(bool(r.refined) for r in out.rows),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("fracstab")
        modules = {name: importlib.import_module(f"fracstab.{name}") for name in LAYERS}
        originals: dict[int, tuple[object, str]] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        sites = dict(modules, fracstab=package)
        for site, mod in sites.items():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is None or hit[0] is not obj:
                    continue
                if site == layer_of(hit[1]) and site != "cli":
                    continue  # a module calling its own helpers stays inside its layer
                setattr(mod, name, self.wrap(obj, hit[1], site))
        modules["cli"].json = _JsonProxy(
            self.wrap(json.dumps, "cli.certificate_json", "cli")
        )

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr == "__init__":
                if dataclasses.is_dataclass(cls) or not inspect.isfunction(value):
                    continue
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                setattr(cls, attr, type(value)(self.wrap(value.__func__, name, None)))
            elif inspect.isfunction(value):
                setattr(cls, attr, self.wrap(value, name, None))

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans}, handle, separators=(",", ":"))


def run_cli() -> int:
    """Run `fracstab.cli.main` traced.

    Invoked as ``python -c ... <spans path> <cli arguments...>``; the spans
    path is taken off ``sys.argv`` before the command line is parsed.
    """
    path = sys.argv.pop(1)
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("fracstab.cli")
    try:
        return cli.main()
    finally:
        tracer.dump(path)
