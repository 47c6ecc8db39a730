"""Run one ``quasimap`` CLI operation in this process, traced from outside or plain.

    python3 benchmarks/tracer.py --src SRC --result FILE [--plain] -- ARGV...

The program is imported from ``SRC`` and ``quasimap.cli.main(ARGV, out=...)``
is called once.  Without ``--plain``, every public function of every
``quasimap`` module, and the methods in :data:`METHODS`, are wrapped before
the call, and every binding of each wrapped object in every ``quasimap``
module is replaced: ``compute_w`` is imported by name into ``cli`` and
``checks``, and those names must reach the wrapper too.  The program's own
code is not changed.

Spans are kept in memory as ``(id, parent, name, start, end, thread, info)``
and written to ``FILE`` with the operation's stdout, exit code, import time
and in-process time when the operation ends.  A span opened in a thread with
no open span of its own (the residue engine's pool threads) takes as parent
the innermost span open in the main thread at that moment, which is the
``iterated_residue`` call that submitted it; such sibling spans can overlap.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import itertools
import json
import sys
import threading
import time

MODULES = ("exact", "residues", "toric", "series", "intersection", "checks", "cli")

# (module, class, method, span name); an alias of the same function object in
# the class (``MPoly.__rmul__ = __mul__``) is replaced as well.
METHODS = (
    ("exact", "MPoly", "__mul__", "exact.MPoly.mul"),
    ("exact", "FactoredRat", "derivative", "exact.FactoredRat.derivative"),
    ("exact", "FactoredRat", "reduce", "exact.FactoredRat.reduce"),
    ("exact", "FactoredRat", "subst", "exact.FactoredRat.subst"),
    ("intersection", "IntegrandSpec", "build", "intersection.build"),
)


def _num_terms(f) -> int:
    return len(f.num.terms)


# What each span records about its call besides its interval.
INFO = {
    "intersection.build": lambda args, result: _num_terms(result),
    "residues.iterated_residue": lambda args, result: _num_terms(args[0]),
    "residues.residue_at_point": lambda args, result: [
        args[1], _num_terms(args[0]), not result.is_zero()
    ],
    "toric.orientation_enumeration": lambda args, result: result.region_count,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        info = INFO.get(name)
        spans, ids, stack_of, main_stack = self.spans, self._ids, self._stack, self._main_stack
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = info(args, result) if info and result is not None else None
                spans.append((sid, parent, name, start, end, thread_id(), extra))

        return traced

    def _wrap_generator(self, name: str, fn):
        """Count the items a generator yields; its time belongs to its consumer."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return counted

    def install(self) -> None:
        """Wrap the traced objects and rebind every module-level name of them."""
        modules = {name: importlib.import_module(f"quasimap.{name}") for name in MODULES}
        replaced = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    replaced[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            wrapper = self.wrap(name, original)
            for attr, obj in list(vars(cls).items()):
                if obj is original:
                    setattr(cls, attr, wrapper)
        bound = [importlib.import_module("quasimap"), *modules.values()]
        for module in bound:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the quasimap package")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--plain", action="store_true", help="time the call without tracing")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, args.src)
    start = time.perf_counter()
    cli = importlib.import_module("quasimap.cli")
    import_s = time.perf_counter() - start

    tracer = None
    if not args.plain:
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    code = cli.main(argv, out=out)
    main_s = time.perf_counter() - start

    doc = {"exit": code, "stdout": out.getvalue(), "import_s": import_s, "main_s": main_s}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = tracer.counts
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
