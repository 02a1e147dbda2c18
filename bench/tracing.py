"""In-memory spans around the program's layer functions.

`Tracer.install()` replaces each traced function with a wrapper in every
module namespace of the package that binds it (so `qw.legendre_eval`, the
name `qw` calls, is traced as well as `specfun.legendre_eval`), and
`uninstall()` puts the originals back.  Two kinds of wrapper exist:

* span: records (name, start, end, parent span, request) and charges its
  duration to the enclosing span, so self time = duration - child spans;
* counter: counts calls and the work they do, and times the call, but is
  no span: its time stays in the caller's self time.  Used for the lattice
  step and `binom`, which are called so often that a span each would
  distort the caller's self time more than it informs.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import defaultdict

# home module -> (function, kind, counter) for every traced function.
# Counters take the call's arguments and return the work it represents.
TRACED = {
    "cli": [
        ("main", "span", None),
        ("emit_csv", "span", ("rows", lambda table, stream: len(table.rows))),
        ("emit_json", "span", ("rows", lambda table, stream: len(table.rows))),
        ("emit_gnuplot", "span", ("rows", lambda table, stream: len(table.rows))),
    ],
    "qw": [
        ("simulate_return", "span", None),
        ("evolve", "span", None),
        ("step", "counter", ("site_steps", lambda field, coin: 2 * field.time + 1)),
        ("return_closed_qw", "span", None),
        ("return_series_qw", "span", None),
        ("return_lemma1", "span", None),
        ("xi_bruteforce", "span", None),
    ],
    "crw": [
        ("simulate_return_crw", "span", None),
        ("evolve_crw", "span", None),
        ("crw_step", "counter", ("site_steps", lambda field, transition: 2 * field.time + 1)),
        ("return_closed_crw", "span", None),
        ("return_series_crw", "span", None),
        ("return_sum_form_crw", "span", None),
    ],
    "specfun": [
        ("legendre_eval", "span", ("degree_sum", lambda n, x: int(n))),
        ("scaled_legendre_pair", "span", ("degree_sum", lambda n, numer, denom: int(n))),
        ("ellipK", "span", None),
        ("ellipE", "span", None),
        ("ellipK_from_complement", "span", None),
        ("script_K", "span", None),
        ("script_E", "span", None),
        ("binom", "counter", None),
    ],
    "genfunc": [
        ("gf_qw", "span", None),
        ("integrate", "span", None),
        ("series_sum", "span", ("terms", lambda series, z: len(series))),
        ("polya2d_series", "span", None),
        ("polya3d_constants", "span", None),
    ],
}


class Tracer:
    """Spans and per-function totals of everything run while installed."""

    def __init__(self, package) -> None:
        self._modules = {
            name: getattr(package, name) for name in ("cli", "qw", "crw", "specfun", "genfunc", "verify")
        }
        self._saved: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.request = -1
        self.reset()

    def reset(self) -> None:
        """Drop every span and total recorded so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_via: dict[tuple[str, str], int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self._child = []  # child-time accumulator per open span
        self._open = []  # index of each open span

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name: str, via: str, counter):
        name_id = self._name_id(name)
        work_key = f"{name}.{counter[0]}" if counter else None
        count = counter[1] if counter else None
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.calls_via[(via, name)] += 1
            if count is not None:
                self.work[work_key] += count(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self._open[-1] if self._open else -1)
            self.span_request.append(self.request)
            self._open.append(index)
            self._child.append(0.0)
            start = perf()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                self.span_end[index] = end
                duration = end - start
                self._open.pop()
                self.total_s[name] += duration
                self.self_s[name] += duration - self._child.pop()
                if self._child:
                    self._child[-1] += duration

        return wrapper

    def _counter(self, fn, name: str, via: str, counter):
        work_key = f"{name}.{counter[0]}" if counter else None
        count = counter[1] if counter else None
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.calls_via[(via, name)] += 1
            if count is not None:
                self.work[work_key] += count(*args, **kwargs)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.total_s[name] += perf() - start

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for home, entries in TRACED.items():
            for fn_name, kind, counter in entries:
                fn = getattr(self._modules[home], fn_name)
                if not inspect.isfunction(fn):
                    raise TypeError(f"{home}.{fn_name} is not a function")
                name = f"{home}.{fn_name}"
                make = self._span if kind == "span" else self._counter
                for via, module in self._modules.items():
                    if getattr(module, fn_name, None) is fn:
                        self._saved.append((module, fn_name, fn))
                        setattr(module, fn_name, make(fn, name, via, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, fn_name, fn = self._saved.pop()
            setattr(module, fn_name, fn)

    def write_spans(self, path) -> int:
        """Write the recorded spans as CSV (times relative to the first span)."""
        origin = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,name,start_s,end_s,parent,request\n")
            for i, name_id in enumerate(self.span_name):
                handle.write(
                    f"{i},{self.names[name_id]},{self.span_start[i] - origin:.9f},"
                    f"{self.span_end[i] - origin:.9f},{self.span_parent[i]},{self.span_request[i]}\n"
                )
        return len(self.span_name)
