"""In-memory span tracing of dynastop layers, installed from outside the package.

A Tracer wraps named functions ("decoding.fit_cca",
"bayes_stop.StoppingModel.with_cost_ratio", ...) and, while installed,
replaces every reference to each original in the loaded dynastop modules, so
calls made through a name a module imported (``cli.fit_cca``) are traced as
well as calls through the defining module. Each call records one span: name,
start and end in perf_counter nanoseconds, the index of the enclosing span
(-1 for a root) and the group label current when it started (one CLI command
or one online trial). uninstall() puts the originals back.
"""

import functools
import gzip
import importlib
import sys
import time


class Tracer:
    def __init__(self, names, observers=None):
        """names: layer names "<module>.<qualname>" relative to the dynastop
        package. observers: optional {name: callable(args, kwargs, result)}
        run after each traced call returns, to count work where it happens."""
        self.names = list(names)
        self.observers = dict(observers or {})
        self.spans = []
        self.group = ""
        self._stack = []
        self._patched = []

    def _wrap(self, name_id, fn, observer):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.group)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dynastop" or key.startswith("dynastop."))]
        for name_id, name in enumerate(self.names):
            module_name, _, qualname = name.partition(".")
            owner = importlib.import_module(f"dynastop.{module_name}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self._wrap(name_id, original, self.observers.get(name))
            if outer:
                # A method: patching the class reaches every caller.
                self._patched.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def mark(self):
        """Index of the next span, to delimit a traced phase."""
        return len(self.spans)

    def layer_totals(self, begin, end):
        """Calls and self nanoseconds per layer name over spans[begin:end].

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap otherwise.
        """
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for name_id, start, stop, parent, _ in self.spans[begin:end]:
            duration = stop - start
            calls[name_id] += 1
            self_ns[name_id] += duration
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= duration
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def root_ns(self, begin, end):
        """Wall time covered by root spans in spans[begin:end]."""
        return sum(stop - start for _, start, stop, parent, _ in self.spans[begin:end]
                   if parent < 0)

    def write(self, path):
        """Write every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tgroup\n")
            for name_id, start, stop, parent, group in self.spans:
                fh.write(f"{self.names[name_id]}\t{start}\t{stop}\t{parent}\t{group}\n")
