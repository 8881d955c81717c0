"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library: ``install`` rebinds every
public function of each layer module (and the batched engine
``experiments._paired_grid_stats``, and each spectral family's ``psi``,
where quadrature integrands enter ``spectra``) to a wrapper that records
one span per call, in every ``freemimo`` namespace that holds a reference.
``uninstall`` restores the originals.  A span is (name, start, end, parent
span, job id); names are ``layer.function``.  Calls run on one thread (the
trial pool is off), so spans nest strictly.
"""

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("montecarlo", "infotheory", "experiments", "spectra", "quadrature",
          "asymptotics", "acceptance", "cli")

_PRIVATE_TRACED = {("experiments", "_paired_grid_stats")}


class Tracer:
    def __init__(self):
        self.names = []
        self.jobs = []
        self._name_ids = {}
        self._job_ids = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self._stack = []
        self._job = -1
        self._patched = []

    @staticmethod
    def _intern(table, ids, value):
        if value not in ids:
            ids[value] = len(table)
            table.append(value)
        return ids[value]

    def _open(self, name_id):
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.job.append(self._job)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name, job):
        """Record one span around a block, as the root of job ``job``."""
        outer = self._job
        self._job = self._intern(self.jobs, self._job_ids, job)
        idx = self._open(self._intern(self.names, self._name_ids, name))
        try:
            yield
        finally:
            self._close(idx)
            self._job = outer

    def _wrap(self, fn, name):
        name_id = self._intern(self.names, self._name_ids, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"freemimo.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_")
                             or (layer, attr) in _PRIVATE_TRACED)):
                    targets[obj] = self._wrap(obj, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "freemimo" and not modname.startswith("freemimo."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, attr, targets[obj])
                    self._patched.append((mod, attr, obj))
        spectra = sys.modules["freemimo.spectra"]
        for cls in vars(spectra).values():
            if (inspect.isclass(cls) and cls.__module__ == spectra.__name__
                    and "psi" in vars(cls)):
                original = vars(cls)["psi"]
                setattr(cls, "psi",
                        self._wrap(original, f"spectra.{cls.__name__}.psi"))
                self._patched.append((cls, "psi", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def job_spans(self, prefix):
        """Indices of the spans whose job id starts with ``prefix``."""
        wanted = {i for i, j in enumerate(self.jobs) if j.startswith(prefix)}
        return [i for i, j in enumerate(self.job) if j in wanted]

    def self_ns_by_layer(self, prefix):
        """Self time per layer (span time minus its children's time) over the
        spans of the jobs whose id starts with ``prefix``."""
        idx = self.job_spans(prefix)
        child = {i: 0 for i in idx}
        for i in idx:
            p = self.parent[i]
            if p in child:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in idx:
            layer = self.names[self.name[i]].split(".", 1)[0]
            out[layer] = out.get(layer, 0) + (self.end[i] - self.start[i]
                                              - child[i])
        return out

    def count(self, prefix, name):
        name_id = self._name_ids.get(name)
        return sum(1 for i in self.job_spans(prefix)
                   if self.name[i] == name_id)

    def save(self, path):
        """Write every span as compressed numpy columns plus name tables."""
        np.savez_compressed(
            path, start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            job=np.frombuffer(self.job, dtype=np.int64),
            names=np.array(self.names), jobs=np.array(self.jobs))
