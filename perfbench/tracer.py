"""Span tracing for the benchmark's traced runs, installed from outside the package.

`install` replaces each named function with a timing wrapper in every
`logmonoid.*` module namespace that binds it, because modules import each
other's functions with `from .x import f`.  Each call records a span
(name, start, end, parent span, job id) in flat arrays kept in memory; the
spans are written out once, when the run ends.  Self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array

# (module, attribute) pairs; "Class.method" patches the class attribute.
TARGETS = (
    ("snf", "smith_normal_form"),
    ("abelian", "solve_in_group"),
    ("monoid_core", "MonoidHom.gp_apply"),
    ("qlin", "qmat_mul"),
    ("qlin", "qsolve"),
    ("weighted_series", "h_plus"),
    ("weighted_series", "series_mul"),
    ("weighted_series", "series"),
    ("weighted_series", "gauss_norm"),
    ("log_connection", "validate_integrability"),
    ("log_connection", "shear"),
    ("log_connection", "is_sigma_unipotent"),
    ("log_connection", "log_convergence_check"),
    ("cone", "simplex_feasible"),
    ("cone", "hilbert_basis"),
    ("monoid_core", "faces"),
    ("monoid_core", "is_saturated_bounded"),
    ("monoid_core", "membership"),
    ("monoid_core", "default_weighting"),
    ("documents", "parse_connection"),
    ("documents", "parse_monoid"),
    ("cli", "main"),
)

# Spans whose return value is a useful/attempted outcome: a feasible LP, a
# decided saturation verdict.
OUTCOMES = {
    "cone.simplex_feasible": lambda result: result is not None,
    "monoid_core.is_saturated_bounded": lambda result: result is not None,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.useful: dict[str, int] = {}
        self.current_job = -1  # the job being traced, or -1 between jobs
        self._stack: list[list] = []  # [span index, time covered by children]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        outcome = OUTCOMES.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.current_job < 0:  # between jobs: checks are not traced
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.job.append(self.current_job)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                self.self_time[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if outcome is not None and outcome(result):
                self.useful[name] = self.useful.get(name, 0) + 1
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds and useful outcomes."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, own in zip(self.name_id, self.self_time):
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["self_s"] += own
        for name, count in self.useful.items():
            out[name]["useful"] = count
        return out

    def spans_by_job(self, name: str) -> dict[int, list[float]]:
        """Durations of the spans called `name`, grouped by job id."""
        nid = self._ids.get(name)
        out: dict[int, list[float]] = {}
        if nid is None:
            return out
        for k, t0, t1, job in zip(self.name_id, self.start, self.end, self.job):
            if k == nid:
                out.setdefault(job, []).append(t1 - t0)
        return out

    def write(self, path: str) -> None:
        """One line per span: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for nid, t0, t1, par, job in zip(self.name_id, self.start, self.end, self.parent, self.job):
                fh.write(f"{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{par}\t{job}\n")


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded logmonoid module that binds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "logmonoid" or n.startswith("logmonoid."))]
    for modname, attr in TARGETS:
        home = sys.modules.get(f"logmonoid.{modname}")
        if home is None:
            continue
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth]))
            continue
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
