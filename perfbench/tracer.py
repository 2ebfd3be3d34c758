"""In-memory spans around the public boundaries of each sde_remle layer.

install() wraps the functions listed in BOUNDARIES and rebinds every name
that points at an original function in any loaded sde_remle module, so a
caller that did `from .x import y` goes through the wrapper too. Spans
(name, start, end, parent, thread, thread CPU time) stay in memory until
dump(); summarise() turns them into the per-layer metrics.

A span opened on a worker thread with nothing open on that thread takes
as parent the innermost span open on the main thread, which is the
experiment span blocked in the thread pool.
"""

import json
import os
import threading
import time
from collections import Counter

import numpy as np


class Span:
    __slots__ = ("name", "t0", "t1", "cpu", "parent", "thread", "children")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.children = []


def _file_bytes(args, kwargs):
    paths = [a for a in list(args) + list(kwargs.values()) if isinstance(a, str)]
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


def _steps_of_grid(values):
    rows, cols = values.shape
    return rows, rows * (cols - 1)


def _on_normals(c, args, kwargs, out):
    c["rng.normals"] += out.size


def _on_replicates(c, args, kwargs, out):
    _, values, first_bad = out
    rows, steps = _steps_of_grid(values)
    c["simulate.path_steps"] += steps
    c["simulate.bytes_computed"] += values.nbytes + steps * 8
    c["simulate.diverged_rows"] += int(np.count_nonzero(first_bad >= 0))


def _on_ensemble(c, args, kwargs, out):
    for p in out:
        steps = len(p.values) - 1
        c["simulate.path_steps"] += steps
        c["simulate.bytes_computed"] += (2 * steps + 1) * 8


def _on_suff_stats(c, args, kwargs, out):
    rows, steps = _steps_of_grid(np.atleast_2d(args[1]))
    c["stats.rows"] += rows
    c["stats.steps"] += steps


def _on_likelihood(c, args, kwargs, out):
    c["likelihood.evals"] += 1
    c["likelihood.terms"] += len(args[0])


def _on_fit(c, args, kwargs, out):
    c["estimator.fits"] += 1
    c["estimator.iterations"] += out.iterations
    c["estimator.boundary_fits"] += bool(out.boundary)


def _on_point_mc(r_index):
    def count(c, args, kwargs, out):
        c["asymptotics.mc_rows"] += int(args[r_index] if len(args) > r_index else kwargs["R"])
    return count


def _on_write(c, args, kwargs, out):
    c["io.bytes_written"] += _file_bytes(args, kwargs)


def _on_read(c, args, kwargs, out):
    c["io.bytes_read"] += _file_bytes(args, kwargs)


def _on_stream(c, args, kwargs, out):
    c["rng.streams"] += 1


# (module, function, group, spanned, counter): a group is the span name of
# a spanned boundary, or the counter a count-only boundary feeds
BOUNDARIES = (
    ("rng", "generator", "rng.streams", False, _on_stream),
    ("simulate", "path_normals", "rng.normals", True, _on_normals),
    ("simulate", "simulate_replicates", "simulate", True, _on_replicates),
    ("simulate", "simulate_ensemble", "simulate", True, _on_ensemble),
    ("stats", "suff_stats_rows", "stats", True, _on_suff_stats),
    ("estimator", "total_loglik_uv", "likelihood", True, _on_likelihood),
    ("estimator", "total_score_uv", "likelihood", True, _on_likelihood),
    ("estimator", "total_hess_uv", "likelihood", True, _on_likelihood),
    ("estimator", "fit_mle", "estimator.fit", True, _on_fit),
    ("asymptotics", "fisher_info_mc", "asymptotics.info", True, _on_point_mc(5)),
    ("asymptotics", "kl_mc", "asymptotics.kl", True, _on_point_mc(6)),
    ("asymptotics", "run_consistency_experiment", "asymptotics.run", True, None),
    ("asymptotics", "run_normality_experiment", "asymptotics.run", True, None),
    ("asymptotics", "averaged_limits", "asymptotics.run", True, None),
    ("asymptotics", "run_moment_continuity_probe", "asymptotics.run", True, None),
    ("io", "write_paths_csv", "io.write", True, _on_write),
    ("io", "write_stats_csv", "io.write", True, _on_write),
    ("io", "write_fit_csv", "io.write", True, _on_write),
    ("io", "write_replicates_csv", "io.write", True, _on_write),
    ("io", "write_summary_csv", "io.write", True, _on_write),
    ("io", "write_limits_csv", "io.write", True, _on_write),
    ("io", "write_continuity_csv", "io.write", True, _on_write),
    ("io", "read_paths_csv", "io.read", True, _on_read),
    ("config", "parse_config", "config.parse", True, None),
    ("cli", "main", "cli", True, None),
)

# per-layer metrics -> the groups they are computed from; a metric is
# reported missing when any boundary of those groups is gone
_NEEDS = (
    (("rng.streams",), ("rng.streams",)),
    (("rng.normals_s", "rng.ns_per_normal"), ("rng.normals",)),
    (("simulate.path_steps", "simulate.bytes_computed", "simulate.diverged_rows"),
     ("simulate",)),
    (("simulate.self_s", "simulate.ns_per_step", "simulate.wait_s"),
     ("simulate", "rng.normals")),
    (("stats.rows", "stats.self_s", "stats.ns_per_step"), ("stats",)),
    (("likelihood.evals", "likelihood.terms", "likelihood.self_s",
      "likelihood.ns_per_term"), ("likelihood",)),
    (("estimator.fits", "estimator.fit_ms_p50", "estimator.fit_ms_p95",
      "estimator.iterations_per_fit", "estimator.boundary_frac"), ("estimator.fit",)),
    (("estimator.self_s", "estimator.evals_per_fit"), ("estimator.fit", "likelihood")),
    (("asymptotics.info_s",), ("asymptotics.info",)),
    (("asymptotics.kl_s",), ("asymptotics.kl",)),
    (("asymptotics.mc_rows",), ("asymptotics.info", "asymptotics.kl")),
    (("asymptotics.self_s",), ("asymptotics.run", "asymptotics.info", "asymptotics.kl",
                               "simulate", "stats", "estimator.fit")),
    (("asymptotics.pool_efficiency",), ("asymptotics.run",)),
    (("io.write_s", "io.bytes_written", "io.write_MB_per_s"), ("io.write",)),
    (("io.read_s", "io.bytes_read", "io.read_MB_per_s"), ("io.read",)),
    (("config.parse_s",), ("config.parse",)),
    (("cli.self_s",), ("cli", "config.parse", "io.write", "io.read", "asymptotics.run",
                       "simulate", "stats", "estimator.fit")),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self.main_thread = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._counters = []

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            main = threading.get_ident() == self.main_thread
            loc.stack = self._main_stack if main else []
            loc.counts = Counter()
            self._counters.append(loc.counts)
        return loc

    def counts(self):
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def wrap(self, fn, name, spanned, on_return):
        tracer = self

        if not spanned:
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                on_return(tracer._state().counts, args, kwargs, out)
                return out
            return counted

        def traced(*args, **kwargs):
            loc = tracer._state()
            stack = loc.stack
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None
            )
            span = Span(name, parent, threading.get_ident())
            stack.append(span)
            cpu0 = time.thread_time()
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            if on_return is not None:
                on_return(loc.counts, args, kwargs, out)
            return out
        return traced

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.t0, s.t1, index.get(id(s.parent)), s.thread, s.cpu]
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "thread",
                                  "thread_cpu"], "spans": rows}, fh)


def install(package_modules):
    """Wrap every boundary present in package_modules ({short name: module})."""
    tracer = Tracer()
    for mod_name, fn_name, group, spanned, on_return in BOUNDARIES:
        fn = getattr(package_modules.get(mod_name), fn_name, None)
        if fn is None:
            tracer.missing.append((f"{mod_name}.{fn_name}", group))
            continue
        wrapped = tracer.wrap(fn, group, spanned, on_return)
        for m in package_modules.values():
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)
    return tracer


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{span id: (self wall, self thread CPU)}; children on the same thread
    never overlap, children on pool threads may, so wall uses their union."""
    out = {}
    for s in spans:
        cover = _covered([(c.t0, c.t1) for c in s.children], s.t0, s.t1)
        cpu = s.cpu - sum(c.cpu for c in s.children if c.thread == s.thread)
        out[id(s)] = (s.t1 - s.t0 - cover, max(cpu, 0.0))
    return out


def summarise(tracer, threads):
    """Per-layer metrics of one traced run, plus the blocking self time.

    Metrics whose boundary is gone are left out and named in "missing".
    """
    spans = tracer.spans
    counts = tracer.counts()
    selfs = self_times(spans)

    def total(name, inclusive=False):
        picked = [s for s in spans if s.name == name]
        if inclusive:
            return sum(s.t1 - s.t0 for s in picked)
        return sum(selfs[id(s)][0] for s in picked)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    sim = [s for s in spans if s.name == "simulate"]
    fits = [s.t1 - s.t0 for s in spans if s.name == "estimator.fit"]
    runs = [s for s in spans if s.name == "asymptotics.run"]
    run_wall = sum(s.t1 - s.t0 for s in runs)
    pool_cpu = sum(c.cpu for s in runs for c in s.children)
    written, read = counts["io.bytes_written"], counts["io.bytes_read"]
    write_s, read_s = total("io.write", True), total("io.read", True)
    n_fits = counts["estimator.fits"]

    m = {
        "rng.streams": counts["rng.streams"],
        "rng.normals_s": total("rng.normals"),
        "rng.ns_per_normal": ratio(total("rng.normals"), counts["rng.normals"], 1e9),
        "simulate.path_steps": counts["simulate.path_steps"],
        "simulate.self_s": total("simulate"),
        "simulate.ns_per_step": ratio(total("simulate"),
                                      counts["simulate.path_steps"], 1e9),
        "simulate.bytes_computed": counts["simulate.bytes_computed"],
        "simulate.diverged_rows": counts["simulate.diverged_rows"],
        "simulate.wait_s": sum(selfs[id(s)][0] - selfs[id(s)][1] for s in sim),
        "stats.rows": counts["stats.rows"],
        "stats.self_s": total("stats"),
        "stats.ns_per_step": ratio(total("stats"), counts["stats.steps"], 1e9),
        "likelihood.evals": counts["likelihood.evals"],
        "likelihood.terms": counts["likelihood.terms"],
        "likelihood.self_s": total("likelihood"),
        "likelihood.ns_per_term": ratio(total("likelihood"),
                                        counts["likelihood.terms"], 1e9),
        "estimator.fits": n_fits,
        "estimator.self_s": total("estimator.fit"),
        "estimator.fit_ms_p50": 1e3 * float(np.quantile(fits, 0.5)) if fits else 0.0,
        "estimator.fit_ms_p95": 1e3 * float(np.quantile(fits, 0.95)) if fits else 0.0,
        "estimator.evals_per_fit": ratio(counts["likelihood.evals"], n_fits),
        "estimator.iterations_per_fit": ratio(counts["estimator.iterations"], n_fits),
        "estimator.boundary_frac": ratio(counts["estimator.boundary_fits"], n_fits),
        "asymptotics.info_s": total("asymptotics.info", True),
        "asymptotics.kl_s": total("asymptotics.kl", True),
        "asymptotics.mc_rows": counts["asymptotics.mc_rows"],
        "asymptotics.self_s": total("asymptotics.run"),
        "asymptotics.pool_efficiency": ratio(pool_cpu, threads * run_wall),
        "io.write_s": write_s,
        "io.read_s": read_s,
        "io.bytes_written": written,
        "io.bytes_read": read,
        "io.write_MB_per_s": ratio(written / 1e6, write_s),
        "io.read_MB_per_s": ratio(read / 1e6, read_s),
        "config.parse_s": total("config.parse"),
        "cli.self_s": total("cli"),
    }
    lost = {group for _, group in tracer.missing}
    gone = sorted(k for names, groups in _NEEDS if lost & set(groups) for k in names)
    for k in gone:
        del m[k]
    # self times of spans on the main thread tile the cli span; pool
    # threads add the part of each experiment span their children cover
    blocking = sum(selfs[id(s)][0] for s in spans if s.thread == tracer.main_thread)
    blocking += sum(
        _covered([(c.t0, c.t1) for c in s.children if c.thread != s.thread], s.t0, s.t1)
        for s in runs
    )
    return {"metrics": m, "missing": [name for name, _ in tracer.missing], "gone": gone,
            "blocking_self_s": blocking, "spans": len(spans)}
