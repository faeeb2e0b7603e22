"""In-memory spans around calls into gammalab's modules.

The benchmark never edits the package: it replaces functions at the name
each caller looks up (a module global such as
``gammalab.registry.sum_catalog``, or a class attribute such as
``Registry.verify_identity``) with a wrapper that records one span per call.
A span is ``(name, start, end, parent)``, where ``parent`` is the index of the
enclosing span in the same process, or -1.  Counters (terms summed,
integrand evaluations, route failures, ...) are added at the same
boundaries.  Spans stay in memory and are written out once, when the traced
process ends; forked pool workers write their own file when they exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

# public kernels, wrapped in every gammalab module that binds them
KERNELS = ("log_gamma", "digamma", "polygamma", "lambda_fn", "sici",
           "exp_integral", "zeta_family", "log_barnes_g", "clausen_cl2",
           "bernoulli_poly", "stieltjes_gamma1", "get_constants")

ROUTE_KINDS = ("quadrature", "series", "power_series", "expr")


def route_kind(label: str) -> str:
    """Route kind of a ``Recipe.label``."""
    if label.startswith("power series"):
        return "power_series"
    if label.startswith("quadrature"):
        return "quadrature"
    if label.startswith("series"):
        return "series"
    return "expr"


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def wrap(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        positional arguments; ``after(result, args, counts)`` adds counters."""
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name if isinstance(name, str) else name(args),
                              t0, t1, parent)
            if after is not None:
                after(out, args, counts)
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": self.counts}, fh)

    def _forked(self) -> None:
        # a pool worker starts with a copy of its parent's spans
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        from multiprocessing import util
        util.Finalize(None, self.dump, exitpriority=0)

    def install(self) -> None:
        """Wrap the layer boundaries of an already imported gammalab."""
        from multiprocessing import util

        from gammalab import cli, registry

        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "gammalab"
                                      or n.startswith("gammalab."))]

        def rebind(fn, wrapper):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapper)

        for fname in KERNELS:
            fn = getattr(sys.modules["gammalab.kernels"], fname)
            rebind(fn, self.wrap(f"kernels.{fname}", fn))

        def series_after(prefix):
            def after(r, args, counts):
                counts[prefix + ".terms"] += r.terms_used
            return after

        def quad_after(r, args, counts):
            counts["integral_catalog.evals"] += r.evals
            counts["integral_catalog.unconverged"] += not r.converged

        def integrate_after(r, args, counts):
            counts["quad.integrate.evals"] += r.evals

        quad_mod = sys.modules["gammalab.quad"]
        rebind(quad_mod.integrate,
               self.wrap("quad.integrate", quad_mod.integrate,
                         integrate_after))
        registry.sum_catalog = self.wrap(
            "series_catalog", registry.sum_catalog,
            series_after("series_catalog"))
        registry.power_series_eval = self.wrap(
            "series_catalog.ps", registry.power_series_eval,
            series_after("series_catalog.ps"))
        registry.integral_catalog = self.wrap(
            "integral_catalog", registry.integral_catalog, quad_after)

        rc = registry.Recipe
        rc.evaluate = self.wrap(
            lambda a: "registry.route." + route_kind(a[0].label), rc.evaluate)

        def verify_after(v, args, counts):
            counts["registry.route_failures"] += v.note.startswith(
                "route failure")

        reg = registry.Registry
        reg.verify_identity = self.wrap("registry.verify",
                                        reg.verify_identity, verify_after)
        reg._verify_probe = self.wrap("registry.probe", reg._verify_probe)

        def suite_after(verdicts, args, counts):
            counts["registry.executor.busy_s"] += sum(v.wall_time
                                                      for v in verdicts)
            counts["registry.executor.parallelism"] += args[2].parallelism

        cli._run_suite = self.wrap("registry.executor", cli._run_suite,
                                   suite_after)
        cli.build_report = self.wrap("report.build", cli.build_report)
        cli.to_json = self.wrap("report.json", cli.to_json)
        cli.to_markdown = self.wrap("report.md", cli.to_markdown)

        util.register_after_fork(self, Tracer._forked)
