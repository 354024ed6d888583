"""Benchmark-side span tracer for kstab's public functions.

``Tracer.install()`` replaces each traced function at every name it is bound
to in the loaded ``kstab`` modules (``kstab.cycles.disc_rule``,
``kstab.bergman.panel_rule``, ``kstab.chow.factorize`` ...), because callers
look functions up through their own module's namespace.  Methods and the
``RadialMetric`` constructor are patched on the class.  Nothing inside
``src/`` is edited.

A span is ``(id, name, parent_id, case, start, end, info)`` with ``info`` a
small dict of counts taken from arguments and results.  Spans stay in memory
until the process writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time


def _k_info(args, kwargs, result):
    metric, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
    return {"metric": id(metric), "k": int(k)}


def _len_info(args, kwargs, result):
    return {"items": len(result)}


def _steps_info(args, kwargs, result):
    return {"steps": int(result.steps)}


def _order_info(args, kwargs, result):
    return {"order": int(args[0] if args else kwargs["order"])}


# (module, attribute path, span name, counts taken from the call)
TARGETS = [
    ("kstab.laurent", "LaurentMatrix.det", "laurent.det", None),
    ("kstab.laurent", "factorize", "laurent.factorize", None),
    ("kstab.laurent", "multiply", "laurent.multiply", None),
    ("kstab.chow", "chow_weight", "chow.chow_weight", None),
    ("kstab.chow", "transformed_form", "chow.transformed_form", None),
    ("kstab.chow", "central_fiber_cycle", "chow.central_fiber_cycle", None),
    ("kstab.chow", "check_chow_inequality", "chow.check_chow_inequality", None),
    ("kstab.weights", "induced_weights", "weights.induced_weights", _len_info),
    ("kstab.weights", "tau_poly", "weights.tau_poly", None),
    ("kstab.weights", "fit_exact_polynomial", "weights.fit_exact_polynomial", None),
    ("kstab.bergman", "RadialMetric.__init__", "bergman.RadialMetric", None),
    ("kstab.bergman", "gram", "bergman.gram", _k_info),
    ("kstab.bergman", "rho", "bergman.rho", None),
    ("kstab.bergman", "fs_pullback_form", "bergman.fs_pullback_form", None),
    ("kstab.bergman", "theta_total_variation", "bergman.theta_total_variation", None),
    ("kstab.bergman", "expansion_fit", "bergman.expansion_fit", None),
    ("kstab.bergman", "image_cycle", "bergman.image_cycle", None),
    ("kstab.quadrature", "panel_rule", "quadrature.panel_rule", None),
    ("kstab.quadrature", "disc_rule", "quadrature.disc_rule", _order_info),
    ("kstab.cycles", "balance_iterate", "cycles.balance_iterate", _steps_info),
    ("kstab.cycles", "transform_cycle", "cycles.transform_cycle", None),
    ("kstab.cycles", "moment_matrix", "cycles.moment_matrix", None),
    ("kstab.acceptance", "run_all", "acceptance.run_all", None),
]
SPAN_NAMES = [t[2] for t in TARGETS]


class Tracer:
    """Records spans while ``case`` is set; passes calls through otherwise."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            case = self.case
            if case is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, result) if info and result is not None else {}
                self.spans.append((sid, name, parent, case, t0, t1, extra))

        return traced

    def install(self):
        """Patch every binding of every target in the loaded kstab modules."""
        for modname, path, name, info in TARGETS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, info)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "kstab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def parse_importtime(stderr_text):
    """Cumulative seconds of ``kstab.cli``, sympy and scipy from ``-X importtime``.

    The output is post-order: a module's line follows its imports' lines,
    which are indented two more spaces.  The scipy figure sums the outermost
    ``scipy*`` entries so that nested scipy submodules are counted once.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = len(name) - len(name.lstrip(" "))
        rows.append((depth, name.strip(), int(parts[1]) * 1e-6))
    out = {"import_s": 0.0, "sympy_s": 0.0, "scipy_s": 0.0}
    for i, (depth, name, cumulative) in enumerate(rows):
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if name == "kstab.cli":
            out["import_s"] += cumulative
        elif name == "sympy" and not parent.startswith("sympy"):
            out["sympy_s"] += cumulative
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy_s"] += cumulative
    return out


def layer_stats(spans):
    """Per-name calls, self and total seconds, and the derived counts."""
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[5] - s[4])
    stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
    for s in spans:
        st = stats[s[1]]
        dur = s[5] - s[4]
        st["calls"] += 1
        st["total_s"] += dur
        st["self_s"] += dur - child_time.get(s[0], 0.0)

    def has_ancestor(s, name):
        while s[2] is not None:
            s = by_id[s[2]]
            if s[1] == name:
                return True
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    gram = [s for s in spans if s[1] == "bergman.gram"]
    disc = [s for s in spans if s[1] == "quadrature.disc_rule"]
    balance = [s for s in spans if s[1] == "cycles.balance_iterate"]
    steps = sum(s[6].get("steps", 0) for s in balance)
    derived = {
        "chow.det_per_weight": ratio(
            sum(1 for s in spans if s[1] == "laurent.det" and has_ancestor(s, "chow.chow_weight")),
            stats["chow.chow_weight"]["calls"],
        ),
        "weights.induced_weights.items": sum(
            s[6].get("items", 0) for s in spans if s[1] == "weights.induced_weights"
        ),
        "bergman.gram.panel_rule_calls": sum(
            1 for s in spans
            if s[1] == "quadrature.panel_rule" and s[2] is not None and by_id[s[2]][1] == "bergman.gram"
        ),
        "bergman.gram.distinct_ratio": ratio(
            len({(s[3], s[6].get("metric"), s[6].get("k")) for s in gram}), len(gram)
        ),
        "quadrature.disc_rule.distinct_ratio": ratio(
            len({(s[3], s[6].get("order")) for s in disc}), len(disc)
        ),
        "cycles.balance_iterate.steps": steps,
        "cycles.balance_iterate.ms_per_step": ratio(
            1000.0 * sum(s[5] - s[4] for s in balance), steps
        ),
    }
    return stats, derived
