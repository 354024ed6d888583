"""In-process cases: the library calls each ``kstab`` command makes.

Every runner parses its JSON input with the program's own ``*_from_json``
and then makes the same calls, in the same order, as the matching CLI
command.  Functions are looked up through their modules at call time so
that the tracer's wrappers see the calls.
"""

from __future__ import annotations

from kstab import bergman, chow, cycles, laurent, weights


def run_factorize(case):
    return laurent.factorize(laurent.loop_from_json(case["loop"]))


def run_chow(case):
    form = chow.form_from_json(case["form"])
    g = laurent.loop_from_json(case["loop"])
    ch = chow.chow_weight(form, g)
    check = None
    if form.nvars == 3 and form.degree == 2:
        fiber = chow.central_fiber_cycle(form, g)
        check = chow.check_chow_inequality(g, fiber, ch=ch, order=48, tol=1e-6)
    return ch, check


def run_futaki(case):
    return weights.weight_report(weights.weight_system_from_json(case["system"]), kmax=case["kmax"])


def run_bergman(case):
    """``kstab bergman``: rho and the discrepancy per level, then the fit."""
    metric = bergman.metric_from_json(case["metric"])
    grid = bergman.default_grid(case["grid"])
    ks = case["ks"]
    rhos = {k: bergman.rho(metric, k, grid) for k in ks}
    tvs = {k: bergman.theta_total_variation(metric, k) for k in ks}
    fit = bergman.expansion_fit(metric, ks, grid)
    return {"metric": metric, "grid": grid, "rho": rhos, "theta_tv": tvs, "a1": fit.a1}


def _cycles_of(case):
    """Shipped cycle input, or the level-k image cycles of a metric."""
    if "cycle" in case:
        return {None: cycles.cycle_from_json(case["cycle"])}
    metric = bergman.metric_from_json(case["metric"])
    return {k: bergman.image_cycle(metric, k) for k in case["ks"]}


def run_moment(case):
    return {k: cycles.moment_matrix(c, order=case["order"], tol=case["tol"])
            for k, c in _cycles_of(case).items()}


def run_balance(case):
    return {k: cycles.balance_iterate(c, max_steps=case["max_steps"], tol=case["tol"],
                                      order=case["order"])
            for k, c in _cycles_of(case).items()}


RUNNERS = {
    "factorize": run_factorize,
    "chow": run_chow,
    "futaki": run_futaki,
    "bergman": run_bergman,
    "moment": run_moment,
    "balance": run_balance,
}
