"""Per-layer metrics from the spans of one traced cycle.

A cycle is a list of processes; each gives the `time.perf_counter` instant
the client spawned it (the clock is system-wide), the name of its entry
span and its span list as `layertrace` writes it.  Times are *layer self time*: a span's duration minus the time
its descendant spans spend in other layers (`cut` spans are subtracted
too).  Counts are exact and repeat for a given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from layertrace import ATTRS, END, ID, NAME, PARENT, SITE, START, layer_of

APPLY = "fraccalc.FracIntegralOperator.apply"
TABLE = "fraccalc.FracIntegralOperator"
ML = "specfun.mittag_leffler_many"
FORMAT = ("cli.solution_to_csv", "stability.report_to_csv", "cli.certificate_json")

#: name -> (unit, meaning); every metric this module reports.
CATALOGUE = {
    "cli.startup_s": ("s", "median per process of the time from its spawn to its entry span (cli.main, or the campaign body): interpreter start and imports"),
    "cli.load_problem_s": ("s", "cli self time of load_problem, validation included"),
    "cli.format_s": ("s", "self time of solution_to_csv, report_to_csv and the certificate json.dumps"),
    "psi_space.mesh_builds": ("count", "build_mesh calls"),
    "psi_space.mesh_s": ("s", "psi_space self time of build_mesh"),
    "fraccalc.table_builds": ("count", "FracIntegralOperator(...) constructions"),
    "fraccalc.table_build_s": ("s", "self time of FracIntegralOperator(...)"),
    "fraccalc.weighted_first_apply_s": ("s", "self time of the first weighted-input apply per operator and weight, which builds the lazy weighted table"),
    "fraccalc.table_bytes": ("bytes", "computed, not measured: (n+1)^2*8 per plain table built and per lazy weighted table built"),
    "fraccalc.op_checks_s": ("s", "self time of run_operator_checks, its table builds and applies excluded"),
    "fraccalc.applies": ("count", "FracIntegralOperator.apply calls"),
    "fraccalc.apply_s": ("s", "self time of the applies not counted in weighted_first_apply_s"),
    "rhs_expr.parse_s": ("s", "self time of parse_expression"),
    "rhs_expr.evaluations": ("count", "evaluate calls"),
    "rhs_expr.evaluate_s": ("s", "rhs_expr self time of evaluate"),
    "specfun.ml_calls": ("count", "mittag_leffler_many calls made from rhs_expr"),
    "specfun.ml_s": ("s", "specfun self time of those calls"),
    "solver.solves": ("count", "picard_solve calls"),
    "solver.sweeps": ("count", "sum of Solution.iterations"),
    "solver.picard_s": ("s", "solver self time of picard_solve"),
    "solver.sweep_ms": ("ms", "picard_solve wall time per sweep"),
    "solver.nonconverged": ("count", "picard_solve calls that raised"),
    "stability.trials": ("count", "perturbation trials run"),
    "stability.trial_ms": ("ms", "perturb_and_check wall time per trial"),
    "stability.trial_errors": ("count", "trials with verdict error"),
    "stability.refined_trials": ("count", "trials re-run on the doubled mesh"),
    "stability.refine_ratio": ("1", "refined trials / trials, the wasted-work ratio"),
    "stability.redundant_base_solves": ("count", "unperturbed solves of a (problem, n) already solved in the process"),
    "stability.lambda_phi_s": ("s", "stability self time of estimate_lambda_phi"),
}

#: counts that must repeat exactly between two traced runs with one seed
EXACT_COUNTS = (
    "psi_space.mesh_builds", "fraccalc.table_builds", "solver.sweeps",
    "specfun.ml_calls", "rhs_expr.evaluations", "stability.trials",
)


class _Process:
    def __init__(self, spans: list[list]):
        self.by_id = {span[ID]: span for span in spans}
        self.children: dict[int, list[list]] = defaultdict(list)
        self.by_name: dict[str, list[list]] = defaultdict(list)
        for span in spans:
            self.by_name[span[NAME]].append(span)
            if span[PARENT] >= 0:
                self.children[span[PARENT]].append(span)

    def named(self, *names: str) -> list[list]:
        return sorted((s for name in names for s in self.by_name[name]), key=lambda s: s[ID])

    def self_time(self, span: list, cut=()) -> float:
        """Duration minus descendants in other layers or named in `cut`."""
        layer = layer_of(span[NAME])
        total = span[END] - span[START]
        pending = list(self.children[span[ID]])
        while pending:
            child = pending.pop()
            if layer_of(child[NAME]) != layer or child[NAME] in cut:
                total -= child[END] - child[START]
            else:
                pending.extend(self.children[child[ID]])
        return total

    def outermost(self, spans: list[list]) -> list[list]:
        """`spans` without those nested inside another of them."""
        ids = {s[ID] for s in spans}
        out = []
        for span in spans:
            parent = span[PARENT]
            while parent >= 0 and parent not in ids:
                parent = self.by_id[parent][PARENT]
            if parent < 0:
                out.append(span)
        return out

    def total_self(self, *names: str, cut=()) -> float:
        return sum(self.self_time(s, cut) for s in self.outermost(self.named(*names)))


def cycle_metrics(processes: list[tuple[float, str, list[list]]]) -> dict[str, float]:
    """Every metric of `CATALOGUE` for one cycle of (spawned, entry, spans)."""
    m = {key: 0 if unit in ("count", "bytes") else 0.0 for key, (unit, _) in CATALOGUE.items()}
    startups = []
    picard_wall = report_wall = 0.0
    for spawned, entry, spans in processes:
        proc = _Process(spans)
        entries = proc.named(entry)
        if entries:
            startups.append(entries[0][START] - spawned)
        m["cli.load_problem_s"] += proc.total_self("cli.load_problem")
        m["cli.format_s"] += sum(proc.total_self(name) for name in FORMAT)

        meshes = proc.named("psi_space.build_mesh")
        m["psi_space.mesh_builds"] += len(meshes)
        m["psi_space.mesh_s"] += proc.total_self("psi_space.build_mesh")

        tables = [s for s in proc.named(TABLE) if s[ATTRS] and "op" in s[ATTRS]]
        m["fraccalc.table_builds"] += len(tables)
        m["fraccalc.table_build_s"] += proc.total_self(TABLE)
        table_bytes = sum(8 * (s[ATTRS]["n"] + 1) ** 2 for s in tables)
        seen = set()
        for span in proc.named(APPLY):
            attrs = span[ATTRS] or {}
            key = (attrs.get("op"), attrs.get("w"))
            if attrs.get("w", 0.0) != 0.0 and key not in seen:
                seen.add(key)
                m["fraccalc.weighted_first_apply_s"] += proc.self_time(span)
                table_bytes += 8 * (attrs["n"] + 1) ** 2
            else:
                m["fraccalc.apply_s"] += proc.self_time(span)
            m["fraccalc.applies"] += 1
        m["fraccalc.table_bytes"] += table_bytes
        m["fraccalc.op_checks_s"] += proc.total_self(
            "fraccalc.run_operator_checks", cut=(TABLE, APPLY)
        )

        m["rhs_expr.parse_s"] += proc.total_self("rhs_expr.parse_expression")
        m["rhs_expr.evaluations"] += len(proc.named("rhs_expr.evaluate"))
        m["rhs_expr.evaluate_s"] += proc.total_self("rhs_expr.evaluate")
        ml = [s for s in proc.named(ML) if s[SITE] == "rhs_expr"]
        m["specfun.ml_calls"] += len(ml)
        m["specfun.ml_s"] += sum(proc.self_time(s) for s in proc.outermost(ml))

        solves = proc.named("solver.picard_solve")
        m["solver.solves"] += len(solves)
        for span in solves:
            attrs = span[ATTRS] or {}
            if "error" in attrs:
                m["solver.nonconverged"] += 1
            m["solver.sweeps"] += attrs.get("iterations", 0)
            if attrs.get("repeat"):
                m["stability.redundant_base_solves"] += 1
        m["solver.picard_s"] += proc.total_self("solver.picard_solve")
        picard_wall += sum(s[END] - s[START] for s in proc.outermost(solves))

        reports = proc.named("stability.perturb_and_check")
        for span in reports:
            attrs = span[ATTRS] or {}
            m["stability.trials"] += attrs.get("trials", 0)
            m["stability.trial_errors"] += attrs.get("errors", 0)
            m["stability.refined_trials"] += attrs.get("refined", 0)
        report_wall += sum(s[END] - s[START] for s in proc.outermost(reports))
        m["stability.lambda_phi_s"] += proc.total_self("stability.estimate_lambda_phi")

    m["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    if m["solver.sweeps"]:
        m["solver.sweep_ms"] = 1000.0 * picard_wall / m["solver.sweeps"]
    if m["stability.trials"]:
        m["stability.trial_ms"] = 1000.0 * report_wall / m["stability.trials"]
        m["stability.refine_ratio"] = m["stability.refined_trials"] / m["stability.trials"]
    return m
