"""Per-layer tracing from outside the program.

rrlang's modules call each other through module attributes
(`itp.execute`, `ir.validate`, `dsl.parse`, ...), so replacing those
attributes, and the methods of KnowledgeBase, with timing wrappers sees
every cross-layer call without editing the package. Spans are totalled
in memory, not kept one by one: per wrapped function the number of
calls and the self time: the time inside it minus the time of wrapped
calls made from inside it.

This module must not import rrlang at import time: the traced CLI shim
times `import rrlang.cli` before it loads the tracer.
"""

from __future__ import annotations

import time

import reference

# (module attribute path, span name) for every wrapped function.
MODULE_FUNCTIONS = (
    ("dsl", "parse"),
    ("dsl", "print_canonical"),
    ("ir", "validate"),
    ("ir", "validate_set"),
    ("interpreter", "execute"),
    ("interpreter", "replay_instance"),
    ("interpreter", "build_unit_value"),
    ("redescription", "antiunify_instances"),
    ("redescription", "generalize_to_e2"),
    ("redescription", "decompose_to_e3"),
    ("redescription", "mastery_check"),
    ("tasks", "build_task"),
    ("tasks", "run_task"),
    ("capability", "build_matrix"),
    ("capability", "compare_expected"),
    ("capability", "verbalize"),
)
KB_METHODS = ("record_instance", "add_unit", "advance", "save", "load", "canonical", "kb_by_level")
SPANS = (
    *(f"{module}.{fn}" for module, fn in MODULE_FUNCTIONS),
    *(f"kb.{method}" for method in KB_METHODS),
    "cli.main",
)
PASSES = ("antiunify_instances", "generalize_to_e2", "decompose_to_e3")
OUTCOMES = ("Solved", "Failed", "Inaccessible")

# KB sizes and domain counts of the scaling points the grow workload
# measures in its traced run.
SCALING_EPISODES = (100, 400, 1600)
SCALING_DOMAINS = (3, 6)

# Per-layer metrics the workloads measure themselves; zero elsewhere.
WORKLOAD_METRICS = {
    **{
        f"kb.record_instance.self_us.n{n}.d{d}": "us"
        for d in SCALING_DOMAINS for n in SCALING_EPISODES
    },
    **{
        f"kb.advance.self_ms.n{n}.d{d}": "ms"
        for d in SCALING_DOMAINS for n in SCALING_EPISODES
    },
    "cli.import_ms": "ms",
    "cli.spawn_ms": "ms",
    "kb.units": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {name: [0, 0] for name in SPANS}  # calls, self ns
        self.counts: dict[str, int] = {}
        self._open: list[list[int]] = []  # child time of each open span

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, after=None, error=None):
        """Time fn as span `name`. after(args, result, span_ns) runs once
        the span is closed; error(exc) sees exceptions leaving fn."""
        row = self.spans[name]
        opened = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = [0]
            opened.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                span = clock() - start
                opened.pop()
                row[0] += 1
                row[1] += span - children[0]
                if opened:
                    opened[-1][0] += span
            if after is not None:
                after(args, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- shipping state between processes ----------------------------

    def state(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, state: dict) -> None:
        for name, (calls, own) in state["spans"].items():
            row = self.spans[name]
            row[0] += calls
            row[1] += own
        for name, n in state["counts"].items():
            self.count(name, n)

    # -- report ------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric the tracer owns, zero where the layer
        was not exercised."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            calls, own = self.spans[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_ms"] = (own / 1e6, "ms")
        for name in ("dsl.parse", "dsl.print_canonical"):
            own = self.spans[name][1]
            kib = self.counts.get(f"{name}.bytes", 0) / 1024
            out[f"{name}.kb_per_s"] = (kib / (own / 1e9) if own else 0.0, "KB/s")
        out["interpreter.steps"] = (self.counts.get("interpreter.steps", 0), "count")
        for level in reference.LEVELS:
            ns = self.counts.get(f"interpreter.ns.{level}", 0)
            steps = self.counts.get(f"interpreter.steps.{level}", 0)
            out[f"interpreter.steps_per_s.{level}"] = (steps / (ns / 1e9) if ns else 0.0, "1/s")
        out["interpreter.errors"] = (self.counts.get("interpreter.errors", 0), "count")
        for name in PASSES:
            out[f"redescription.{name}.stmts_out"] = (
                self.counts.get(f"redescription.{name}.stmts_out", 0), "count",
            )
        for kind in OUTCOMES:
            out[f"tasks.outcome.{kind}"] = (self.counts.get(f"tasks.outcome.{kind}", 0), "count")
        out.update({name: (0, unit) for name, unit in WORKLOAD_METRICS.items()})
        return out


def install(tracer: Tracer, *, with_cli: bool = False) -> None:
    """Replace rrlang's public functions with traced wrappers."""
    import importlib

    from rrlang import interpreter as itp, ir

    def text_bytes(src) -> int:
        return len(getattr(src, "text", src).encode("utf-8"))

    def stmts_out(name):
        def after(args, result, span):
            produced = result[0]
            units = [produced] if isinstance(produced, ir.ConceptUnit) else list(produced)
            tracer.count(
                f"redescription.{name}.stmts_out",
                sum(1 for unit in units for _ in ir.iter_statements(unit)),
            )
        return after

    def executed(args, result, span):
        level = args[1].level.name  # the target unit's level
        tracer.count("interpreter.steps", result.steps)
        tracer.count(f"interpreter.steps.{level}", result.steps)
        tracer.count(f"interpreter.ns.{level}", span)

    def exec_error(exc):
        if isinstance(exc, itp.ExecError):
            tracer.count("interpreter.errors")

    hooks = {
        "dsl.parse": {"after": lambda a, r, s: tracer.count("dsl.parse.bytes", text_bytes(a[0]))},
        "dsl.print_canonical": {
            "after": lambda a, r, s: tracer.count("dsl.print_canonical.bytes", text_bytes(r))
        },
        "interpreter.execute": {"after": executed, "error": exec_error},
        "interpreter.build_unit_value": {"error": exec_error},
        "tasks.run_task": {
            "after": lambda a, r, s: tracer.count(f"tasks.outcome.{r.kind}")
        },
        **{f"redescription.{name}": {"after": stmts_out(name)} for name in PASSES},
    }
    for module_name, fn_name in MODULE_FUNCTIONS:
        module = importlib.import_module(f"rrlang.{module_name}")
        fn = getattr(module, fn_name)
        name = f"{module_name}.{fn_name}"
        setattr(module, fn_name, tracer.wrap(name, fn, **hooks.get(name, {})))

    from rrlang.kb import KnowledgeBase

    for method in KB_METHODS:
        raw = KnowledgeBase.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(KnowledgeBase, method, classmethod(tracer.wrap(f"kb.{method}", raw.__func__)))
        else:
            setattr(KnowledgeBase, method, tracer.wrap(f"kb.{method}", raw))

    if with_cli:
        from rrlang import cli

        cli.main = tracer.wrap("cli.main", cli.main)

