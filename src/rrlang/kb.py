"""Knowledge base: every unit the agent has, at every level it ever
reached, plus the experience log that drives advancement.

Redescription appends; it never replaces. A knowledge base therefore
keeps an instance recording alongside the class that grew out of it,
keyed by (name, level). Recordings in one knowledge base share their
immutable nodes (constants, names and statements), recorded or
loaded, and never their operations: each Operation carries its own
compiled body, and a recording's first replay compiles it from the
statement closures its shared nodes keep.

On disk a knowledge base is a directory: one canonical .rr file per
unit and a manifest.tsv index whose rows are either
``unit<TAB>name<TAB>level<TAB>domain<TAB>file`` or
``log<TAB>unit<TAB>task<TAB>outcome<TAB>tick``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import dsl, interpreter as itp, ir, redescription
from .ir import record
from .redescription import PhaseReport

MANIFEST = "manifest.tsv"


class KbError(Exception):
    pass


class EmptyTrace(KbError):
    pass


class DuplicateUnit(KbError):
    pass


class InvalidUnit(KbError):
    def __init__(self, diagnostics: Sequence[ir.Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


class IoFailure(KbError):
    pass


class ManifestError(dsl.ParseFailure):
    """The on-disk index contradicts itself."""

    def __init__(self, message: str, origin: str):
        super().__init__([dsl.ParseError(0, 0, "a consistent manifest", message)], origin)


@record
class LogEntry:
    unit: str
    task: str
    outcome: str
    tick: int


# Trace verbs and the action statements they record to.
_VERB_FOR_EVENT = {
    "Moved": "Move",
    "PointedTo": "PointTo",
    "Said": "Say",
    "TookAway": "TakeAway",
}


class _Nodes(dict):
    """The nodes recordings share, each built once per knowledge base on
    its first lookup. Recordings repeat the same few constants and
    statements, so a recording or a loaded unit takes every such node
    from here, and a hit is one dict lookup. The keys are plain strings,
    since a record's own hash would recurse through its fields:

    * a name -> its NameExpr;
    * (name, type) -> the private const Attribute bound to its own name;
    * (pred, args) -> the SetupStmt;
    * (verb, agent, arg) -> the ActionStmt, over the shared names.

    The table grows with the names and verbs seen, not with the
    episodes. Operations and units are never shared: each Operation
    keeps its own compiled body."""

    def __missing__(self, key):
        if key.__class__ is str:
            node = ir.NameExpr(key)
        elif len(key) == 3:
            verb, agent, arg = key
            node = ir.ActionStmt(verb, self[agent], (self[arg],))
        elif key[1].__class__ is str:
            node = ir.Attribute(key[0], key[1], ir.Visibility.PRIVATE, key[0])
        else:
            node = ir.SetupStmt(*key)
        self[key] = node
        return node


class KnowledgeBase:
    """Mutable store of concept units plus the mastery log."""

    def __init__(self) -> None:
        self._units: dict[tuple[str, ir.Level], ir.ConceptUnit] = {}
        self._instance_counts: dict[str, int] = {}  # instances per domain; names recordings
        self._nodes = _Nodes()  # shared recording nodes
        self.log: list[LogEntry] = []

    # -- access ------------------------------------------------------

    def __iter__(self) -> Iterator[ir.ConceptUnit]:
        return iter(self._units.values())

    def __len__(self) -> int:
        return len(self._units)

    def units_at(self, level: ir.Level) -> tuple[ir.ConceptUnit, ...]:
        return tuple(u for u in self._units.values() if u.level is level)

    def unit(self, name: str, level: ir.Level | None = None) -> ir.ConceptUnit | None:
        """Find a unit by name; with no level, the most redescribed one."""
        if level is not None:
            return self._units.get((name, level))
        found = [u for u in self._units.values() if u.name == name]
        if not found:
            return None
        return max(found, key=lambda u: u.level.rank)

    @property
    def globals_unit(self) -> ir.ConceptUnit | None:
        return self.unit(ir.GLOBALS_UNIT)

    def domains(self) -> tuple[str, ...]:
        return tuple(sorted({
            u.domain for u in self._units.values() if u.name != ir.GLOBALS_UNIT
        }))

    def kb_by_level(self) -> dict[ir.Level, list[ir.ConceptUnit]]:
        """Level slices for the matrix (see ``ir.kb_by_level``)."""
        return ir.kb_by_level(self)

    # -- mutation ----------------------------------------------------

    def add_unit(self, unit: ir.ConceptUnit) -> ir.ConceptUnit:
        problems = ir.validate(unit)
        if problems:
            raise InvalidUnit(problems)
        key = (unit.name, unit.level)
        if key in self._units:
            raise DuplicateUnit(f"{unit.name} at {unit.level.name} already stored")
        self._units[key] = unit
        if unit.kind is ir.UnitKind.INSTANCE:
            self._instance_counts[unit.domain] = self._instance_counts.get(unit.domain, 0) + 1
        return unit

    def record_outcome(self, unit_name: str, task_id: str, outcome: object) -> LogEntry:
        kind = str(getattr(outcome, "kind", outcome))
        entry = LogEntry(unit_name, task_id, kind, tick=len(self.log) + 1)
        self.log.append(entry)
        return entry

    def record_instance(
        self,
        trace: Sequence[itp.TraceEvent],
        world: itp.World,
        domain: str,
    ) -> ir.ConceptUnit:
        """Code one episode independently: constants for everything the
        episode touched or its setup facts name, setup predicates from
        the scene, and the actions verbatim. An event that names an
        entity the scene lacks, or that no action codes, is refused
        before anything is stored or shared."""
        if not trace:
            raise EmptyTrace("nothing happened; there is no episode to record")
        # insertion-ordered sets: first mention order, one entry each
        said: dict[str, None] = {}
        pointed: dict[str, None] = {}
        taken: dict[str, None] = {}
        for event in trace:
            if event.verb == "Said":
                said[event.arg] = None
            elif event.verb in ("PointedTo", "TookAway"):
                if event.arg not in world.entities:
                    raise KbError(
                        f"event {event.seq}: {event.verb} {event.arg!r} is not in the scene"
                    )
                if event.verb == "PointedTo":
                    pointed[event.arg] = None
                else:
                    taken[event.arg] = None
            elif event.verb not in _VERB_FOR_EVENT:
                raise KbError(f"cannot code a {event.verb} event into an episode")
        # the first agent and hand, and every room and table, in one pass
        agent = hand = None
        rooms: list[str] = []
        tables: list[str] = []
        for eid, (kind, _) in world.entities.items():
            if kind == "Room":
                rooms.append(eid)
            elif kind == "Table":
                tables.append(eid)
            elif kind == "Hand" and hand is None:
                hand = eid
            elif kind == "Person" and agent is None:
                agent = eid
        if agent is None or hand is None:
            raise KbError("the scene lacks an agent to attribute the actions to")

        # the line is the container holding the first pointed entity, as replay finds it
        first = next(iter(pointed), None)
        line = None
        if first is not None and world.arrangements.get(world.entities[first][1]) == "Line":
            for members in world.containers.values():
                if first in members:
                    line = tuple(members)
                    break
        # every entity an action or the InLine fact names, each once
        objects = {**pointed, **taken, **dict.fromkeys(line or ())}

        nodes = self._nodes
        entities = world.entities
        attrs = [nodes[tok, "Sound"] for tok in said]
        attrs.append(nodes[agent, "Person"])
        attrs.extend([nodes[room, "Room"] for room in rooms])
        attrs.extend([nodes[table, "Table"] for table in tables])
        attrs.extend([nodes[eid, entities[eid][0]] for eid in objects])
        attrs.append(nodes[hand, "Hand"])

        body: list[ir.SetupStmt | ir.ActionStmt] = [nodes["In", (agent, room)] for room in rooms]
        body.extend([nodes["On", (eid, table)] for eid in pointed for table in tables])
        if line is not None:
            body.append(nodes["InLine", line])
        verb_for = _VERB_FOR_EVENT
        body.extend([
            nodes[verb_for[e.verb], agent, hand if e.arg is None else e.arg] for e in trace
        ])

        ordinal = 1 + self._instance_counts.get(domain, 0)
        operation = ir.Operation(
            ir.IMPLICIT_OP, (), None, ir.Visibility.PRIVATE, tuple(body), True
        )
        unit = ir.ConceptUnit(
            f"Counting_{domain}_{ordinal}",
            ir.UnitKind.INSTANCE,
            ir.Level.I,
            domain,
            tuple(attrs),
            (operation,),
            (),
        )
        return self.add_unit(unit)

    def _shared(self, unit: ir.ConceptUnit) -> ir.ConceptUnit:
        """A parsed level-I unit with the nodes a recording would share
        taken from the table: private self-named constants, setup facts,
        and actions on a named agent with one name argument. Anything
        else is kept as parsed."""
        if unit.level is not ir.Level.I:
            return unit
        nodes = self._nodes
        attrs = tuple(
            nodes[a.name, a.type_ref]
            if a.visibility is ir.Visibility.PRIVATE and a.const == a.name
            else a
            for a in unit.attributes
        )
        ops = []
        for op in unit.operations:
            body = []
            for stmt in op.body:
                kind = stmt.__class__
                if kind is ir.SetupStmt:
                    stmt = nodes[stmt.pred, stmt.args]
                elif (
                    kind is ir.ActionStmt
                    and stmt.recv.__class__ is ir.NameExpr
                    and len(stmt.args) == 1
                    and stmt.args[0].__class__ is ir.NameExpr
                ):
                    stmt = nodes[stmt.verb, stmt.recv.name, stmt.args[0].name]
                body.append(stmt)
            ops.append(ir.replace(op, body=tuple(body)))
        return ir.replace(unit, attributes=attrs, operations=tuple(ops))

    # -- advancement -------------------------------------------------

    def _chain(self, domain: str):
        """A domain's redescription chain. Instances and the E1 class
        keep the domain tag; the later levels are tied to the chain by
        the concept's base name, since generalization moves them into
        the shared numbers domain."""
        instances = [
            u for u in self._units.values()
            if u.kind is ir.UnitKind.INSTANCE and u.domain == domain
        ]
        e1 = [
            u for u in self._units.values()
            if u.level is ir.Level.E1
            and u.kind is ir.UnitKind.CLASS
            and u.domain == domain
        ]
        heads = e1 or instances
        if not heads:
            return None
        base = redescription.base_name(heads[0].name, domain)
        e2 = self.unit(base, ir.Level.E2)
        e3 = self.unit(base, ir.Level.E3)
        names = {u.name for u in instances} | {u.name for u in e1}
        names.update(u.name for u in (e2, e3) if u is not None)
        return instances, e1, e2, e3, names

    def advance(self, threshold: int = 3) -> list[PhaseReport]:
        """Fire at most one redescription phase per mastered domain.

        Chains are rooted at recorded experience: a domain with neither
        instances nor an E1 class does not advance on its own. Inputs
        stay stored; only new units are appended. A chain whose pass
        refuses its input stays as it is: its report has no outputs, and
        its one dropped entry is the refusal."""
        reports: list[PhaseReport] = []
        for domain in self.domains():
            chain = self._chain(domain)
            if chain is None:
                continue
            instances, e1, e2, e3, names = chain
            records = [
                (entry.task, entry.outcome)
                for entry in self.log
                if entry.unit in names
            ]
            if not redescription.mastery_check(records, threshold):
                continue
            try:
                if not e1:
                    if len(instances) < 2:
                        continue
                    unit, report = redescription.antiunify_instances(instances)
                    self.add_unit(unit)
                    reports.append(report)
                elif e2 is None:
                    (unit, shared), report = redescription.generalize_to_e2(e1[0])
                    self.add_unit(unit)
                    if self.unit(shared.name, shared.level) is None:
                        self.add_unit(shared)
                    reports.append(report)
                elif e3 is None:
                    units, report = redescription.decompose_to_e3(
                        e2, shared=self.globals_unit
                    )
                    for unit in units:
                        if self.unit(unit.name, unit.level) is None:
                            self.add_unit(unit)
                    reports.append(report)
            except redescription.RedescriptionError as exc:
                # Every pass refuses before it adds a unit, and the other
                # domains climb on.
                phase = 1 if not e1 else 2 if e2 is None else 3
                inputs = tuple(u.name for u in (instances, e1[:1], [e2])[phase - 1])
                refusal = f"{type(exc).__name__}: {exc}"
                reports.append(PhaseReport(phase, inputs, (), (), (refusal,)))
        return reports

    # -- integrity ---------------------------------------------------

    def validate(self) -> list[ir.Diagnostic]:
        problems = [d for u in self._units.values() for d in ir.validate(u)]
        problems.extend(ir.validate_set(list(self._units.values())))
        return problems

    # -- persistence -------------------------------------------------

    def save(self, path: str | Path) -> Path:
        problems = self.validate()
        if problems:
            raise InvalidUnit(problems)
        root = Path(path)
        try:
            root.mkdir(parents=True, exist_ok=True)
            rows = []
            for unit in sorted(
                self._units.values(), key=lambda u: (u.level.rank, u.name)
            ):
                filename = f"{unit.name}_{unit.level.name}.rr"
                text = dsl.print_canonical([unit]).text
                (root / filename).write_text(text, encoding="utf-8", newline="")
                rows.append(
                    f"unit\t{unit.name}\t{unit.level.name}\t{unit.domain}\t{filename}"
                )
            for entry in self.log:
                rows.append(
                    f"log\t{entry.unit}\t{entry.task}\t{entry.outcome}\t{entry.tick}"
                )
            (root / MANIFEST).write_text(
                "\n".join(rows) + ("\n" if rows else ""), encoding="utf-8", newline=""
            )
        except OSError as exc:
            raise IoFailure(f"cannot write knowledge base at {root}: {exc}") from exc
        return root

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        root = Path(path)
        kb = cls()
        manifest = root / MANIFEST
        if not manifest.exists():
            if root.exists():
                return kb
            raise IoFailure(f"no knowledge base at {root}")
        try:
            lines = manifest.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise IoFailure(f"cannot read {manifest}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if parts[0] == "unit" and len(parts) == 5:
                _, name, level_name, domain, filename = parts
                if Path(filename).name != filename or filename == "..":
                    raise ManifestError(
                        f"line {lineno}: file {filename!r} is not a plain name"
                        " inside the knowledge base",
                        str(manifest),
                    )
                try:
                    text = (root / filename).read_text(encoding="utf-8")
                except OSError as exc:
                    raise IoFailure(f"cannot read {root / filename}: {exc}") from exc
                units = dsl.parse(dsl.SourceText(text, origin=filename))
                match = [u for u in units if u.name == name]
                if not match:
                    raise ManifestError(
                        f"{filename} does not define unit {name!r}", str(manifest)
                    )
                unit = match[0]
                if unit.level.name != level_name or unit.domain != domain:
                    raise ManifestError(
                        f"{filename} disagrees with the manifest about {name!r}",
                        str(manifest),
                    )
                try:
                    kb.add_unit(kb._shared(unit))
                except DuplicateUnit as exc:
                    raise ManifestError(str(exc), str(manifest)) from exc
            elif parts[0] == "log" and len(parts) == 5:
                _, unit_name, task, outcome, tick = parts
                try:
                    tick = int(tick)
                except ValueError as exc:
                    raise ManifestError(
                        f"line {lineno}: tick {tick!r} is not an integer", str(manifest)
                    ) from exc
                kb.log.append(LogEntry(unit_name, task, outcome, tick))
            else:
                raise ManifestError(
                    f"line {lineno}: unrecognized row {line!r}", str(manifest)
                )
        return kb

    @classmethod
    def canonical(cls) -> "KnowledgeBase":
        """The fixture chain: one counting concept at every level."""
        kb = cls()
        for fixture in dsl.FIXTURE_NAMES:
            if fixture in ("fetch_objects", "bus_seats", "conservation"):
                continue  # task apparatus, not knowledge
            for unit in dsl.load_fixture(fixture):
                if kb.unit(unit.name, unit.level) is None:
                    kb.add_unit(unit)
        return kb
