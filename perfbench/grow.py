"""grow: build a knowledge base from episodes, climb it to E3, persist it.

One operation is one episode: `KnowledgeBase.record_instance` of a
demonstration trace (a teacher pointing at each object and saying the
next numeral, then restating the total), then
`interpreter.replay_instance` of the new unit, checked against the
demonstration's PointedTo/Said events. The benchmark writes the
demonstrations itself, so they are a reference independent of rrlang.

A cycle is EPISODES episodes into an empty knowledge base; the domain
(six of them) and size (2-20) of each are drawn from the workload seed.
Cycles repeat until the run's time is up. The last cycle's knowledge
base then has its mastery logged, is advanced until every domain's
chain reaches E3, saved and loaded; the loaded copy must print
byte-identical to the saved one.

The interpreter only replays straight-line units it sees once each, so
an interpreter cache should not move this workload; record_instance,
validate, advance and parse should.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from pathlib import Path

import reference
from common import CAL_REF_NS, calibrate, peak_rss_mb, scratch
from tracer import SCALING_DOMAINS, SCALING_EPISODES

EPISODES = 1000
MASTERY_TASKS = ("T1", "T2", "T3")
MAX_ADVANCE_ROUNDS = 10
DOMAINS = {
    "apples": "Apple",
    "pencils": "Pencil",
    "cups": "Cup",
    "marbles": "Marble",
    "candies": "Candy",
    "bananas": "Banana",
}


class Grow:
    calibrate = staticmethod(calibrate)
    cal_ref_ns = CAL_REF_NS

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.window = self.stride = EPISODES  # one knowledge base grown from empty
        self.traced_ops = EPISODES  # the traced pass grows one knowledge base

    # -- inputs --------------------------------------------------------

    def _episodes(self, rng: random.Random, count: int, domains) -> list[tuple]:
        from rrlang import interpreter as itp, ir

        episodes = []
        for _ in range(count):
            domain = rng.choice(domains)
            size = rng.randint(2, 20)
            kind = DOMAINS[domain]
            entities = {
                "ME": ("Person", None),
                "HAND": ("Hand", None),
                "ROOM1": ("Room", None),
                "TABLE1": ("Table", None),
            }
            ids = tuple(f"{kind.upper()}{i}" for i in range(1, size + 1))
            for eid in ids:
                entities[eid] = (kind, domain)
            world = itp.World(entities, {domain: "Line"}, {domain: ids}, rng.randrange(1 << 30))
            said = ir.NUMERALS[:size]
            events = []
            for eid, numeral in zip(ids, said):
                events += [("Moved", None), ("PointedTo", eid), ("Said", numeral)]
            events.append(("Said", said[-1]))
            trace = tuple(itp.TraceEvent(i, verb, arg) for i, (verb, arg) in enumerate(events, 1))
            expected = [event for event in events if event[0] != "Moved"]
            episodes.append((domain, world, trace, expected))
        return episodes

    def setup(self) -> None:
        from rrlang import interpreter as itp, kb

        self.itp = itp
        self.KnowledgeBase = kb.KnowledgeBase
        self.episodes = self._episodes(random.Random(self.seed), EPISODES, list(DOMAINS))
        for i in range(50):  # warm-up on a throwaway knowledge base
            self.op(i)

    # -- timed loop ----------------------------------------------------

    def op(self, i: int):
        j = i % EPISODES
        if j == 0:
            self.kb = self.KnowledgeBase()
        domain, world, trace, _ = self.episodes[j]
        unit = self.kb.record_instance(trace, world, domain)
        return unit, self.itp.replay_instance((unit,), unit, world)

    def check(self, i: int, out) -> bool:
        unit, result = out
        domain, _, _, expected = self.episodes[i % EPISODES]
        said = [(e.verb, e.arg) for e in result.trace if e.verb in ("PointedTo", "Said")]
        return unit.domain == domain and unit.level.name == "I" and said == expected

    # -- closing phase -------------------------------------------------

    def _climb(self, kb) -> tuple[float, bool]:
        """Log three solved tasks on each chain's newest units and advance
        until nothing fires. Returns the time spent in advance() and
        whether every recorded domain reached E3."""
        from rrlang import ir

        domains = {u.domain for u in kb}
        fresh = list({u.domain: u.name for u in kb}.values())  # one unit per chain
        spent = 0.0
        for _ in range(MAX_ADVANCE_ROUNDS):
            for name in fresh:
                for task in MASTERY_TASKS:
                    kb.record_outcome(name, task, "Solved")
            start = time.perf_counter()
            reports = kb.advance()
            spent += time.perf_counter() - start
            if not reports:
                break
            fresh = [name for report in reports for name in report.outputs]
        e1_domains = {u.domain for u in kb.units_at(ir.Level.E1)}
        e3 = {u.name for u in kb.units_at(ir.Level.E3)}
        return spent, domains <= e1_domains and set(reference.E3_UNITS) <= e3

    def _tail(self, kb):
        """advance, save and load the grown knowledge base, with checks."""
        from rrlang import dsl

        advance_s, reached = self._climb(kb)
        checks = [("grow reaches E3 in every domain", reached, "")]
        work = scratch(self.root) / "tmp"
        work.mkdir(parents=True, exist_ok=True)
        target = Path(tempfile.mkdtemp(prefix="grow-", dir=work))
        try:
            start = time.perf_counter()
            kb.save(target)
            save_s = time.perf_counter() - start
            start = time.perf_counter()
            loaded = self.KnowledgeBase.load(target)
            load_s = time.perf_counter() - start
        finally:
            shutil.rmtree(target)
        # The check prints through the unwrapped printer, so a traced
        # run times save's printing only.
        print_canonical = getattr(dsl.print_canonical, "__wrapped__", dsl.print_canonical)
        listing = lambda k: sorted(
            (u.level.rank, u.name, print_canonical([u]).text) for u in k
        )
        same = listing(kb) == listing(loaded) and kb.log == loaded.log
        checks.append(("load prints byte-identical to save", same, f"{len(kb)} units"))
        return checks, advance_s, save_s, load_s

    def verify(self):
        checks, advance_s, save_s, load_s = self._tail(self.kb)
        lines = [
            f"advance_s      {advance_s:.4f} s   (until E3, {len(self.kb)} units after)",
            f"save_s         {save_s:.4f} s",
            f"load_s         {load_s:.4f} s",
        ]
        return checks, lines

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    # -- traced run ----------------------------------------------------

    def install(self, tracer, install) -> None:
        install(tracer)

    def traced_extras(self, tracer):
        """The tail of the traced pass's knowledge base, traced; the span
        totals and the size of that knowledge base are the per-layer
        metrics. Then, outside those totals, the scaling points: n
        episodes over the first d domains into a fresh knowledge base,
        advanced to E3. Each point is scaled to the reference speed by
        the calibrations on either side of it."""
        checks, *_ = self._tail(self.kb)
        layer = tracer.metrics()
        layer["kb.units"] = (len(self.kb), "count")
        record = tracer.spans["kb.record_instance"]
        advance = tracer.spans["kb.advance"]
        rng = random.Random(self.seed + 1)
        for d in SCALING_DOMAINS:
            domains = list(DOMAINS)[:d]
            for n in SCALING_EPISODES:
                episodes = self._episodes(rng, n, domains)
                kb = self.KnowledgeBase()
                gc.collect()  # earlier points' garbage is not this point's cost
                before = calibrate()
                record_ns, advance_ns = record[1], advance[1]
                for domain, world, trace, _ in episodes:
                    kb.record_instance(trace, world, domain)
                _, reached = self._climb(kb)
                record_ns, advance_ns = record[1] - record_ns, advance[1] - advance_ns
                factor = 2 * CAL_REF_NS / (before + calibrate())
                layer[f"kb.record_instance.self_us.n{n}.d{d}"] = (record_ns * factor / n / 1e3, "us")
                layer[f"kb.advance.self_ms.n{n}.d{d}"] = (advance_ns * factor / 1e6, "ms")
                checks.append((f"scaling n{n}.d{d} reaches E3", reached, ""))
        return checks, layer
