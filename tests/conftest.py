import pytest
from hypothesis import settings

from rrlang import dsl, ir, kb as kbmod

# A larger example budget for CI (pytest --hypothesis-profile=ci). The
# climb property test draws half of it, 500 climbs against tier-1's 50,
# and the judging property test a fifth, 200 mutants against 20.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session")
def canonical_kb():
    return kbmod.KnowledgeBase.canonical()


@pytest.fixture(scope="session")
def kb_by_level(canonical_kb):
    return canonical_kb.kb_by_level()


@pytest.fixture(scope="session")
def fixture_units():
    return {
        name: dsl.load_fixture(name)
        for name in dsl.FIXTURE_NAMES
    }


@pytest.fixture(scope="session")
def e3_units(fixture_units):
    return {u.name: u for u in fixture_units["counting_e3"]}


@pytest.fixture(scope="session")
def globals_unit(fixture_units):
    return fixture_units["globals"][0]


@pytest.fixture(scope="session")
def levels():
    return (ir.Level.I, ir.Level.E1, ir.Level.E2, ir.Level.E3)
