"""The protocol table: its eight rows, lookup and option checks."""

import pytest

from repro.analyze.invariants import CeilingChecker, TwoPhaseChecker
from repro.analyze.sanitizer import Sanitizer
from repro.kernel import Kernel
from repro.model.workload import CEILING_PROTOCOLS, TWOPL_PROTOCOLS
from repro.protocols import REGISTRY, TABLE, UnknownProtocolError

#: What each row is checked by and modelled with, from its family.
EXPECTED = {
    "L": (TwoPhaseChecker, TWOPL_PROTOCOLS),
    "P": (TwoPhaseChecker, TWOPL_PROTOCOLS),
    "PI": (TwoPhaseChecker, TWOPL_PROTOCOLS),
    "C": (CeilingChecker, CEILING_PROTOCOLS),
    "Cx": (CeilingChecker, CEILING_PROTOCOLS),
    "mpcp": (TwoPhaseChecker, TWOPL_PROTOCOLS),
    "dpcp": (CeilingChecker, CEILING_PROTOCOLS),
    "fmlp": (TwoPhaseChecker, TWOPL_PROTOCOLS),
}


def test_the_table_rows():
    keys = [key.casefold() for spec in TABLE
            for key in (spec.name,) + spec.aliases]
    assert len(keys) == len(set(keys))
    assert REGISTRY.names() == tuple(EXPECTED)
    sanitizer = Sanitizer(strict=True)
    for spec in TABLE:
        checker_class, model_set = EXPECTED[spec.name]
        cc = spec.build(Kernel(seed=1))
        assert type(sanitizer.attach_protocol(cc)) is checker_class
        assert spec.name in model_set
    with pytest.raises(UnknownProtocolError) as err:
        REGISTRY.resolve("nope")
    assert str(err.value) == (
        "unknown protocol 'nope'; expected one of ('L', 'P', 'PI', 'C', "
        "'Cx', 'mpcp', 'dpcp', 'fmlp') (aliases: 2pl, 2pl-priority, "
        "ceiling, d-pcp, fifo-queue, inheritance, m-pcp, pcp, "
        "pcp-exclusive)")


# ----------------------------------------------------------------------
# rows: the table is fixed data, so a key that would shadow another
# row's, or an enumerated value the stack does not serve, is caught here
# ----------------------------------------------------------------------
def test_register_rejects_duplicate_name():
    names = [spec.name for spec in TABLE]
    assert len(names) == len(set(names))
    for spec in TABLE:
        assert REGISTRY.resolve(spec.name) is spec


def test_register_rejects_duplicate_name_case_insensitively():
    folded = [spec.name.casefold() for spec in TABLE]
    assert len(folded) == len(set(folded))
    for spec in TABLE:
        assert REGISTRY.resolve(spec.name.upper()) is spec
        assert REGISTRY.resolve(spec.name.lower()) is spec


def test_register_rejects_alias_colliding_with_name():
    # An alias folding onto its own or an earlier row's name.
    for index, spec in enumerate(TABLE):
        names = {row.name.casefold() for row in TABLE[:index + 1]}
        assert not names & {alias.casefold() for alias in spec.aliases}
        for alias in spec.aliases:
            assert REGISTRY.resolve(alias) is spec


def test_register_rejects_alias_colliding_with_alias():
    folded = [alias.casefold() for spec in TABLE for alias in spec.aliases]
    assert len(folded) == len(set(folded))
    for spec in TABLE:
        for alias in spec.aliases:
            assert REGISTRY.resolve(alias.upper()) is spec


def test_register_rejects_name_colliding_with_alias():
    # A name folding onto an earlier row's alias.
    for index, spec in enumerate(TABLE):
        aliases = {alias.casefold() for row in TABLE[:index]
                   for alias in row.aliases}
        assert spec.name.casefold() not in aliases


def _checker(spec):
    cc = spec.build(Kernel(seed=1))
    return type(Sanitizer(strict=True).attach_protocol(cc)).__name__


#: How each enumerated field is read (or derived from ``family``) off a
#: row, and exactly the values the stack serves.
FIELDS = {
    "family": (lambda spec: spec.family, {"twopl", "ceiling", "queue"}),
    "model_family": (
        lambda spec: ("ceiling" if spec.name in REGISTRY.modelled_by(
            "ceiling") else "twopl"),
        {"ceiling", "twopl"}),
    "checker": (_checker, {"CeilingChecker", "TwoPhaseChecker"}),
    "placement": (lambda spec: spec.placement, {"manager", "primary"}),
}


@pytest.mark.parametrize("field,value", [
    ("family", "optimistic"),
    ("model_family", "queue"),   # queue is not an analytic family
    ("checker", "nonsense"),
    ("placement", "everywhere"),
])
def test_register_validates_enumerated_fields(field, value):
    read, served = FIELDS[field]
    seen = {read(spec) for spec in TABLE}
    assert seen == served
    assert value not in seen


def test_a_protocol_outside_the_table_is_checked_by_duck_typing():
    class Stranger:
        name = "not-a-protocol"
        rw_ceiling = None

    sanitizer = Sanitizer(strict=True)
    assert type(sanitizer.attach_protocol(Stranger())) is CeilingChecker
    del Stranger.rw_ceiling
    assert type(sanitizer.attach_protocol(Stranger())) is TwoPhaseChecker


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def test_resolve_is_case_insensitive_over_names_and_aliases():
    assert REGISTRY.resolve("cx").name == "Cx"
    assert REGISTRY.resolve("CX").name == "Cx"
    assert REGISTRY.resolve("PCP-Exclusive").name == "Cx"
    assert "cx" in REGISTRY
    assert "nope" not in REGISTRY
    assert None not in REGISTRY


def test_resolve_unknown_raises_with_full_cast():
    for name in ("nope", None):
        with pytest.raises(UnknownProtocolError,
                           match=rf"unknown protocol {name!r}; expected "
                                 r"one of \('L', .*\(aliases: 2pl, "):
            REGISTRY.resolve(name)


def test_unknown_protocol_error_is_a_value_error():
    # Config validation surfaces table lookups as plain ValueError.
    assert issubclass(UnknownProtocolError, ValueError)


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------
def test_validate_options_rejects_unknown_and_duplicate_keys():
    twopl, ceiling = REGISTRY.resolve("L"), REGISTRY.resolve("C")
    assert twopl.validate_options(()) == {}
    with pytest.raises(ValueError, match="unknown option"):
        twopl.validate_options((("victim_polcy", "youngest"),))
    with pytest.raises(ValueError, match="supported: none"):
        ceiling.validate_options((("victim_policy", "none"),))
    with pytest.raises(ValueError, match="duplicate"):
        twopl.validate_options((("victim_policy", "none"),
                                ("victim_policy", "youngest")))


def test_validate_options_enforces_choices_and_kinds():
    spec = REGISTRY.resolve("fmlp")
    assert spec.validate_options((("victim_policy", "youngest"),)) == {
        "victim_policy": "youngest"}
    # The one option is a string with choices: anything else is out.
    for value in ("everyone", 1, None):
        with pytest.raises(ValueError, match="must be one of"):
            spec.validate_options((("victim_policy", value),))


def test_build_passes_validated_options_to_the_factory():
    cc = REGISTRY.resolve("2pl").build(
        Kernel(seed=1), (("victim_policy", "lowest_priority"),))
    assert cc.name == "L"
    assert cc.victim_policy == "lowest_priority"


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
def test_shared_registry_has_the_full_cast():
    names = REGISTRY.names()
    assert names[:5] == ("L", "P", "PI", "C", "Cx")
    for modern in ("mpcp", "dpcp", "fmlp"):
        assert modern in names


def test_shared_registry_paper_protocols_are_exactly_five():
    paper = [spec.name for spec in TABLE if spec.paper_protocol]
    assert paper == ["L", "P", "PI", "C", "Cx"]


def test_model_families_partition_the_cast():
    ceiling = set(REGISTRY.modelled_by("ceiling"))
    twopl = set(REGISTRY.modelled_by("twopl"))
    assert ceiling == {"C", "Cx", "dpcp"}
    assert ceiling & twopl == set()
    assert ceiling | twopl == set(REGISTRY.names())
