"""Tests for the domain-pack plugin API and the conformance harness.

Three layers:

* registry lifecycle: atomic (all-or-nothing) alias registration,
  ``unregister_domain`` and the ``temporary_domain`` / ``temporary_pack``
  context managers, and pack/entry lock-step;
* the conformance harness run against every built-in pack (the
  registry-parametrized positive suite);
* negative controls: a deliberately broken pack — mutated decision
  procedure, false substrate claim, wrong declared finiteness — must make
  the harness fail loudly on exactly the right check.
"""

import pytest

from repro.conformance import (
    CHECK_NAMES,
    ConformanceReport,
    run_conformance,
    run_pack_conformance,
)
from repro.domains import (
    DomainEntry,
    DomainPack,
    PackCorpus,
    PackQuery,
    PackSentence,
    UnknownDomainError,
    available_domains,
    available_packs,
    domain_aliases,
    get_entry,
    get_pack,
    register_domain,
    resolve_domain_name,
    temporary_domain,
    temporary_pack,
    unregister_domain,
)
from repro.domains.cyclic import CyclicSuccessorDomain
from repro.domains.equality import EqualityDomain
from repro.logic.builders import eq, exists, var


# ---------------------------------------------------------------------------
# Registry lifecycle
# ---------------------------------------------------------------------------


def _probe_entry(name="probe_domain", aliases=("probe",)):
    return DomainEntry(name=name, factory=EqualityDomain, aliases=aliases)


def test_register_domain_is_atomic_on_alias_collision():
    # "eq" already aliases the equality domain: registration must fail
    # without writing *anything* — neither the canonical name nor the first,
    # non-colliding alias may leak into the registry.
    entry = _probe_entry(aliases=("fresh_alias", "eq"))
    before_domains = available_domains()
    before_aliases = domain_aliases()
    with pytest.raises(ValueError, match="eq"):
        register_domain(entry)
    assert available_domains() == before_domains
    assert domain_aliases() == before_aliases
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("fresh_alias")
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("probe_domain")


def test_unregister_domain_removes_entry_and_every_alias():
    entry = register_domain(_probe_entry())
    assert resolve_domain_name("probe") == "probe_domain"
    removed = unregister_domain("probe")  # by alias
    assert removed is entry
    assert "probe_domain" not in available_domains()
    with pytest.raises(UnknownDomainError):
        resolve_domain_name("probe")


def test_unregister_unknown_domain_raises():
    with pytest.raises(UnknownDomainError):
        unregister_domain("never_registered")


def test_temporary_domain_cleans_up_even_on_error():
    entry = _probe_entry()
    with pytest.raises(RuntimeError):
        with temporary_domain(entry):
            assert get_entry("probe") is entry
            raise RuntimeError("boom")
    assert "probe_domain" not in available_domains()


def test_every_domain_has_a_pack_and_flags_agree():
    assert set(available_packs()) == set(available_domains())
    for name in available_packs():
        pack = get_pack(name)
        entry = get_entry(name)
        assert pack.to_entry() == entry


def test_get_pack_resolves_aliases():
    assert get_pack("qlinear").name == "rationals_with_order"
    assert get_pack("zdiff").name == "integer_differences"
    assert get_pack("zmod").name == "cyclic_successor"
    assert get_pack("shortlex").name == "shortlex_strings"


def test_get_pack_reports_packless_domains():
    with temporary_domain(_probe_entry()):
        with pytest.raises(UnknownDomainError, match="without a pack"):
            get_pack("probe")


def test_temporary_pack_registers_domain_and_cleans_up():
    pack = DomainPack(name="probe_pack", factory=EqualityDomain, aliases=("pp",))
    with temporary_pack(pack):
        assert "probe_pack" in available_domains()
        assert get_pack("pp") is pack
    assert "probe_pack" not in available_domains()
    assert "probe_pack" not in available_packs()


# ---------------------------------------------------------------------------
# The conformance suite, positive: every built-in pack passes every check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pack_name", sorted(available_packs()))
def test_builtin_pack_conformance(pack_name):
    report = run_pack_conformance(pack_name, seeds=("0",))
    assert report.ok, report.describe()
    assert {check.check for check in report.checks} == set(CHECK_NAMES)


def test_run_conformance_over_named_subset():
    report = run_conformance(["qlinear", "cyclic"], seeds=("0",))
    assert isinstance(report, ConformanceReport)
    assert report.ok
    assert [r.pack for r in report.reports] == [
        "rationals_with_order", "cyclic_successor",
    ]
    assert "all conformant" in report.describe()


def test_new_packs_declare_the_required_evidence():
    for name in ("rationals_with_order", "integer_differences",
                 "cyclic_successor", "shortlex_strings"):
        pack = get_pack(name)
        assert pack.sentences(), name
        assert pack.corpora(), name
        assert all(c.state_factory is not None for c in pack.corpora()), name
        assert pack.safety_factory is not None, name


# ---------------------------------------------------------------------------
# Negative controls: the harness must fail loudly on a broken pack
# ---------------------------------------------------------------------------


class _LyingCyclicDomain(CyclicSuccessorDomain):
    """A cyclic domain whose decision procedure answers backwards."""

    name = "broken_cyclic"

    def decide(self, sentence):
        return not super().decide(sentence)


def _broken_sentences():
    x = var("x")
    from repro.logic.builders import apply

    return (
        # Declared truth is the *real* truth; the lying domain gets it wrong.
        PackSentence("no-fixpoint", exists("x", eq(apply("succ", x), x)), False),
    )


def test_harness_fails_on_mutated_decision_procedure():
    base = get_pack("cyclic_successor")
    broken = DomainPack(
        name="broken_cyclic",
        factory=_LyingCyclicDomain,
        finite_carrier=True,
        sentences_factory=_broken_sentences,
        corpora_factory=base.corpora_factory,
    )
    with temporary_pack(broken):
        report = run_pack_conformance("broken_cyclic", seeds=("0",))
    assert not report.ok
    failed = {check.check for check in report.failures}
    assert "decision-procedure" in failed
    assert "no-fixpoint" in report.describe()


def test_harness_fails_on_false_substrate_claim():
    # Claims the compiled-algebra substrate for the successor domain, whose
    # function-heavy queries never compile: the claims check must notice
    # that the substrate never engaged.
    from repro.domains.successor import SuccessorDomain
    from repro.relational.schema import DatabaseSchema, RelationSchema
    from repro.relational.state import DatabaseState

    x = var("x")
    schema = DatabaseSchema((RelationSchema("S", 1, ("value",)),))

    def corpora():
        from repro.logic.builders import apply

        state = DatabaseState(schema, {"S": [(2,), (5,)]})
        return (
            PackCorpus(
                name="succ-only",
                schema=schema,
                canonical_state=state,
                queries=(
                    PackQuery("succ-of-member",
                              exists("y", eq(x, apply("succ", var("y")))), None),
                ),
            ),
        )

    braggart = DomainPack(
        name="braggart_successor",
        factory=SuccessorDomain,
        substrates=("compiled",),  # false: succ terms never compile
        corpora_factory=corpora,
    )
    with temporary_pack(braggart):
        report = run_pack_conformance("braggart_successor", seeds=("0",))
    assert not report.ok
    assert any(
        check.check == "substrate-equivalence" and "never engaged" in check.details
        for check in report.failures
    )


def test_harness_fails_on_wrong_declared_finiteness():
    # Declares the provably infinite complement query finite: the
    # guard-soundness check must flag the disagreement with the guard.
    base = get_pack("equality")

    def corpora():
        for corpus in base.corpora():
            wrong = tuple(
                PackQuery(pq.name, pq.query, True) if pq.name == "not-a-father"
                else pq
                for pq in corpus.queries
            )
            return (
                PackCorpus(
                    name=corpus.name,
                    schema=corpus.schema,
                    canonical_state=corpus.canonical_state,
                    queries=wrong,
                    state_factory=corpus.state_factory,
                ),
            )

    wrong_pack = DomainPack(
        name="wrong_equality",
        factory=base.factory,
        safety_factory=base.safety_factory,
        finite_implies_domain_independent=True,
        corpora_factory=corpora,
    )
    with temporary_pack(wrong_pack):
        report = run_pack_conformance("wrong_equality", seeds=("0",))
    assert not report.ok
    assert any(check.check == "guard-soundness" for check in report.failures)


def test_cli_entry_point_exit_codes():
    from repro.conformance.__main__ import main

    assert main(["cyclic", "--seeds", "0"]) == 0
    broken = DomainPack(
        name="broken_cyclic",
        factory=_LyingCyclicDomain,
        finite_carrier=True,
        sentences_factory=_broken_sentences,
    )
    with temporary_pack(broken):
        assert main(["broken_cyclic", "--seeds", "0"]) == 1


# ---------------------------------------------------------------------------
# Harness internals worth pinning down
# ---------------------------------------------------------------------------


def test_edge_check_requires_negation_or_universal_shape():
    x = var("x")
    base = get_pack("equality")

    def tame_corpora():
        corpus = base.corpora()[0]
        only_positive = tuple(
            pq for pq in corpus.queries
            if pq.name in ("fathers-and-sons", "grandfathers")
        )
        return (
            PackCorpus(
                name=corpus.name,
                schema=corpus.schema,
                canonical_state=corpus.canonical_state,
                queries=only_positive,
                state_factory=corpus.state_factory,
            ),
        )

    tame = DomainPack(
        name="tame_equality",
        factory=base.factory,
        corpora_factory=tame_corpora,
    )
    with temporary_pack(tame):
        report = run_pack_conformance("tame_equality", seeds=("0",))
    assert any(
        check.check == "edge-corpora" and "negation" in check.details
        for check in report.failures
    )


def test_report_describe_mentions_every_pack():
    report = run_conformance(["eq", "shortlex"], seeds=("0",))
    text = report.describe()
    assert "equality" in text and "shortlex_strings" in text
    assert "2 pack(s)" in text
