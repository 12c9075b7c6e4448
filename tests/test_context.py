"""Context merge rules for both sensitivity schemes."""

from evmlift.context import (
    DEFAULT_DEPTH,
    INITIAL_CONTEXT,
    Context,
    Scheme,
    SchemeConfig,
    cut_to,
    merge,
)
from evmlift.facts import confirmed_facts


def cfg(scheme: Scheme, depth: int | None = None) -> SchemeConfig:
    return SchemeConfig(scheme, depth or DEFAULT_DEPTH[scheme])


def test_initial_context():
    assert INITIAL_CONTEXT == Context(None, ())
    assert str(INITIAL_CONTEXT) == "<-|>"
    assert str(Context(0x38, (0x5A, 0x90))) == "<0x38|0x5a,0x90>"


def test_default_depths():
    assert DEFAULT_DEPTH[Scheme.SHRINKING] == 20
    assert DEFAULT_DEPTH[Scheme.TRANSACTIONAL] == 8


def test_public_call_replaces_public_component():
    facts = confirmed_facts(public_calls=frozenset({(0x1, 0x2)}))
    for scheme in Scheme:
        out = merge(cfg(scheme), facts, Context(0x9, (0x5,)), 0x1, 0x2)
        assert out == Context(0x2, (0x5,))


def test_public_call_beats_caller_growth():
    # a block that is both a dispatch site and a private caller transfers
    # into the function entry without pushing itself
    facts = confirmed_facts(
        public_calls=frozenset({(0x1, 0x2)}),
        private_calls=frozenset({(0x1, 0x7)}),
    )
    for scheme in Scheme:
        out = merge(cfg(scheme), facts, INITIAL_CONTEXT, 0x1, 0x2)
        assert out == Context(0x2, ())


def test_caller_prepends_and_truncates():
    facts = confirmed_facts(private_calls=frozenset({(0xD, 0xE)}))
    out = merge(cfg(Scheme.SHRINKING, 2), facts, Context(None, (0xB, 0xC)), 0xD, 0x99)
    assert out == Context(None, (0xD, 0xB))


def test_plain_edge_is_identity():
    facts = confirmed_facts()
    ctx = Context(0x4, (0x1, 0x2))
    for scheme in Scheme:
        assert merge(cfg(scheme), facts, ctx, 0x10, 0x20) is ctx


def test_matched_return_cuts_to_call_site():
    facts = confirmed_facts(
        private_calls=frozenset({(0xA, 0x30)}),
        private_returns=frozenset({0x20}),
    )
    out = merge(cfg(Scheme.SHRINKING), facts, Context(None, (0xB, 0xA, 0xC)), 0x20, 0x30)
    assert out == Context(None, (0xC,))


def test_cut_uses_first_matching_site():
    assert cut_to((0xA, 0xB, 0xA, 0xC), 0xA) == (0xB, 0xA, 0xC)
    facts = confirmed_facts(
        private_calls=frozenset({(0xA, 0x30)}),
        private_returns=frozenset({0x20}),
    )
    out = merge(cfg(Scheme.SHRINKING), facts, Context(None, (0xA, 0xB, 0xA, 0xC)), 0x20, 0x30)
    assert out == Context(None, (0xB, 0xA, 0xC))


def test_unmatched_return_grows():
    facts = confirmed_facts(private_returns=frozenset({0x20}))
    out = merge(cfg(Scheme.SHRINKING), facts, Context(None, (0xB,)), 0x20, 0x30)
    assert out == Context(None, (0x20, 0xB))


def test_caller_growth_beats_return_cut():
    # returning through a block that is itself a call site keeps the site
    facts = confirmed_facts(
        private_calls=frozenset({(0x20, 0x40), (0xA, 0x30)}),
        private_returns=frozenset({0x20}),
    )
    out = merge(cfg(Scheme.SHRINKING), facts, Context(None, (0xA,)), 0x20, 0x30)
    assert out == Context(None, (0x20, 0xA))


def test_important_edge_growth_is_scheme_gated():
    facts = confirmed_facts(important_edges=frozenset({(0x6, 0x18)}))
    ctx = Context(None, (0x1,))
    out = merge(cfg(Scheme.SHRINKING), facts, ctx, 0x6, 0x18)
    assert out == Context(None, (0x6, 0x1))
    assert merge(cfg(Scheme.TRANSACTIONAL), facts, ctx, 0x6, 0x18) is ctx
    assert merge(cfg(Scheme.SHRINKING), confirmed_facts(), ctx, 0x6, 0x18) is ctx


def test_an_important_edge_in_a_loop_cuts_back_to_its_source():
    # Each trip round a loop through an important edge, or round a recursion
    # through a call site, would push its source again; the context keeps
    # one entry for it, at the top.
    ctx = Context(None, (0x1, 0x6, 0x2))
    edges = frozenset({(0x6, 0x18)})
    important = confirmed_facts(important_edges=edges)
    assert merge(cfg(Scheme.SHRINKING), important, ctx, 0x6, 0x18) == Context(None, (0x6, 0x2))
    caller = confirmed_facts(private_calls=frozenset({(0x6, 0x30)}), important_edges=edges)
    assert merge(cfg(Scheme.SHRINKING), caller, ctx, 0x6, 0x18) == Context(None, (0x6, 0x2))
    # An unmatched return on the edge still grows the context.
    returner = confirmed_facts(private_returns=frozenset({0x6}), important_edges=edges)
    grown = Context(None, (0x6, 0x1, 0x6, 0x2))
    assert merge(cfg(Scheme.SHRINKING), returner, ctx, 0x6, 0x18) == grown


def test_transactional_prepends_on_returns_too():
    facts = confirmed_facts(
        private_calls=frozenset({(0xA, 0x30)}),
        private_returns=frozenset({0x20}),
    )
    out = merge(cfg(Scheme.TRANSACTIONAL, 3), facts, Context(None, (0xA, 0xB)), 0x20, 0x30)
    assert out == Context(None, (0x20, 0xA, 0xB))
    out = merge(cfg(Scheme.TRANSACTIONAL, 3), facts, Context(None, (0xA, 0xB, 0xC)), 0xA, 0x30)
    assert out == Context(None, (0xA, 0xA, 0xB))


# A two-level call chain: an outer call frames an inner call plus return,
# then returns itself. Shrinking should land back in the entry context.
CHAIN_FACTS = confirmed_facts(
    private_calls=frozenset({(0x1CA, 0x1D3), (0x1B9, 0x1C3)}),
    private_returns=frozenset({0x1A0, 0x1A8}),
)
CHAIN_EDGES = [
    (0x1CA, 0x1B0),
    (0x1B0, 0x1B9),
    (0x1B9, 0x1C0),
    (0x1C0, 0x1A8),
    (0x1A8, 0x1C3),
    (0x1C3, 0x1A0),
    (0x1A0, 0x1D3),
]


def walk(scheme: Scheme, depth: int) -> list[Context]:
    ctx = Context(None, (0xA,))
    out = [ctx]
    for cur, nxt in CHAIN_EDGES:
        ctx = merge(SchemeConfig(scheme, depth), CHAIN_FACTS, ctx, cur, nxt)
        out.append(ctx)
    return out


def test_shrinking_restores_entry_context_after_chain():
    states = walk(Scheme.SHRINKING, 4)
    assert [c.private for c in states] == [
        (0xA,),
        (0x1CA, 0xA),
        (0x1CA, 0xA),
        (0x1B9, 0x1CA, 0xA),
        (0x1B9, 0x1CA, 0xA),
        (0x1CA, 0xA),
        (0x1CA, 0xA),
        (0xA,),
    ]
    assert states[-1] == states[0]


def test_transactional_evicts_entry_element_on_chain():
    states = walk(Scheme.TRANSACTIONAL, 4)
    assert states[-1].private == (0x1A0, 0x1A8, 0x1B9, 0x1CA)
    assert 0xA not in states[-1].private
