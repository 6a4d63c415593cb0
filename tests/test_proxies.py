"""Tests for proxies (Definitions 2 and 3) — ablation A-4 semantics."""

import pytest
from hypothesis import given, settings

from repro.nonatomic.event import NonatomicEvent
from repro.nonatomic.proxies import (
    Proxy,
    ProxyDefinition,
    ProxyUndefinedError,
    proxy_of,
)

from .strategies import execution_with_pair


class TestDefinition2:
    def test_per_node_extrema(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 1), (1, 2)])
        lx = proxy_of(x, Proxy.L)
        ux = proxy_of(x, Proxy.U)
        assert lx.ids == {(0, 1), (1, 1)}
        assert ux.ids == {(0, 3), (1, 2)}

    def test_node_set_preserved(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert proxy_of(x, Proxy.L).node_set == x.node_set
        assert proxy_of(x, Proxy.U).node_set == x.node_set

    def test_singleton_fixed_point(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 2)])
        assert proxy_of(x, Proxy.L).ids == x.ids
        assert proxy_of(x, Proxy.U).ids == x.ids

    def test_caching(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (1, 2)])
        assert proxy_of(x, Proxy.L) is proxy_of(x, Proxy.L)
        assert proxy_of(x, Proxy.L) is not proxy_of(x, Proxy.U)

    def test_proxy_of_proxy_is_itself(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        lx = proxy_of(x, Proxy.L)
        assert proxy_of(lx, Proxy.L) == lx
        assert proxy_of(lx, Proxy.U) == lx

    def test_name_derived(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1)], name="X")
        assert proxy_of(x, Proxy.L).name == "L(X)"

    def test_cache_key_names_the_interval(self, message_exec):
        # the key batched fills store the proxy row under, no object needed
        x = NonatomicEvent(message_exec, [(0, 1), (0, 3), (1, 2)])
        assert proxy_of(x, Proxy.L).key == (x.key, "L")
        assert proxy_of(x, Proxy.U).key == (x.key, "U")
        g = proxy_of(NonatomicEvent(message_exec, [(0, 1), (0, 2)]), Proxy.L,
                     ProxyDefinition.GLOBAL)
        assert g.key == NonatomicEvent(message_exec, g.ids).key

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_definition_semantics(self, pair):
        """Def. 2: L_X = {e_i ∈ X | ∀e'_i ∈ X on the same node: e_i ≼ e'_i}."""
        ex, x, _y = pair
        lx = proxy_of(x, Proxy.L)
        expected = {
            e
            for e in x.ids
            if all(ex.leq(e, o) for o in x.ids if o[0] == e[0])
        }
        assert lx.ids == expected
        ux = proxy_of(x, Proxy.U)
        expected_u = {
            e
            for e in x.ids
            if all(ex.leq(o, e) for o in x.ids if o[0] == e[0])
        }
        assert ux.ids == expected_u


class TestDefinition3:
    def test_global_minimum_exists(self, message_exec):
        # (0,1) precedes (1,2) via the message: global min exists
        x = NonatomicEvent(message_exec, [(0, 1), (0, 2), (1, 2)])
        lx = proxy_of(x, Proxy.L, ProxyDefinition.GLOBAL)
        assert lx.ids == {(0, 1)}

    def test_global_maximum_exists(self, message_exec):
        x = NonatomicEvent(message_exec, [(0, 1), (0, 2), (1, 2)])
        ux = proxy_of(x, Proxy.U, ProxyDefinition.GLOBAL)
        assert ux.ids == {(1, 2)}

    def test_undefined_when_concurrent_minima(self, concurrent_exec):
        x = NonatomicEvent(concurrent_exec, [(0, 1), (1, 1)])
        with pytest.raises(ProxyUndefinedError):
            proxy_of(x, Proxy.L, ProxyDefinition.GLOBAL)

    def test_undefined_when_concurrent_maxima(self, concurrent_exec):
        x = NonatomicEvent(concurrent_exec, [(0, 2), (1, 2)])
        with pytest.raises(ProxyUndefinedError):
            proxy_of(x, Proxy.U, ProxyDefinition.GLOBAL)

    def test_singleton_always_defined(self, concurrent_exec):
        x = NonatomicEvent(concurrent_exec, [(0, 1)])
        assert proxy_of(x, Proxy.L, ProxyDefinition.GLOBAL).ids == {(0, 1)}

    @settings(max_examples=40, deadline=None)
    @given(pair=execution_with_pair())
    def test_global_proxy_is_subset_of_per_node(self, pair):
        """A Def.-3 proxy, when defined, is one of the Def.-2 events."""
        _ex, x, _y = pair
        for which in (Proxy.L, Proxy.U):
            per_node = proxy_of(x, which).ids
            try:
                global_ = proxy_of(x, which, ProxyDefinition.GLOBAL).ids
            except ProxyUndefinedError:
                continue
            assert global_ <= per_node
            assert len(global_) == 1


class TestProxyConsistency:
    def test_l_below_u_per_node(self, medium_exec):
        x = NonatomicEvent(
            medium_exec, [(0, 3), (0, 9), (2, 1), (2, 14), (4, 5)]
        )
        lx = proxy_of(x, Proxy.L)
        ux = proxy_of(x, Proxy.U)
        for node in x.node_set:
            assert lx.first_at(node) <= ux.first_at(node)
