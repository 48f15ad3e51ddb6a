"""Smart counters: the round-robin-group fetch-and-increment construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import FIELD_SCRATCH
from repro.core.services.base import SmartCounterBank
from repro.core.smart_counter import build_counter_group, counter_value
from repro.openflow.actions import GroupAction, Instructions
from repro.openflow.group import GroupType
from repro.openflow.match import Match
from repro.openflow.packet import Packet
from repro.openflow.switch import Switch


def counter_switch(group):
    """A switch whose one table-0 entry applies *group*."""
    switch = Switch(0, num_ports=1)
    switch.add_group(group)
    switch.install(0, Match(), Instructions([GroupAction(group.group_id)]))
    return switch


class TestCounterGroup:
    def _switch_with_counter(self, modulus):
        return counter_switch(build_counter_group(1, modulus))

    def _fetch(self, switch):
        packet = Packet()
        switch.process(packet, in_port=1)
        return packet.get(FIELD_SCRATCH)

    def test_is_select_group(self):
        group = build_counter_group(1, 4)
        assert group.group_type is GroupType.SELECT
        assert len(group.buckets) == 4

    def test_fetch_returns_pre_increment_value(self):
        switch = self._switch_with_counter(4)
        assert [self._fetch(switch) for _ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_counter_value_tracks_cursor(self):
        switch = self._switch_with_counter(3)
        group = switch.groups.get(1)
        assert counter_value(group) == 0
        self._fetch(switch)
        assert counter_value(group) == 1

    def test_custom_field_name(self):
        switch = counter_switch(build_counter_group(2, 3, field_name="mycnt"))
        packet = Packet()
        switch.process(packet, in_port=1)
        switch.process(packet, in_port=1)
        assert packet.get("mycnt") == 1

    def test_too_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            build_counter_group(1, 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 16), st.integers(1, 60))
    def test_wraps_mod_k(self, modulus, fetches):
        switch = self._switch_with_counter(modulus)
        values = [self._fetch(switch) for _ in range(fetches)]
        assert values == [i % modulus for i in range(fetches)]


class TestSmartCounterBank:
    def test_fetch_inc_semantics(self):
        bank = SmartCounterBank()
        assert bank.fetch_inc("c", 3) == 0
        assert bank.fetch_inc("c", 3) == 1
        assert bank.fetch_inc("c", 3) == 2
        assert bank.fetch_inc("c", 3) == 0

    def test_peek_does_not_increment(self):
        bank = SmartCounterBank()
        bank.fetch_inc("c", 5)
        assert bank.peek("c") == 1
        assert bank.peek("c") == 1

    def test_peek_unknown_counter(self):
        assert SmartCounterBank().peek("nope") == 0

    def test_independent_counters(self):
        bank = SmartCounterBank()
        bank.fetch_inc("a", 4)
        bank.fetch_inc("a", 4)
        bank.fetch_inc("b", 4)
        assert bank.peek("a") == 2
        assert bank.peek("b") == 1

    def test_modulus_fixed_at_creation(self):
        bank = SmartCounterBank()
        bank.fetch_inc("c", 2)
        bank.fetch_inc("c", 99)  # modulus argument ignored after creation
        assert bank.peek("c") == 0

    def test_default_modulus(self):
        bank = SmartCounterBank(default_modulus=3)
        for _ in range(4):
            bank.fetch_inc("c")
        assert bank.peek("c") == 1

    def test_names_sorted(self):
        bank = SmartCounterBank()
        bank.fetch_inc("z")
        bank.fetch_inc("a")
        assert bank.names() == ["a", "z"]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 50))
    def test_bank_and_group_agree(self, modulus, fetches):
        """The interpreted bank and the compiled group are the same counter."""
        bank = SmartCounterBank()
        switch = counter_switch(build_counter_group(1, modulus))
        for _ in range(fetches):
            packet = Packet()
            switch.process(packet, in_port=1)
            assert bank.fetch_inc("c", modulus) == packet.get(FIELD_SCRATCH)
