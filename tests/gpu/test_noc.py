"""Unit tests for the crossbar NoC model."""

import pytest

from repro.gpu.noc import Crossbar
from repro.sim.engine import Engine


def build(n_in=4, n_out=2, base_latency=10):
    engine = Engine()
    noc = Crossbar(engine, n_in, n_out, base_latency)
    return engine, noc


class TestDelivery:
    def test_single_packet_latency(self):
        engine, noc = build()
        arrived = []
        noc.send(0, 0, flits=4,
                 on_delivered=lambda _: arrived.append(engine.now), arg=None)
        engine.run()
        assert arrived == [4 + 10]

    def test_same_port_serializes(self):
        """Two packets to one output port queue behind each other."""
        engine, noc = build()
        arrived = []
        noc.send(0, 1, 4, lambda _: arrived.append(engine.now), None)
        noc.send(1, 1, 4, lambda _: arrived.append(engine.now), None)
        engine.run()
        assert arrived == [14, 18]

    def test_different_ports_parallel(self):
        engine, noc = build()
        arrived = []
        noc.send(0, 0, 4, lambda _: arrived.append(engine.now), None)
        noc.send(1, 1, 4, lambda _: arrived.append(engine.now), None)
        engine.run()
        assert arrived == [14, 14]

    def test_port_frees_over_time(self):
        engine, noc = build()
        arrived = []
        noc.send(0, 0, 4, lambda _: arrived.append(engine.now), None)
        engine.run()
        noc.send(0, 0, 4, lambda _: arrived.append(engine.now), None)
        engine.run()
        # Second packet starts fresh, not queued.
        assert arrived[1] - arrived[0] == 14


class TestStats:
    def test_latency_recorded(self):
        engine, noc = build()
        noc.send(0, 0, 4, lambda _: None, None)
        noc.send(0, 0, 4, lambda _: None, None)
        engine.run()
        assert noc.stats.packets == 2
        assert noc.stats.flits == 8
        assert noc.stats.mean_latency == pytest.approx((14 + 18) / 2)
        assert noc.stats.max_latency == 18

    def test_backlog(self):
        engine, noc = build()
        noc.send(0, 0, 4, lambda _: None, None)
        noc.send(0, 0, 4, lambda _: None, None)
        assert noc.port_backlog(0) == 8
        assert noc.port_backlog(1) == 0


class TestValidation:
    def test_bad_ports(self):
        engine, noc = build()
        with pytest.raises(ValueError):
            noc.send(99, 0, 1, lambda _: None, None)
        with pytest.raises(ValueError):
            noc.send(0, 99, 1, lambda _: None, None)

    def test_zero_flits(self):
        engine, noc = build()
        with pytest.raises(ValueError):
            noc.send(0, 0, 0, lambda _: None, None)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            Crossbar(Engine(), 0, 4, 1)
        with pytest.raises(ValueError):
            Crossbar(Engine(), 4, 4, -1)
