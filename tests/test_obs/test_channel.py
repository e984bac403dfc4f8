"""The observer channel shared by every ambient config and section sink.

One parametrized suite over all six channels — timeline, popularity,
SLO, causal, membership and batching — each driven through the public
names its module binds to the channel, so a module that stops routing
through :class:`~repro.obs.channel.Channel` fails here.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.engine import batch
from repro.obs import causal, membership, popularity, slo, timeline

# (channel, a config ``use`` accepts or None, a section ``publish`` accepts,
#  the module's own install/collect/publish names)
CASES = {
    "timeline": (
        timeline.TIMELINE, timeline.TimelineConfig(), {"scheme": "t"},
        timeline.use_timeline, timeline.collect_timelines,
        timeline.publish_timeline,
    ),
    "popularity": (
        popularity.POPULARITY, popularity.PopularityConfig(), {"scheme": "p"},
        popularity.use_popularity, popularity.collect_popularity,
        popularity.publish_popularity,
    ),
    "slo": (
        slo.SLO, slo.SLOConfig(), {"scheme": "s"},
        slo.use_slo, slo.collect_slo, slo.publish_slo,
    ),
    "causal": (
        causal.CAUSAL, causal.CausalConfig(), {"scheme": "c"},
        causal.use_causal, causal.collect_causal, causal.publish_causal,
    ),
    "membership": (
        membership.MEMBERSHIP, None, {"epochs": []},
        None, membership.collect_membership, membership.publish_membership,
    ),
    "batching": (
        batch.BATCHING, 64, {"scheme": "b"},
        batch.use_batching, batch.BATCHING.collect, batch.BATCHING.publish,
    ),
}

ALL_CHANNELS = [case[0] for case in CASES.values()]


def _run_on_thread(fn):
    out: list = []
    worker = threading.Thread(target=lambda: out.append(fn()))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    return out[0]


def assert_channels_idle() -> None:
    """No channel holds an ambient config or an open sink on this thread."""
    for channel in ALL_CHANNELS:
        assert channel.current() is None, channel.name
        assert getattr(channel._local, "sinks", []) == [], channel.name


@pytest.fixture(params=list(CASES), ids=list(CASES))
def case(request):
    yield CASES[request.param]
    assert_channels_idle()


def test_config_and_sinks_are_thread_local(case):
    channel, config, section, use, collect, publish = case
    if config is not None:
        with use(config):
            assert channel.current() is config
            assert _run_on_thread(channel.current) is None
            # A config installed on the other thread stays there too.
            def install_elsewhere():
                with use(config):
                    return channel.current()
            assert _run_on_thread(install_elsewhere) is config
        assert channel.current() is None
    with collect() as sink:
        _run_on_thread(lambda: publish(section))
        assert sink == []
        publish(section)
    assert sink == [section]


def test_nested_collectors_both_receive_each_publish(case):
    _channel, _config, section, _use, collect, publish = case
    with collect() as outer:
        publish(section)
        with collect() as inner:
            publish(section)
        publish(section)
    assert outer == [section] * 3
    assert inner == [section]


def test_equal_empty_sinks_detach_by_identity(case):
    _channel, _config, section, _use, collect, publish = case
    first: list = []
    second: list = []
    with collect(first):
        with collect(second):
            pass
        # ``first == second`` while both are empty: removing by equality
        # would have detached ``first`` and left ``second`` attached.
        publish(section)
    assert first == [section]
    assert second == []


def test_use_and_collect_unwind_when_the_block_raises(case):
    channel, config, section, use, collect, publish = case
    sink: list = []
    with pytest.raises(RuntimeError, match="boom"):
        with collect(sink):
            if config is not None:
                with use(config):
                    raise RuntimeError("boom")
            raise RuntimeError("boom")
    assert channel.current() is None
    publish(section)
    assert sink == []


def test_use_rejects_the_wrong_config_type(case):
    channel, config, _section, use, _collect, _publish = case
    with pytest.raises(TypeError):
        with (use or channel.use)("not a config"):
            pass
