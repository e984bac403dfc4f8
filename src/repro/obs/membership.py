"""Membership section sinks: topology epochs into run manifests.

:class:`~repro.cluster.topology.ClusterTopology` renders its epoch and
event history as one JSON-able *membership section*
(:meth:`~repro.cluster.topology.ClusterTopology.membership_section`);
this module's :class:`~repro.obs.channel.Channel` carries those sections
from wherever a churn experiment runs into the manifest builder — the
same nested thread-local sinks as every observer channel, so a
session-level collector sees everything a per-experiment collector does.

Manifests store the collected sections under the ``membership`` key
(schema version 7, :mod:`repro.obs.runinfo`); fixed-topology experiments
publish nothing and the key stays an empty list.
"""

from __future__ import annotations

from typing import Any

from repro.obs.channel import Channel

__all__ = [
    "collect_membership",
    "publish_membership",
]

#: Membership section sinks; the channel carries no ambient config.
MEMBERSHIP: Channel[None] = Channel("membership")
collect_membership = MEMBERSHIP.collect


def publish_membership(section: dict[str, Any]) -> None:
    """Hand one membership section to every active collector.

    ``section`` must carry at least the ``epochs`` list (the manifest
    validator enforces this); a ``scheme`` label is conventional when an
    experiment publishes one section per placement strategy.
    """
    if not isinstance(section, dict) or "epochs" not in section:
        raise ValueError(
            "a membership section must be a dict with an 'epochs' list"
        )
    MEMBERSHIP.publish(section)
