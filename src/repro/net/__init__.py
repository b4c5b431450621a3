"""Wireless network substrate.

Unit-disk radios with the paper's per-class ranges (sensors 63 m,
robots/manager 250 m), a shared broadcast channel with per-category
transmission accounting, per-node MAC serialisation with jitter and
optional ARQ, neighbour tables, and periodic beaconing.  The root
re-exports only the names callers import from it; constants such as
the radio ranges and frame sizes live in their submodules.
"""

from repro.net.beacon import BeaconService
from repro.net.channel import Channel
from repro.net.frames import (
    BROADCAST,
    Category,
    Frame,
    NodeAnnouncement,
    Packet,
)
from repro.net.mac import Mac
from repro.net.neighbors import NeighborEntry, NeighborTable
from repro.net.node import NetworkNode
from repro.net.radio import RadioConfig, robot_radio, sensor_radio
from repro.net.spatial import SpatialGrid

__all__ = [
    "BROADCAST",
    "BeaconService",
    "Category",
    "Channel",
    "Frame",
    "Mac",
    "NeighborEntry",
    "NeighborTable",
    "NetworkNode",
    "NodeAnnouncement",
    "Packet",
    "RadioConfig",
    "SpatialGrid",
    "robot_radio",
    "sensor_radio",
]
