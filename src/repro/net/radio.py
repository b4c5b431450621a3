"""Radio configuration: transmission ranges, bitrate, loss model.

The paper's setup (§4.1): IEEE 802.11 link layer with a nominal bit-rate
of 11 Mbps; sensors transmit at 63 m to save power while the manager and
maintenance robots transmit at 250 m.  We model the radio as a unit-disk
per sender — a frame from ``u`` reaches every live node within
``range(u)`` metres.  Links are therefore *directional*: a robot can reach
a sensor 200 m away, but that sensor cannot reply directly.  This
asymmetry is load-bearing for the paper's Figure 3 (repair requests
traverse fewer hops than failure reports because the sending manager has
the long radio).
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "RadioConfig",
    "SENSOR_RANGE_M",
    "ROBOT_RANGE_M",
    "NOMINAL_BITRATE_BPS",
    "sensor_radio",
    "robot_radio",
]

#: Sensor transmission range from the paper (§4.1).
SENSOR_RANGE_M = 63.0
#: Manager / maintenance robot transmission range from the paper (§4.1).
ROBOT_RANGE_M = 250.0
#: Nominal 802.11b bit-rate from the paper (§4.1), every radio's link
#: rate; a frame's air time is its size over this.
NOMINAL_BITRATE_BPS = 11_000_000.0


@dataclasses.dataclass(frozen=True, slots=True)
class RadioConfig:
    """Per-node radio parameters.

    Parameters
    ----------
    range_m:
        Unit-disk transmission range in metres.
    loss_rate:
        Independent Bernoulli probability that any given receiver misses
        a frame.  0 (default) models the paper's observed 100 % delivery;
        positive values exercise the retransmission machinery.
    """

    range_m: float
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.range_m <= 0:
            raise ValueError(f"non-positive radio range: {self.range_m}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate outside [0, 1): {self.loss_rate}")


def sensor_radio(loss_rate: float = 0.0) -> RadioConfig:
    """The paper's sensor radio: 63 m range at 11 Mbps."""
    return RadioConfig(range_m=SENSOR_RANGE_M, loss_rate=loss_rate)


def robot_radio(loss_rate: float = 0.0) -> RadioConfig:
    """The paper's robot/manager radio: 250 m range at 11 Mbps."""
    return RadioConfig(range_m=ROBOT_RANGE_M, loss_rate=loss_rate)
