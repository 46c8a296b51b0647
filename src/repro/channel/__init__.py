"""Channel models and link-quality metrics."""

from repro.channel.base import ChannelModel, MeasuredChannel
from repro.channel.etx import EtxCurve, build_etx_curve
from repro.channel.matrix import path_loss_matrix
from repro.channel.log_distance import (
    FSPL_1M_2_4GHZ,
    LogDistanceModel,
    free_space_reference_db,
)
from repro.channel.metrics import (
    ETX_CAP,
    bit_error_rate,
    expected_transmissions,
    packet_error_rate,
    rss_dbm,
    snr_db,
    snr_for_ber,
    snr_for_etx,
)
from repro.channel.multiwall import MultiWallModel
from repro.channel.shadowing import ShadowedChannel

__all__ = [
    "ETX_CAP",
    "FSPL_1M_2_4GHZ",
    "ChannelModel",
    "EtxCurve",
    "LogDistanceModel",
    "MeasuredChannel",
    "MultiWallModel",
    "ShadowedChannel",
    "bit_error_rate",
    "build_etx_curve",
    "expected_transmissions",
    "free_space_reference_db",
    "packet_error_rate",
    "path_loss_matrix",
    "rss_dbm",
    "snr_db",
    "snr_for_ber",
    "snr_for_etx",
]
