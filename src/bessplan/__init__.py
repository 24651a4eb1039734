"""Voltage-violation screening and battery-storage planning for radial feeders."""

from .netmodel import (
    LoadProfileSet,
    Network,
    NetworkError,
    electrical_distance,
    leaf_buses,
    load_network,
    scale_profiles,
)

__all__ = [
    "LoadProfileSet",
    "Network",
    "NetworkError",
    "electrical_distance",
    "leaf_buses",
    "load_network",
    "scale_profiles",
]

__version__ = "0.1.0"
