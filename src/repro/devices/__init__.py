"""Virtual NISQ devices, presets and the transpiler substrate."""

from .device import VirtualDevice
from .pool import DevicePool
from .calibration import CalibratedDevice, Calibration, noise_adaptive_layout
from .mitigation import MitigatedBackend, calibrate_confusion_matrix, mitigate_distribution
from .presets import (
    DEVICE_PRESETS,
    bogota,
    fig1_device_suite,
    get_device,
    grid_coupling,
    johannesburg,
    line_coupling,
    make_device,
    melbourne,
    ring_coupling,
    rochester,
    vigo,
)
from .transpiler import (
    TranspiledCircuit,
    compact_circuit,
    decompose_to_native,
    select_layout,
    transpile,
)

__all__ = [
    "VirtualDevice",
    "DevicePool",
    "CalibratedDevice",
    "Calibration",
    "noise_adaptive_layout",
    "MitigatedBackend",
    "calibrate_confusion_matrix",
    "mitigate_distribution",
    "DEVICE_PRESETS",
    "bogota",
    "fig1_device_suite",
    "get_device",
    "grid_coupling",
    "johannesburg",
    "line_coupling",
    "make_device",
    "melbourne",
    "ring_coupling",
    "rochester",
    "vigo",
    "TranspiledCircuit",
    "compact_circuit",
    "decompose_to_native",
    "select_layout",
    "transpile",
]
