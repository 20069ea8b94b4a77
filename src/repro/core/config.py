"""One run's options, declared, defaulted and checked in one place.

:class:`RunConfig` holds the knobs of one CutQC run (paper Fig. 5).
``CutQC``, ``VariantExecutor``, the service's ``JobSpec`` and the CLI
build one and read it; none declares a default or checks an option
itself.  The runtime handles — a custom ``backend=`` callable and a
``worker_pool=`` — are not options and stay outside.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..cutting.searcher import DEFAULT_MAX_CUTS, DEFAULT_MAX_SUBCIRCUITS, METHODS
from ..cutting.variants import NoisyEvalSpec
from ..devices import DevicePool, VirtualDevice, get_device
from ..postprocess.engine import DEFAULT_STRATEGY, STRATEGIES
from ..sim.noise import NoiseModel
from ..utils import check_count

__all__ = ["RunConfig"]


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {tuple(choices)}, got {value!r}")


def _parse_pool(spec: str, seed: Optional[int]) -> DevicePool:
    """A DevicePool from ``preset[:count],...`` (e.g. ``bogota:4``); the
    copies of one preset take consecutive seeds from ``seed``."""
    devices = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, count = entry.partition(":")
        copies = int(count) if count else 1
        if copies < 1:
            raise ValueError(f"pool entry {entry!r} has a non-positive count")
        for copy in range(copies):
            devices.append(
                get_device(name, seed=None if seed is None else seed + copy)
            )
    return DevicePool(devices)


@dataclass(frozen=True)
class RunConfig:
    """Every option of one CutQC run; construction refuses a bad one.

    Cut search
        ``max_subcircuit_qubits`` is the device size ``D`` (``None``
        only for an evaluate-only config, e.g. a bare
        :class:`~repro.core.executor.VariantExecutor`);
        ``max_subcircuits`` and ``max_cuts`` bound the search, ``method``
        picks its solver (see :func:`~repro.cutting.searcher.find_cuts`),
        and explicit ``cuts`` — ``(wire, wire_index)`` points — skip it.
    Evaluation
        ``device`` (a preset name or a
        :class:`~repro.devices.device.VirtualDevice`) or ``pool`` (a
        :class:`~repro.devices.pool.DevicePool` or a ``preset[:count],...``
        spec) runs the variants through the batched noisy engine; without
        either they run exactly.  ``device_shots`` is the shots per
        variant on either (``None`` = each device's own default, ``0`` =
        noise-only distributions); ``trajectories`` and ``noisy_method``
        (``"trajectory"`` or ``"density"``) pick the noisy estimator.
        ``seed`` roots every noise stream — device injections and shot
        draws, and the per-copy device seeds of a ``pool`` spec.
    Query
        ``strategy`` is the default contraction strategy (``"kron"``,
        ``"tensor_network"`` or ``"auto"``, a cost-model pick).

    The noisy-engine defaults and rules (``noisy_method``,
    ``trajectories``, ``device_shots``, ``seed``, no calibrated device)
    are :class:`~repro.cutting.variants.NoisyEvalSpec`'s: the config
    builds the spec of every device it names, or the zero-noise spec when
    it names none, and so refuses whatever the spec refuses.  The config
    also owns what the artifact store keys a run on: :meth:`cut_options`
    and :meth:`evaluation_identity`.
    """

    max_subcircuit_qubits: Optional[int] = None
    max_subcircuits: int = DEFAULT_MAX_SUBCIRCUITS
    max_cuts: int = DEFAULT_MAX_CUTS
    method: str = "auto"
    _: KW_ONLY
    cuts: Optional[Tuple[Tuple[int, int], ...]] = None
    device: Union[None, str, VirtualDevice] = None
    device_shots: Optional[int] = None
    pool: Union[None, str, DevicePool] = None
    trajectories: int = NoisyEvalSpec.trajectories
    noisy_method: str = NoisyEvalSpec.method
    seed: Optional[int] = None
    strategy: str = DEFAULT_STRATEGY

    def __post_init__(self) -> None:
        if self.max_subcircuit_qubits is not None:
            check_count("max_subcircuit_qubits", self.max_subcircuit_qubits, 2)
        check_count("max_subcircuits", self.max_subcircuits, 2)
        check_count("max_cuts", self.max_cuts)
        _check_choice("method", self.method, METHODS)
        _check_choice("strategy", self.strategy, STRATEGIES)
        if self.cuts is not None:
            cuts = tuple((int(wire), int(index)) for wire, index in self.cuts)
            object.__setattr__(self, "cuts", cuts)
        if self.device is not None and self.pool is not None:
            raise ValueError("pass either a pool or a device, not both")
        device = self.device
        if isinstance(device, str):
            device = get_device(device, seed=self.seed)
        elif device is not None and not isinstance(device, VirtualDevice):
            raise ValueError(
                f"device must be a preset name or a VirtualDevice, got "
                f"{type(device).__name__}"
            )
        pool = self.pool
        if isinstance(pool, str):
            pool = _parse_pool(pool, self.seed)
        object.__setattr__(self, "_device", device)
        object.__setattr__(self, "_pool", pool)
        for each in self.devices() or [None]:
            self.noisy_spec(each)

    @classmethod
    def of(cls, source, **options) -> "RunConfig":
        """The config of ``options`` plus every field ``source`` (a job
        spec, parsed arguments) holds an attribute of that name for."""
        for name in cls.__dataclass_fields__:
            if name not in options and hasattr(source, name):
                options[name] = getattr(source, name)
        return cls(**options)

    # ------------------------------------------------------------------
    @property
    def virtual_device(self) -> Optional[VirtualDevice]:
        """The single evaluation device, resolved from a preset name."""
        return self._device

    @property
    def device_pool(self) -> Optional[DevicePool]:
        """The evaluation device pool, parsed from a spec string."""
        return self._pool

    def devices(self) -> List[VirtualDevice]:
        """Every device this config evaluates on (none when exact)."""
        if self._pool is not None:
            return list(self._pool.devices)
        return [self._device] if self._device is not None else []

    def noisy_spec(self, device: Optional[VirtualDevice]) -> NoisyEvalSpec:
        """The batched noisy evaluation of ``device`` under this config
        (the zero-noise spec for ``None``)."""
        shots = self.device_shots
        if shots is None and device is not None:
            shots = device.shots
        return NoisyEvalSpec(
            noise=NoiseModel() if device is None else None,
            device=device,
            method=self.noisy_method,
            trajectories=self.trajectories,
            shots=shots,
            seed=self.seed,
        )

    # -- the store's keys -----------------------------------------------
    def cut_options(self) -> Dict:
        """The cut stage's identity: equal circuits under equal
        ``cut_options()`` produce the same cut, so the pair keys cut
        checkpoints (:func:`~repro.service.store.cut_fingerprint`)."""
        return {
            "max_subcircuit_qubits": self.max_subcircuit_qubits,
            "max_subcircuits": self.max_subcircuits,
            "max_cuts": self.max_cuts,
            "method": self.method,
            "cuts": None if self.cuts is None else list(self.cuts),
        }

    def evaluation_identity(self) -> Dict:
        """The evaluate stage's identity beside the cut key: the
        ``backend``, ``shots``, ``seed`` and ``config`` arguments of
        :func:`~repro.service.store.evaluation_fingerprint`.

        ``backend`` is a versioned tag — ``:v3`` for exact amplitudes and
        for both noisy methods' ``(4^rho, 3^O, 2^w)`` distributions — so
        artifacts cached under an older engine, layout or noise stream
        recompute instead of colliding.  An exact run leaves shots, seed
        and trajectories out: they do not shape its tensors and would
        only fragment the warm cache.
        """
        if not self.devices():
            return {"backend": "statevector:batched:v3"}
        if self.pool is None:
            label = self.device if isinstance(self.device, str) else self._device.name
            backend = f"device:{label}"
        else:
            backend = "pool:" + ",".join(d.name for d in self._pool.devices)
        return {
            "backend": f"{backend}:{self.noisy_method}:batched:v3",
            "shots": self.device_shots,
            "seed": self.seed,
            "config": {"trajectories": self.trajectories},
        }
