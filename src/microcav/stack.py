"""Materials, layers, layer stacks and the cavity assembly.

The 1D optical world is an ordered sequence of homogeneous layers between
two semi-infinite media.  ``CavityAssembly`` describes the full
mirror / gap / membrane / gap / mirror geometry plus the transverse
parameters; ``split_at_gap`` cuts it at the fiber-side gap into two plain
``LayerStack``s, the fiber coating and the rest, for the multilayer
solver.

All objects are immutable value types; builders are pure functions, so
identical inputs always produce identical stacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from . import constants


class GeometryError(ValueError):
    """Raised when a layer, stack or assembly violates its invariants."""


@dataclass(frozen=True)
class Material:
    """Homogeneous non-dispersive optical medium.

    Parameters
    ----------
    name : str
        Label used in profiles and serialized configs.
    n : float
        Real refractive index, >= 1.
    kappa : float, optional
        Extinction coefficient, >= 0.  The complex index is ``n + 1j*kappa``
        with the exp(+ikz - iwt) sign convention, so kappa > 0 absorbs.
    """

    name: str
    n: float
    kappa: float = 0.0

    def __post_init__(self):
        if self.n < 1.0:
            raise GeometryError(f"material {self.name!r}: index {self.n} < 1")
        if self.kappa < 0.0:
            raise GeometryError(f"material {self.name!r}: kappa {self.kappa} < 0")

    @property
    def nc(self) -> complex:
        """Complex refractive index n + i*kappa."""
        return complex(self.n, self.kappa)


AIR = Material("air", 1.0)
SILICA = Material("SiO2", constants.MIRROR_N_LOW)
DIAMOND = Material("diamond", constants.N_DIAMOND)


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer of finite thickness.

    ``rough_top_nm`` is the RMS roughness of the layer's entry-side
    boundary (the interface light crosses first when traversing the stack
    from the entry medium).  For the membrane this is the surface facing
    the cavity fiber.  Roughness does not alter the coherent solution;
    it feeds the scalar scattering-loss estimate in
    :mod:`microcav.metrics`.
    """

    material: Material
    thickness_nm: float
    rough_top_nm: float = 0.0

    def __post_init__(self):
        if not self.thickness_nm > 0.0:
            raise GeometryError(
                f"layer of {self.material.name!r}: thickness {self.thickness_nm} <= 0"
            )
        if self.rough_top_nm < 0.0:
            raise GeometryError("rough_top_nm < 0")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers between two semi-infinite media.

    Layer 0 is adjacent to ``entry``; the last layer is adjacent to
    ``exit``.  Light in :func:`microcav.tmm.amplitude_coefficients` is
    incident from the entry side.
    """

    entry: Material
    layers: tuple[Layer, ...]
    exit: Material

    def __post_init__(self):
        if not self.layers:
            raise GeometryError("stack has no layers")
        object.__setattr__(self, "layers", tuple(self.layers))

    def boundaries_nm(self) -> list[float]:
        """z of every interface, starting at 0 (entry surface)."""
        z = [0.0]
        for l in self.layers:
            z.append(z[-1] + l.thickness_nm)
        return z

    def reversed(self) -> "LayerStack":
        """Same physical structure traversed from the other side."""
        return LayerStack(self.exit, tuple(reversed(self.layers)), self.entry)


@dataclass(frozen=True)
class Mirror:
    """Dielectric mirror coating fragment.

    ``layers`` are ordered from the substrate toward the cavity, so the
    last layer faces the intracavity gap.  ``excess_loss_ppm`` is the
    absorption + scatter of this mirror per bounce, used only by loss
    budgets, never by the coherent solver.
    """

    substrate: Material
    layers: tuple[Layer, ...]
    excess_loss_ppm: float = constants.MIRROR_EXCESS_LOSS_PPM

    def __post_init__(self):
        if not self.layers:
            raise GeometryError("mirror has no coating layers")
        if self.excess_loss_ppm < 0:
            raise GeometryError("excess_loss_ppm < 0")
        object.__setattr__(self, "layers", tuple(self.layers))

    def as_stack(self, facing: Material = AIR) -> LayerStack:
        """Coating as a stand-alone stack, light incident from the cavity side."""
        return LayerStack(facing, tuple(reversed(self.layers)), self.substrate)


@dataclass(frozen=True)
class CavityAssembly:
    """Plano-concave fiber cavity with an optional membrane inside.

    Geometry along the optical axis, in stack order (fiber side first):
    fiber mirror coating | air gap ``gap_nm`` | membrane | air gap
    ``gap2_nm`` | plane mirror coating.  ``implant_depth_nm`` is measured
    from the membrane surface facing the fiber.
    """

    fiber_mirror: Mirror
    gap_nm: float
    membrane: Layer | None
    gap2_nm: float
    plane_mirror: Mirror
    r_c_um: float
    implant_depth_nm: float = 0.0

    def __post_init__(self):
        if self.gap_nm < 0 or self.gap2_nm < 0:
            raise GeometryError("gaps must be >= 0")
        if self.r_c_um <= 0:
            raise GeometryError("radius of curvature must be > 0")
        if self.membrane is not None:
            if not 0.0 <= self.implant_depth_nm <= self.membrane.thickness_nm:
                raise GeometryError("implant depth outside the membrane")

    def with_gap(self, gap_nm: float) -> "CavityAssembly":
        return replace(self, gap_nm=gap_nm)

    @property
    def membrane_thickness_nm(self) -> float:
        return 0.0 if self.membrane is None else self.membrane.thickness_nm

    def geometric_length_um(self) -> float:
        """Mirror-to-mirror distance reduced for Gaussian-beam propagation.

        The membrane shortens the diffraction length by its index, the usual
        thin-slab correction for the transverse mode: L = t_g + t_d/n + t_g2.
        """
        t_d = self.membrane_thickness_nm
        n_d = 1.0 if self.membrane is None else self.membrane.material.n
        return (self.gap_nm + t_d / n_d + self.gap2_nm) * 1e-3


def build_quarter_wave_stack(
    center_wavelength_nm: float,
    n_high: float,
    n_low: float,
    pairs: int,
    substrate: Material = SILICA,
    cap: Material = AIR,
) -> LayerStack:
    """Alternating quarter-wave pairs on a substrate.

    Each pair is one low- and one high-index layer of optical thickness
    lambda/4; the high-index layer faces the cap medium, so the reflection
    seen from the cap side carries phase pi at the design wavelength (field
    node at the coating surface).  Transmission at the design wavelength
    decreases monotonically with ``pairs``.
    """
    if pairs < 1:
        raise GeometryError(f"pairs must be >= 1, got {pairs}")
    if n_high < 1.0 or n_low < 1.0:
        raise GeometryError("refractive indices must be >= 1")
    hi = Material("high-index", n_high)
    lo = Material("low-index", n_low)
    pair = (
        Layer(lo, center_wavelength_nm / (4.0 * n_low)),
        Layer(hi, center_wavelength_nm / (4.0 * n_high)),
    )
    return LayerStack(substrate, pair * pairs, cap)


def build_mirror(
    center_wavelength_nm: float = constants.MIRROR_CENTER_NM,
    n_high: float = constants.MIRROR_N_HIGH,
    n_low: float = constants.MIRROR_N_LOW,
    pairs: int = constants.MIRROR_PAIRS,
    substrate: Material = SILICA,
    excess_loss_ppm: float = constants.MIRROR_EXCESS_LOSS_PPM,
) -> Mirror:
    """Mirror fragment built from a quarter-wave coating.

    Defaults reproduce the documented coating fixture: the tuned
    ``MIRROR_N_HIGH`` makes the stack transmit ``MIRROR_TRANSMISSION_PPM``
    at the design wavelength.
    """
    qw = build_quarter_wave_stack(center_wavelength_nm, n_high, n_low, pairs, substrate)
    return Mirror(substrate, qw.layers, excess_loss_ppm)


def hard_mirror(kappa: float = 1e5, thickness_nm: float = 0.012) -> Mirror:
    """Idealized hard reflector for oracle tests (not a physical coating).

    A layer with n = 1 and large kappa reflects with phase pi - 2/kappa and
    the mode penetrates only lambda/(2 pi kappa) into it, so an empty
    cavity bounded by two of these has an effective length equal to its
    geometric gap to within picometers at the defaults.  The layer is kept
    thin enough that the attenuated feed-through field stays negligible
    next to the resonant intracavity buildup.
    """
    m = Material("ideal-reflector", 1.0, kappa)
    return Mirror(SILICA, (Layer(m, thickness_nm),), excess_loss_ppm=0.0)


def split_at_gap(assembly: CavityAssembly) -> tuple[LayerStack, LayerStack]:
    """The cavity cut open at the fiber-side air gap: (fiber, rest).

    ``fiber`` is the fiber coating and ``rest`` everything beyond the gap
    (membrane, second air gap, plane coating), each seen from the gap.  A zero
    second gap is omitted, so the membrane then sits on the plane coating.
    """
    rest: list[Layer] = []
    if assembly.membrane is not None:
        rest.append(assembly.membrane)
    if assembly.gap2_nm > 0:
        rest.append(Layer(AIR, assembly.gap2_nm))
    rest.extend(reversed(assembly.plane_mirror.layers))
    return assembly.fiber_mirror.as_stack(AIR), LayerStack(AIR, tuple(rest), assembly.plane_mirror.substrate)


# ---------------------------------------------------------------------------
# JSON assembly configs
# ---------------------------------------------------------------------------

_MIRROR_KEYS = {"center_wavelength_nm", "n_high", "n_low", "pairs", "substrate_n", "excess_loss_ppm"}
_ASSEMBLY_KEYS = {"fiber_mirror", "gap_nm", "membrane", "gap2_nm", "plane_mirror", "r_c_um", "implant_depth_nm"}
_MEMBRANE_KEYS = {"thickness_nm", "n", "sigma_rms_nm"}


def _reject_unknown(cfg: dict, known: set, what: str) -> None:
    unknown = set(cfg) - known
    if unknown:
        raise GeometryError(f"{what}: unknown keys {sorted(unknown)}")


def _mirror_from_config(cfg, what: str) -> Mirror:
    if cfg == "default" or cfg is None:
        return build_mirror()
    if not isinstance(cfg, dict):
        raise GeometryError(f"{what}: expected 'default' or an object, got {cfg!r}")
    _reject_unknown(cfg, _MIRROR_KEYS, what)
    substrate = Material("substrate", float(cfg.get("substrate_n", constants.MIRROR_N_LOW)))
    return build_mirror(
        center_wavelength_nm=float(cfg.get("center_wavelength_nm", constants.MIRROR_CENTER_NM)),
        n_high=float(cfg.get("n_high", constants.MIRROR_N_HIGH)),
        n_low=float(cfg.get("n_low", constants.MIRROR_N_LOW)),
        pairs=int(cfg.get("pairs", constants.MIRROR_PAIRS)),
        substrate=substrate,
        excess_loss_ppm=float(cfg.get("excess_loss_ppm", constants.MIRROR_EXCESS_LOSS_PPM)),
    )


def assembly_from_config(cfg: dict) -> CavityAssembly:
    """Build a CavityAssembly from a parsed JSON config document.

    Schema (all lengths nm unless suffixed otherwise)::

        {
          "fiber_mirror": "default" | {center_wavelength_nm, n_high, n_low,
                                       pairs, substrate_n, excess_loss_ppm},
          "gap_nm": float,
          "membrane": null | {"thickness_nm": float, "n": float,
                               "sigma_rms_nm": float},
          "gap2_nm": float,
          "plane_mirror": as fiber_mirror,
          "r_c_um": float,
          "implant_depth_nm": float
        }

    ``implant_depth_nm`` (default 0) places the emitters, from the membrane's
    fiber-facing surface.  Unknown keys, at the top level or in
    ``membrane``, are rejected.
    """
    required = {"gap_nm", "r_c_um"}
    missing = required - set(cfg)
    if missing:
        raise GeometryError(f"assembly config missing keys {sorted(missing)}")
    _reject_unknown(cfg, _ASSEMBLY_KEYS, "assembly config")
    membrane = None
    mcfg = cfg.get("membrane")
    if mcfg is not None:
        _reject_unknown(mcfg, _MEMBRANE_KEYS, "membrane")
        mat = Material("diamond", float(mcfg.get("n", constants.N_DIAMOND)))
        membrane = Layer(
            mat,
            float(mcfg["thickness_nm"]),
            rough_top_nm=float(mcfg.get("sigma_rms_nm", 0.0)),
        )
    return CavityAssembly(
        fiber_mirror=_mirror_from_config(cfg.get("fiber_mirror"), "fiber_mirror"),
        gap_nm=float(cfg["gap_nm"]),
        membrane=membrane,
        gap2_nm=float(cfg.get("gap2_nm", 0.0)),
        plane_mirror=_mirror_from_config(cfg.get("plane_mirror"), "plane_mirror"),
        r_c_um=float(cfg["r_c_um"]),
        implant_depth_nm=float(cfg.get("implant_depth_nm", 0.0)),
    )


def load_assembly(path: str | Path) -> CavityAssembly:
    """Read an assembly JSON config file."""
    with open(path) as fh:
        return assembly_from_config(json.load(fh))


def default_assembly_config() -> dict:
    """Config dict for the documented membrane-cavity fixture."""
    return {
        "fiber_mirror": "default",
        "gap_nm": 10000.0,
        "membrane": {
            "thickness_nm": 1420.0,
            "n": constants.N_DIAMOND,
            "sigma_rms_nm": 3.6,
        },
        "gap2_nm": 250.0,
        "plane_mirror": "default",
        "r_c_um": 45.0,
        "implant_depth_nm": 75.0,
    }


def default_assembly(**overrides) -> CavityAssembly:
    """Documented membrane-cavity fixture; keyword overrides patch the config."""
    cfg = default_assembly_config()
    cfg.update(overrides)
    return assembly_from_config(cfg)
