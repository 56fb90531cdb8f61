"""repro -- radiation-induced soft-error analysis of SOI FinFET SRAMs.

A faithful, fully open reimplementation of the cross-layer SER flow of
Kiamehr, Osiecki, Tahoori and Nassif, "Radiation-Induced Soft Error
Analysis of SRAMs in SOI FinFET Technology: A Device to Circuit
Approach" (DAC 2014), including every substrate the flow needs:

* a Monte Carlo particle-transport engine (Geant4 substitute) over the
  3-D SOI fin stack (:mod:`repro.transport`, :mod:`repro.physics`,
  :mod:`repro.geometry`),
* a nonlinear MNA circuit simulator with a calibrated 14 nm FinFET
  compact model (:mod:`repro.circuit`, :mod:`repro.devices`),
* 6T SRAM cell characterization into POF LUTs with process-variation
  Monte Carlo (:mod:`repro.sram`),
* array-layout 3-D Monte Carlo, SEU/MBU decomposition and FIT-rate
  integration (:mod:`repro.layout`, :mod:`repro.ser`),
* the orchestrating cross-layer flow (:mod:`repro.core`) and figure
  reproduction helpers (:mod:`repro.analysis`),
* an observability substrate -- metrics registry, tracing spans,
  structured logging and per-run manifests (:mod:`repro.obs`),
  disabled (zero-cost) by default.

Quick start::

    from repro import FlowConfig, SerFlow

    flow = SerFlow(FlowConfig(mc_particles_per_bin=20000))
    result = flow.fit("alpha", vdd_v=0.8)
    print(result.fit_total, result.mbu_to_seu_ratio)

Apart from :mod:`repro.obs`, the names below are imported on first
access (PEP 562), so ``import repro`` -- and every ``repro-ser``
process -- loads only the subpackages it actually uses.
"""

import importlib

from . import obs

__version__ = "1.0.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_ENERGY_RANGES": ".core",
    "FlowConfig": ".core",
    "SerFlow": ".core",
    "FinFETModel": ".devices",
    "TechnologyCard": ".devices",
    "VariationModel": ".devices",
    "default_tech": ".devices",
    "CharacterizationError": ".errors",
    "CircuitError": ".errors",
    "ConfigError": ".errors",
    "ConvergenceError": ".errors",
    "GeometryError": ".errors",
    "PhysicsError": ".errors",
    "ReproError": ".errors",
    "SerializationError": ".errors",
    "FinGeometry": ".geometry",
    "SoiFinWorld": ".geometry",
    "CellLayout": ".layout",
    "SramArrayLayout": ".layout",
    "ALPHA": ".physics",
    "PROTON": ".physics",
    "AlphaEmissionSpectrum": ".physics",
    "SeaLevelProtonSpectrum": ".physics",
    "get_particle": ".physics",
    "CharacterizationConfig": ".sram",
    "PofTable": ".sram",
    "SramCellDesign": ".sram",
    "StrikeScenario": ".sram",
    "characterize_cell": ".sram",
    "ArrayMcConfig": ".ser",
    "ArrayPofResult": ".ser",
    "ArraySerSimulator": ".ser",
    "FitResult": ".ser",
    "SerSweep": ".ser",
    "integrate_fit": ".ser",
    "ElectronYieldLUT": ".transport",
    "TransportConfig": ".transport",
    "TransportEngine": ".transport",
}


def __getattr__(name):
    path = _EXPORTS.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(path, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "__version__",
    # observability
    "obs",
    # flow
    "SerFlow",
    "FlowConfig",
    "DEFAULT_ENERGY_RANGES",
    # devices / technology
    "FinFETModel",
    "TechnologyCard",
    "default_tech",
    "VariationModel",
    # physics / transport
    "ALPHA",
    "PROTON",
    "get_particle",
    "SeaLevelProtonSpectrum",
    "AlphaEmissionSpectrum",
    "TransportEngine",
    "TransportConfig",
    "ElectronYieldLUT",
    "FinGeometry",
    "SoiFinWorld",
    # cell level
    "SramCellDesign",
    "CharacterizationConfig",
    "characterize_cell",
    "PofTable",
    "StrikeScenario",
    # array level
    "CellLayout",
    "SramArrayLayout",
    "ArraySerSimulator",
    "ArrayMcConfig",
    "ArrayPofResult",
    "FitResult",
    "SerSweep",
    "integrate_fit",
    # errors
    "ReproError",
    "ConfigError",
    "GeometryError",
    "PhysicsError",
    "CircuitError",
    "ConvergenceError",
    "CharacterizationError",
    "SerializationError",
]
