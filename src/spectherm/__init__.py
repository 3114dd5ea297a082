"""Laplacian spectra on balls, boxes and level files, heat-trace volume
asymptotics, and the thermostatic dual picture built on them.

The public names load lazily (PEP 562): `import spectherm` imports no
submodule, and a name imports only its module: units, thermo or spectra. Only
solve_radial_numeric imports numpy (and scipy, for a nonconstant potential).
"""

from importlib import import_module

__version__ = "0.1.0"

_OWNERS = {
    "spectra": (
        "Spectrum",
        "WeylScanRow",
        "heat_trace",
        "hilbert_dim_min",
        "interval_heat_trace",
        "load_levels",
        "qm_partition",
        "quasistatic_partition",
        "solve_radial_numeric",
        "thermal_partition",
        "weyl_convergence_scan",
        "weyl_volume_estimate",
    ),
    "thermo": (
        "DEGENERACY_REL_TOLERANCE",
        "NEGATIVE_INFINITE_ENTROPY",
        "NoRealSolution",
        "boltzmann_weight_from_entropy",
        "box_modes",
        "duality_map",
        "duality_map_from_temperature",
        "entropy_expectation",
        "entropy_from_density",
        "free_difference_energies",
        "ideal_gas_entropy",
        "interval_energies",
        "radial_wavefunction",
        "sine_integral",
        "solve_fiducial_wavenumber",
        "sphere_energies",
    ),
    "units": ("InputError", "UnitSystem", "kinetic_prefactor", "natural_units"),
}
_OWNER = {name: module for module, names in _OWNERS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value  # resolved once; later lookups skip this hook
    return value
