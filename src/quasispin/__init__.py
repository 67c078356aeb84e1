"""Thermodynamics of cavity-mediated quasi-spin exchange.

The coupling between the quasi-spins is carried by a thermally occupied
cavity mode, so the exchange strength itself grows with temperature. The
package solves the resulting self-consistent mean-field problem, locates
the order/disorder transitions (including reentrant ones), cross-checks
the polarization against exact fixed-spin diagonalization at finite atom
number, and derives the coupling constants from a microscopic level table.

The public names below load their submodule on first use (numpy with it,
except for the numpy-free names of ``base``), so ``import quasispin``
alone imports nothing else; ``python -m quasispin`` relies on that to
configure the process before numpy loads.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it, grouped by submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "base": (
            "DomainError", "FIG1_POINTS", "FIG2_POINTS", "Table", "TransitionLevel",
            "default_theta_max",
        ),
        "thermal": (
            "Couplings", "ModelParams", "SingularLevelError",
            "SINGULARITY_RTOL", "Variant", "coupling_constants", "couplings_at",
            "mean_photon_number", "transition_amplitude",
        ),
        "meanfield": (
            "GapSolution", "NoCriticalPointError", "Phase", "TransitionKind",
            "critical_temperatures", "free_energy_per_atom", "gap_solve", "ordering_measure",
            "population_inversion", "rz_relaxation", "transition_roots", "uniform_grid",
        ),
        "exact": (
            "DickeSpectrum", "GibbsObservables",
            "MAX_LADDER_ATOMS", "compare_meanfield", "dicke_spectrum",
            "gibbs_observables", "ground_state_m",
        ),
        "sweep": (
            "THERMO_COLUMNS", "concat_tables", "figure1_table",
            "figure2_table", "phase_map", "plot_script", "proposed_normalizer", "serialize",
            "sweep_table",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
