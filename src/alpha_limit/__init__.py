"""Eigenvalue location on trees and limit points of A_alpha spectral radii.

The names below are loaded lazily (PEP 562): `import alpha_limit` loads
no submodule, and `alpha_limit.<name>` imports the one submodule that
defines it on first use, so a CLI run compiles only what its command
executes."""

from importlib import import_module

_HOME = dict.fromkeys(
    ("AlphaLambda", "F0", "F1", "F2", "F3", "alpha_star", "corollary_crossover",
     "cubic_discriminant_d", "phi", "quartic_P_alpha", "tau0", "tau1_interval", "tau2"),
    "alpha_theory",
) | dict.fromkeys(
    ("SpectralRadiusResult", "count_eigenvalues_greater", "dense_spectrum_oracle",
     "spectral_radius"),
    "diagonalize",
) | dict.fromkeys(
    ("ConvergenceReport", "ShearerSequence", "build_shearer", "convergence_report",
     "divergence_sum", "epsilon_roots", "pairing_check", "sigma_bound", "verify_window"),
    "shearer",
) | dict.fromkeys(
    ("RootedTree", "WeightedTreeMatrix", "a_alpha_weights", "make_caterpillar",
     "make_path", "make_starlike_1nn"),
    "trees",
)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not cached: the name reads the submodule's attribute each time
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
