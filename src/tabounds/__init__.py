"""Lower and upper bounds on the quantum capacity of thermal attenuators.

Qubit (generalized amplitude damping) and single-mode bosonic Gaussian
attenuator channels, with brute-force dilation oracles behind every closed
form.  All entropies and rates are in bits.

Each public name is imported from its module on first use, so
``tabounds.report`` loads only the numpy-free ``bounds`` and ``optimize``;
the oracle modules, and numpy with them, load when one of their names is
used.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "BoundsReport": "bounds",
    "DensityMatrix": "linalg",
    "EvaluationError": "optimize",
    "GaussianState": "gaussian",
    "InvalidStateError": "linalg",
    "PhaseInsensitiveParams": "gaussian",
    "QubitAttenuatorParams": "bounds",
    "QubitState": "qubit",
    "ScalarMaxResult": "optimize",
    "TwistedFactors": "gaussian",
    "apply_amplifier_gaussian": "gaussian",
    "apply_attenuator": "qubit",
    "apply_attenuator_gaussian": "gaussian",
    "apply_phase_insensitive": "gaussian",
    "attenuator_as_phase_insensitive": "gaussian",
    "beamsplitter_unitary": "qubit",
    "coherent_information_diagonal": "bounds",
    "coherent_information_gaussian": "gaussian",
    "coherent_information_qubit": "qubit",
    "dilated_state": "qubit",
    "extended_output": "qubit",
    "g_function": "bounds",
    "gauss_lower": "bounds",
    "gauss_upper_extended": "bounds",
    "gauss_upper_plob": "bounds",
    "gauss_upper_swat": "bounds",
    "gauss_upper_twist": "bounds",
    "gaussian_entropy": "gaussian",
    "hermitian_eigenvalues": "linalg",
    "is_entanglement_breaking": "gaussian",
    "maximize_scalar": "optimize",
    "partial_trace": "linalg",
    "phase_damping": "qubit",
    "purified_environment": "qubit",
    "qubit_lower": "bounds",
    "qubit_upper_extended": "bounds",
    "report": "bounds",
    "symplectic_eigenvalues": "gaussian",
    "thermal_state": "gaussian",
    "twisted_decompose": "gaussian",
    "two_mode_squeezed_cov": "gaussian",
    "validate": "bounds",
    "von_neumann_entropy": "linalg",
    "weak_complementary_output": "qubit",
}

__all__ = list(_EXPORTS)


def _export(name: str, module: str) -> property:
    # Each access reads the defining module, so a name patched there (or wrapped
    # by a tracer) is what ``tabounds.<name>`` gives; importlib runs only until
    # that module is loaded.
    def get(_):
        return getattr(sys.modules.get(module) or importlib.import_module(module), name)

    return property(get)


class _Package(types.ModuleType):
    """The package's module type: each public name is a property of it, which
    the attribute lookup finds first, so no lookup of the package namespace
    fails before the name is read, and nothing is cached there."""


for _name, _module in _EXPORTS.items():
    setattr(_Package, _name, _export(_name, f"{__name__}.{_module}"))
del _name, _module
sys.modules[__name__].__class__ = _Package


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
