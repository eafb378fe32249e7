"""The public API: `paqsim.__all__` is the one list of exported names."""

import importlib
import inspect
import pkgutil
import types

import paqsim
import paqsim.memory

# not exported: test oracles, which live in tests/_oracles.py, the
# serializers, which live in tests/_corpus.py, one-line twins of other
# calls, the CP closures that `CpScheme` replaced, and the timeline op
# types that `CircuitOp` replaced
RETIRED = (
    "CpModel",
    "FidelityReport",
    "PlateOp",
    "TimelineStep",
    "WavePlate",
    "apply_gate",
    "cp_model_scheme1",
    "cp_model_scheme2",
    "distance_up_to_global_phase",
    "fit_pair_frequency",
    "ghz_state",
    "haar_avg_gate_fidelity",
    "haar_weighted_gate_fidelity",
    "jones_matrix",
    "pair_propagator",
    "scheme2_leakage",
    "scheme2_pair_return",
    "serialize_circuit",
    "serialize_timeline",
    "state_fidelity_postselected",
    "success_probability",
)


def test_all_is_sorted_unique_and_the_public_names():
    names = paqsim.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {
        name
        for name, value in vars(paqsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_retired_names_are_gone():
    modules = [paqsim] + [
        importlib.import_module(f"paqsim.{info.name}")
        for info in pkgutil.iter_modules(paqsim.__path__)
        if info.name != "__main__"  # importing it would run the CLI
    ]
    assert len(modules) >= 11
    for name in RETIRED:
        assert name not in paqsim.__all__
        for module in modules:
            assert not hasattr(module, name), (module.__name__, name)


def test_the_atom_engine_keeps_no_switch_or_dict_rounding():
    # the blocker switch and the dict engine's rounding rules are gone
    assert "blocker" not in inspect.signature(paqsim.apply_collective_pulse).parameters
    for name in ("RYDBERG_PRESENCE_TOL", "_farthest_external", "_cmul", "_square_sum"):
        assert not hasattr(paqsim.memory, name), name
