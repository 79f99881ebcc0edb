"""Exact computation of the Howe correspondence for finite unitary dual
pairs at the Harish-Chandra level: multiplicity tables for pairs of
series, transport of cuspidal supports, reduction of arbitrary series to
the unipotent case, and extremal image labels.  Everything is certified
against a brute-force character-theory oracle for hyperoctahedral groups.

The public names below load their submodule on first access (PEP 562), so
``import howecorr`` is cheap and a program pays only for the layers it
uses: the W_n oracle (``hyperoctahedral``, ``symmetric``), the reduction
layer (``lusztig``) and ``verify`` load only when asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "errors": ("InternalCheckError", "NonUniqueExtremeError", "RankBoundError"),
    "hyperoctahedral": ("build_character_table", "group_order"),
    "lusztig": (
        "TRIVIAL_GL",
        "CentralizerFactor",
        "CuspidalPair",
        "CuspidalSupport",
        "EigenvalueOrbit",
        "GLCuspidal",
        "GenericCuspidal",
        "OmegaFullDecomposition",
        "SemisimpleDescriptor",
        "UnipotentCuspidal",
        "centralizer_decomposition",
        "match_semisimple",
        "omega_full",
        "orbit_closure",
        "transport_series",
        "transport_support",
    ),
    "partitions": (
        "Bipartition",
        "Partition",
        "bipartition",
        "bipartition_dominance_leq",
        "bipartitions_of",
        "horizontal_strip_additions",
        "partitions_of",
        "vertical_strip_additions",
    ),
    "unipotent": (
        "DEFAULT_SGN_CONVENTION",
        "MultiplicityTable",
        "SeriesLabel",
        "TowerContext",
        "extremal_images",
        "omega_unipotent",
        "pieri_induction",
        "theta_cuspidal",
        "theta_images",
        "witt_index_of_cuspidal",
    ),
    "symmetric": (),  # no public name; listed so that howecorr.symmetric resolves
    "verify": ("CheckResult", "run_verification"),
}
_SUBMODULES = frozenset(_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
