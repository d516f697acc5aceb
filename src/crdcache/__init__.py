"""Cross resolvable designs and the multi-access coded caching scheme they carry.

``import crdcache`` loads only what ``from_spec`` needs: ``caps``,
``errors``, ``gf``, ``designs`` and ``constructions``.  The names from
``baselines``, ``scheme`` and ``simulator``, and those modules themselves,
are loaded on first access (a module ``__getattr__``, PEP 562).
"""

from importlib import import_module

from .caps import DEFAULT_CAPS, SizeCaps
from .constructions import (
    affine_geometry_bibd,
    affine_plane,
    catalog_example,
    from_spec,
    hadamard_crd,
)
from .designs import (
    CrdProfile,
    Design,
    Resolution,
    crd_profile,
    cross_intersection_number,
    design_to_json,
    resolution_from_json,
    users_per_cache_subfile,
    users_per_subfile,
    validate_design,
    validate_resolution,
)
from .errors import CrdCacheError
from .gf import GF

# exported name -> the module that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(("ManPoint", "SpeStructural", "man_point", "spe_structural"), "baselines"),
    **dict.fromkeys(
        (
            "DeliverySchedule",
            "SchemeInstance",
            "SchemeMetrics",
            "build_delivery_schedule",
            "build_scheme",
            "coding_gain",
            "delivery_rate",
            "scheme_metrics",
            "schedule_to_json",
            "user_memory_fraction",
        ),
        "scheme",
    ),
    **dict.fromkeys(
        ("FileStore", "SimulationReport", "decode_user", "encode_payloads", "make_file_store", "verify_all"),
        "simulator",
    ),
}


def __getattr__(name: str):
    if name in ("baselines", "scheme", "simulator"):
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


__version__ = "0.1.0"

__all__ = [
    "CrdCacheError",
    "CrdProfile",
    "DEFAULT_CAPS",
    "DeliverySchedule",
    "Design",
    "FileStore",
    "GF",
    "ManPoint",
    "Resolution",
    "SchemeInstance",
    "SchemeMetrics",
    "SimulationReport",
    "SizeCaps",
    "SpeStructural",
    "affine_geometry_bibd",
    "affine_plane",
    "build_delivery_schedule",
    "build_scheme",
    "catalog_example",
    "coding_gain",
    "crd_profile",
    "cross_intersection_number",
    "decode_user",
    "delivery_rate",
    "design_to_json",
    "encode_payloads",
    "from_spec",
    "hadamard_crd",
    "make_file_store",
    "man_point",
    "resolution_from_json",
    "schedule_to_json",
    "scheme_metrics",
    "spe_structural",
    "user_memory_fraction",
    "users_per_cache_subfile",
    "users_per_subfile",
    "validate_design",
    "validate_resolution",
    "verify_all",
]
