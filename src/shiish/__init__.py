"""Regions, labels and parking functions of the Shi-to-Ish arrangement family.

The namespace is lazy (PEP 562): each public name, and each of the five
library modules, loads its home module on first access, so a command
imports only the modules it runs.
"""

#: Each public name and its home module, in the order of `__all__`.
_HOMES = {
    "ArrangementSpec": "arrangement",
    "BudgetError": "core",
    "BurnReport": "graphs",
    "CentreResult": "parking",
    "Diagram": "arrangement",
    "EquivalenceReport": "verify",
    "Hyperplane": "arrangement",
    "Label": "core",
    "MultiDiGraph": "graphs",
    "Permutation": "core",
    "Region": "arrangement",
    "RegionDescription": "arrangement",
    "RootedGraph": "graphs",
    "SortedTail": "parking",
    "Word": "core",
    "base_region": "arrangement",
    "build_arrangement": "arrangement",
    "build_gkn": "graphs",
    "build_rooted": "graphs",
    "check_budget": "core",
    "check_nk": "core",
    "centre": "parking",
    "classification_report": "parking",
    "compose": "core",
    "count_sweep": "verify",
    "count_tail_parkers": "parking",
    "cross_validate": "verify",
    "describe": "arrangement",
    "dfs_burn": "graphs",
    "draw_diagram": "arrangement",
    "enumerate_regions": "arrangement",
    "graph_to_dot": "graphs",
    "is_ish_parking": "parking",
    "is_k_partial": "parking",
    "is_parking_function": "parking",
    "label_from_description": "arrangement",
    "parks_all_tail": "parking",
    "region_record": "arrangement",
    "rooted_to_dot": "graphs",
    "sigma_characterization": "parking",
    "size_budget": "core",
    "sort_tail": "parking",
    "tree_to_word": "graphs",
}
_MODULES = ("arrangement", "core", "graphs", "parking", "verify")

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import `name`'s home module, bind `name` here and return it."""
    home = _HOMES.get(name, name if name in _MODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if home == name else getattr(module, name)
    return value


def __dir__() -> list[str]:
    """What is bound so far and every public name, bound or not."""
    return sorted({*globals(), *__all__})
