"""Exact counting and enumeration of isomorphism classes of ramification
systems with characters over symmetric groups S_n (n ≠ 6), with a
brute-force verification engine for small n."""

from .centralizer import abelianization_invariants, gamma
from .combinat import multiset_coefficient, weak_compositions
from .counting import (
    Ramification,
    RamificationParseError,
    RSCTypeVector,
    count_rsc,
    decimal_string,
    enumerate_types,
    parse_ramification,
)
from .perm import (
    MAX_CLASS_LIST_N,
    ClassListTooLargeError,
    CycleType,
    InputError,
    UnsupportedGroupError,
    centralizer_order,
    enumerate_cycle_types,
)

__all__ = [
    "ClassListTooLargeError",
    "CycleType",
    "InputError",
    "MAX_CLASS_LIST_N",
    "Ramification",
    "RamificationParseError",
    "RSCTypeVector",
    "UnsupportedGroupError",
    "abelianization_invariants",
    "centralizer_order",
    "count_rsc",
    "decimal_string",
    "enumerate_cycle_types",
    "enumerate_types",
    "gamma",
    "multiset_coefficient",
    "parse_ramification",
    "weak_compositions",
]
