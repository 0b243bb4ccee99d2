"""Verification and enumeration toolkit for internal co-categories.

Four host categories are provided -- finite sets, finitely generated
abelian groups, bounded chain complexes of free groups, and finite
categories -- each implementing the capability interface consumed by
the generic axiom checker and classification cascade in
:mod:`cocat.core`.
"""

from .core import (
    CategoryCapabilities,
    Classification,
    CoCategoryData,
    CocatError,
    PushoutWitness,
    Report,
    check_cocat_morphism,
    check_cocategory,
    classify,
    cokernel_pair,
    find_coinverse,
)

__version__ = "0.1.0"

__all__ = [
    "CategoryCapabilities",
    "Classification",
    "CoCategoryData",
    "CocatError",
    "PushoutWitness",
    "Report",
    "check_cocat_morphism",
    "check_cocategory",
    "classify",
    "cokernel_pair",
    "find_coinverse",
    "__version__",
]
