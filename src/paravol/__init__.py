"""Exact parahoric volume engine.

Builds decorated local Dynkin diagrams, computes reductive quotients and
their orders over residue fields, compares parahoric volume factors
symbolically, and assembles arbitrarily large certified families of
coherent collections with equal covolume and pairwise non-conjugate types.
"""

from .construction import (
    CITATIONS,
    CoherentCollection,
    FamilyCertificate,
    Place,
    build_family,
    certify_family,
    make_collection,
    refinement_index,
    relative_covolume,
)
from .diagram import (
    Edge,
    FiniteTypeLabel,
    GroupSpec,
    IWAHORI,
    LocalIndex,
    ParahoricTypeSpec,
    build_local_index,
    induced_subdiagram,
)
from .errors import (
    CertificateError,
    DomainError,
    EqualCharacteristicError,
    FamilySizeError,
    ImproperTypeError,
    IncomparableError,
    InvalidResidueError,
    ParavolError,
    SchemaError,
    UnknownPlaceError,
    UnsupportedTypeError,
)
from .parahoric import (
    HalfPowerRational,
    conjugate_types,
    factor_ratio,
    find_equal_volume_pairs,
)
from .reductive import ReductiveQuotientDescriptor, quotient_descriptor
from .roots import group_dimension

__all__ = [name for name in dir() if not name.startswith("_")]
