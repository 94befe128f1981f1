"""Exception hierarchy; DomainError and OutputError map to CLI exit 1, SchemaError to exit 2."""


class ParavolError(Exception):
    pass


class DomainError(ParavolError):
    """Mathematically invalid request (bad type, bad residue, failed certificate)."""


class SchemaError(ParavolError):
    """Malformed input file or JSON not matching the documented schemas."""


class OutputError(ParavolError):
    """The result could not be written: to a closed or failing stdout, or to --output."""


class UnsupportedTypeError(DomainError):
    """Group family/rank/twisted index outside the supported tables."""


class ImproperTypeError(DomainError):
    """Parahoric type is not a proper subset of the diagram vertices."""


class SearchCapError(DomainError):
    """Pair search asked of a diagram with more vertices than it visits."""


class InvalidResidueError(DomainError):
    """Residue size is not a prime power, or inconsistent with its characteristic."""


class UnknownPlaceError(DomainError):
    """Reference to a place id that was never declared."""


class IncomparableError(DomainError):
    """Collections do not share the same group and place data."""


class EqualCharacteristicError(DomainError):
    """Torsion-free refinement needs places of distinct residue characteristic."""


class FamilySizeError(DomainError):
    """A family with more members than a v1 certificate may list (`MAX_FAMILY_MEMBERS`)."""


class CertificateError(DomainError):
    """Family failed certification (unequal covolume or missing witness)."""
