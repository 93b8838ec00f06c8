"""Exception hierarchy.

Every error raised by the library derives from FermionError so callers can
catch the whole family at once. The CLI maps FermionError to exit code 2
(bad input) and verification failures to exit code 1.
"""


class FermionError(Exception):
    """Base class for all library errors."""


class ArgumentError(FermionError, ValueError):
    """Argument outside the values a function accepts: a bad mode, kind, axis or outcome.

    Also a ValueError, which such arguments raised before this class existed,
    so handlers written for that class still catch it.
    """


class MixedParityError(FermionError):
    """State mixes even and odd fermion-number parity sectors."""


class ZeroNormError(FermionError):
    """Vector has (numerically) zero norm where a state is required."""


class DimensionMismatchError(FermionError):
    """Operands live on different mode counts or incompatible shapes."""


class OperatorPropertyError(DimensionMismatchError):
    """Operator fails its declared property (unitary, Hermitian, projector).

    Derives from DimensionMismatchError, which such failures raised before
    this class existed, so handlers written for that class still catch it.
    """


class HermiticityDefectError(FermionError):
    """A matrix that must be Hermitian fails the tolerance check."""


class NotHermitianError(FermionError):
    """Eigensolver input is not Hermitian within tolerance."""


class NotSymplecticError(FermionError):
    """Candidate Bogoliubov map does not preserve the anticommutation form."""


class LiftFailureError(FermionError):
    """Fock-space lift of a Bogoliubov map failed its conjugation check."""


class MemoryBudgetError(FermionError):
    """A dense construction would need more memory than its fixed budget."""


class NotTwoFermionError(FermionError):
    """State is not supported on the two-particle sector."""


class WrongParityError(FermionError):
    """State has the wrong parity tag for the requested quantity."""


class SideMismatchError(FermionError):
    """Partition sides do not cover the modes exactly once."""


class WrongShapeError(FermionError):
    """Partition shape unsupported for the requested decomposition."""


class NotNormalizedError(FermionError):
    """Input coefficients fail their normalization constraint."""


class OverlappingPairsError(FermionError):
    """Two-qubit gate asked to act on encodings that share a mode."""


class ImpossibleBranchError(FermionError):
    """Requested measurement outcome has zero probability."""


class UnknownStateError(FermionError):
    """Decoder input matches none of the expected code states."""


class StateFormatError(FermionError):
    """JSON state document is malformed or internally inconsistent."""
