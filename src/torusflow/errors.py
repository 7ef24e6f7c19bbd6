"""Exception types shared across the package."""


class TorusFlowError(Exception):
    """Base class for all package errors."""


class CapExceeded(TorusFlowError):
    """An operation produced a Fourier mode outside the hard mode cap.

    The cap is a truncation budget, not a projection: any operation whose
    exact result carries a mode k with |k|_inf above the cap refuses to
    silently discard it and raises this instead.
    """


class GeometryMismatch(TorusFlowError):
    """Operands live on tori of different dimension or carry different caps."""


class RankMismatch(TorusFlowError):
    """Tensor contraction of two tensors of different rank."""


class BasisMismatch(TorusFlowError):
    """Flow vectors on different mode spaces, time meshes or depths were
    paired (``flow.flow_inner``), or a full-series vector was paired with
    a truncated one: the full side has no order budget to cut it at, and
    any cut chosen for it would pass a surrogate off as the full series."""


class DepthExceeded(TorusFlowError):
    """Truncated-Fock evolution dropped more amplitude than allowed."""


class NotPositive(TorusFlowError):
    """The positivity probe was handed a generator that is not nonnegative."""


class ConfigInvalid(TorusFlowError):
    """A run configuration violates an invariant; message names the field."""


class IoFailure(TorusFlowError):
    """Report emission failed at the filesystem level."""
