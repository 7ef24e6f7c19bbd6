"""Heat-kernel traces and the bosonic spectral action on flat tori,
realized through an Evans-Hudson quantum stochastic flow on boson Fock
space over L2 one-forms.

Layer map:

* ``spectral``  exact trigonometric-polynomial calculus on T^d
* ``structure`` the flow's structure maps (L, delta, theta)
* ``fock``      time meshes and piecewise constant one-form noise paths
* ``flow``      the quantum stochastic flow: matrix elements, Picard
                iteration, time-ordered exponentials, and the pairing
                of flow vectors in Fock space
* ``trace``     heat traces, theta-function cross-checks, spectral action
* ``cli``       the ``torusflow`` command line front end
"""

from .errors import (
    BasisMismatch,
    CapExceeded,
    ConfigInvalid,
    GeometryMismatch,
    IoFailure,
    NotPositive,
    RankMismatch,
    TorusFlowError,
)

__all__ = [
    "BasisMismatch",
    "CapExceeded",
    "ConfigInvalid",
    "GeometryMismatch",
    "IoFailure",
    "NotPositive",
    "RankMismatch",
    "TorusFlowError",
]

__version__ = "0.1.0"
